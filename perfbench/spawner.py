"""Starts, times and reaps the benchmark's child processes.

On Linux a child's ``ru_maxrss`` starts at the peak RSS of the process that
spawned it, so children spawned by a benchmark that has loaded a large
report would all read at least that much.  ``run.py`` starts this small
process before it does any work, and has it run every measured child.

Protocol: one JSON request per line on stdin, with ``argv``, ``stdout``
and ``stderr`` (file paths), ``cwd``, ``env`` and ``limit_s``; one JSON
reply per line on stdout, with ``wall_s`` (spawn to reaped exit),
``started`` and ``ended`` (the same two moments as ``time.perf_counter``
values), ``rss_mb`` (the child's peak RSS) and ``code``.  Exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run_child(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=request["env"], cwd=request["cwd"])
        killer = threading.Timer(request["limit_s"], proc.kill)
        killer.start()
        reaped = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            ended = time.perf_counter()
            reaped = True
        finally:
            killer.cancel()
            killer.join()
            if not reaped:
                proc.kill()
                proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": ended - started, "started": started, "ended": ended,
            "rss_mb": usage.ru_maxrss / 1024, "code": proc.returncode}


if __name__ == "__main__":
    for line in sys.stdin:
        print(json.dumps(run_child(json.loads(line))), flush=True)
