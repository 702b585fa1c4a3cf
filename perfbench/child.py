"""Runs a measured command with the core-speed sampler beside it.

    python child.py <samples.json> -m fso.cli <args>...
    python child.py <samples.json> <script.py> <args>...

Pins itself to ``speed.pinned_core()``, starts a ``speed.Sampler`` and runs
the module or script as ``__main__``, exactly as ``python -m fso.cli`` or
``python <script.py>`` would.  On the way out, however the program ends, it
writes the samples to ``<samples.json>`` as a list of ``[start, loop_s]``.
"""

import json
import os
import runpy
import sys

import speed


def main():
    samples_path, target, *rest = sys.argv[1:]
    os.sched_setaffinity(0, {speed.pinned_core()})
    sampler = speed.Sampler()
    sampler.start()
    try:
        if target == "-m":
            sys.argv = rest
            runpy.run_module(rest[0], run_name="__main__", alter_sys=True)
        else:
            sys.argv = [target, *rest]
            runpy.run_path(target, run_name="__main__")
    finally:
        sampler.stop()
        with open(samples_path, "w", encoding="utf-8") as fh:
            json.dump(sampler.samples, fh)


if __name__ == "__main__":
    main()
