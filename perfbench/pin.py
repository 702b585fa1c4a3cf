"""Rewrite ``golden.json``: the sha256 of every output for seed 0.

Run from the root of a checkout whose outputs are known to be right::

    python3 perfbench/pin.py

Only needed when a generator in ``workloads.py`` changes its inputs; the
command line's outputs are byte-stable for equal inputs, so a change to the
program must never need a new pin.
"""

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    golden = {}
    with run.Spawner() as spawner:
        for name, generate in workloads.GENERATORS.items():
            work = run.WORK / f"pin-{name}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                case = generate(work, run.GOLDEN_SEED)
                result = spawner.run([sys.executable, "-m", "fso.cli", *case.argv], work)
                problems = case.check(case, result["stdout"]) if result["code"] == 0 else [
                    f"{name}: exit code {result['code']}: {result['stderr']}"]
                if problems:
                    print("\n".join(problems), file=sys.stderr)
                    return 1
                golden[name] = workloads.output_digests(case)
            finally:
                shutil.rmtree(work, ignore_errors=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
    print(f"wrote {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
