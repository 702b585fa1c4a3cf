"""Set-up probe: import the fso command line, then load a workload's inputs.

Run in a fresh process as ``python setup_probe.py <loader> <path>...`` with
the program's ``src`` on ``PYTHONPATH``.  Its wall time from spawn to exit
is everything a command does before its first publish, resolve or step.
"""

import sys

import fso.cli  # noqa: F401  - the import is part of what is measured
from fso import community, diffusion, fractal

LOADERS = {
    "community": community.load_community,
    "fixture": fractal.load_fixture,
    "scenario": diffusion.load_scenario,
}

if __name__ == "__main__":
    load = LOADERS[sys.argv[1]]
    for path in sys.argv[2:]:
        load(path)
