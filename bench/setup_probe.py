"""Time one set-up of a workload in a fresh interpreter.

Usage: python3 bench/setup_probe.py WORKLOAD SEED

Prints the seconds from the start of this script until the workload's
inputs are ready: importing modwalk (and numpy with it) and building the
inputs from the seed.
"""

from time import perf_counter

_START = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from workloads import WORKLOADS

    WORKLOADS[name].build(seed)
    print(repr(perf_counter() - _START))


if __name__ == "__main__":
    main()
