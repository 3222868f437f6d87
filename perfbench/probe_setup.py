"""Times one workload's set-up in a fresh interpreter: importing lurwit and
building the workload up to its first call. Prints the seconds taken, then
the calibration kernel's time right after (see speed.py).

    python3 perfbench/probe_setup.py WORKLOAD SEED
"""

import sys
import time

import source


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    source.add_source_path()
    start = time.perf_counter()
    import lurwit.cli  # noqa: F401  (the import is what is timed)

    import workloads

    with source.scratch_dir() as tmp:
        workloads.WORKLOADS[workload](seed, tmp).cycle(0)
        elapsed = time.perf_counter() - start
    import speed

    speed.kernel_seconds()  # warm-up
    print(repr(elapsed), repr(speed.calibration_seconds()))


if __name__ == "__main__":
    main()
