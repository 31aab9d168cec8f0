"""Time the benchmark's set-up in a fresh process: import `zsys` from the
checkout's `src/` and build one workload's pass inputs.  Prints the seconds.

    python3 bench/setup_probe.py NAME SEED

Nothing but what the interpreter loads at start-up is imported before the
timer starts, so the import of `zsys` pays for its own standard-library
imports, as it does in a fresh `zsys` process.
"""

import os
import sys
import time


def main(workload: str, seed: int) -> float:
    t0 = time.perf_counter()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import zsys.cli

    import workloads

    workloads.check_origin(zsys.cli)
    workloads.invocations(workload, seed)
    if workload == "verify":
        workloads.oracle_words(seed)
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(repr(main(sys.argv[1], int(sys.argv[2]))))
