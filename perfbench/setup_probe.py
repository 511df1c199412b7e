"""One cold start of a workload: import, build the inputs, run the first job.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the CLOCK_MONOTONIC time at the end of the first job, which the
caller subtracts from the time it started this interpreter.
"""

import sys
import time
from pathlib import Path


def main():
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workloads.WORKLOADS[name](seed).job()
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))


if __name__ == "__main__":
    main()
