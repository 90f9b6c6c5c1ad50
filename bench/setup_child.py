"""Set-up of one workload in a fresh interpreter, timed from ``import nssol``.

    python3 bench/setup_child.py <workload> <seed> <out_dir>

Prints one JSON line: the set-up time in seconds, from the start of
``import nssol`` until the workload's inputs are ready.  Nothing imports
numpy or scipy before the clock starts, so an import that nssol makes
lazy shows here.  Under ``python3 -X importtime`` the interpreter's
import times go to stderr.
"""

import json
import os
import sys
import time


def main():
    workload, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    start = time.perf_counter()
    import nssol  # noqa: F401  (the import is part of what is timed)
    import workloads
    workloads.WORKLOADS[workload](seed, out_dir)
    setup_s = time.perf_counter() - start
    print(json.dumps({"setup_s": setup_s}))


if __name__ == "__main__":
    main()
