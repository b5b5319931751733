"""Time one set-up in a fresh interpreter: import barrow, build the inputs.

Usage: python3 bench/setup_probe.py <workload> <seed> <src directory>
Prints one JSON object with the two times in seconds.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[3])
import barrow  # noqa: E402
import barrow.cli  # noqa: E402,F401
import barrow.svgmap  # noqa: E402,F401

t1 = time.perf_counter()

import json  # noqa: E402

import workloads  # noqa: E402

t2 = time.perf_counter()
workloads.build_inputs(sys.argv[1], int(sys.argv[2]))
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t3 - t2, "barrow": barrow.__file__}))
