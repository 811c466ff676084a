"""Set-up probe: a fresh interpreter imports qwalk and builds one network.

    python3 bench/setup_probe.py jeong <levels> <gamma>
    python3 bench/setup_probe.py robens <gamma>

Prints one JSON line with the import and build times, then exits; the
caller times the whole process from spawn to that line.
"""
import json
import math
import sys
import time

t0 = time.perf_counter()
import qwalk.cli  # noqa: E402  (the import is what is being timed)
t1 = time.perf_counter()
if sys.argv[1] == "jeong":
    net = qwalk.network.build_jeong(int(sys.argv[2]), math.pi / 2, -math.pi / 2,
                                    float(sys.argv[3]))
else:
    net = qwalk.network.build_robens(float(sys.argv[2]))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "units": len(net.units)}),
      flush=True)
