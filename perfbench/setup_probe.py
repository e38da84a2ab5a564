"""Time one cold set-up of a workload and print it in seconds.

Run in a fresh interpreter with constakit's ``src`` on PYTHONPATH:
``python3 perfbench/setup_probe.py roundtrip``.  The time covers importing
constakit and the first build of every cache the workload fills, in
seconds at the reference speed of ``meter``.
"""

import sys
from time import perf_counter

from meter import speed_scale

before = speed_scale()
start = perf_counter()
import workloads  # noqa: E402  (the import is part of what is timed)

setup, _ = workloads.WORKLOADS[sys.argv[1]]
setup()
raw = perf_counter() - start
print(raw * (before + speed_scale()) / 2)
