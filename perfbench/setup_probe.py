"""Prints the time a fresh interpreter takes to import valkit and to
generate and parse one workload's configs: measured seconds, then seconds
at the reference speed of speed.py.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""
import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from valkit.cli import parse_config_dict  # noqa: E402

import workloads  # noqa: E402

configs = [parse_config_dict(inst.config) for inst in workloads.generate(sys.argv[1], int(sys.argv[2]))]
elapsed = time.perf_counter() - _START

import statistics  # noqa: E402

from speed import REF_KERNEL_S, Speed  # noqa: E402

speed = Speed()
for _ in range(3):
    speed.sample(force=True)
print(elapsed, elapsed * REF_KERNEL_S / statistics.median(speed.kernel_s))
