"""Print the md5 of the structured reports of each benchmark workload's pool.

    python tools/pool_md5.py [--seed N]

Run from anywhere; valkit is imported from this checkout's src/ and the
pools from perfbench/workloads.py, which is only read.  For each of the
four workloads the whole pool of the seed (default 1) runs through
`cli.run` and `cli.render_structured` in pool order, and one line gives
the workload, its instance count and the md5 of the concatenated reports.
CI compares the seed-1 lines with the digests it pins; a change that
alters reports on purpose updates them there and says so.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from valkit import cli  # noqa: E402


def pool_md5(workload: str, seed: int) -> tuple[int, str]:
    """(instances, md5 of their concatenated structured reports)."""
    digest = hashlib.md5()
    pool = workloads.generate(workload, seed)
    for inst in pool:
        report = cli.run(cli.parse_config_dict(inst.config))
        digest.update(cli.render_structured(report).encode("utf-8"))
    return len(pool), digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    for workload in workloads.WORKLOADS:
        count, md5 = pool_md5(workload, args.seed)
        print(workload, count, md5)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
