"""Every workload's end-to-end metrics from one command.

    python3 bench/report.py [--seed N] [--seconds S]

Runs each workload untraced, as ``run.py --trace 0`` does, and prints
``setup_s``, ``pass_norm_s``, ``peak_rss_mb`` and ``fail_rate`` (and, ungated,
``pass_cpu_s`` and the wall time ``pass_s``) with their units:
the median, the quartiles and the sample count.  Exits 1 if any item failed.
"""

from __future__ import annotations

import argparse
import sys

from run import Run, measure
from workloads import WORKLOADS


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35)
    args = p.parse_args()
    failed = 0
    for workload in WORKLOADS:
        print(f"== {workload}")
        failed += measure(Run(workload, args.seed, args.seconds), trace=False)["failed"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
