"""Per-item stage times from a traced pass's span file.

    python3 bench/ladder.py .bench_out/spans-analyze_ladder-1.csv [...]

Prints, for every item of the pass (span run id), the inclusive time of the
pipeline stages in ROADMAP's stage ladder.  A stage's time sums its outermost
spans only, so recursive calls are not counted twice.
"""

from __future__ import annotations

import csv
import os
import re
import sys
from collections import defaultdict

from workloads import WORKLOADS

STAGES = {
    "build": "lie.build_from_cartan",
    "analyze": "spherical.analyze",
    "chambers": "cones.enumerate_chambers",
    "is_admissible": "spherical.is_admissible",
    "little_weyl": "weyl.little_weyl_group",
    "weyl_from_limits": "weyl.weyl_from_limits",
    "spherical_roots": "weyl.spherical_roots",
    "item": "cli.main",
}


def stage_times(path: str) -> dict[int, dict[str, float]]:
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    name = {int(r["id"]): r["name"] for r in rows}
    parent = {int(r["id"]): int(r["parent"]) for r in rows}
    out: dict[int, dict[str, float]] = defaultdict(lambda: dict.fromkeys(STAGES, 0.0))
    wanted = {span: stage for stage, span in STAGES.items()}
    for r in rows:
        sid, span = int(r["id"]), r["name"]
        stage = wanted.get(span)
        if stage is None:
            continue
        p = parent[sid]
        while p >= 0 and name[p] != span:
            p = parent[p]
        if p < 0:
            out[int(r["run"])][stage] += float(r["end_s"]) - float(r["start_s"])
    return out


def main(paths: list[str]) -> int:
    print(f"{'item':18s}" + "".join(f"{s:>17s}" for s in STAGES))
    for path in paths:
        match = re.match(r"spans-(.+)-\d+\.csv$", os.path.basename(path))
        items = WORKLOADS[match.group(1)]["items"](0) if match else []
        for run, times in sorted(stage_times(path).items()):
            label = items[run]["name"] if run < len(items) else str(run)
            print(f"{label:18s}" + "".join(f"{times[s]:17.3f}" for s in STAGES))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
