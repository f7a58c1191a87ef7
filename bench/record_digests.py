"""Record the output digests that the benchmark's gate enforces.

    python3 bench/record_digests.py

Runs every workload's items once in a fresh interpreter, exactly as a pass
does, and writes ``bench/digests.json``: the sha256 of each CLI stdout, of
each built algebra's bracket table, and, for ``verify --all``, of the report
for seeds 0..31 (float-flow distance masked) plus its seed-independent
skeleton.  Re-recording is only legitimate when an output is meant to change;
the JSON reports are otherwise required to stay byte-identical.
"""

from __future__ import annotations

import json
import sys
import time

from run import run_child
from workloads import DIGESTS_PATH, WORKLOADS, digest_keys

VERIFY_SEEDS = 32


def item_digests(workload: str, seed: int) -> dict:
    items = WORKLOADS[workload]["items"](seed)
    result = run_child({"mode": "pass", "items": items}, time.monotonic() + 600)
    if "crash" in result:
        raise SystemExit(f"{workload}: {result['crash']}")
    out = {}
    for row in result["items"]:
        if row["rc"] != 0 or row["error"]:
            raise SystemExit(f"{workload}/{row['name']} failed: {row['error'] or row['stderr']}")
        if "stdout" in row:
            out.update(digest_keys(workload, row["name"], seed, row["stdout"]))
        else:
            out[f"{workload}/{row['name']}"] = row["sha256"]
    return out


def main() -> int:
    digests: dict[str, str] = {}
    for workload, spec in WORKLOADS.items():
        for seed in range(VERIFY_SEEDS) if spec["seeded"] else [0]:
            got = item_digests(workload, seed)
            skeleton = digests.get("verify_catalog/skeleton")
            if skeleton and got.get("verify_catalog/skeleton", skeleton) != skeleton:
                raise SystemExit(f"verify skeleton differs at seed {seed}")
            digests.update(got)
            print(f"{workload} seed {seed}: {len(got)} digests", flush=True)
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
