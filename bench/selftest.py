"""Self-test of the benchmark harness on A1 only; takes a few seconds.

    python3 bench/selftest.py

Runs ``analyze`` on A1/so(2) through the untimed pass path, the traced path
and the output gate, and checks that:

* the untraced result has every end-to-end metric of BENCHMARK.json and
  ``failed == 0``;
* the traced result has every per-layer metric of BENCHMARK.json, the layer
  self times add up to no more than the traced pass, and the call counts
  repeat exactly in a second traced pass;
* a deliberately wrong recorded digest makes every item fail, so
  ``fail_rate`` becomes 1 (no library code is changed for this);
* the oracle rejects a report whose Weyl group order is wrong.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import sys
import time

from run import ROOT, Run, measure, run_child
from tracing import LAYERS
from workloads import check_item, load_digests

A1_ITEM = {"name": "A1", "kind": "cli", "argv": ["analyze", "bench/inputs/A1_so.json", "--json"]}
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def a1_run(digests=None) -> Run:
    return Run("analyze_ladder", 0, 0.0, items=[A1_ITEM], digests=digests)


def a1_stdout() -> str:
    result = run_child({"mode": "pass", "items": [A1_ITEM]}, time.monotonic() + 120)
    return result["items"][0]["stdout"]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}

    plain = measure(a1_run(), trace=False)
    expect(plain["correct"] and plain["failed"] == 0, "untraced A1 pass passes the gate")
    expect(set(plain["metrics"]) == end_to_end, "untraced metrics are the end_to_end list")
    expect(all(m["value"] > 0 for m in plain["metrics"].values()), "end-to-end metrics are positive")

    run = a1_run()
    traced = measure(run, trace=True)
    expect(traced["correct"], "traced A1 pass passes the gate")
    expect(set(traced["metrics"]) == per_layer, "traced metrics are the per_layer list")
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    expect(m["spherical.analyze.calls"] >= 1 and m["linalg.rref.calls"] >= 1, "spans were recorded")
    self_total = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    longest = max(run.item_seconds["A1"])
    expect(0 < self_total <= longest, f"layer self times {self_total:.4f} s fit in a pass ({longest:.4f} s)")
    again = measure(a1_run(), trace=True)["metrics"]
    counts = [k for k in m if k.endswith((".calls", ".count"))]
    expect(all(again[k]["value"] == m[k] for k in counts), "call counts repeat exactly")

    digests = load_digests()
    digests["analyze_ladder/A1"] = "0" * 64
    wrong = measure(a1_run(digests), trace=False)
    expect(
        wrong["failed"] == wrong["attempted"] >= 1 and not wrong["correct"],
        f"a wrong recorded digest fails every item ({wrong['failed']} of {wrong['attempted']})",
    )

    report = json.loads(a1_stdout())
    report["weyl"]["order"] += 1
    row = {"name": "A1", "rc": 0, "error": "", "stdout": json.dumps(report)}
    problems = check_item("analyze_ladder", row, 0, load_digests())
    expect(any("weyl.order" in p for p in problems), "the sympy oracle rejects a wrong Weyl order")

    print(f"selftest: {len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
