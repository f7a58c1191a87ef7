"""littleweyl benchmark: cold-process CLI passes with an exact output gate.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Every pass is a fresh single-threaded
interpreter (``bench/child.py``) that imports ``littleweyl.cli`` from ``src/``
and runs the workload's items once, so each pass pays for the Lie algebra
build and the chamber enumeration exactly as a CLI user does.  Passes run one
at a time until the next one would end after ``--seconds``; at least one
always runs.

``--trace 0`` reports the end-to-end metrics, each the median over the run's
samples: ``setup_s`` (CPU time of ``import littleweyl.cli`` in a fresh
interpreter), ``pass_norm_s`` (CPU time of one pass over the items) and
``peak_rss_mb`` (the pass process's peak resident set).  Both times are in
units of the fixed reference work of ``reference.py``, sampled in the same
process while they run, because on a shared virtual machine the speed of a
CPU second changes by a factor of 1.7 within minutes; see ``README.md``.  The
pass's plain CPU time ``pass_cpu_s`` and its wall time ``pass_s`` are printed
too but not gated.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
``tracing.py`` plus ``trace.overhead_ratio``.  Every item of every pass goes through the output
gate of ``workloads.py``; ``failed`` counts items that exited non-zero,
raised, or failed the gate.  The last line of stdout is the JSON result; the
lines above it give quartiles, sample counts and ``fail_rate``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, check_item, load_digests  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
SPAN_DIR = os.path.join(ROOT, ".bench_out")
# Every run must end well inside 180 s; no pass may start after this.
HARD_LIMIT_S = 165.0
# setup_s is the median of at least this many fresh interpreters per run.
SETUP_SAMPLES = 9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class HarnessError(RuntimeError):
    """The benchmark cannot measure this checkout (nothing is reported)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # The untimed warm-up import writes the byte-compiled modules, so that
    # setup_s never includes compiling littleweyl.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(request: dict, deadline: float) -> dict:
    """Run one child process to completion and return its parsed result.

    A child that crashes or overruns the deadline yields ``{"crash": reason}``
    so that its items count as failed."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return {"crash": "no time left before the run's hard limit"}
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, json.dumps(request)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"crash": f"pass exceeded {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"crash": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    try:
        return json.loads(proc.stdout)
    except ValueError:
        return {"crash": f"unreadable child output: {proc.stdout[-200:]!r}"}


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, items=None, digests=None) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.items = items if items is not None else WORKLOADS[workload]["items"](seed)
        self.digests = digests if digests is not None else load_digests()
        self.start = time.monotonic()
        self.deadline = self.start + HARD_LIMIT_S
        self.attempted = 0
        # (pass index, item name) -> reasons; an item fails once per pass.
        self.failures: dict[tuple[int, str], list[str]] = {}
        self.stdout_sha: dict[str, dict[int, str]] = {}
        self.item_seconds: dict[str, list[float]] = {}

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def warm_up(self) -> None:
        """Import the program once, untimed, so that byte-compiled modules
        exist; a checkout without the program stops the benchmark here."""
        result = run_child({"mode": "setup"}, self.deadline)
        if "crash" in result:
            raise HarnessError(f"cannot import littleweyl.cli from {ROOT}/src: {result['crash']}")

    def setup_sample(self) -> dict:
        result = run_child({"mode": "setup"}, self.deadline)
        if "crash" in result:
            raise HarnessError(f"setup-only interpreter failed: {result['crash']}")
        return result

    def one_pass(self, traced: bool, index: int) -> dict | None:
        request = {"mode": "traced" if traced else "pass", "items": self.items}
        if traced:
            request["spans"] = os.path.join(SPAN_DIR, f"spans-{self.workload}-{index}.csv")
        result = run_child(request, self.deadline)
        self.attempted += len(self.items)
        if "crash" in result:
            for it in self.items:
                self.fail(index, it["name"], result["crash"])
            return None
        for row in result["items"]:
            self.item_seconds.setdefault(row["name"], []).append(row["seconds"])
            if "sha256" in row:
                self.stdout_sha.setdefault(row["name"], {})[index] = row["sha256"]
            for problem in check_item(self.workload, row, self.seed, self.digests):
                self.fail(index, row["name"], problem)
        return result

    def fail(self, index: int, name: str, reason: str) -> None:
        self.failures.setdefault((index, name), []).append(reason)

    def passes(self, modes: list[bool]) -> dict[bool, list[dict]]:
        """Run passes, cycling through ``modes`` (traced flags), until the
        next one is predicted to end after ``--seconds``.  Each mode runs at
        least once."""
        done: dict[bool, list[dict]] = {m: [] for m in modes}
        longest: dict[bool, float] = {}
        k = 0
        while True:
            traced = modes[k % len(modes)]
            t0 = time.monotonic()
            result = self.one_pass(traced, k)
            longest[traced] = max(longest.get(traced, 0.0), time.monotonic() - t0)
            if result is not None:
                done[traced].append(result)
            k += 1
            nxt = modes[k % len(modes)]
            all_ran = k >= len(modes)
            estimate = longest.get(nxt, max(longest.values()))
            if all_ran and self.elapsed() + estimate > self.seconds:
                return done
            if self.elapsed() + estimate > HARD_LIMIT_S:
                return done

    def finish_gate(self) -> None:
        """Outputs must also be byte-identical across the passes of a run."""
        for name, by_pass in sorted(self.stdout_sha.items()):
            if len(set(by_pass.values())) > 1:
                for index in by_pass:
                    self.fail(index, name, "stdout differs between passes")


def summary(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def print_metric(name: str, values: list[float], unit: str) -> None:
    med, q1, q3 = summary(values)
    print(f"{name:40s} {med:12.6g} {unit:6s} q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")


def untraced(run: Run) -> dict:
    by_mode = run.passes([False])
    results = by_mode[False]
    setups = list(results)
    while len(setups) < SETUP_SAMPLES:
        setups.append(run.setup_sample())
    if not results:
        raise HarnessError("every pass crashed; nothing was measured")
    samples = {
        "setup_s": ([r["setup_s"] for r in setups], "s"),
        "pass_norm_s": ([r["pass_norm_s"] for r in results], "s"),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in results], "MB"),
    }
    for name, (values, unit) in samples.items():
        print_metric(name, values, unit)
    print_metric("pass_cpu_s (not gated)", [r["pass_cpu_s"] for r in results], "s")
    print_metric("pass_s (wall, not gated)", [r["pass_s"] for r in results], "s")
    print_metric("reference samples per pass", [r["ref_samples"] for r in results], "count")
    return {name: {"value": statistics.median(v), "unit": u} for name, (v, u) in samples.items()}


def traced(run: Run) -> dict:
    by_mode = run.passes([False, True])
    plain, with_trace = by_mode[False], by_mode[True]
    if not plain or not with_trace:
        raise HarnessError("no complete untraced and traced pass pair was measured")
    missing = with_trace[0].get("trace_missing") or []
    if missing:
        print(f"traced names not found in littleweyl: {', '.join(missing)}", file=sys.stderr)
    metrics = {}
    for name in with_trace[0]["trace"]:
        values = [r["trace"][name] for r in with_trace]
        is_count = name.endswith((".calls", ".count"))
        if is_count and len(set(values)) > 1:
            print(f"warning: {name} differs between traced passes: {values}", file=sys.stderr)
        unit = "count" if is_count else "s"
        print_metric(name, values, unit)
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    ratio = statistics.median(r["pass_cpu_s"] for r in with_trace) / statistics.median(
        r["pass_cpu_s"] for r in plain
    )
    print_metric("trace.overhead_ratio", [ratio], "ratio")
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    return metrics


def measure(run: Run, trace: bool) -> dict:
    """Run the workload and return the result object that ``main`` prints."""
    run.warm_up()
    metrics = traced(run) if trace else untraced(run)
    run.finish_gate()
    for (index, name), reasons in sorted(run.failures.items()):
        for reason in reasons:
            print(f"FAIL pass {index} {name}: {reason}", file=sys.stderr)
    for name, secs in sorted(run.item_seconds.items()):
        print(f"item {name:10s} median {statistics.median(secs):.4f} s over {len(secs)} passes")
    failed = len(run.failures)
    print(f"{'fail_rate':40s} {failed / run.attempted:12.6g} ratio  ({failed} of {run.attempted} items)")
    print(f"elapsed {run.elapsed():.1f} s")
    return {"correct": failed == 0, "attempted": run.attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "littleweyl")):
        print(f"error: no littleweyl sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    print(f"workload {args.workload}: {spec['why']}")
    print(f"seed {args.seed}: " + ("passed to verify --seed" if spec["seeded"] else "unused, the inputs are fixed"))
    try:
        result = measure(Run(args.workload, args.seed, args.seconds), bool(args.trace))
    except HarnessError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
