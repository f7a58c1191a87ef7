"""One benchmark pass, run by ``run.py`` in a fresh single-threaded interpreter.

    python3 bench/child.py <request-json>

The request is ``{"mode": "setup"|"pass"|"traced", "items": [...], "spans": path}``.
``setup_s`` is the CPU time of ``import littleweyl.cli``, and ``pass_norm_s``
the CPU time of the items, both in units of the reference work sampled while
they run (see ``reference.py``).  ``pass_cpu_s`` (CPU time of this process and
any children it waited for, less the reference samples) and ``pass_s`` (wall
time, samples included) are the plain figures.  A traced pass takes no
reference samples.  Output digests and summaries are taken after the clocks
stop.  The result is one JSON object on stdout.
"""

import sys
import time

import reference

SETUP = reference.Sampler(reference.SETUP_INTERVAL_S)
SETUP.start()

import littleweyl.cli  # noqa: E402  (the import is what setup_s measures)

SETUP.stop()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = littleweyl.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            error = traceback.format_exc(limit=-3)
    return {"rc": rc, "error": error, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


def run_build(cartan_type):
    from littleweyl import build_from_cartan, cartan_matrix_of_type

    try:
        return {"rc": 0, "error": "", "lie": build_from_cartan(cartan_matrix_of_type(cartan_type))}
    except Exception:
        return {"rc": None, "error": traceback.format_exc(limit=-3), "lie": None}


def lie_summary(lie) -> dict:
    """Size and a digest of the bracket table, read through the public API."""
    h = hashlib.sha256()
    h.update(repr([list(r) for r in lie.positive_roots]).encode())
    for i in range(lie.dim):
        for j in range(lie.dim):
            h.update(repr(sorted((k, str(c)) for k, c in lie.bracket_basis(i, j).items())).encode())
    return {"dim": lie.dim, "num_pos": lie.num_pos, "sha256": h.hexdigest()}


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """This process's peak resident set size.  VmHWM belongs to the current
    program image; ru_maxrss would also keep the parent's RSS from before exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    request = json.loads(sys.argv[1])
    result = {"setup_s": SETUP.normalised_seconds()}
    if request["mode"] == "setup":
        print(json.dumps(result))
        return 0
    tracer = sampler = None
    if request["mode"] == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        sampler = reference.Sampler(reference.PASS_INTERVAL_S)
    raw, seconds = [], []
    cpu_start = cpu_seconds()
    start = time.perf_counter()
    if sampler is not None:
        sampler.start()
    for run_id, item in enumerate(request["items"]):
        if tracer is not None:
            tracer.run_id = run_id
        t0 = time.perf_counter()
        raw.append(run_cli(item["argv"]) if item["kind"] == "cli" else run_build(item["type"]))
        seconds.append(time.perf_counter() - t0)
    if sampler is not None:
        sampler.stop()
        result["pass_norm_s"] = sampler.normalised_seconds()
        result["ref_samples"] = len(sampler.samples)
    result["pass_s"] = time.perf_counter() - start
    result["pass_cpu_s"] = cpu_seconds() - cpu_start
    if sampler is not None:
        result["pass_cpu_s"] -= sampler.reference_seconds()
    items = []
    for item, out, s in zip(request["items"], raw, seconds):
        row = {"name": item["name"], "rc": out["rc"], "error": out["error"], "seconds": s}
        if item["kind"] == "cli":
            row["stdout"] = out["stdout"]
            row["stderr"] = out["stderr"]
            row["sha256"] = hashlib.sha256(out["stdout"].encode()).hexdigest()
        elif out["lie"] is not None:
            row.update(lie_summary(out["lie"]))
        items.append(row)
    result["items"] = items
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        result["trace"] = tracer.metrics()
        result["trace_missing"] = tracer.missing
        if request.get("spans"):
            os.makedirs(os.path.dirname(request["spans"]), exist_ok=True)
            tracer.write_spans(request["spans"])
    sys.stdout.write(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
