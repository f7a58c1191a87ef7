"""The benchmark's workloads and the output gate that checks every item.

A workload is a fixed list of items run in order by one pass.  An item is a
CLI invocation (``littleweyl.cli.main(argv)``) or a cold ``build_from_cartan``.
Space files are given as paths relative to the repository root, which is the
working directory of every pass, so each report's ``source`` field and hence
its digest do not depend on where the checkout lives.

The gate checks each item against an oracle that does not share code with
littleweyl (``sympy.liealgebras`` for root counts and Weyl group orders) and
against the sha256 digests recorded in ``digests.json``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")
LADDER = ("A1", "A2", "B2", "G2")
CONSTRUCT = ("B3", "D4")
A3_CHAMBERS = 240


def _space(cartan_type: str) -> str:
    return f"bench/inputs/{cartan_type}_so.json"


def _analyze(cartan_type: str) -> dict:
    argv = ["analyze", _space(cartan_type), "--json"]
    return {"name": cartan_type, "kind": "cli", "argv": argv}


WORKLOADS = {
    "analyze_ladder": {
        "why": "analyze --json on g/so for A1, A2, B2, G2; weyl_from_limits and "
        "the dense weyl_lift dominate, with verify and spherical behind",
        "seeded": False,
        "items": lambda seed: [_analyze(t) for t in LADDER],
    },
    "admissible_A3": {
        "why": "admissible --json on A3/so(4): 240-chamber enumeration and "
        "limit_subspace dominate, the weyl layer does no work",
        "seeded": False,
        "items": lambda seed: [
            {"name": "A3", "kind": "cli", "argv": ["admissible", _space("A3"), "--json"]}
        ],
    },
    "verify_catalog": {
        "why": "verify --all over the 6-entry catalog: invariant suites, float "
        "flow oracle, random and non-spherical inputs; seed feeds --seed",
        "seeded": True,
        "items": lambda seed: [
            {
                "name": "catalog",
                "kind": "cli",
                "argv": ["verify", "--all", "--json", "--seed", str(seed)],
            }
        ],
    },
    "construct_rank34": {
        "why": "cold build_from_cartan for B3 and D4: the only workload where "
        "the lie layer (validate) dominates",
        "seeded": False,
        "items": lambda seed: [{"name": t, "kind": "build", "type": t} for t in CONSTRUCT],
    },
}


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

# The float-flow oracle's worst distance comes from LAPACK QR/SVD, whose last
# bits may depend on the CPU's BLAS kernels; it is masked before pinning.
_FLOAT_DETAIL = re.compile(r"worst distance [-+0-9.eE]+")


def verify_skeleton(stdout: str) -> str:
    """The seed-independent part of a verify report: every check's space,
    name and verdict, and the totals."""
    report = json.loads(stdout)
    rows = [[c["space"], c["name"], c["ok"]] for c in report["checks"]]
    return json.dumps({"checks": rows, "passed": report["passed"], "failed": report["failed"]})


def digest_keys(workload: str, item_name: str, seed: int, stdout: str) -> dict:
    """Digest key -> sha256 of this item's output, for every pinned form."""
    sha = lambda s: hashlib.sha256(s.encode()).hexdigest()  # noqa: E731
    if workload == "verify_catalog":
        masked = _FLOAT_DETAIL.sub("worst distance <float>", stdout)
        return {
            f"verify_catalog/seed={seed}": sha(masked),
            "verify_catalog/skeleton": sha(verify_skeleton(stdout)),
        }
    return {f"{workload}/{item_name}": sha(stdout)}


def load_digests() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Independent oracle
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def sympy_facts(cartan_type: str) -> dict:
    from sympy.liealgebras.root_system import RootSystem
    from sympy.liealgebras.weyl_group import WeylGroup

    rank = int(cartan_type[1:])
    roots = len(RootSystem(cartan_type).all_roots())
    return {
        "roots": roots,
        "dim": rank + roots,
        "weyl_order": int(WeylGroup(cartan_type).group_order()),
    }


def _check_analyze(name: str, report: dict) -> list[str]:
    facts = sympy_facts(name)
    w = report["weyl"]
    problems = []
    if w["order"] != facts["weyl_order"]:
        problems.append(f"weyl.order {w['order']} != sympy {facts['weyl_order']}")
    if w["type"] != name:
        problems.append(f"weyl.type {w['type']!r} != {name!r}")
    if report["space"]["dim_g"] != facts["dim"]:
        problems.append(f"dim_g {report['space']['dim_g']} != sympy {facts['dim']}")
    for path in (("weyl", "agreement"), ("verification", "all_ok"), ("admissibility", "admissible")):
        if report[path[0]][path[1]] is not True:
            problems.append(".".join(path) + " is not true")
    return problems


def _check_admissible(name: str, report: dict) -> list[str]:
    problems = []
    if report["admissible"] is not True:
        problems.append("admissible is not true")
    if len(report["chambers"]) != A3_CHAMBERS:
        problems.append(f"{len(report['chambers'])} chambers, expected {A3_CHAMBERS}")
    return problems


def _check_verify(name: str, report: dict) -> list[str]:
    if report["failed"] != 0 or report["passed"] < 1:
        return [f"verify: {report['failed']} failed, {report['passed']} passed"]
    return []


def _check_build(name: str, row: dict) -> list[str]:
    facts = sympy_facts(name)
    problems = []
    if row.get("dim") != facts["dim"]:
        problems.append(f"dim {row.get('dim')} != rank + roots = {facts['dim']}")
    if row.get("num_pos") != facts["roots"] // 2:
        problems.append(f"num_pos {row.get('num_pos')} != {facts['roots'] // 2}")
    return problems


REPORT_ORACLES = {
    "analyze_ladder": _check_analyze,
    "admissible_A3": _check_admissible,
    "verify_catalog": _check_verify,
}


def check_item(workload: str, row: dict, seed: int, digests: dict) -> list[str]:
    """Every reason this item's output is wrong; empty when it passes."""
    if row.get("rc") != 0 or row.get("error"):
        return [f"exit {row.get('rc')}: {(row.get('error') or row.get('stderr') or '').strip()[-300:]}"]
    name = row["name"]
    if workload == "construct_rank34":
        problems = _check_build(name, row)
        got = {f"{workload}/{name}": row.get("sha256")}
    else:
        try:
            problems = REPORT_ORACLES[workload](name, json.loads(row["stdout"]))
        except (ValueError, KeyError, TypeError) as err:
            return [f"malformed report: {err!r}"]
        got = digest_keys(workload, name, seed, row["stdout"])
    for key, value in got.items():
        want = digests.get(key)
        # Full verify digests are pinned for a range of seeds only; the
        # skeleton digest covers every seed.
        if want is None and not key.startswith("verify_catalog/seed="):
            problems.append(f"no recorded digest for {key}")
        elif want is not None and value != want:
            problems.append(f"digest {key} is {value}, recorded {want}")
    return problems
