"""Command-line front end.

Subcommands: analyze, limit, degenerate, admissible, verify, catalog.
Exit codes: 0 success, 1 usage, parse or input errors (and failed verification),
2 base point not adapted, 3 internal contract diagnostics.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import catalog as catalog_mod
from .lie import LieAlgebraData, LieAlgebraError
from .limits import limit_subspace
from .linalg import Subspace
from .serialize import (
    SCHEMA_VERSION,
    SpaceFileError,
    cone_to_json,
    dumps_canonical,
    frac_str,
    load_space_file,
    parse_frac,
    space_from_json,
    subspace_to_json,
    vec_to_json,
    word_entry_to_json,
)
from .spherical import (
    BasePoint,
    ContractViolation,
    NotAdaptedError,
    admissible_cells,
    analyze,
    boundary_degeneration,
    cell_cap_dims,
    chamber_limits,
    compression_cone,
    cone_faces,
    find_admissible,
    is_admissible,
    order_regular_chambers,
)
from .verify import (
    CheckResult,
    check_claims,
    structural_invariants,
    verify_space,
)
from .weyl import (
    limit_coset,
    limits_agree_with_walls,
    little_weyl_group,
    spherical_roots,
    weyl_from_limits,
)


def _load_space(source: str) -> tuple[LieAlgebraData, BasePoint, dict]:
    """A catalog entry by name, else a space file; both through one parser."""
    try:
        space = catalog_mod.get_entry(source).space
    except KeyError:
        return load_space_file(source)
    return space_from_json(space)


def _fmt_vec(v) -> str:
    return "(" + ", ".join(frac_str(x) for x in v) + ")"


def _fmt_rows(s: Subspace) -> str:
    if s.dim == 0:
        return "{0}"
    return "; ".join(_fmt_vec(r) for r in s.basis_matrix)


def _fmt_functional(f) -> str:
    terms = []
    for i, c in enumerate(f):
        if c != 0:
            coeff = frac_str(c)
            terms.append(f"{coeff}*x{i + 1}")
    return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def build_report(
    lie: LieAlgebraData,
    bp: BasePoint,
    source: str,
    m_lattice: str = "coroot",
) -> dict:
    """The full analysis pipeline as a JSON-ready report; the base point
    must be admissible, since the limit stage reads W from its chambers."""
    an = analyze(lie, bp.h_z)
    chambers = _chambers_json(an)
    admissible = is_admissible(an)
    if not admissible:
        n_ok = sum(c["ok"] for c in chambers)
        raise SpaceFileError(
            f"the base point is not admissible ({n_ok}/{len(chambers)} chambers "
            "pass); `littleweyl admissible` searches its orbit for one that is"
        )
    cone = compression_cone(an)
    group = little_weyl_group(an)
    limit_cosets = weyl_from_limits(an, m_lattice)
    agreement = limits_agree_with_walls(an, m_lattice)
    sr = spherical_roots(an)

    def root_coords(p: int) -> list[int]:
        return list(lie.positive_roots[p])

    report = {
        "schema_version": SCHEMA_VERSION,
        "space": {
            "source": source,
            "dim_g": lie.dim,
            "dim_a": lie.dim_a,
            "rank": lie.rank,
            "center_dim": lie.center_dim,
            "cartan_matrix": [list(r) for r in lie.cartan_matrix],
            "h_z": subspace_to_json(bp.h_z),
            "base_point_word": [word_entry_to_json(w) for w in bp.word],
        },
        "adaptedness": {"adapted": True, "reason": ""},
        "q": {
            "sigma_q": [root_coords(p) for p in an.sigma_q],
            "levi_roots": [root_coords(p) for p in an.sigma0],
            "dim_l_q": an.l_q.dim,
            "dim_l_q_nc": an.l_q_nc.dim,
            "dim_n_q": an.n_q.dim,
            "a_h": subspace_to_json(an.a_h),
            "a_circ": subspace_to_json(an.a_circ),
        },
        "t": {
            "map": [
                {"root": root_coords(p), "image": vec_to_json(img)}
                for p, img in an.t_map
            ],
            "supports": [
                {
                    "root": root_coords(p),
                    "tags": [
                        "a" if tag == ("a",) else {"root": root_coords(tag[1])}
                        for tag in tags
                    ],
                }
                for p, tags in an.supports
            ],
            "s_z": [list(s.coords) for s in an.s_z],
            "indecomposables": [list(s.coords) for s in an.indecomposables],
        },
        "cone": {
            **cone_to_json(cone),
            "edge": subspace_to_json(cone.edge()),
            "edge_dim": cone.edge().dim,
            "is_all_of_a": cone.lineality.dim == lie.dim_a,
            "walls": [cone_to_json(g.wall) for g in group.generators],
        },
        "admissibility": {
            "admissible": admissible,
            "chambers": chambers,
        },
        "weyl": {
            "order": group.order,
            "type": group.type_label,
            "generators": [
                {
                    "weight": list(g.weight.coords),
                    "witness": _witness_json(g.witness),
                    "matrix_on_quotient": [vec_to_json(r) for r in g.matrix_on_quotient],
                }
                for g in group.generators
            ],
            "coset_labels": list(group.coset_labels),
            "coxeter_orders": [list(r) for r in group.coxeter_orders],
            "limit_cosets": sorted(c.label for c in limit_cosets),
            "agreement": agreement,
        },
        "spherical_roots": {
            "lattice_basis": [list(b) for b in sr.lattice_basis],
            "roots": [list(r) for r in sr.roots],
        },
    }
    checks = structural_invariants(an)
    checks.append(
        CheckResult("limits_agree_with_walls", agreement, "")
    )
    checks.append(CheckResult("admissible_base_point", admissible, ""))
    report["verification"] = {
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
        "all_ok": all(c.ok for c in checks),
    }
    return report


def _chambers_json(an) -> list[dict]:
    """One row per order-regular chamber, read off the chamber table and the
    limit of the chamber's block cell."""
    caps, ok = cell_cap_dims(an), admissible_cells(an)
    _, cells = chamber_limits(an, an.h_z)
    return [
        {
            "signs": signs,
            "representative": vec_to_json(rep),
            "dim_limit_cap_a": caps[cell],
            "ok": ok[cell],
        }
        for (signs, rep), cell in zip(order_regular_chambers(an.lie).rows(), cells)
    ]


def _witness_json(witness) -> dict:
    if witness[0] == "root":
        return {"kind": "root", "weight": list(witness[1])}
    return {
        "kind": "orthogonal-pair",
        "beta": list(witness[1]),
        "gamma": list(witness[2]),
        "coroot_span_meets_a_h_at": vec_to_json(witness[3]),
    }


def _print_human_report(report: dict) -> None:
    sp = report["space"]
    print(f"space: {sp['source']} (dim g = {sp['dim_g']}, dim a = {sp['dim_a']})")
    print("adapted: yes")
    q = report["q"]
    print(
        f"Sigma(Q): {q['sigma_q']}   Levi roots: {q['levi_roots'] or '(none)'}   "
        f"dim l_Q = {q['dim_l_q']}, dim n_Q = {q['dim_n_q']}"
    )
    print(f"a_h: {q['a_h'] or '{0}'}")
    t = report["t"]
    print(f"S_z: {t['s_z'] or '(empty)'}   indecomposables: {t['indecomposables'] or '(empty)'}")
    cone = report["cone"]
    if cone["is_all_of_a"]:
        print("compression cone: all of a")
    else:
        ineqs = ", ".join(
            _fmt_functional([parse_frac(x) for x in g]) + " <= 0"
            for g in cone["inequalities"]
        )
        rays = ", ".join("(" + ", ".join(r) + ")" for r in cone["rays"])
        print(f"compression cone: {{ {ineqs} }}, rays: {rays or '(none)'}")
    print(f"edge dimension: {cone['edge_dim']}   walls: {len(cone['walls'])}")
    adm = report["admissibility"]
    n_ok = sum(1 for c in adm["chambers"] if c["ok"])
    print(f"admissible: {'yes' if adm['admissible'] else 'no'} ({n_ok}/{len(adm['chambers'])} chambers)")
    w = report["weyl"]
    if w["order"] == 1:
        print("little Weyl group: trivial (order 1)")
    else:
        print(f"little Weyl group: order {w['order']}, type {w['type']}")
    for g in w["generators"]:
        print(f"  generator at weight {g['weight']}: witness {g['witness']}")
    print(f"coset labels: {', '.join(w['coset_labels'])}")
    print(f"limit cosets: {', '.join(w['limit_cosets'])}")
    print(f"agreement with wall group: {'yes' if w['agreement'] else 'no'}")
    roots = report["spherical_roots"]["roots"]
    print(f"spherical roots: {roots or '(none)'}")
    ver = report["verification"]
    n_ok = sum(1 for c in ver["checks"] if c["ok"])
    print(f"verification: {n_ok}/{len(ver['checks'])} invariant checks pass")
    for c in ver["checks"]:
        if not c["ok"]:
            print(f"  FAIL {c['name']}: {c['detail']}")


def cmd_analyze(args) -> int:
    lie, bp, _ = _load_space(args.space)
    report = build_report(lie, bp, args.space, m_lattice=args.m_lattice)
    if args.json:
        sys.stdout.write(dumps_canonical(report))
    else:
        _print_human_report(report)
    return 0


# ---------------------------------------------------------------------------
# limit
# ---------------------------------------------------------------------------


def cmd_limit(args) -> int:
    lie, bp, _ = _load_space(args.space)
    try:
        direction = tuple(parse_frac(c.strip(), "direction") for c in args.direction.split(","))
    except SpaceFileError as err:
        raise SpaceFileError(f"malformed direction vector: {err}") from err
    if len(direction) != lie.dim_a:
        raise SpaceFileError(
            f"direction has {len(direction)} entries, expected {lie.dim_a}"
        )
    lim = limit_subspace(lie, bp.h_z, direction)
    cap = lim.intersect(lie.a_subspace())
    coset = _match_coset(lie, bp, lim, args.m_lattice)
    out = {
        "schema_version": SCHEMA_VERSION,
        "direction": vec_to_json(direction),
        "limit": subspace_to_json(lim),
        "dim_limit_cap_a": cap.dim,
        "coset": coset,
    }
    if args.json:
        sys.stdout.write(dumps_canonical(out))
    else:
        print(f"direction: {_fmt_vec(direction)}")
        print(f"limit subalgebra (dim {lim.dim}): {_fmt_rows(lim)}")
        print(f"dim(limit cap a) = {cap.dim}")
        print(f"matched coset: {coset or '(none)'}")
    return 0


def _match_coset(lie, bp: BasePoint, lim: Subspace, m_lattice: str) -> str | None:
    try:
        an = analyze(lie, bp.h_z)
    except NotAdaptedError:
        return None
    coset = limit_coset(an, lim, m_lattice)
    return coset.label if coset else None


# ---------------------------------------------------------------------------
# degenerate
# ---------------------------------------------------------------------------


def cmd_degenerate(args) -> int:
    lie, bp, _ = _load_space(args.space)
    an = analyze(lie, bp.h_z)
    faces = cone_faces(an)
    if args.face is None:
        rows = [
            {
                "index": i,
                "dim": f.dim,
                "rays": [vec_to_json(r) for r in f.rays],
                "lineality_dim": f.lineality.dim,
            }
            for i, f in enumerate(faces)
        ]
        if args.json:
            sys.stdout.write(dumps_canonical({"schema_version": SCHEMA_VERSION, "faces": rows}))
        else:
            print(f"{len(faces)} faces of the compression cone closure:")
            for r in rows:
                print(f"  [{r['index']}] dim {r['dim']}, rays {r['rays'] or '(none)'}")
        return 0
    if not 0 <= args.face < len(faces):
        raise SpaceFileError(f"face index out of range 0..{len(faces) - 1}")
    deg = boundary_degeneration(an, faces[args.face])
    out = {
        "schema_version": SCHEMA_VERSION,
        "face": cone_to_json(deg.face),
        "monoid_generators": [list(s.coords) for s in deg.monoid_generators],
        "h_zF": subspace_to_json(deg.h_zf),
        "dim": deg.h_zf.dim,
    }
    if args.json:
        sys.stdout.write(dumps_canonical(out))
    else:
        print(f"face dim {deg.face.dim}, monoid generators {out['monoid_generators']}")
        print(f"degeneration (dim {deg.h_zf.dim}): {_fmt_rows(deg.h_zf)}")
    return 0


# ---------------------------------------------------------------------------
# admissible
# ---------------------------------------------------------------------------


def cmd_admissible(args) -> int:
    lie, bp, _ = _load_space(args.space)
    an = analyze(lie, bp.h_z)
    res = find_admissible(an, max_iters=args.max_iters, seed=args.seed)
    chambers = _chambers_json(res.analysis)
    out = {
        "schema_version": SCHEMA_VERSION,
        "strategy": res.strategy,
        "attempts": res.attempts,
        "word": [word_entry_to_json(w) for w in res.point.word],
        "h_z": subspace_to_json(res.point.h_z),
        "admissible": is_admissible(res.analysis),
        "chambers": chambers,
    }
    if args.json:
        sys.stdout.write(dumps_canonical(out))
    else:
        print(f"admissible point found via {res.strategy} ({res.attempts} attempts)")
        print(f"word: {out['word'] or '(base point itself)'}")
        print(f"chambers: {sum(c['ok'] for c in chambers)}/{len(chambers)} pass")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    targets = []
    if args.all:
        targets = [e.name for e in catalog_mod.list_entries()]
    targets += args.spaces
    if not targets:
        raise SpaceFileError("verify needs a space, a catalog name, or --all")
    rows = []
    for source in targets:
        lie, bp, claims = _load_space(source)
        try:
            an = analyze(lie, bp.h_z)
        except NotAdaptedError as err:
            an = err
        if claims:
            rows += [
                (source, r) for r in check_claims(an, claims, source, args.m_lattice)
            ]
        rows += [
            (source, r)
            for r in verify_space(lie, an, seed=args.seed, m_lattice=args.m_lattice)
        ]
    failures = [(s, r) for s, r in rows if not r.ok]
    if args.json:
        sys.stdout.write(
            dumps_canonical(
                {
                    "schema_version": SCHEMA_VERSION,
                    "checks": [
                        {"space": s, "name": r.name, "ok": r.ok, "detail": r.detail}
                        for s, r in rows
                    ],
                    "passed": len(rows) - len(failures),
                    "failed": len(failures),
                }
            )
        )
    else:
        for s, r in rows:
            mark = "PASS" if r.ok else "FAIL"
            detail = f"  [{r.detail}]" if r.detail and not r.ok else ""
            print(f"{mark} {s}: {r.name}{detail}")
        print(f"{len(rows) - len(failures)} passed, {len(failures)} failed")
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def cmd_catalog(args) -> int:
    entries = catalog_mod.list_entries()
    if args.export:
        try:
            os.makedirs(args.export, exist_ok=True)
            for e in entries:
                path = os.path.join(args.export, f"{e.name}.json")
                with open(path, "w") as fh:
                    fh.write(dumps_canonical(e.space))
        except OSError as err:
            raise SpaceFileError(f"cannot export to {args.export}: {err.strerror or err}") from err
        print(f"wrote {len(entries)} space files to {args.export}")
        return 0
    if args.json:
        sys.stdout.write(
            dumps_canonical(
                {
                    "schema_version": SCHEMA_VERSION,
                    "entries": [
                        {
                            "name": e.name,
                            "description": e.description,
                            "cartan_type": e.space["lie_algebra"]["cartan_type"],
                            "expected_w_order": e.space["claims"]["w_order"],
                            "expected_type": e.space["claims"]["coxeter_type"],
                        }
                        for e in entries
                    ],
                }
            )
        )
    else:
        for e in entries:
            cartan_type, claims = e.space["lie_algebra"]["cartan_type"], e.space["claims"]
            print(
                f"{e.name:18s} {cartan_type:6s} |W| = {claims['w_order']}"
                f" ({claims['coxeter_type']:7s}) {e.description}"
            )
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1, the code of every other input error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def positive_int(text: str) -> int:
    if (n := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def _parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
        prog="littleweyl",
        description=(
            "Exact computation of compression cones, limit subalgebras, "
            "boundary degenerations and little Weyl groups of split real "
            "spherical pairs."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    def space_command(name, help):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("space", help="catalog entry name or space file path")
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        return sp

    def m_lattice(sp):
        sp.add_argument(
            "--m-lattice",
            choices=("coroot", "coweight"),
            default="coroot",
            help="lattice generating the sign-character model of Ad(M)",
        )

    m_lattice(space_command("analyze", "run the full pipeline"))
    sp = space_command("limit", "limit subalgebra along a direction in a")
    m_lattice(sp)
    sp.add_argument(
        "--direction",
        required=True,
        help='rational vector "c1,c2,..."; use --direction=-1,2 for a leading minus',
    )
    sp = space_command("degenerate", "boundary degeneration along a face")
    sp.add_argument("--face", type=int, default=None, help="face index (omit to list)")
    sp = space_command("admissible", "search for an admissible point")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-iters", type=positive_int, default=10)
    sp = sub.add_parser("verify", help="run the invariant suites")
    sp.add_argument("spaces", nargs="*", help="catalog names or space files")
    sp.add_argument("--all", action="store_true", help="verify the whole catalog")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    m_lattice(sp)
    sp = sub.add_parser("catalog", help="list or export the built-in spaces")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--export", metavar="DIR", help="write space files to DIR")
    return p


_COMMANDS = {
    "analyze": cmd_analyze,
    "limit": cmd_limit,
    "degenerate": cmd_degenerate,
    "admissible": cmd_admissible,
    "verify": cmd_verify,
    "catalog": cmd_catalog,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SpaceFileError, LieAlgebraError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NotAdaptedError as err:
        print(f"not adapted at base point: {err.reason}", file=sys.stderr)
        return 2
    except ContractViolation as err:
        print(f"internal contract violated: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
