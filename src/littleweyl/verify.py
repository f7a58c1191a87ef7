"""Invariant suites: structural identities, oracle comparisons, regressions.

Each check returns a CheckResult; suites aggregate them and never raise on a
failing identity, so a verification run always produces a complete report
with counterexample details for whatever failed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .catalog import CatalogEntry
from .cones import Cone
from .lie import LieAlgebraData
from .limits import float_flow_oracle, is_order_regular, limit_subspace
from .linalg import Subspace, dot, identity, vec, vec_add, vec_scale, zero_vec
from .serialize import word_entry_from_json
from .spherical import (
    NotAdaptedError,
    SphericalAnalysis,
    WordEntry,
    analyze,
    boundary_degeneration,
    centralizer_in_n_q,
    compression_cone,
    compression_cone_of_point,
    find_admissible,
    g_subspace_to_a,
    is_adapted,
    is_admissible,
    normalizer_in_a,
    order_regular_chambers,
    phi,
    translate,
)
from .weyl import (
    LittleWeylGroup,
    limits_agree_with_walls,
    little_weyl_group,
    spherical_roots,
    weyl_from_limits,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _check(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(ok), detail)


def _guarded(name: str, fn: Callable[[], CheckResult]) -> CheckResult:
    try:
        return fn()
    except Exception as err:  # noqa: BLE001 - report the violation, never crash
        return CheckResult(name, False, f"{type(err).__name__}: {err}")


# ---------------------------------------------------------------------------
# Lie algebra level checks
# ---------------------------------------------------------------------------


def lie_invariants(lie: LieAlgebraData) -> list[CheckResult]:
    out = []
    basis = identity(lie.dim)
    bad = None
    for i in range(lie.dim):
        for j in range(lie.dim):
            for k in range(lie.dim):
                lhs = lie.invariant_form(lie.bracket(basis[i], basis[j]), basis[k])
                rhs = lie.invariant_form(basis[i], lie.bracket(basis[j], basis[k]))
                if lhs != rhs:
                    bad = (i, j, k)
                    break
    out.append(_check("form_invariance", bad is None, f"triple {bad}"))

    bad = None
    for i in range(lie.dim):
        for j in range(lie.dim):
            x, y = basis[i], basis[j]
            if lie.bracket(lie.theta(x), lie.theta(y)) != lie.theta(lie.bracket(x, y)):
                bad = (i, j)
    out.append(_check("theta_automorphism", bad is None, f"pair {bad}"))

    bad = None
    for p, root in enumerate(lie.positive_roots):
        e = basis[lie.e_index(p)]
        f = basis[lie.f_index(p)]
        v = lie.bracket(e, lie.bracket(e, f))
        if all(c == 0 for c in v):
            bad = root
    out.append(
        _check("sl2_nonvanishing", bad is None, f"ad^2(e)f = 0 at root {bad}")
    )

    # root spaces are exact ad(a)-eigenspaces
    bad = None
    for k in range(lie.dim_a):
        xa = basis[k][: lie.dim_a]
        for idx in range(lie.dim):
            expect = vec_scale(dot(lie.weights[idx], xa), basis[idx])
            if lie.bracket(basis[k], basis[idx]) != expect:
                bad = (k, idx)
    out.append(_check("root_space_grading", bad is None, f"pair {bad}"))

    # orthocomplement is an involution on a few coordinate subspaces
    bad = None
    for idxs in ([0], list(range(lie.dim_a)), [lie.dim - 1]):
        s = Subspace.from_coordinates(lie.dim, idxs)
        if lie.orthocomplement(lie.orthocomplement(s)) != s:
            bad = idxs
    out.append(_check("orthocomplement_involution", bad is None, f"indices {bad}"))
    return out


# ---------------------------------------------------------------------------
# Per-space structural suite
# ---------------------------------------------------------------------------


def structural_invariants(analysis: SphericalAnalysis) -> list[CheckResult]:
    lie = analysis.lie
    out = []
    cone = compression_cone(analysis)
    faces = analysis._stage("faces", cone.faces)

    def brion() -> CheckResult:
        f_basis = [
            tuple(Fraction(1 if k == lie.f_index(p) else 0) for k in range(lie.dim))
            for p in analysis.sigma_q
        ]
        t_of = {p: img for p, img in analysis.t_map}
        for row in analysis.a_perp_h.basis_matrix:
            x = lie.a_vector_to_g(row)
            for i, p1 in enumerate(analysis.sigma_q):
                for p2 in analysis.sigma_q[i:]:
                    y1, y2 = f_basis[i], f_basis[analysis.sigma_q.index(p2)]
                    lhs = lie.invariant_form(lie.bracket(x, y1), t_of[p2])
                    rhs = lie.invariant_form(lie.bracket(x, y2), t_of[p1])
                    if lhs != rhs:
                        return _check(
                            "brion_symmetry", False, f"roots {p1},{p2} at X={row}"
                        )
        return _check("brion_symmetry", True)

    out.append(_guarded("brion_symmetry", brion))

    def tperp_prop() -> CheckResult:
        hperp = lie.orthocomplement(analysis.h_z)
        for row, img in zip(analysis.a_circ.basis_matrix, analysis.tperp_map):
            if not hperp.contains_vector(vec_add(lie.a_vector_to_g(row), img)):
                return _check("tperp_defining_property", False, f"X={row}")
        return _check("tperp_defining_property", True)

    out.append(_guarded("tperp_defining_property", tperp_prop))

    neg = Cone.from_inequalities(
        lie.dim_a,
        [
            lie.root_functional(tuple(1 if j == i else 0 for j in range(lie.rank)))
            for i in range(lie.rank)
        ],
    )
    out.append(
        _check(
            "negative_chamber_in_cone",
            cone.contains_cone(neg),
            "a^- is not contained in the compression cone",
        )
    )
    out.append(
        _check(
            "cone_stable_under_a_h",
            all(cone.lineality.contains_vector(r) for r in analysis.a_h.basis_matrix),
            "a_h is not in the cone lineality",
        )
    )

    def edge_norm() -> CheckResult:
        n_a = normalizer_in_a(lie, analysis.h_z)
        return _check(
            "edge_equals_normalizer",
            cone.edge() == n_a,
            f"edge {cone.edge().basis_matrix} vs N_a(h_z) {n_a.basis_matrix}",
        )

    out.append(_guarded("edge_equals_normalizer", edge_norm))

    def faces_suite() -> CheckResult:
        for face in faces:
            deg = boundary_degeneration(analysis, face)
            a_cap = lie.a_subspace().intersect(deg.h_zf)
            a_cap_a = Subspace.from_spanning(
                lie.dim_a, [lie.g_vector_to_a(r) for r in a_cap.basis_matrix]
            )
            if a_cap_a != analysis.a_h:
                return _check("face_suite", False, f"a cap h_F wrong on face dim {face.dim}")
            if normalizer_in_a(lie, deg.h_zf) != face.span():
                return _check(
                    "face_suite", False, f"N_a(h_F) != span(F) on face dim {face.dim}"
                )
            x = face.relative_interior_point()
            if limit_subspace(lie, analysis.h_z, x) != deg.h_zf:
                return _check(
                    "face_suite", False, f"degeneration formula != limit on face dim {face.dim}"
                )
        return _check("face_suite", True)

    out.append(_guarded("face_suite", faces_suite))

    def q_cap() -> CheckResult:
        q_alg = analysis.l_q.add(analysis.n_q)
        return _check(
            "q_cap_h_equals_levi_cap_h",
            q_alg.intersect(analysis.h_z) == analysis.l_cap_h,
            "",
        )

    out.append(_guarded("q_cap_h_equals_levi_cap_h", q_cap))

    def phi_suite() -> CheckResult:
        rng = random.Random(7)
        tested = 0
        for _ in range(40):
            if tested >= 3 or analysis.a_circ.dim == 0:
                break
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(analysis.a_circ.dim)]
            y = zero_vec(lie.dim_a)
            for c, row in zip(coeffs, analysis.a_circ.basis_matrix):
                y = vec_add(y, vec_scale(c, row))
            if not analysis.is_a_circ_regular(y):
                continue
            tested += 1
            n = phi(analysis, y)  # raises if the defining identity fails
            for p in analysis.sigma_q:
                if n[lie.e_index(p)] == 0:
                    continue
                # components occur only at roots with an a-tagged support,
                # and those are nonpositive on the closed compression cone
                if ("a",) not in analysis.support_of(p):
                    return _check(
                        "phi_image_bound", False, f"no a-support at root index {p}"
                    )
                f = lie.root_functional(lie.positive_roots[p])
                if any(dot(f, r) > 0 for r in cone.rays) or any(
                    dot(f, l) != 0 for l in cone.lineality.basis_matrix
                ):
                    return _check(
                        "phi_image_bound", False, f"component at root index {p}"
                    )
        return _check("phi_image_bound", True)

    out.append(_guarded("phi_image_bound", phi_suite))

    def degeneration_cones() -> CheckResult:
        # the compression cone of a boundary degeneration is C + span(F)
        for face in faces:
            deg = boundary_degeneration(analysis, face)
            deg_an = analyze(lie, deg.h_zf)
            got = compression_cone(deg_an)
            want = Cone.from_rays(
                lie.dim_a,
                cone.rays,
                cone.lineality.add(face.span()),
            )
            if got != want:
                return _check(
                    "degeneration_cone_is_sum",
                    False,
                    f"face dim {face.dim}: got {got.rays} want {want.rays}",
                )
        return _check("degeneration_cone_is_sum", True)

    out.append(_guarded("degeneration_cone_is_sum", degeneration_cones))

    def translate_suite() -> CheckResult:
        # torus translates of an adapted point stay adapted with the same
        # a cap h_z and the same cone; unipotent translates by the
        # centralizer of l_Q cap h_z still preserve a cap h_z
        cw = tuple(Fraction(1 if i == 0 else 0) for i in range(lie.dim_a))
        bp = translate(lie, analysis.h_z, [WordEntry.torus(cw, Fraction(2, 3))])
        if not is_adapted(lie, bp.h_z).adapted:
            return _check("translate_suite", False, "torus translate not adapted")
        other = analyze(lie, bp.h_z)
        if other.a_h != analysis.a_h:
            return _check("translate_suite", False, "a cap h_z changed under torus")
        if compression_cone(other) != cone:
            return _check("translate_suite", False, "cone changed under torus")
        zn = centralizer_in_n_q(analysis)
        if zn.dim:
            bp2 = translate(lie, analysis.h_z, [WordEntry.exp(zn.basis_matrix[0])])
            cap = g_subspace_to_a(lie, lie.a_subspace().intersect(bp2.h_z))
            if cap != analysis.a_h:
                return _check(
                    "translate_suite", False, "a cap h_z changed under unipotent"
                )
        return _check("translate_suite", True)

    out.append(_guarded("translate_suite", translate_suite))

    def sweep() -> CheckResult:
        swept = compression_cone_of_point(analysis, analysis.h_z)
        return _check(
            "cone_matches_chamber_sweep",
            swept == cone,
            f"sweep {swept.rays} vs cone {cone.rays}",
        )

    out.append(_guarded("cone_matches_chamber_sweep", sweep))

    def phi_degeneration() -> CheckResult:
        rng = random.Random(11)
        for face in faces:
            deg = boundary_degeneration(analysis, face)
            try:
                deg_an = analyze(lie, deg.h_zf)
            except Exception as err:  # noqa: BLE001
                return _check("phi_degeneration", False, f"degeneration not adapted: {err}")
            x_f = face.relative_interior_point()
            zero_roots = {
                p
                for p in analysis.sigma_q
                if dot(lie.root_functional(lie.positive_roots[p]), x_f) == 0
            }
            for _ in range(20):
                coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(analysis.a_circ.dim)]
                y = zero_vec(lie.dim_a)
                for c, row in zip(coeffs, analysis.a_circ.basis_matrix):
                    y = vec_add(y, vec_scale(c, row))
                if not (analysis.is_a_circ_regular(y) and deg_an.is_a_circ_regular(y)):
                    continue
                full = phi(analysis, y)
                truncated = tuple(
                    c
                    if k >= lie.dim_a
                    and any(k == lie.e_index(p) for p in zero_roots)
                    else Fraction(0)
                    for k, c in enumerate(full)
                )
                if phi(deg_an, y) != truncated:
                    return _check("phi_degeneration", False, f"face dim {face.dim}")
                break
        return _check("phi_degeneration", True)

    out.append(_guarded("phi_degeneration", phi_degeneration))
    return out


def weyl_invariants(
    analysis: SphericalAnalysis, m_lattice: str = "coroot"
) -> tuple[list[CheckResult], LittleWeylGroup | None]:
    out = []
    group = None

    def build() -> CheckResult:
        nonlocal group
        group = little_weyl_group(analysis)  # runs tiling + isometry verification
        return _check("wall_group_closure_and_tiling", True)

    out.append(_guarded("wall_group_closure_and_tiling", build))
    if group is None:
        return out, None

    orders_ok = all(
        m in (1, 2, 3, 4, 6) for row in group.coxeter_orders for m in row
    )
    out.append(
        _check(
            "crystallographic_orders",
            orders_ok,
            f"orders {group.coxeter_orders}",
        )
    )

    def degeneration_groups() -> CheckResult:
        for gen in group.generators:
            deg = boundary_degeneration(analysis, gen.wall)
            deg_an = analyze(analysis.lie, deg.h_zf)
            wg = little_weyl_group(deg_an)
            if wg.order != 2:
                return _check(
                    "degeneration_wall_groups", False, f"order {wg.order} at a wall"
                )
            nontrivial = [m for m in wg.elements if m != identity(wg.quotient.dim)]
            if nontrivial[0] != gen.matrix_on_quotient:
                return _check(
                    "degeneration_wall_groups", False, "wall generator mismatch"
                )
        return _check("degeneration_wall_groups", True)

    out.append(_guarded("degeneration_wall_groups", degeneration_groups))

    def agreement() -> CheckResult:
        report = weyl_from_limits(analysis, m_lattice)
        return _check(
            "limits_agree_with_walls",
            limits_agree_with_walls(analysis, group, report),
            f"limit cosets {report.labels}",
        )

    out.append(_guarded("limits_agree_with_walls", agreement))

    def roots() -> CheckResult:
        sr = spherical_roots(analysis, group)  # verifies lattice preservation
        sym = all(tuple(-x for x in r) in sr.roots for r in sr.roots)
        return _check("spherical_root_symmetry", sym, f"roots {sr.roots}")

    out.append(_guarded("spherical_root_symmetry", roots))
    return out, group


# ---------------------------------------------------------------------------
# Limit oracle suite
# ---------------------------------------------------------------------------


def random_subspace(lie: LieAlgebraData, rng: random.Random, dim: int) -> Subspace:
    while True:
        rows = [
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(lie.dim))
            for _ in range(dim)
        ]
        s = Subspace.from_spanning(lie.dim, rows)
        if s.dim == dim:
            return s


def random_order_regular(lie: LieAlgebraData, rng: random.Random) -> tuple:
    while True:
        x = tuple(Fraction(rng.randint(-6, 6)) for _ in range(lie.dim_a))
        if is_order_regular(lie, x):
            return x


_FLOW_T_MAX = 40.0
_FLOW_TOLERANCE = 1e-6


def limit_oracle_suite(lie: LieAlgebraData, count: int, seed: int = 0) -> list[CheckResult]:
    """Seeded random (E, X) instances: float-flow agreement on well-conditioned
    instances (at least ``count`` of them, flowed to t = _FLOW_T_MAX and
    compared within _FLOW_TOLERANCE) plus the exact dimension, closure,
    a-stability and chamber-constancy identities on every instance drawn.

    Filtration-degenerate instances are points of discontinuity of the limit
    map; the oracle flags them and they are exempt from the float comparison
    but still subject to all exact identities.
    """
    rng = random.Random(seed)
    chambers = order_regular_chambers(lie)
    out = []
    worst = 0.0
    converged = 0
    degenerate = 0
    attempts = 0
    while converged < count and attempts < 3 * count:
        i = attempts
        attempts += 1
        dim_e = rng.randint(1, 3)
        e = random_subspace(lie, rng, dim_e)
        x = random_order_regular(lie, rng)
        lim = limit_subspace(lie, e, x)
        if lim.dim != e.dim:
            out.append(_check("limit_dimension", False, f"instance {i}"))
            return out
        # a-stability for order-regular directions
        for row in identity(lie.dim)[: lie.dim_a]:
            for b in lim.basis_matrix:
                if not lim.contains_vector(lie.bracket(row, b)):
                    out.append(_check("limit_a_stability", False, f"instance {i}"))
                    return out
        # chamber constancy: the limit only depends on the chamber of X
        ch = chambers.chamber_of(x)
        if limit_subspace(lie, e, ch.representative) != lim:
            out.append(_check("limit_chamber_constancy", False, f"instance {i}"))
            return out
        report = float_flow_oracle(lie, e, x, t_max=_FLOW_T_MAX)
        if not report.converged:
            degenerate += 1
            continue
        converged += 1
        worst = max(worst, report.distance)
        if report.distance > _FLOW_TOLERANCE:
            out.append(
                _check(
                    "limit_float_flow_agreement",
                    False,
                    f"instance {i}: distance {report.distance}",
                )
            )
            return out
    out.append(_check("limit_dimension", True))
    out.append(_check("limit_a_stability", True))
    out.append(_check("limit_chamber_constancy", True))
    out.append(
        _check(
            "limit_float_flow_agreement",
            converged >= count,
            f"only {converged} well-conditioned instances",
        )
        if converged < count
        else _check(
            "limit_float_flow_agreement",
            True,
            f"{converged} instances, worst distance {worst:.2e}, "
            f"{degenerate} flagged degenerate",
        )
    )
    # subalgebra closure on bracket-closed inputs
    closure_ok = True
    for i in range(max(4, count // 20)):
        x = random_order_regular(lie, rng)
        n = tuple(
            Fraction(rng.randint(-2, 2)) if k >= lie.dim_a + lie.num_pos else Fraction(0)
            for k in range(lie.dim)
        )
        e = lie.nbar_subspace().add(lie.a_subspace()).transform(lie.exp_ad(n))
        lim = limit_subspace(lie, e, x)
        if not lie.is_subalgebra(lim):
            closure_ok = False
            break
    out.append(_check("limit_subalgebra_closure", closure_ok))
    return out


# ---------------------------------------------------------------------------
# Catalog regression
# ---------------------------------------------------------------------------


def check_claims(
    an: SphericalAnalysis | NotAdaptedError, claims: dict, label: str
) -> list[CheckResult]:
    """Compare the pipeline output with a claims record, field by field.

    ``an`` is the analysis of the space, or the NotAdaptedError that analyze
    raised for it.  Recognized fields: adapted, s_z, indecomposables,
    cone_ineqs, a_h_dim, a_e_dim, w_order, coxeter_type, sigma_z, admissible,
    coset_labels, pair_witness, non_adapted_witness.  Unknown fields are
    ignored.
    """
    out = []
    adapted = isinstance(an, SphericalAnalysis)
    if "adapted" in claims:
        out.append(
            _check(
                f"{label}.adapted",
                adapted == claims["adapted"],
                f"got {adapted} want {claims['adapted']}",
            )
        )
    if not adapted:
        return out
    lie = an.lie
    cone = compression_cone(an)
    group = little_weyl_group(an)
    report = weyl_from_limits(an)
    sr = spherical_roots(an, group)
    admissible, _ = is_admissible(an)

    def cmp(field: str, got, want) -> CheckResult:
        return _check(f"{label}.{field}", got == want, f"got {got} want {want}")

    if "s_z" in claims:
        out.append(cmp("s_z", [list(s.coords) for s in an.s_z], claims["s_z"]))
    if "indecomposables" in claims:
        out.append(
            cmp(
                "indecomposables",
                [list(s.coords) for s in an.indecomposables],
                claims["indecomposables"],
            )
        )
    if "cone_ineqs" in claims:
        want_cone = Cone.from_inequalities(
            lie.dim_a, [vec(g) for g in _expected_cone_ineqs(lie, claims["cone_ineqs"])]
        )
        out.append(cmp("cone", cone, want_cone))
    if "a_h_dim" in claims:
        out.append(cmp("a_h_dim", an.a_h.dim, claims["a_h_dim"]))
    if "a_e_dim" in claims:
        out.append(cmp("a_e_dim", cone.edge().dim, claims["a_e_dim"]))
    if "w_order" in claims:
        out.append(cmp("w_order", group.order, claims["w_order"]))
    if "coxeter_type" in claims:
        out.append(cmp("coxeter_type", group.type_label, claims["coxeter_type"]))
    if "sigma_z" in claims:
        out.append(cmp("sigma_z", [list(r) for r in sr.roots], claims["sigma_z"]))
    if "admissible" in claims:
        out.append(cmp("admissible", admissible, claims["admissible"]))
    if "coset_labels" in claims:
        out.append(
            cmp("coset_labels", sorted(group.coset_labels), sorted(claims["coset_labels"]))
        )
        out.append(
            cmp(
                "limit_coset_labels",
                sorted(report.labels),
                sorted(claims["coset_labels"]),
            )
        )
    if "pair_witness" in claims:
        pair_gens = [g for g in group.generators if g.witness[0] == "pair"]
        ok = bool(pair_gens) and any(
            list(g.witness[3]) == claims["pair_witness"] for g in pair_gens
        )
        out.append(
            _check(
                f"{label}.pair_witness",
                ok,
                f"witnesses {[g.witness for g in group.generators]}",
            )
        )
    if "non_adapted_witness" in claims:
        wit = claims["non_adapted_witness"]
        word = [word_entry_from_json(w, "witness") for w in wit["word"]]
        bp2 = translate(lie, an.h_z, word)
        chk2 = is_adapted(lie, bp2.h_z)
        out.append(
            _check(
                f"{label}.witness_not_adapted",
                not chk2.adapted,
                "witness point is unexpectedly adapted",
            )
        )
        got_cone = compression_cone_of_point(an, bp2.h_z)
        want = Cone.from_inequalities(
            lie.dim_a, [vec(g) for g in _expected_cone_ineqs(lie, wit["cone_ineqs"])]
        )
        out.append(
            _check(
                f"{label}.witness_cone",
                got_cone == want,
                f"got rays {got_cone.rays} want rays {want.rays}",
            )
        )
        out.append(
            _check(
                f"{label}.witness_cone_strictly_smaller",
                cone.contains_cone(got_cone) and cone != got_cone,
                "translate cone is not strictly smaller",
            )
        )
    return out


def check_entry(entry: CatalogEntry) -> list[CheckResult]:
    """Field-by-field comparison of the pipeline output with the expected
    record; a mismatch reports got vs want."""
    try:
        bp = entry.base_point()
    except Exception as err:  # noqa: BLE001
        return [_check(f"{entry.name}.base_point", False, str(err))]
    try:
        an = analyze(entry.lie(), bp.h_z)
    except NotAdaptedError as err:
        an = err
    return check_claims(an, entry.expected, entry.name)


def _expected_cone_ineqs(lie: LieAlgebraData, ineqs: Sequence[Sequence[int]]):
    """Expected inequalities are stored either as a-functionals directly, or
    (when their length is the semisimple rank) as simple-root coordinates."""
    out = []
    for g in ineqs:
        if len(g) == lie.dim_a:
            out.append(tuple(Fraction(c) for c in g))
        elif len(g) == lie.rank:
            out.append(lie.root_functional(tuple(g)))
        else:
            raise ValueError(f"bad inequality length {len(g)}")
    return out


_ORACLE_COUNT = 25


def verify_space(
    lie: LieAlgebraData,
    an: SphericalAnalysis | NotAdaptedError,
    seed: int = 0,
    m_lattice: str = "coroot",
) -> list[CheckResult]:
    """The full per-space verification: structural, Weyl, admissibility and
    the randomized limit oracle on the ambient algebra.  ``an`` is the
    analysis of the space, or the NotAdaptedError that analyze raised for it.
    """
    out = []
    out.extend(lie_invariants(lie))
    if isinstance(an, NotAdaptedError):
        out.append(_check("adapted", False, an.reason))
        return out
    out.append(_check("adapted", True))
    out.extend(structural_invariants(an))
    w_checks, _ = weyl_invariants(an, m_lattice)
    out.extend(w_checks)

    def admissible_search() -> CheckResult:
        res = find_admissible(an, max_iters=10, seed=seed)
        return _check("admissible_point_found", True, res.strategy)

    out.append(_guarded("admissible_point_found", admissible_search))
    out.extend(limit_oracle_suite(lie, _ORACLE_COUNT, seed=seed))
    return out
