"""Invariant suites: structural identities, oracle comparisons, regressions.

Every check gives a CheckResult row, and a failing identity fails its row
without raising, so a verification run always produces a complete report
with counterexample details for whatever failed.  A structural, Weyl,
admissible-search or limit oracle check is a function returning
(ok, detail): run_checks names its row after the function, and an exception
inside it fails that row alone with the detail "Type: message".  Only the
Lie algebra identities, check_claims and the ``adapted`` rows build their
rows directly.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .cones import Cone, fraction_view
from .lie import LieAlgebraData
from .limits import float_flow_oracle, is_order_regular, limit_subspace
from .linalg import Subspace, combination, dot, identity, sparse_combination, vec, vec_add
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
    cone_faces,
    degeneration_analysis,
    find_admissible,
    g_subspace_to_a,
    is_adapted,
    is_admissible,
    normalizer_in_a,
    order_regular_chambers,
    phi,
    stage,
    translate,
)
from . import weyl
from .weyl import little_weyl_group, spherical_roots, weyl_from_limits


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def run_checks(*checks: Callable[[], tuple[bool, str]]) -> list[CheckResult]:
    """One row per check, named by the check function: its (ok, detail), or
    a failed row with the exception's type and message if the check raises."""
    out = []
    for check in checks:
        try:
            ok, detail = check()
        except Exception as err:  # noqa: BLE001 - report the violation, never crash
            ok, detail = False, f"{type(err).__name__}: {err}"
        out.append(CheckResult(check.__name__, bool(ok), detail))
    return out


# ---------------------------------------------------------------------------
# Lie algebra level checks
# ---------------------------------------------------------------------------


def _sparse(v: Sequence) -> dict[int, Fraction]:
    return {k: c for k, c in enumerate(v) if c != 0}


def lie_invariants(lie: LieAlgebraData) -> list[CheckResult]:
    """The identities of g on its basis, read from the sparse brackets
    [x_i, x_j] = br[i][j], the form rows and theta of each basis vector."""
    out = []
    dim = lie.dim
    br = lie.bracket_table
    form = [_sparse(row) for row in lie.form_matrix]
    # ad_rows[j][l] = {k: coefficient of x_l in [x_j, x_k]}
    ad_rows: list[list[dict[int, Fraction]]] = [[{} for _ in range(dim)] for _ in range(dim)]
    for j in range(dim):
        for k in range(dim):
            for l, c in br[j][k].items():
                ad_rows[j][l][k] = c

    # B([x_i, x_j], x_k) = B(x_i, [x_j, x_k]), both sides as rows over k;
    # the first failing triple is reported
    bad = None
    for i in range(dim):
        for j in range(dim):
            lhs = sparse_combination((c, form[l]) for l, c in br[i][j].items())
            rhs = sparse_combination((f, ad_rows[j][l]) for l, f in form[i].items())
            if lhs != rhs:
                bad = (i, j, min(k for k in lhs.keys() | rhs.keys() if lhs.get(k) != rhs.get(k)))
                break
        if bad is not None:
            break
    out.append(CheckResult("form_invariance", bad is None, f"triple {bad}"))

    bad = None
    th = [_sparse(lie.theta(b)) for b in identity(dim)]
    for i in range(dim):
        for j in range(dim):
            lhs = sparse_combination(
                (c * d, br[l][m]) for l, c in th[i].items() for m, d in th[j].items()
            )
            if lhs != sparse_combination((c, th[l]) for l, c in br[i][j].items()):
                bad = (i, j)
    out.append(CheckResult("theta_automorphism", bad is None, f"pair {bad}"))

    bad = None
    for p, root in enumerate(lie.positive_roots):
        e, f = lie.e_index(p), lie.f_index(p)
        if not sparse_combination((c, br[e][l]) for l, c in br[e][f].items()):
            bad = root
    out.append(CheckResult("sl2_nonvanishing", bad is None, f"ad^2(e)f = 0 at root {bad}"))

    # root spaces are exact ad(a)-eigenspaces
    bad = None
    for k in range(lie.dim_a):
        for idx in range(dim):
            w = lie.weights[idx][k]
            if sparse_combination([(1, br[k][idx])]) != ({idx: w} if w != 0 else {}):
                bad = (k, idx)
    out.append(CheckResult("root_space_grading", bad is None, f"pair {bad}"))

    # orthocomplement is an involution on a few coordinate subspaces
    bad = None
    for idxs in ([0], list(range(lie.dim_a)), [lie.dim - 1]):
        s = Subspace.from_coordinates(lie.dim, idxs)
        if lie.orthocomplement(lie.orthocomplement(s)) != s:
            bad = idxs
    out.append(CheckResult("orthocomplement_involution", bad is None, f"indices {bad}"))
    return out


# ---------------------------------------------------------------------------
# Per-space structural suite
# ---------------------------------------------------------------------------


def structural_invariants(analysis: SphericalAnalysis) -> list[CheckResult]:
    lie = analysis.lie
    cone = compression_cone(analysis)
    faces = cone_faces(analysis)

    def brion_symmetry():
        basis = identity(lie.dim)
        f_basis = [basis[lie.f_index(p)] for p in analysis.sigma_q]
        t_of = {p: img for p, img in analysis.t_map}
        for row in analysis.a_perp_h.basis_matrix:
            x = lie.a_vector_to_g(row)
            for i, p1 in enumerate(analysis.sigma_q):
                for p2 in analysis.sigma_q[i:]:
                    y1, y2 = f_basis[i], f_basis[analysis.sigma_q.index(p2)]
                    lhs = lie.invariant_form(lie.bracket(x, y1), t_of[p2])
                    rhs = lie.invariant_form(lie.bracket(x, y2), t_of[p1])
                    if lhs != rhs:
                        return False, f"roots {p1},{p2} at X={row}"
        return True, ""

    def tperp_defining_property():
        hperp = lie.orthocomplement(analysis.h_z)
        for row, img in zip(analysis.a_circ.rows, analysis.tperp_map):
            if not hperp.contains_vector(vec_add(lie.a_vector_to_g(row), img)):
                return False, f"X={row}"
        return True, ""

    def negative_chamber_in_cone():
        neg = Cone.from_inequalities(lie.dim_a, map(lie.root_functional, identity(lie.rank)))
        return cone.contains_cone(neg), "a^- is not contained in the compression cone"

    def cone_stable_under_a_h():
        ok = all(cone.lineality.contains_vector(r) for r in analysis.a_h.rows)
        return ok, "a_h is not in the cone lineality"

    def edge_equals_normalizer():
        n_a = normalizer_in_a(lie, analysis.h_z)
        return (
            cone.edge() == n_a,
            f"edge {cone.edge().basis_matrix} vs N_a(h_z) {n_a.basis_matrix}",
        )

    def face_suite():
        for face in faces:
            deg = boundary_degeneration(analysis, face)
            a_cap = lie.a_subspace().intersect(deg.h_zf)
            a_cap_a = Subspace.from_spanning(
                lie.dim_a, [lie.g_vector_to_a(r) for r in a_cap.rows]
            )
            if a_cap_a != analysis.a_h:
                return False, f"a cap h_F wrong on face dim {face.dim}"
            if normalizer_in_a(lie, deg.h_zf) != face.span():
                return False, f"N_a(h_F) != span(F) on face dim {face.dim}"
            x = face.relative_interior_point()
            if limit_subspace(lie, analysis.h_z, x) != deg.h_zf:
                return False, f"degeneration formula != limit on face dim {face.dim}"
        return True, ""

    def q_cap_h_equals_levi_cap_h():
        q_alg = analysis.l_q.add(analysis.n_q)
        return q_alg.intersect(analysis.h_z) == analysis.l_cap_h, ""

    def phi_image_bound():
        rng = random.Random(7)
        tested = 0
        for _ in range(40):
            if tested >= 3 or analysis.a_circ.dim == 0:
                break
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(analysis.a_circ.dim)]
            y = combination(coeffs, analysis.a_circ.basis_matrix, lie.dim_a)
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
                    return False, f"no a-support at root index {p}"
                f = lie.weights[lie.e_index(p)]
                if any(dot(f, r) > 0 for r in cone.rays) or any(
                    dot(f, l) != 0 for l in cone.lineality.basis_matrix
                ):
                    return False, f"component at root index {p}"
        return True, ""

    def degeneration_cone_is_sum():
        # the compression cone of a boundary degeneration is C + span(F)
        for face in faces:
            got = compression_cone(degeneration_analysis(analysis, face))
            want = Cone.from_rays(lie.dim_a, cone.rays, cone.lineality.add(face.span()))
            if got != want:
                return False, (
                    f"face dim {face.dim}: got {fraction_view(got.rays)} "
                    f"want {fraction_view(want.rays)}"
                )
        return True, ""

    def translate_suite():
        # torus translates of an adapted point stay adapted with the same
        # a cap h_z and the same cone; unipotent translates by the
        # centralizer of l_Q cap h_z still preserve a cap h_z
        cw = tuple(Fraction(1 if i == 0 else 0) for i in range(lie.dim_a))
        bp = translate(lie, analysis.h_z, [WordEntry.torus(cw, Fraction(2, 3))])
        try:
            other = analyze(lie, bp.h_z)
        except NotAdaptedError:
            return False, "torus translate not adapted"
        if other.a_h != analysis.a_h:
            return False, "a cap h_z changed under torus"
        if compression_cone(other) != cone:
            return False, "cone changed under torus"
        zn = centralizer_in_n_q(analysis)
        if zn.dim:
            bp2 = translate(lie, analysis.h_z, [WordEntry.exp(zn.basis_matrix[0])])
            cap = g_subspace_to_a(lie, lie.a_subspace().intersect(bp2.h_z))
            if cap != analysis.a_h:
                return False, "a cap h_z changed under unipotent"
        return True, ""

    def cone_matches_chamber_sweep():
        swept = compression_cone_of_point(analysis, analysis.h_z)
        return (
            swept == cone,
            f"sweep {fraction_view(swept.rays)} vs cone {fraction_view(cone.rays)}",
        )

    def phi_degeneration():
        rng = random.Random(11)
        for face in faces:
            # outside the try: a failed degeneration is not a non-adapted one
            boundary_degeneration(analysis, face)
            try:
                deg_an = degeneration_analysis(analysis, face)
            except Exception as err:  # noqa: BLE001
                return False, f"degeneration not adapted: {err}"
            x_f = face.relative_interior_point()
            zero_roots = {
                p
                for p in analysis.sigma_q
                if dot(lie.weights[lie.e_index(p)], x_f) == 0
            }
            for _ in range(20):
                coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(analysis.a_circ.dim)]
                y = combination(coeffs, analysis.a_circ.basis_matrix, lie.dim_a)
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
                    return False, f"face dim {face.dim}"
                break
        return True, ""

    return run_checks(
        brion_symmetry,
        tperp_defining_property,
        negative_chamber_in_cone,
        cone_stable_under_a_h,
        edge_equals_normalizer,
        face_suite,
        q_cap_h_equals_levi_cap_h,
        phi_image_bound,
        degeneration_cone_is_sum,
        translate_suite,
        cone_matches_chamber_sweep,
        phi_degeneration,
    )


def weyl_invariants(analysis: SphericalAnalysis, m_lattice: str = "coroot") -> list[CheckResult]:
    def wall_group_closure_and_tiling():
        little_weyl_group(analysis)  # runs tiling + isometry verification
        return True, ""

    built = run_checks(wall_group_closure_and_tiling)
    if not built[0].ok:
        return built
    group = little_weyl_group(analysis)

    def crystallographic_orders():
        ok = all(m in (1, 2, 3, 4, 6) for row in group.coxeter_orders for m in row)
        return ok, f"orders {group.coxeter_orders}"

    def degeneration_wall_groups():
        for gen in group.generators:
            wg = little_weyl_group(degeneration_analysis(analysis, gen.wall))
            if wg.order != 2:
                return False, f"order {wg.order} at a wall"
            nontrivial = [m for m in wg.elements if m != identity(wg.quotient.dim)]
            if nontrivial[0] != gen.matrix_on_quotient:
                return False, "wall generator mismatch"
        return True, ""

    def limits_agree_with_walls():
        labels = tuple(sorted(c.label for c in weyl_from_limits(analysis, m_lattice)))
        return weyl.limits_agree_with_walls(analysis, m_lattice), f"limit cosets {labels}"

    def spherical_root_symmetry():
        sr = spherical_roots(analysis)  # verifies lattice preservation
        return all(tuple(-x for x in r) in sr.roots for r in sr.roots), f"roots {sr.roots}"

    return built + run_checks(
        crystallographic_orders,
        degeneration_wall_groups,
        limits_agree_with_walls,
        spherical_root_symmetry,
    )


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
    """A random order-regular integer point of a.  The first 10 000 draws
    are from [-6, 6]^dim_a; then the box doubles every 1 000 draws, since a
    small box may hold no order-regular point at all (F4 has none in
    [-6, 6]^4)."""
    for n in itertools.count():
        width = 6 if n < 10_000 else 12 << (n - 10_000) // 1_000
        x = tuple(Fraction(rng.randint(-width, width)) for _ in range(lie.dim_a))
        if is_order_regular(lie, x):
            return x


_FLOW_T_MAX = 40.0
_FLOW_TOLERANCE = 1e-6


@stage
def limit_oracle_suite(lie: LieAlgebraData, count: int, seed: int = 0) -> tuple[CheckResult, ...]:
    """Seeded random (E, X) instances: float-flow agreement on well-conditioned
    instances (at least ``count`` of them, flowed to t = _FLOW_T_MAX and
    compared within _FLOW_TOLERANCE) plus the exact dimension, a-stability
    and chamber-constancy identities on every instance drawn, and subalgebra
    closure on max(4, count // 20) bracket-closed inputs.

    Filtration-degenerate instances are points of discontinuity of the limit
    map; the oracle flags them and they are exempt from the float comparison
    but still subject to all exact identities.

    All inputs are drawn before the checks run, so a failing check fails its
    own row only.  The rows are a stage of the algebra.
    """
    rng = random.Random(seed)
    instances = []  # (E, X, exact limit, float flow report), in draw order
    converged = 0
    while converged < count and len(instances) < 3 * count:
        e = random_subspace(lie, rng, rng.randint(1, 3))
        x = random_order_regular(lie, rng)
        lim = limit_subspace(lie, e, x)
        flow = float_flow_oracle(lie, e, x, t_max=_FLOW_T_MAX)
        instances.append((e, x, lim, flow))
        converged += flow.converged
    closure_inputs = []  # (X, n) with n in nbar
    for _ in range(max(4, count // 20)):
        x = random_order_regular(lie, rng)
        n = tuple(
            Fraction(rng.randint(-2, 2)) if k >= lie.dim_a + lie.num_pos else Fraction(0)
            for k in range(lie.dim)
        )
        closure_inputs.append((x, n))

    def first_failure(fails: Callable[[Subspace, tuple, Subspace], bool]) -> tuple[bool, str]:
        bad = next((i for i, (e, x, lim, _) in enumerate(instances) if fails(e, x, lim)), None)
        return bad is None, "" if bad is None else f"instance {bad}"

    def limit_dimension():
        return first_failure(lambda e, x, lim: lim.dim != e.dim)

    def limit_a_stability():
        # ad(a) preserves the limit along an order-regular direction
        a_basis = identity(lie.dim)[: lie.dim_a]
        return first_failure(
            lambda e, x, lim: any(
                not lim.contains_vector(lie.bracket(h, b)) for h in a_basis for b in lim.rows
            )
        )

    def limit_chamber_constancy():
        # the limit only depends on the chamber of X
        chambers = order_regular_chambers(lie)
        return first_failure(
            lambda e, x, lim: limit_subspace(lie, e, chambers.chamber_of(x).representative) != lim
        )

    def limit_float_flow_agreement():
        flows = [flow for *_, flow in instances]
        for i, flow in enumerate(flows):
            if flow.converged and flow.distance > _FLOW_TOLERANCE:
                return False, f"instance {i}: distance {flow.distance}"
        distances = [flow.distance for flow in flows if flow.converged]
        if len(distances) < count:
            return False, f"only {len(distances)} well-conditioned instances"
        return True, (
            f"{len(distances)} instances, worst distance {max(distances, default=0.0):.2e}, "
            f"{len(flows) - len(distances)} flagged degenerate"
        )

    def limit_subalgebra_closure():
        # on the bracket-closed inputs Ad(exp n)(nbar + a)
        nbar_a = lie.nbar_subspace().add(lie.a_subspace())
        for x, n in closure_inputs:
            e = nbar_a.image(lambda v: lie.exp_ad_apply(n, v))
            if not lie.is_subalgebra(limit_subspace(lie, e, x)):
                return False, ""
        return True, ""

    checks = (
        limit_dimension,
        limit_a_stability,
        limit_chamber_constancy,
        limit_float_flow_agreement,
        limit_subalgebra_closure,
    )
    return tuple(run_checks(*checks))


# ---------------------------------------------------------------------------
# Catalog regression
# ---------------------------------------------------------------------------


def check_claims(
    an: SphericalAnalysis | NotAdaptedError,
    claims: dict,
    label: str,
    m_lattice: str = "coroot",
) -> list[CheckResult]:
    """Compare the pipeline output with a claims record, field by field.

    ``an`` is the analysis of the space, or the NotAdaptedError that analyze
    raised for it.  The limit cosets are matched in the sign-character model
    of ``m_lattice``.  Recognized fields: adapted, s_z, indecomposables,
    cone_ineqs, a_h_dim, a_e_dim, w_order, coxeter_type, sigma_z, admissible,
    coset_labels, pair_witness, non_adapted_witness; space_from_json checks
    the type and shape of each when a space file loads.  Unknown fields are
    ignored.
    """
    out = []
    adapted = isinstance(an, SphericalAnalysis)
    if "adapted" in claims:
        out.append(
            CheckResult(
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
    sr = spherical_roots(an)
    admissible = is_admissible(an)

    def cmp(field: str, got, want) -> CheckResult:
        return CheckResult(f"{label}.{field}", got == want, f"got {got} want {want}")

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
                # the limit cosets are read from the chambers of an admissible point only
                sorted(c.label for c in weyl_from_limits(an, m_lattice))
                if admissible
                else "none: the point is not admissible",
                sorted(claims["coset_labels"]),
            )
        )
    if "pair_witness" in claims:
        pair_gens = [g for g in group.generators if g.witness[0] == "pair"]
        ok = bool(pair_gens) and any(
            list(g.witness[3]) == claims["pair_witness"] for g in pair_gens
        )
        out.append(
            CheckResult(
                f"{label}.pair_witness",
                ok,
                f"witnesses {[g.witness for g in group.generators]}",
            )
        )
    if "non_adapted_witness" in claims:
        wit = claims["non_adapted_witness"]
        word = [word_entry_from_json(w, "witness") for w in wit["word"]]
        bp2 = translate(lie, an.h_z, word)
        out.append(
            CheckResult(
                f"{label}.witness_not_adapted",
                not is_adapted(lie, bp2.h_z),
                "witness point is unexpectedly adapted",
            )
        )
        got_cone = compression_cone_of_point(an, bp2.h_z)
        want = Cone.from_inequalities(
            lie.dim_a, [vec(g) for g in _expected_cone_ineqs(lie, wit["cone_ineqs"])]
        )
        out.append(
            CheckResult(
                f"{label}.witness_cone",
                got_cone == want,
                f"got rays {fraction_view(got_cone.rays)} "
                f"want rays {fraction_view(want.rays)}",
            )
        )
        out.append(
            CheckResult(
                f"{label}.witness_cone_strictly_smaller",
                cone.contains_cone(got_cone) and cone != got_cone,
                "translate cone is not strictly smaller",
            )
        )
    return out


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
        out.append(CheckResult("adapted", False, an.reason))
        return out
    out.append(CheckResult("adapted", True))
    out.extend(structural_invariants(an))
    out.extend(weyl_invariants(an, m_lattice))

    def admissible_point_found():
        return True, find_admissible(an, max_iters=10, seed=seed).strategy

    out.extend(run_checks(admissible_point_found))
    out.extend(limit_oracle_suite(lie, _ORACLE_COUNT, seed=seed))
    return out
