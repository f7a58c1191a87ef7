"""Little Weyl groups from wall reflections and from limit subalgebras.

The group is generated by one reflection per wall of the compression cone,
acting on a/a_h.  Each generator is either the reflection in a root (or twice
a root), or a product of two commuting reflections in orthogonal roots
whose coroot span meets a_h; both branches come with checkable witnesses.
The same group is recovered independently by matching order-regular limit
subalgebras against conjugates of the horospherical algebra, and the
spherical root system is extracted from the reflections on a/a_E.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .cones import Cone, enumerate_chambers
from .lie import LieAlgebraData
from .linalg import (
    Mat,
    Subspace,
    Vec,
    dot,
    identity,
    integer_kernel,
    kernel,
    mat_inverse,
    mat_mul,
    mat_transpose,
    mat_vec,
    primitive,
    primitive_signed,
    rank,
    row_times_mat,
    solve,
    vec,
    vec_add,
    vec_scale,
    zero_vec,
)
from .spherical import (
    ContractViolation,
    SWeight,
    SphericalAnalysis,
    compression_cone,
    is_admissible,
)


# ---------------------------------------------------------------------------
# Quotients of a
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientSpace:
    """a / (subspace), with the non-pivot coordinates as quotient basis."""

    ambient_dim: int
    subspace: Subspace
    complement: tuple[int, ...]

    @staticmethod
    def of(subspace: Subspace) -> "QuotientSpace":
        from .linalg import rref

        _, pivots = rref(subspace.basis_matrix)
        comp = tuple(
            c for c in range(subspace.ambient_dim) if c not in set(pivots)
        )
        return QuotientSpace(subspace.ambient_dim, subspace, comp)

    @property
    def dim(self) -> int:
        return len(self.complement)

    def project(self, v: Sequence) -> Vec:
        red = self.subspace.reduce_vector(vec(v))
        return tuple(red[c] for c in self.complement)

    def lift(self, c: Sequence) -> Vec:
        c = vec(c)
        out = [Fraction(0)] * self.ambient_dim
        for coord, idx in zip(c, self.complement, strict=True):
            out[idx] = coord
        return tuple(out)

    def matrix_of(self, m_on_a: Mat) -> Mat:
        cols = [
            self.project(mat_vec(m_on_a, self.lift(e)))
            for e in identity(self.dim)
        ]
        return tuple(zip(*cols)) if cols else ()

    def functional_of(self, f: Sequence) -> Vec:
        """Descend a functional vanishing on the subspace."""
        f = vec(f)
        for row in self.subspace.basis_matrix:
            if dot(f, row) != 0:
                raise ValueError("functional does not vanish on the subspace")
        return tuple(dot(f, self.lift(e)) for e in identity(self.dim))


def induced_form(lie: LieAlgebraData, quot: QuotientSpace) -> Mat:
    """The form induced by B|_a on the quotient, via orthogonal representatives."""
    gram = tuple(
        tuple(lie.form_matrix[i][j] for j in range(lie.dim_a)) for i in range(lie.dim_a)
    )
    reps = []
    sub = quot.subspace
    for e in identity(quot.dim):
        v = quot.lift(e)
        if sub.dim:
            rows = [
                tuple(dot(mat_vec(gram, r2), r1) for r2 in sub.basis_matrix)
                for r1 in sub.basis_matrix
            ]
            rhs = [dot(mat_vec(gram, r), v) for r in sub.basis_matrix]
            coeffs = solve(rows, rhs)
            for c, r in zip(coeffs, sub.basis_matrix):
                v = vec_add(v, vec_scale(-c, r))
        reps.append(v)
    return tuple(
        tuple(dot(mat_vec(gram, reps[j]), reps[i]) for j in range(quot.dim))
        for i in range(quot.dim)
    )


# ---------------------------------------------------------------------------
# Wall reflections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WallGenerator:
    wall: Cone
    weight: SWeight
    witness: tuple
    matrix_on_a: Mat
    matrix_on_quotient: Mat


def _reflection_on_a(lie: LieAlgebraData, root: Sequence[int]) -> Mat:
    f = lie.root_functional(root)
    cor = lie.coroot(root)
    cols = []
    for e in identity(lie.dim_a):
        cols.append(vec_add(e, vec_scale(-dot(f, e), cor)))
    return tuple(zip(*cols))


def _root_pairing(lie: LieAlgebraData, r1: Sequence[int], r2: Sequence[int]) -> Fraction:
    return sum(
        Fraction(lie.symmetrizer[i] * lie.cartan_matrix[i][j]) * r1[i] * r2[j]
        for i in range(lie.rank)
        for j in range(lie.rank)
    )


def wall_reflection(
    analysis: SphericalAnalysis, wall: Cone, quotient: QuotientSpace | None = None
) -> WallGenerator:
    """The reflection generator attached to a wall of the compression cone."""
    lie = analysis.lie
    quotient = quotient or QuotientSpace.of(analysis.a_h)
    cone = compression_cone(analysis)
    weight = None
    for s in analysis.indecomposables:
        cut = Cone.from_inequalities(
            lie.dim_a,
            list(cone.inequalities) + [s.functional, vec_scale(-1, s.functional)],
        )
        if cut == wall:
            weight = s
            break
    if weight is None:
        raise ContractViolation(
            "no indecomposable weight cuts out the wall; "
            "input outside the supported theory or a bug"
        )

    # first branch of the wall dichotomy: some root kernel equals the wall
    # span (in particular whenever the weight lies in Sigma or 2 Sigma)
    root_like = None
    span_rows = wall.span().basis_matrix
    for r in lie.positive_roots:
        f = lie.root_functional(r)
        if all(dot(f, row) == 0 for row in span_rows):
            root_like = r
            break

    if root_like is not None:
        m = _reflection_on_a(lie, root_like)
        half = tuple(Fraction(c, 2) for c in weight.coords)
        in_sigma_or_twice = weight.coords in lie.positive_roots or (
            all(x.denominator == 1 for x in half)
            and tuple(int(x) for x in half) in lie.positive_roots
        )
        witness = ("root", weight.coords if in_sigma_or_twice else root_like)
    else:
        m = None
        witness = None
        for i in range(lie.rank):
            beta = tuple(1 if j == i else 0 for j in range(lie.rank))
            if beta not in lie.positive_roots:
                continue
            if lie.positive_roots.index(beta) not in analysis.sigma_q:
                continue
            gamma = tuple(a - b for a, b in zip(weight.coords, beta))
            if gamma not in lie.positive_roots:
                continue
            if lie.positive_roots.index(gamma) not in analysis.sigma_q:
                continue
            if _root_pairing(lie, beta, gamma) != 0:
                continue
            span = Subspace.from_spanning(
                lie.dim_a, [lie.coroot(beta), lie.coroot(gamma)]
            )
            meet = span.intersect(analysis.a_h)
            if meet.dim == 0:
                continue
            m = mat_mul(_reflection_on_a(lie, beta), _reflection_on_a(lie, gamma))
            witness = ("pair", beta, gamma, meet.basis_matrix[0])
            break
        if m is None:
            raise ContractViolation(
                "wall weight is neither a root, twice a root, nor a sum of "
                "orthogonal roots with coroot span meeting a_h"
            )

    mq = quotient.matrix_of(m)
    # the generator must fix the wall span pointwise mod a_h ...
    for row in wall.span().basis_matrix:
        if quotient.project(mat_vec(m, row)) != quotient.project(row):
            raise ContractViolation("wall generator does not fix the wall")
    # ... and be a nontrivial involution on the quotient
    if mq == identity(quotient.dim) or mat_mul(mq, mq) != identity(quotient.dim):
        raise ContractViolation("wall generator is not an involution on a/a_h")
    if rank([vec_add(row, vec_scale(-1, e)) for row, e in zip(mq, identity(quotient.dim))]) != 1:
        raise ContractViolation("wall generator is not a reflection on a/a_h")
    return WallGenerator(wall, weight, witness, m, mq)


# ---------------------------------------------------------------------------
# The little Weyl group
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LittleWeylGroup:
    quotient: QuotientSpace  # a / a_h
    edge_quotient: QuotientSpace  # a / a_E
    generators: tuple[WallGenerator, ...]
    elements: tuple[Mat, ...]  # matrices on a/a_h, sorted
    element_words: tuple[tuple[int, ...], ...]  # generator words, aligned
    coset_labels: tuple[str, ...]  # labels in W(Sigma)/W(Sigma_0), aligned
    coxeter_orders: tuple[tuple[int, ...], ...]
    type_label: str

    @property
    def order(self) -> int:
        return len(self.elements)

    def word_of(self, m: Mat) -> tuple[int, ...]:
        return self.element_words[self.elements.index(m)]


_CLOSURE_BOUND = 1152
_ORDER_BOUND = 13


def little_weyl_group(analysis: SphericalAnalysis) -> LittleWeylGroup:
    """Closure of the wall reflections, with tiling verification.

    Checks that the element set is a finite group of quotient isometries,
    that it fixes a_E/a_h pointwise acting trivially there, and that the
    translates of the projected cone tile a/a_h with disjoint interiors.
    Computed once per analysis.
    """
    return analysis._stage("little_weyl_group", lambda: _little_weyl_group(analysis))


def _little_weyl_group(analysis: SphericalAnalysis) -> LittleWeylGroup:
    lie = analysis.lie
    quot = QuotientSpace.of(analysis.a_h)
    cone = compression_cone(analysis)
    edge_quot = QuotientSpace.of(cone.edge())
    gens = [wall_reflection(analysis, w, quot) for w in cone.walls()]

    ident = identity(quot.dim)
    words: dict[Mat, tuple[int, ...]] = {ident: ()}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for gi, g in enumerate(gens):
                m2 = mat_mul(m, g.matrix_on_quotient)
                if m2 not in words:
                    words[m2] = words[m] + (gi,)
                    nxt.append(m2)
        if len(words) > _CLOSURE_BOUND:
            raise ContractViolation("wall reflection closure exceeds the bound")
        frontier = sorted(nxt)
    elements = tuple(sorted(words, key=lambda m: (m != ident, m)))
    element_words = tuple(words[m] for m in elements)

    # pairwise orders of the generators
    orders = []
    for gi in gens:
        row = []
        for gj in gens:
            prod = mat_mul(gi.matrix_on_quotient, gj.matrix_on_quotient)
            row.append(_element_order(prod, quot.dim))
        orders.append(tuple(row))
    coxeter_orders = tuple(orders)

    _verify_group(lie, analysis, quot, elements, cone)

    labels = _coset_labels(analysis, quot, elements)
    return LittleWeylGroup(
        quotient=quot,
        edge_quotient=edge_quot,
        generators=tuple(gens),
        elements=elements,
        element_words=element_words,
        coset_labels=labels,
        coxeter_orders=coxeter_orders,
        type_label=coxeter_type_label(coxeter_orders),
    )


def _element_order(m: Mat, dim: int) -> int:
    ident = identity(dim)
    p = m
    for k in range(1, _ORDER_BOUND + 1):
        if p == ident:
            return k
        p = mat_mul(p, m)
    raise ContractViolation("generator product order exceeds the bound")


def _verify_group(lie, analysis, quot, elements, cone) -> None:
    elems = set(elements)
    for m in elements:
        if mat_inverse(m) not in elems:
            raise ContractViolation("element set is not closed under inverses")
    gq = induced_form(lie, quot)
    for m in elements:
        if mat_mul(mat_mul(mat_transpose(m), gq), m) != gq:
            raise ContractViolation("element does not preserve the induced form")
    # trivial action on a_E/a_h
    for row in cone.edge().basis_matrix:
        pr = quot.project(row)
        for m in elements:
            if mat_vec(m, pr) != pr:
                raise ContractViolation("element moves a point of a_E/a_h")
    _verify_tiling(analysis, quot, elements, cone)


def projected_cone(analysis: SphericalAnalysis, quot: QuotientSpace) -> Cone:
    return Cone.from_inequalities(
        quot.dim, [quot.functional_of(s.functional) for s in analysis.s_z]
    )


def _verify_tiling(analysis, quot, elements, cone) -> None:
    """Translates of the projected cone cover a/a_h with disjoint interiors.

    Covering is certified exactly on the chamber refinement of all facet
    hyperplanes, plus a dense rational sample.
    """
    base = projected_cone(analysis, quot)
    cones = [base.transform(m) for m in elements]
    d = quot.dim
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            if cones[i].intersect(cones[j]).dim == d and d > 0:
                raise ContractViolation("two cone translates share interior")
    facet_fns: dict[Vec, None] = {}
    for c in cones:
        for g in c._facet_inequalities():
            facet_fns[primitive_signed(g)] = None
    if facet_fns:
        chambers = enumerate_chambers(d, list(facet_fns))
        for ch in chambers.chambers:
            if not any(c.contains(ch.representative) for c in cones):
                raise ContractViolation("cone translates do not cover a/a_h")
    for point in _grid_points(d, 2):
        if not any(c.contains(point) for c in cones):
            raise ContractViolation("cone translates miss a sample point")


def _grid_points(dim: int, radius: int):
    if dim == 0:
        return
    from itertools import product

    for coords in product(range(-radius, radius + 1), repeat=dim):
        if any(coords):
            yield vec(coords)


# ---------------------------------------------------------------------------
# Cosets in W(Sigma) / W(Sigma_0)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _WeylAmbient:
    """W(Sigma) data: elements, inverses, root permutations, Levi subgroup."""

    elements: tuple[tuple[tuple[int, ...], Mat], ...]
    inverses: dict
    levi_subgroup: frozenset
    root_images: dict

    @staticmethod
    def of(analysis: SphericalAnalysis) -> "_WeylAmbient":
        lie = analysis.lie
        elems = tuple(lie.weyl_group_on_a())
        inverses = {m: mat_inverse(m) for _, m in elems}
        fn_to_root = {lie.root_functional(r): r for r in lie.roots()}
        images = {}
        for _, m in elems:
            minv = inverses[m]
            perm = {}
            for r in lie.roots():
                f2 = row_times_mat(lie.root_functional(r), minv)
                perm[r] = fn_to_root[f2]
            images[m] = perm
        levi_roots = [analysis.lie.positive_roots[p] for p in analysis.sigma0]
        levi_gens = [_reflection_on_a(lie, r) for r in levi_roots]
        levi = {identity(lie.dim_a)}
        frontier = [identity(lie.dim_a)]
        while frontier:
            nxt = []
            for m in frontier:
                for g in levi_gens:
                    m2 = mat_mul(m, g)
                    if m2 not in levi:
                        levi.add(m2)
                        nxt.append(m2)
            frontier = nxt
        return _WeylAmbient(elems, inverses, frozenset(levi), images)

    def in_normalizer(self, analysis: SphericalAnalysis, m: Mat) -> bool:
        lie = analysis.lie
        a_h_img = analysis.a_h.transform(m)
        if a_h_img != analysis.a_h:
            return False
        sigma0_roots = {lie.positive_roots[p] for p in analysis.sigma0}
        sigma0_all = sigma0_roots | {tuple(-x for x in r) for r in sigma0_roots}
        return {self.root_images[m][r] for r in sigma0_all} == sigma0_all

    def coset_key(self, m: Mat) -> frozenset:
        return frozenset(mat_mul(m, u) for u in self.levi_subgroup)

    def coset_label(self, m: Mat) -> str:
        words = {mat: w for w, mat in self.elements}
        best = min((words[x] for x in self.coset_key(m)), key=lambda w: (len(w), w))
        return "e" if not best else "*".join(f"s{i + 1}" for i in best)


def _coset_labels(analysis, quot, elements) -> tuple[str, ...]:
    amb = _WeylAmbient.of(analysis)
    labels = []
    for m in elements:
        found = None
        for _, wm in amb.elements:
            if not amb.in_normalizer(analysis, wm):
                continue
            if quot.matrix_of(wm) == m:
                found = amb.coset_label(wm)
                break
        if found is None:
            raise ContractViolation(
                "group element is not realized in the ambient Weyl group"
            )
        labels.append(found)
    return tuple(labels)


# ---------------------------------------------------------------------------
# The group from limit subalgebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LimitCoset:
    label: str
    representative_word: tuple[int, ...]
    matrix_on_a: Mat
    matrix_on_quotient: Mat


@dataclass(frozen=True)
class LimitChamberRow:
    signs: tuple[int, ...]
    representative: Vec
    coset_label: str


@dataclass(frozen=True)
class LimitWeylReport:
    cosets: tuple[LimitCoset, ...]
    chambers: tuple[LimitChamberRow, ...]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(sorted(c.label for c in self.cosets))


def _twisted_conjugates(
    analysis: SphericalAnalysis, m_lattice: str
) -> tuple[_WeylAmbient, dict[Subspace, Mat]]:
    """The table chi . Ad(n_w) . h_empty -> w over the admissible Weyl
    elements w and the sign characters chi; each subspace keeps the first w
    that produces it, in Weyl-element then character order."""
    lie = analysis.lie
    amb = _WeylAmbient.of(analysis)
    chars = lie.m_sign_characters(m_lattice)
    targets: dict[Subspace, Mat] = {}
    for word, m in amb.elements:
        if not amb.in_normalizer(analysis, m):
            continue
        lift = lie.weyl_lift(word)
        if lift.action_on_a != m:
            raise ContractViolation("Weyl lift does not restrict to the word action")
        conj = analysis.h_empty.transform(lift.adjoint_lift)
        for chi in chars.elements:
            tw = conj.transform(lie.sign_character_ad(chi))
            targets.setdefault(tw, m)
    return amb, targets


def weyl_from_limits(
    analysis: SphericalAnalysis, m_lattice: str = "coroot"
) -> LimitWeylReport:
    """Coset set realized by the order-regular limits of h_z.

    For each chamber the limit subalgebra is matched against sign-character
    twists of Weyl conjugates of the horospherical algebra; every chamber
    must land in exactly one coset of the Levi Weyl group.  The limits are
    read from the chamber table of is_admissible; the report is computed
    once per analysis and lattice.
    """
    return analysis._stage(
        ("weyl_from_limits", m_lattice), lambda: _weyl_from_limits(analysis, m_lattice)
    )


def _weyl_from_limits(analysis: SphericalAnalysis, m_lattice: str) -> LimitWeylReport:
    ok, chamber_rows = is_admissible(analysis)
    if not ok:
        raise ValueError("weyl_from_limits requires an admissible base point")
    amb, targets = _twisted_conjugates(analysis, m_lattice)
    quot = QuotientSpace.of(analysis.a_h)

    coset_of: dict[frozenset, LimitCoset] = {}
    rows = []
    for ch in chamber_rows:
        matches = {
            m
            for tw, m in targets.items()
            if tw == ch.limit
        }
        if not matches:
            raise ContractViolation(
                "an order-regular limit is not a twisted Weyl conjugate of the "
                "horospherical algebra at an admissible point"
            )
        keys = {amb.coset_key(m) for m in matches}
        if len(keys) > 1:
            raise ContractViolation(
                "an order-regular limit matches more than one coset; "
                "the sign-character model is too coarse here"
            )
        key = keys.pop()
        if key not in coset_of:
            m0 = min(matches, key=lambda m: (len(amb.coset_label(m)), amb.coset_label(m), m))
            word = {mat: w for w, mat in amb.elements}[m0]
            coset_of[key] = LimitCoset(
                amb.coset_label(m0), word, m0, quot.matrix_of(m0)
            )
        rows.append(LimitChamberRow(ch.signs, ch.representative, coset_of[key].label))
    return LimitWeylReport(tuple(coset_of.values()), tuple(rows))


def limits_agree_with_walls(
    analysis: SphericalAnalysis,
    group: LittleWeylGroup,
    report: LimitWeylReport,
) -> bool:
    """Main agreement: the limit cosets coincide with the wall-generated group."""
    return {c.matrix_on_quotient for c in report.cosets} == set(group.elements)


# ---------------------------------------------------------------------------
# Spherical root system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphericalRootData:
    lattice_basis: tuple[tuple[int, ...], ...]  # Z-basis of Lambda, simple-root coords
    roots: tuple[tuple[int, ...], ...]  # Sigma_Z in simple-root coordinates
    coxeter_orders: tuple[tuple[int, ...], ...]
    type_label: str


def spherical_roots(
    analysis: SphericalAnalysis, group: LittleWeylGroup
) -> SphericalRootData:
    """Primitive lattice generators of the reflection hyperplane annihilators.

    Lambda is the intersection of the root lattice with the functionals
    vanishing on the edge; each reflection of the group on a/a_E contributes
    the primitive pair of its -1 eigenspace in Lambda.
    """
    lie = analysis.lie
    edge = group.edge_quotient.subspace
    # Lambda = {c in Z^rank : (sum c_i alpha_i)(edge) = 0}
    rows = []
    for b in edge.basis_matrix:
        row = [dot(lie.root_functional(tuple(1 if j == i else 0 for j in range(lie.rank))), b) for i in range(lie.rank)]
        denom = lcm(*(x.denominator for x in row))
        rows.append([int(x * denom) for x in row])
    lam_basis = (
        integer_kernel(rows, lie.rank)
        if rows
        else [tuple(1 if j == i else 0 for j in range(lie.rank)) for i in range(lie.rank)]
    )
    lam_basis = [tuple(b) for b in lam_basis]

    quot = group.quotient
    mq_inv = {m: mat_inverse(m) for m in group.elements}

    def act_on_lattice(m: Mat) -> Mat:
        """Matrix of lambda -> lambda o m^{-1} in the Lambda basis; must be integral."""
        minv = mq_inv[m]
        cols = []
        for b in lam_basis:
            f = zero_vec(lie.dim_a)
            for c, i in zip(b, range(lie.rank)):
                f = vec_add(
                    f,
                    vec_scale(
                        c,
                        lie.root_functional(
                            tuple(1 if j == i else 0 for j in range(lie.rank))
                        ),
                    ),
                )
            # mu(x) = f(lift(minv . project(x)))
            mu = tuple(
                dot(f, quot.lift(mat_vec(minv, quot.project(e))))
                for e in identity(lie.dim_a)
            )
            # back to simple-root coordinates
            sys_rows = [
                tuple(
                    lie.root_functional(tuple(1 if j == i else 0 for j in range(lie.rank)))[k]
                    for i in range(lie.rank)
                )
                for k in range(lie.dim_a)
            ]
            coeffs = solve(sys_rows, mu)
            if coeffs is None:
                raise ContractViolation("group element leaves the root span")
            lam_rows = [tuple(Fraction(b2[i]) for b2 in lam_basis) for i in range(lie.rank)]
            in_lam = solve(lam_rows, coeffs)
            if in_lam is None or any(x.denominator != 1 for x in in_lam):
                raise ContractViolation(
                    "group element does not preserve the lattice Lambda"
                )
            cols.append(in_lam)
        return tuple(zip(*cols)) if cols else ()

    actions = {m: act_on_lattice(m) for m in group.elements}

    # reflections of the action on a/a_E
    edge_quot = group.edge_quotient

    def edge_matrix(m: Mat) -> Mat:
        cols = [
            edge_quot.project(quot.lift(mat_vec(m, quot.project(edge_quot.lift(e)))))
            for e in identity(edge_quot.dim)
        ]
        return tuple(zip(*cols)) if cols else ()

    roots: dict[tuple[int, ...], None] = {}
    reflections = []
    for m in group.elements:
        me = edge_matrix(m)
        diff = [
            vec_add(row, vec_scale(-1, e)) for row, e in zip(me, identity(edge_quot.dim))
        ]
        if rank(diff) == 1:
            reflections.append(m)
            s = actions[m]
            ker = kernel(
                [vec_add(row, e) for row, e in zip(s, identity(len(lam_basis)))],
                len(lam_basis),
            )
            if len(ker) != 1:
                raise ContractViolation("reflection has no unique root line")
            gen = primitive(ker[0])
            if any(x.denominator != 1 for x in gen):
                raise ContractViolation("root line is not rational in Lambda")
            coords = zero_vec(lie.rank)
            for c, b in zip(gen, lam_basis):
                coords = vec_add(coords, vec_scale(c, vec(b)))
            coords_i = tuple(int(x) for x in coords)
            roots[coords_i] = None
            roots[tuple(-x for x in coords_i)] = None

    # W(Sigma_Z) = W: the reflections generate the whole group
    gen_set = {identity(quot.dim)}
    frontier = list(gen_set)
    while frontier:
        nxt = []
        for m in frontier:
            for r in reflections:
                m2 = mat_mul(m, r)
                if m2 not in gen_set:
                    gen_set.add(m2)
                    nxt.append(m2)
        frontier = nxt
    if gen_set != set(group.elements):
        raise ContractViolation("the reflections do not generate the group")

    ordered = tuple(sorted(roots))
    return SphericalRootData(
        tuple(lam_basis), ordered, group.coxeter_orders, group.type_label
    )


# ---------------------------------------------------------------------------
# Coxeter type labels (small ranks)
# ---------------------------------------------------------------------------


def coxeter_type_label(orders: Sequence[Sequence[int]]) -> str:
    n = len(orders)
    if n == 0:
        return "trivial"
    adj = {i: [] for i in range(n)}
    for i in range(n):
        for j in range(n):
            if i != j and orders[i][j] >= 3:
                adj[i].append(j)
    seen = set()
    labels = []
    for start in range(n):
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in adj[i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        labels.append(_component_label(comp, orders, adj))
    return " x ".join(sorted(labels))


def _component_label(comp, orders, adj) -> str:
    k = len(comp)
    if k == 1:
        return "A1"
    if k == 2:
        m = orders[comp[0]][comp[1]]
        return {3: "A2", 4: "B2", 6: "G2"}.get(m, f"I2({m})")
    if k == 3:
        ends = [i for i in comp if len(adj[i]) == 1]
        if len(ends) == 2:
            ms = sorted(
                orders[i][j]
                for i in comp
                for j in comp
                if i < j and orders[i][j] >= 3
            )
            if ms == [3, 3]:
                return "A3"
            if ms == [3, 4]:
                return "B3"
    return "unknown"
