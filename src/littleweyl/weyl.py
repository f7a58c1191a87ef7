"""Little Weyl groups from wall reflections and from limit subalgebras.

The group is generated by one reflection per wall of the compression cone,
acting on a/a_h.  Each generator is either the reflection in a root (or twice
a root), or a product of two commuting reflections in orthogonal roots
whose coroot span meets a_h; both branches come with checkable witnesses.
The same group is recovered independently by matching order-regular limit
subalgebras against conjugates of the horospherical algebra, and the
spherical root system is read off the elements that act on the lattice of
spherical weights as reflections.  The quotient, the normalizer table, the
group, the twisted conjugates, the limit cosets and the spherical roots are
stages of the analysis (spherical.stage): each reads the stages it needs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .cones import ChamberSet, Cone
from .lie import (
    LieAlgebraData,
    WeylGroupElement,
    compose_perms,
    group_closure,
    inverse_perm,
    root_pairing,
)
from .linalg import (
    Mat,
    Subspace,
    Vec,
    combination,
    dot,
    identity,
    integer_kernel,
    kernel,
    mat_mul,
    mat_transpose,
    mat_vec,
    primitive_ints,
    rank,
    solve,
    vec_add,
    vec_scale,
)
from .spherical import (
    ContractViolation,
    SWeight,
    SphericalAnalysis,
    chamber_limits,
    compression_cone,
    is_admissible,
    order_regular_chambers,
    stage,
)


# ---------------------------------------------------------------------------
# Quotients of a
# ---------------------------------------------------------------------------


class QuotientSpace(NamedTuple):
    """a / (subspace), with the non-pivot coordinates as quotient basis."""

    ambient_dim: int
    subspace: Subspace
    complement: tuple[int, ...]

    @staticmethod
    def of(subspace: Subspace) -> "QuotientSpace":
        comp = tuple(c for c in range(subspace.ambient_dim) if c not in subspace.pivots)
        return QuotientSpace(subspace.ambient_dim, subspace, comp)

    @property
    def dim(self) -> int:
        return len(self.complement)

    def project(self, v: Sequence) -> Vec:
        red = self.subspace.reduce_vector(v)
        return tuple(red[c] for c in self.complement)

    def lift(self, c: Sequence) -> Vec:
        out = [0] * self.ambient_dim
        for coord, idx in zip(c, self.complement, strict=True):
            out[idx] = coord
        return tuple(out)

    def matrix_of(self, m_on_a: Mat) -> Mat:
        cols = [
            self.project(mat_vec(m_on_a, self.lift(e)))
            for e in identity(self.dim)
        ]
        return tuple(zip(*cols)) if cols else ()


@stage
def quotient_by_a_h(analysis: SphericalAnalysis) -> QuotientSpace:
    """a / a_h."""
    return QuotientSpace.of(analysis.a_h)


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
            coeffs = solve(rows, rhs, sub.dim)
            v = vec_add(v, combination((-c for c in coeffs), sub.basis_matrix, len(v)))
        reps.append(v)
    return tuple(
        tuple(dot(mat_vec(gram, reps[j]), reps[i]) for j in range(quot.dim))
        for i in range(quot.dim)
    )


# ---------------------------------------------------------------------------
# Wall reflections
# ---------------------------------------------------------------------------


class WallGenerator(NamedTuple):
    wall: Cone
    weight: SWeight
    witness: tuple
    element: WeylGroupElement  # the reflection, of lie.weyl_group
    matrix_on_quotient: Mat


def wall_reflection(analysis: SphericalAnalysis, wall: Cone) -> WallGenerator:
    """The reflection generator attached to a wall of the compression cone.

    The wall's weight is the first indecomposable whose functional vanishes
    on the wall's span.  The cone contains a^-, so it is full-dimensional;
    every indecomposable is <= 0 on it, and the proper face where one
    vanishes, if it contains the wall, is the wall.
    """
    lie = analysis.lie
    quotient = quotient_by_a_h(analysis)
    span_rows = wall.span().rows
    for weight in analysis.indecomposables:
        if all(dot(weight.functional, row) == 0 for row in span_rows):
            break
    else:
        raise ContractViolation(
            "no indecomposable weight cuts out the wall; "
            "input outside the supported theory or a bug"
        )

    # first branch of the wall dichotomy: some root kernel equals the wall
    # span (in particular whenever the weight lies in Sigma or 2 Sigma)
    root_like = None
    for r in lie.positive_roots:
        f = lie.root_functional(r)
        if all(dot(f, row) == 0 for row in span_rows):
            root_like = r
            break

    if root_like is not None:
        perm = lie.reflection_perm(root_like)
        half = tuple(Fraction(c, 2) for c in weight.coords)
        in_sigma_or_twice = weight.coords in lie.positive_roots or (
            all(x.denominator == 1 for x in half)
            and tuple(int(x) for x in half) in lie.positive_roots
        )
        witness = ("root", weight.coords if in_sigma_or_twice else root_like)
    else:
        perm = None
        witness = None
        for i, beta in enumerate(lie.positive_roots[: lie.rank]):
            if i not in analysis.sigma_q:
                continue
            gamma = tuple(a - b for a, b in zip(weight.coords, beta))
            if gamma not in lie.positive_roots:
                continue
            if lie.positive_roots.index(gamma) not in analysis.sigma_q:
                continue
            if root_pairing(lie.cartan_matrix, lie.symmetrizer, beta, gamma) != 0:
                continue
            span = Subspace.from_spanning(
                lie.dim_a, [lie.coroot(beta), lie.coroot(gamma)]
            )
            meet = span.intersect(analysis.a_h)
            if meet.dim == 0:
                continue
            perm = compose_perms(lie.reflection_perm(beta), lie.reflection_perm(gamma))
            witness = ("pair", beta, gamma, meet.basis_matrix[0])
            break
        if perm is None:
            raise ContractViolation(
                "wall weight is neither a root, twice a root, nor a sum of "
                "orthogonal roots with coroot span meeting a_h"
            )

    element = lie.weyl_group[perm]
    mq = quotient.matrix_of(element.matrix)
    # the generator must fix the wall span pointwise mod a_h ...
    for row in span_rows:
        if quotient.project(mat_vec(element.matrix, row)) != quotient.project(row):
            raise ContractViolation("wall generator does not fix the wall")
    # ... and be a nontrivial involution on the quotient
    if mq == identity(quotient.dim) or mat_mul(mq, mq) != identity(quotient.dim):
        raise ContractViolation("wall generator is not an involution on a/a_h")
    if rank([vec_add(row, vec_scale(-1, e)) for row, e in zip(mq, identity(quotient.dim))]) != 1:
        raise ContractViolation("wall generator is not a reflection on a/a_h")
    return WallGenerator(wall, weight, witness, element, mq)


# ---------------------------------------------------------------------------
# The little Weyl group
# ---------------------------------------------------------------------------


class LittleWeylGroup(NamedTuple):
    quotient: QuotientSpace  # a / a_h
    generators: tuple[WallGenerator, ...]
    elements: tuple[Mat, ...]  # matrices on a/a_h, sorted
    realizers: tuple[LimitCoset, ...]  # an element of W acting as each, aligned
    coxeter_orders: tuple[tuple[int, ...], ...]
    type_label: str

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def coset_labels(self) -> tuple[str, ...]:
        """Labels in W(Sigma)/W(Sigma_0), aligned with the elements."""
        return tuple(w.label for w in self.realizers)


_ORDER_BOUND = 13


@stage
def little_weyl_group(analysis: SphericalAnalysis) -> LittleWeylGroup:
    """Closure of the wall reflections, with tiling verification.

    Each element is carried by its realizer: the first element of W, in the
    order of lie.weyl_group, that normalizes a_h and +-Sigma_0 and acts on
    a/a_h as the element does.  The closure and the Coxeter orders run on
    the realizers' root permutations, and each element's matrix on a/a_h and
    coset label are read off the normalizer table.  Checks that the element
    set is a finite group of quotient isometries, that it fixes a_E/a_h
    pointwise acting trivially there, and that the realizers' translates of
    the compression cone tile a/a_h with disjoint interiors; the tiling is
    read off the order-regular chamber table (_verify_tiling), which every
    caller has built before.
    """
    lie = analysis.lie
    quot = quotient_by_a_h(analysis)
    cone = compression_cone(analysis)
    # the cone is full-dimensional (wall_reflection): one wall per facet g,
    # cut out by g = 0, one double description each
    walls = sorted(
        (
            Cone.from_inequalities(cone.ambient_dim, [*cone.inequalities, g, vec_scale(-1, g)])
            for g in cone.facets
        ),
        key=lambda c: c.rays,
    )
    gens = [wall_reflection(analysis, w) for w in walls]

    table = {w.element.perm: w for _, w in _normalizer(analysis)}
    realizer: dict[Mat, LimitCoset] = {}
    for w in table.values():
        realizer.setdefault(w.matrix_on_quotient, w)
    if any(g.matrix_on_quotient not in realizer for g in gens):
        raise ContractViolation("group element is not realized in the ambient Weyl group")
    perms = [realizer[g.matrix_on_quotient].element.perm for g in gens]
    on_quotient: dict[tuple[int, ...], Mat] = {}
    for perm, _ in group_closure(perms, tuple(range(2 * lie.num_pos))):
        if perm not in table:
            raise ContractViolation("wall reflection closure exceeds the bound")
        on_quotient[perm] = table[perm].matrix_on_quotient
    ident = identity(quot.dim)
    elements = tuple(sorted(set(on_quotient.values()), key=lambda m: (m != ident, m)))
    realizers = tuple(realizer[m] for m in elements)

    # pairwise orders of the generators
    coxeter_orders = tuple(
        tuple(_element_order(compose_perms(p, q), on_quotient, ident) for q in perms)
        for p in perms
    )

    _verify_group(lie, quot, realizers, table, cone)
    return LittleWeylGroup(
        quotient=quot,
        generators=tuple(gens),
        elements=elements,
        realizers=realizers,
        coxeter_orders=coxeter_orders,
        type_label=coxeter_type_label(coxeter_orders),
    )


def _element_order(perm, on_quotient, ident) -> int:
    """The order on a/a_h of the element of the closure with this permutation."""
    power = perm
    for k in range(1, _ORDER_BOUND + 1):
        if on_quotient[power] == ident:
            return k
        power = compose_perms(power, perm)
    raise ContractViolation("generator product order exceeds the bound")


def _verify_group(lie, quot, realizers, table, cone) -> None:
    elements = [w.matrix_on_quotient for w in realizers]
    elems = set(elements)
    for w in realizers:
        inverse = table.get(inverse_perm(w.element.perm))
        if inverse is None or inverse.matrix_on_quotient not in elems:
            raise ContractViolation("element set is not closed under inverses")
    gq = induced_form(lie, quot)
    for m in elements:
        if mat_mul(mat_mul(mat_transpose(m), gq), m) != gq:
            raise ContractViolation("element does not preserve the induced form")
    # trivial action on a_E/a_h
    for row in cone.edge().rows:
        pr = quot.project(row)
        for m in elements:
            if mat_vec(m, pr) != pr:
                raise ContractViolation("element moves a point of a_E/a_h")
    _verify_tiling(order_regular_chambers(lie), [w.element.perm for w in realizers], cone)


def _verify_tiling(chambers: ChamberSet, perms: Sequence[tuple[int, ...]], cone: Cone) -> None:
    """Translates of the cone by the elements of W with the given root
    permutations cover a with disjoint interiors; ``chambers`` is the
    order-regular chamber table.

    W permutes the chambers (Humphreys, Reflection Groups and Coxeter
    Groups, 1.12), and an element carries the chambers in the cone
    (_chambers_in_cone) onto those in its translate, with the signs read off
    the table's root-pair action (ChamberSet.sign_action), as the table's
    own W-orbit reads them.  The chambers are open and their closures cover
    a, so the translates tile a exactly when these images are distinct and
    number all chambers.  Every S_z functional vanishes on a_h, which so
    lies in the lineality of each translate: they tile a/a_h as well.
    """
    inside = _chambers_in_cone(chambers, cone)
    images = [act(signs) for act in map(chambers.sign_action, perms) for signs in inside]
    distinct = len(set(images))
    counts = (
        f"{len(images)} images, {distinct} distinct, {chambers.count} chambers, "
        f"group order {len(perms)}"
    )
    if distinct < len(images):
        raise ContractViolation(f"two cone translates share interior: {counts}")
    if len(images) != chambers.count:
        raise ContractViolation(f"cone translates do not cover a/a_h: {counts}")


def _chambers_in_cone(chambers: ChamberSet, cone: Cone) -> list[tuple[int, ...]]:
    """The sign vectors of the table chambers inside the cone.

    Every facet of the cone must be a hyperplane of the table, so that the
    cone is a union of closed chambers: those with the facets' signs.
    """
    fixed = []
    for g in cone.facets:
        side = chambers.side(g)
        if side is None:
            raise ContractViolation(
                f"the compression cone facet {g} is not an order-regular hyperplane"
            )
        fixed.append(side)
    return chambers.with_signs(fixed)


# ---------------------------------------------------------------------------
# Cosets in W(Sigma) / W(Sigma_0)
# ---------------------------------------------------------------------------


class LimitCoset(NamedTuple):
    label: str
    element: WeylGroupElement  # the coset's representative w, of lie.weyl_group
    matrix_on_quotient: Mat  # of w


@stage
def _normalizer(analysis: SphericalAnalysis) -> tuple[tuple[frozenset, LimitCoset], ...]:
    """The elements w of W(Sigma) that map a_h and +-Sigma_0 onto themselves,
    in the order of lie.weyl_group.  Each comes with its coset w W(Sigma_0)
    as a set of root permutations, and with the LimitCoset it represents,
    labelled by the least word in the coset."""
    lie = analysis.lie
    weyl = lie.weyl_group
    sigma0 = [lie.positive_roots[p] for p in analysis.sigma0]
    gens = [lie.reflection_perm(r) for r in sigma0]
    levi = [u for u, _ in group_closure(gens, tuple(range(2 * lie.num_pos)))]
    at = {r: k for k, r in enumerate(lie.roots())}
    levi_roots = {at[r] for r in sigma0} | {at[tuple(-x for x in r)] for r in sigma0}
    quot = quotient_by_a_h(analysis)
    out = []
    for w in weyl.values():
        if {w.perm[k] for k in levi_roots} != levi_roots:
            continue
        if analysis.a_h.transform(w.matrix) != analysis.a_h:
            continue
        key = frozenset(compose_perms(w.perm, u) for u in levi)
        best = min((weyl[p].word for p in key), key=lambda word: (len(word), word))
        label = "*".join(f"s{i + 1}" for i in best) or "e"
        out.append((key, LimitCoset(label, w, quot.matrix_of(w.matrix))))
    return tuple(out)


# ---------------------------------------------------------------------------
# The group from limit subalgebras
# ---------------------------------------------------------------------------


@stage
def _conjugate_table(
    analysis: SphericalAnalysis, m_lattice: str
) -> dict[Subspace, dict[frozenset, LimitCoset]]:
    """The table chi . Ad(n_w) . h_empty -> {coset of w: LimitCoset} over the
    normalizer elements w and the sign characters chi.  Each subspace keeps
    every coset that produces it, represented by its first producer."""
    lie = analysis.lie
    scalings = lie.m_sign_characters(m_lattice)
    targets: dict[Subspace, dict[frozenset, LimitCoset]] = {}
    for key, coset in _normalizer(analysis):
        lift = lie.weyl_lift(coset.element.word)
        if lift.element.perm != coset.element.perm:
            raise ContractViolation("Weyl lift does not restrict to the word action")
        conj = analysis.h_empty.image(lift.apply)
        for factors in scalings:
            targets.setdefault(conj.scale_coordinates(factors), {}).setdefault(key, coset)
    return targets


def limit_coset(
    analysis: SphericalAnalysis, limit: Subspace, m_lattice: str = "coroot"
) -> LimitCoset | None:
    """The coset w W(Sigma_0), with its label, whose twisted conjugates
    chi . Ad(n_w) . h_empty include the limit (_conjugate_table); None when
    none does.

    Raises ContractViolation when two cosets produce the limit.
    """
    cosets = _conjugate_table(analysis, m_lattice).get(limit)
    if not cosets:
        return None
    if len(cosets) > 1:
        raise ContractViolation(
            "an order-regular limit matches more than one coset; "
            "the sign-character model is too coarse here"
        )
    return next(iter(cosets.values()))


@stage
def weyl_from_limits(
    analysis: SphericalAnalysis, m_lattice: str = "coroot"
) -> tuple[LimitCoset, ...]:
    """The cosets realized by the order-regular limits of h_z, in the order of
    the block cells that first realize them.

    The limit of each block cell of the chamber table (chamber_limits) is
    matched against sign-character twists of Weyl conjugates of the
    horospherical algebra, in cell order; every cell, and so every chamber,
    must land in exactly one coset of the Levi Weyl group.
    """
    if not is_admissible(analysis):
        raise ValueError("weyl_from_limits requires an admissible base point")
    coset_of: dict[str, LimitCoset] = {}
    for limit in chamber_limits(analysis, analysis.h_z)[0]:
        coset = limit_coset(analysis, limit, m_lattice)
        if coset is None:
            raise ContractViolation(
                "an order-regular limit is not a twisted Weyl conjugate of the "
                "horospherical algebra at an admissible point"
            )
        coset_of.setdefault(coset.label, coset)
    return tuple(coset_of.values())


def limits_agree_with_walls(analysis: SphericalAnalysis, m_lattice: str = "coroot") -> bool:
    """Main agreement: the limit cosets (weyl_from_limits) coincide with the
    wall-generated group (little_weyl_group)."""
    cosets = weyl_from_limits(analysis, m_lattice)
    group = little_weyl_group(analysis)
    return {c.matrix_on_quotient for c in cosets} == set(group.elements)


# ---------------------------------------------------------------------------
# Spherical root system
# ---------------------------------------------------------------------------


class SphericalRootData(NamedTuple):
    lattice_basis: tuple[tuple[int, ...], ...]  # Z-basis of Lambda, simple-root coords
    roots: tuple[tuple[int, ...], ...]  # Sigma_Z in simple-root coordinates


@stage
def spherical_roots(analysis: SphericalAnalysis) -> SphericalRootData:
    """Primitive lattice generators of the reflection hyperplane annihilators.

    Lambda is the intersection of the root lattice with the functionals
    vanishing on the edge a_E.  The center lies in a_E, so Lambda (x) Q is
    (a/a_E)*, and each element w acts on it by lambda -> w(lambda), read off
    its root permutation: w(alpha_i) is lie.roots()[perm[i]], alpha_i being
    lie.roots()[i], over the elements of little_weyl_group.  Each
    element that is a reflection of Lambda contributes the primitive pair of
    its -1 eigenspace.
    """
    lie = analysis.lie
    group = little_weyl_group(analysis)
    edge = compression_cone(analysis).edge()
    units = [tuple(int(j == i) for j in range(lie.rank)) for i in range(lie.rank)]
    simple = [lie.root_functional(u) for u in units]
    # Lambda = {c in Z^rank : (sum c_i alpha_i)(edge) = 0}
    rows = [[dot(f, b) for f in simple] for b in edge.rows]
    lam_basis = [tuple(b) for b in (integer_kernel(rows, lie.rank) if rows else units)]
    lam_rows = [tuple(b[i] for b in lam_basis) for i in range(lie.rank)]
    all_roots = lie.roots()
    ident = identity(len(lam_basis))

    def act_on_lattice(w: LimitCoset) -> Mat:
        """Matrix of lambda -> w(lambda) in the Lambda basis; must be integral."""
        images = [all_roots[k] for k in w.element.perm[: lie.rank]]
        cols = []
        for b in lam_basis:
            in_lam = solve(lam_rows, combination(b, images, lie.rank), len(lam_basis))
            if in_lam is None or any(x.denominator != 1 for x in in_lam):
                raise ContractViolation(
                    "group element does not preserve the lattice Lambda"
                )
            cols.append(in_lam)
        return tuple(zip(*cols)) if cols else ()

    roots: dict[tuple[int, ...], None] = {}
    reflections = []
    for w in group.realizers:
        s = act_on_lattice(w)
        if rank([vec_add(row, vec_scale(-1, e)) for row, e in zip(s, ident)]) == 1:
            reflections.append(w.element.perm)
            ker = kernel([vec_add(row, e) for row, e in zip(s, ident)], len(lam_basis))
            if len(ker) != 1:
                raise ContractViolation("reflection has no unique root line")
            coords_i = combination(primitive_ints(ker[0]), lam_basis, lie.rank)
            roots[coords_i] = None
            roots[tuple(-x for x in coords_i)] = None

    # W(Sigma_Z) = W: the reflections generate the whole group
    on_quotient = {w.element.perm: w.matrix_on_quotient for _, w in _normalizer(analysis)}
    closure = group_closure(reflections, tuple(range(2 * lie.num_pos)))
    if {on_quotient.get(perm) for perm, _ in closure} != set(group.elements):
        raise ContractViolation("the reflections do not generate the group")

    return SphericalRootData(tuple(lam_basis), tuple(sorted(roots)))


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
    """Type of one connected Coxeter diagram of at most four nodes.

    Raises ContractViolation for any other diagram, so that no group is
    reported with an unknown type.
    """
    k = len(comp)
    edges = {(i, j): orders[i][j] for i in comp for j in comp if i < j and orders[i][j] >= 3}
    ms = sorted(edges.values())
    ends = [i for i in comp if len(adj[i]) == 1]
    if k == 1:
        return "A1"
    if k == 2:
        m = orders[comp[0]][comp[1]]
        return {3: "A2", 4: "B2", 6: "G2"}.get(m, f"I2({m})")
    if k == 3 and len(ends) == 2:
        if ms == [3, 3]:
            return "A3"
        if ms == [3, 4]:
            return "B3"
    if k == 4 and len(edges) == 3:
        if len(ends) == 3 and ms == [3, 3, 3]:
            return "D4"
        if len(ends) == 2 and ms == [3, 3, 3]:
            return "A4"
        if len(ends) == 2 and ms == [3, 3, 4]:
            # the order-4 bond sits at an end of the chain in B4, in the middle in F4
            i, j = next(e for e, m in edges.items() if m == 4)
            return "B4" if i in ends or j in ends else "F4"
    raise ContractViolation(
        f"coxeter_type_label: unsupported Coxeter diagram with orders "
        f"{[[orders[i][j] for j in comp] for i in comp]}"
    )
