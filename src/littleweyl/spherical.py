"""Adaptedness machinery for split real spherical pairs.

Given a spherical subalgebra h_z of a split reductive g, this module recovers
the parabolic datum attached to the base point, the graph description of h_z
through the map T, the weight set S_z cutting out the compression cone, the
horospherical degeneration h_empty, the boundary degenerations along faces of
the cone, and the admissibility test through limit subalgebras.

analyze returns a SphericalAnalysis, which carries the fields of the
parabolic datum QData and the data read off it; every result derived from it
is a function decorated with stage, stored on the analysis on first use.
The order-regular chamber table is a stage of the algebra, and the block
cells of a subspace read its root-pair table.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from itertools import combinations
from operator import sub
from typing import Callable, NamedTuple, Sequence, TypeVar

from .cones import (
    ChamberSet,
    Cone,
    ConeError,
    orbit_chambers,
    pair_sign_action,
    traverse_chambers,
)
from .lie import ContractViolation, LieAlgebraData, LieAlgebraError, inverse_perm
from .limits import limit_subspace
from .linalg import (
    Frozen,
    Subspace,
    Vec,
    _bind,
    combination,
    dot,
    identity,
    integer_rank,
    kernel,
    mat_vec,
    primitive_ints,
    primitive_signed,
    solve_columns,
    vec,
    vec_add,
    vec_scale,
    zero_vec,
)

_T = TypeVar("_T")


class NotAdaptedError(ValueError):
    """The base point fails the adaptedness conditions."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# Base points and translations
# ---------------------------------------------------------------------------


class WordEntry(NamedTuple):
    """One group generator: kind is "nilpotent", "torus", "weyl" or "sign"."""

    kind: str
    nilpotent: Vec | None = None
    coweight: Vec | None = None
    scale: Fraction | None = None
    weyl_word: tuple[int, ...] = ()

    @staticmethod
    def exp(vector: Sequence) -> "WordEntry":
        return WordEntry("nilpotent", nilpotent=vec(vector))

    @staticmethod
    def torus(coweight: Sequence, scale) -> "WordEntry":
        return WordEntry("torus", coweight=vec(coweight), scale=Fraction(scale))

    @staticmethod
    def weyl(word: Sequence[int]) -> "WordEntry":
        return WordEntry("weyl", weyl_word=tuple(word))

    @staticmethod
    def sign(t: Sequence) -> "WordEntry":
        return WordEntry("sign", coweight=vec(t))


class BasePoint(NamedTuple):
    word: tuple[WordEntry, ...]
    h_z: Subspace


def _word_entry_action(lie: LieAlgebraData, entry: WordEntry) -> Callable[[Vec], Vec]:
    """Ad(g) for one word entry, applied through its structure: a coordinate
    scaling, a signed permutation or the bracket series of exp(ad x).

    A nilpotent entry raises unless x is ad-nilpotent.  ad x is a derivation
    that kills the center, and the e_i and f_i generate [g, g], so it is
    nilpotent when its series ends on those 2 * rank vectors."""
    if entry.kind == "nilpotent":
        x, basis = entry.nilpotent, identity(lie.dim)
        for p in range(lie.rank):
            lie.exp_ad_apply(x, basis[lie.e_index(p)])
            lie.exp_ad_apply(x, basis[lie.f_index(p)])
        return lambda v: lie.exp_ad_apply(x, v)
    if entry.kind in ("torus", "sign"):
        scale = entry.scale if entry.kind == "torus" else Fraction(-1)
        factors = lie.torus_scaling(entry.coweight, scale)
        return lambda v: tuple(f * c for f, c in zip(factors, v, strict=True))
    if entry.kind == "weyl":
        return lie.weyl_lift(entry.weyl_word).apply
    raise ValueError(f"unknown word entry kind {entry.kind!r}")


def translate(lie: LieAlgebraData, h: Subspace, word: Sequence[WordEntry]) -> BasePoint:
    """Base point h_z = Ad(g_1) ... Ad(g_k) h, exactly.

    The entries act on the rows of h, the last entry first.
    """
    actions = [_word_entry_action(lie, entry) for entry in word]
    rows = h.rows
    for act in reversed(actions):
        rows = [act(row) for row in rows]
    h_z = Subspace.from_spanning(h.ambient_dim, rows) if actions else h
    if not lie.is_subalgebra(h_z):
        raise LieAlgebraError("translated subspace is not a subalgebra")
    return BasePoint(tuple(word), h_z)


# ---------------------------------------------------------------------------
# Adaptedness
# ---------------------------------------------------------------------------


class QData(NamedTuple):
    """Parabolic datum recovered from a base point."""

    sigma0: tuple[int, ...]  # positive-root indices of the Levi root system
    sigma_q: tuple[int, ...]  # positive-root indices in the nilradical
    l_q: Subspace
    l_q_nc: Subspace
    n_q: Subspace
    nbar_q: Subspace
    a_perp_h: Subspace  # a cap h_z^perp, in a-coordinates
    l_cap_h: Subspace  # l_Q cap h_z


def has_open_p_orbit(lie: LieAlgebraData, h_z: Subspace) -> bool:
    """p + h_z = g for the minimal parabolic p = a + n.  The coordinates
    outside p are the f's, the last num_pos, so that is h_z having rank
    num_pos on the f-columns."""
    f0 = lie.f_index(0)
    return integer_rank(row[f0:] for row in h_z.rows) == lie.num_pos


def g_subspace_to_a(lie: LieAlgebraData, s: Subspace) -> Subspace:
    return Subspace.from_spanning(lie.dim_a, [lie.g_vector_to_a(r) for r in s.rows])


def recover_q(lie: LieAlgebraData, h_z: Subspace) -> QData:
    """Recover (Sigma(Q), l_Q, n_Q, l_Q_nc) from a cap h_z^perp at an adapted
    point.

    Raises NotAdaptedError naming the first condition that fails: an open
    P-orbit, a regular element of a cap h_z^perp (the open cone {X in
    a cap h_z^perp : alpha(X) > 0 for all alpha in Sigma(Q)} is nonempty),
    and l_Q_nc contained in h_z.  Cross-checks two structural identities of
    adapted points and raises ContractViolation if the datum fails them.
    """
    if not has_open_p_orbit(lie, h_z):
        raise NotAdaptedError("no open P-orbit")
    v_g = lie.a_subspace().intersect(lie.orthocomplement(h_z))
    v_a = g_subspace_to_a(lie, v_g)
    sigma0 = []
    sigma_q = []
    for p in range(lie.num_pos):
        f = lie.weights[lie.e_index(p)]
        if all(dot(f, row) == 0 for row in v_a.rows):
            sigma0.append(p)
        else:
            sigma_q.append(p)
    # strict positivity of Sigma(Q) on a cap h_z^perp, as a cone feasibility test
    ineqs = [vec_scale(-1, lie.weights[lie.e_index(p)]) for p in sigma_q]
    for g in v_a.annihilator():
        ineqs.append(g)
        ineqs.append(tuple(-x for x in g))
    feas = Cone.from_inequalities(lie.dim_a, ineqs)
    gens = list(feas.rays) + list(feas.lineality.rows)
    for p in sigma_q:
        f = lie.weights[lie.e_index(p)]
        if all(dot(f, g) == 0 for g in gens):
            raise NotAdaptedError("no regular element in a cap h_z^perp")
    idx_l = lie.a_indices()
    nc_rows = []
    basis = identity(lie.dim)
    for p in sigma0:
        idx_l += [lie.e_index(p), lie.f_index(p)]
        nc_rows.append(basis[lie.e_index(p)])
        nc_rows.append(basis[lie.f_index(p)])
        nc_rows.append(lie.a_vector_to_g(lie.coroot(lie.positive_roots[p])))
    l_q_nc = Subspace.from_spanning(lie.dim, nc_rows)
    if not h_z.contains(l_q_nc):
        raise NotAdaptedError("noncompact Levi part not contained in the stabilizer")
    l_q = Subspace.from_coordinates(lie.dim, idx_l)
    n_q = Subspace.from_coordinates(lie.dim, [lie.e_index(p) for p in sigma_q])
    l_cap_h = l_q.intersect(h_z)
    # q cap h_z = l_Q cap h_z
    if l_q.add(n_q).intersect(h_z) != l_cap_h:
        raise ContractViolation("q cap h_z differs from l_Q cap h_z at an adapted point")
    # dim h_z^perp = dim n_Q + dim l_Q - dim(l_Q cap h_z)
    if lie.dim - h_z.dim != n_q.dim + l_q.dim - l_cap_h.dim:
        raise ContractViolation("orthocomplement dimension identity fails")
    return QData(
        sigma0=tuple(sigma0),
        sigma_q=tuple(sigma_q),
        l_q=l_q,
        l_q_nc=l_q_nc,
        n_q=n_q,
        nbar_q=Subspace.from_coordinates(lie.dim, [lie.f_index(p) for p in sigma_q]),
        a_perp_h=v_a,
        l_cap_h=l_cap_h,
    )


def is_adapted(lie: LieAlgebraData, h_z: Subspace) -> bool:
    """Open P-orbit, regular element in a cap h_z^perp, and l_Q_nc in h_z:
    whether recover_q succeeds."""
    try:
        recover_q(lie, h_z)
    except NotAdaptedError:
        return False
    return True


# ---------------------------------------------------------------------------
# The analysis bundle
# ---------------------------------------------------------------------------


class SWeight(NamedTuple):
    """Element of S_z: a sum of at most two positive roots, with its
    functional on a."""

    coords: tuple[int, ...]
    functional: Vec


class SphericalAnalysis(Frozen):
    """The parabolic datum of an adapted base point, the fields of QData
    first, with the data analyze reads off it; the derived stages are stored
    on it (stage).  Equality and the hash read every field."""

    # the fields of QData, which analyze passes first
    sigma0: tuple[int, ...]
    sigma_q: tuple[int, ...]
    l_q: Subspace
    l_q_nc: Subspace
    n_q: Subspace
    nbar_q: Subspace
    a_perp_h: Subspace
    l_cap_h: Subspace
    lie: LieAlgebraData
    h_z: Subspace
    a_h: Subspace  # a cap h_z (a-coordinates)
    a_circ: Subspace  # a cap a_h^perp (a-coordinates)
    t_map: tuple[tuple[int, Vec], ...]  # (positive-root index, T(f_root)) pairs
    tperp_map: tuple[Vec, ...]  # images of the integer rows of a_circ
    supports: tuple[tuple[int, tuple], ...]
    s_z: tuple[SWeight, ...]
    indecomposables: tuple[SWeight, ...]
    h_empty: Subspace

    def support_of(self, p: int) -> tuple:
        for q, tags in self.supports:
            if q == p:
                return tags
        raise KeyError(p)

    def tperp(self, x_a: Sequence) -> Vec:
        """T^perp(X) for X in a_circ, as a g-vector in n_Q.  Each integer row
        of a_circ is zero on the pivots of the others, so X's coordinate on a
        row is X's entry at its pivot over the row's entry there."""
        a_circ = self.a_circ
        if not a_circ.contains_vector(x_a):
            raise ValueError("argument is not in a_circ")
        coeffs = [Fraction(x_a[p], row[p]) for p, row in zip(a_circ.pivots, a_circ.rows)]
        return combination(coeffs, self.tperp_map, self.lie.dim)

    def is_a_circ_regular(self, x_a: Sequence) -> bool:
        x_a = vec(x_a)
        if not self.a_circ.contains_vector(x_a):
            return False
        for p in self.sigma_q:
            if dot(self.lie.weights[self.lie.e_index(p)], x_a) == 0:
                return False
        return True


def stage(compute: Callable[..., _T]) -> Callable[..., _T]:
    """A derived stage of an analysis or an algebra: ``compute(owner, *args)``,
    stored in ``owner._stages`` on first use and shared by every later call.
    ``Frozen`` creates that dict on the owner's first stage, so an owner
    built again from the same fields starts with none.

    The key is ``compute`` with its arguments in parameter order and its
    defaults applied, so a call that names an argument or spells out a
    default shares the entry of one that passes it by position or omits it.
    The parameters are read off ``compute.__code__`` and ``__defaults__``, so
    ``compute`` takes no ``*args``, ``**kwargs`` or keyword-only parameter.
    Any other call goes through ``linalg._bind``, the binder of the
    ``Frozen`` constructor: an unknown or missing argument raises TypeError,
    as a call of ``compute`` would.  Nothing is stored when ``compute``
    raises.
    """
    code = compute.__code__
    names = code.co_varnames[1 : code.co_argcount]
    defaults = compute.__defaults__ or ()
    required = len(names) - len(defaults)

    @functools.wraps(compute)
    def cached(owner: SphericalAnalysis | LieAlgebraData, *args, **kwargs) -> _T:
        if not kwargs and required <= len(args) <= len(names):
            args += defaults[len(args) - required :]
        else:
            args = _bind(names, defaults, args, kwargs)
        key = (compute, *args)
        stages = owner._stages
        if key not in stages:
            stages[key] = compute(owner, *args)
        return stages[key]

    return cached


def analyze(lie: LieAlgebraData, h_z: Subspace) -> SphericalAnalysis:
    """Full analysis bundle at an adapted base point; raises NotAdaptedError."""
    if not lie.is_subalgebra(h_z):
        raise LieAlgebraError("h_z is not a subalgebra")
    q = recover_q(lie, h_z)
    a_h = g_subspace_to_a(lie, lie.a_subspace().intersect(h_z))
    gram_a = tuple(tuple(lie.form_matrix[i][j] for j in range(lie.dim_a)) for i in range(lie.dim_a))
    a_circ = Subspace.kernel_of(lie.dim_a, [mat_vec(gram_a, row) for row in a_h.rows])
    l_cap_h = q.l_cap_h
    basis = identity(lie.dim)
    n_basis = [basis[lie.e_index(p)] for p in q.sigma_q]

    # T: for each f_beta, the unique w in a_circ + n_Q with f_beta + w in h_z.
    # The equations are the integer annihilator rows of h_z, read on the a
    # coordinates of the integer a_circ rows and on the unit vectors e_p of
    # n_Q; one elimination serves the right-hand sides of every beta.
    ann = h_z.annihilator()
    w_basis = [lie.a_vector_to_g(row) for row in a_circ.rows] + n_basis
    rows = [
        tuple(dot(lie.g_vector_to_a(a), row) for row in a_circ.rows)
        + tuple(a[lie.e_index(p)] for p in q.sigma_q)
        for a in ann
    ]
    t_solutions = []
    if q.sigma_q:
        t_rank, t_solutions = solve_columns(
            rows, [[-a[lie.f_index(p)] for a in ann] for p in q.sigma_q], len(w_basis)
        )
        if t_rank < len(w_basis):
            raise ContractViolation("graph decomposition of h_z is not unique")
    t_map = []
    supports = []
    s_elems: dict[tuple[int, ...], SWeight] = {}
    for p, coeffs in zip(q.sigma_q, t_solutions):
        if coeffs is None:
            raise ContractViolation("graph decomposition of h_z is not unique")
        img = combination(coeffs, w_basis, lie.dim)
        t_map.append((p, img))
        tags = []
        if any(img[k] != 0 for k in lie.a_indices()):
            tags.append(("a",))
        for pq in q.sigma_q:
            if img[lie.e_index(pq)] != 0:
                tags.append(("root", pq))
        supports.append((p, tuple(tags)))
        root_p = lie.positive_roots[p]
        for tag in tags:
            if tag[0] == "a":
                coords = root_p
            else:
                coords = tuple(
                    a + b for a, b in zip(root_p, lie.positive_roots[tag[1]])
                )
            if coords not in s_elems:
                s_elems[coords] = SWeight(coords, lie.root_functional(coords))
    s_z = tuple(sorted(s_elems.values(), key=lambda s: s.coords))
    for s in s_z:
        if any(dot(s.functional, row) != 0 for row in a_h.rows):
            raise ContractViolation("an element of S_z does not vanish on a_h")

    # T^perp: for each integer row X of a_circ, the unique u in n_Q with
    # X + u in h_z^perp: B(u, h) = -B(X, h) on the integer rows h of h_z.
    # The equations do not depend on X, so one elimination serves every X.
    tperp_map = []
    if a_circ.dim:
        eqs = [tuple(lie.invariant_form(nb, hb) for nb in n_basis) for hb in h_z.rows]
        rhs = [
            [-lie.invariant_form(lie.a_vector_to_g(x), hb) for hb in h_z.rows]
            for x in a_circ.rows
        ]
        for coeffs in solve_columns(eqs, rhs, len(n_basis))[1]:
            if coeffs is None:
                raise ContractViolation("no orthogonal correction in n_Q exists")
            u = combination(coeffs, n_basis, lie.dim)
            for hb in l_cap_h.rows:
                if any(c != 0 for c in lie.bracket(u, hb)):
                    raise ContractViolation("T^perp image does not centralize l_Q cap h_z")
            tperp_map.append(u)

    if h_z.dim != l_cap_h.dim + len(q.sigma_q):
        raise ContractViolation("h_z does not split as (l_Q cap h_z) + graph(T)")

    h_empty = l_cap_h.add(q.nbar_q)
    if not lie.is_subalgebra(h_empty):
        raise ContractViolation("horospherical degeneration is not a subalgebra")

    return SphericalAnalysis(
        *q,
        lie=lie,
        h_z=h_z,
        a_h=a_h,
        a_circ=a_circ,
        t_map=tuple(t_map),
        tperp_map=tuple(tperp_map),
        supports=tuple(supports),
        s_z=s_z,
        indecomposables=_indecomposables(s_z),
        h_empty=h_empty,
    )


def monoid_contains(
    generators: Sequence[tuple[int, ...]], target: tuple[int, ...]
) -> bool:
    """Membership of target in the monoid N-spanned by the generators.

    Bounded search: generators have nonnegative coordinates and positive
    height, so the height of the target bounds the recursion.
    """
    gens = [g for g in generators if any(c != 0 for c in g)]
    memo: dict[tuple[int, ...], bool] = {}

    def member(v: tuple[int, ...]) -> bool:
        if all(c == 0 for c in v):
            return True
        if any(c < 0 for c in v):
            return False
        if v in memo:
            return memo[v]
        memo[v] = False
        for g in gens:
            if member(tuple(a - b for a, b in zip(v, g))):
                memo[v] = True
                break
        return memo[v]

    return member(tuple(target))


def _indecomposables(s_z: Sequence[SWeight]) -> tuple[SWeight, ...]:
    coords = [s.coords for s in s_z]
    out = []
    for s in s_z:
        decomposable = False
        for g in coords:
            rest = tuple(a - b for a, b in zip(s.coords, g))
            if any(c < 0 for c in rest) or all(c == 0 for c in rest):
                continue
            if monoid_contains(coords, rest):
                decomposable = True
                break
        if not decomposable:
            out.append(s)
    return tuple(out)


# ---------------------------------------------------------------------------
# Compression cone
# ---------------------------------------------------------------------------


@stage
def compression_cone(analysis: SphericalAnalysis) -> Cone:
    """Closure of {X in a : gamma(X) < 0 for all gamma in S_z}."""
    return Cone.from_inequalities(analysis.lie.dim_a, [s.functional for s in analysis.s_z])


@stage
def cone_faces(analysis: SphericalAnalysis) -> list[Cone]:
    """The faces of the compression cone."""
    return compression_cone(analysis).faces()


@stage
def order_regular_chambers(lie: LieAlgebraData) -> ChamberSet:
    """The chambers of the order-regular arrangement {alpha - beta}.

    One pass over the pairs (k, l) of roots, whose functionals are the weights
    lie.weights[dim_a + k], gives the hyperplane of alpha_k - alpha_l and its
    sign; the sorted hyperplanes are the arrangement.

    The arrangement holds every root hyperplane (2 alpha = alpha - (-alpha))
    and W permutes it, so W acts freely on its chambers and each chamber lies
    in one Weyl chamber.  The chambers inside the Weyl chamber of the seed
    are traversed once, with one double description each; every other
    chamber is the image of one of them under one element w of W, whose
    integer matrix and that of w^-1 are read off lie.weyl_group.  An image
    reads its signs off the root-pair table (cones.pair_sign_action, from
    w's root permutation) and its representative off the w-images of
    the base chambers' distinct rays (cones.orbit_chambers), with no cone
    built.
    """
    signed: dict[tuple[int, int], tuple[tuple[int, ...], int]] = {}
    for (k, a), (l, b) in combinations(enumerate(lie.weights[lie.dim_a :]), 2):
        diff = tuple(map(sub, a, b))
        e = 1 if next(filter(None, diff)) > 0 else -1
        signed[k, l] = primitive_signed(diff), e
        signed[l, k] = signed[k, l][0], -e
    if not signed:
        raise ConeError("an arrangement needs at least one hyperplane")
    hyperplanes = tuple(sorted({h for h, _ in signed.values()}))
    index = {h: j for j, h in enumerate(hyperplanes)}
    pairs = {kl: (index[h], e) for kl, (h, e) in signed.items()}
    # the first pair along each hyperplane (reversed: it is written last)
    first = {j: kl for kl, (j, e) in reversed(pairs.items()) if e > 0}
    ends = tuple(first[j] for j in range(len(hyperplanes)))
    # roots()[k + num_pos] is -roots()[k]
    mirrors = {pairs[k, k + lie.num_pos][0] for k in range(lie.num_pos)}
    base = traverse_chambers(lie.dim_a, hyperplanes, mirrors)
    table = lie.weyl_group
    moves = [
        (pair_sign_action(ends, pairs, w.perm), w.matrix, table[inverse_perm(w.perm)].matrix)
        for w in table.values()
    ]
    return ChamberSet(hyperplanes, orbit_chambers(base, moves), ends, pairs)


def chamber_cell_limits(
    lie: LieAlgebraData, e: Subspace
) -> tuple[tuple[Subspace, ...], tuple[int, ...]]:
    """The limits of E along the chambers of the order-regular arrangement.

    Split the coordinates into blocks, joining two coordinates when they
    share a row of E's echelon form.  Then E is the direct sum of its parts
    on the blocks, Ad(exp tX) preserves the coordinate subspace of each
    block, and the limit depends on X only through the signs of the weight
    differences wt_k - wt_l within each block.  Basis vector dim_a + r has
    the weight of roots()[r] and an a-coordinate weight zero, so the
    hyperplane of root vectors r and s is the table's pairs[r, s], and that
    of r and an a-coordinate is the mirror of roots()[r], the pairs entry of
    r and r +- num_pos.  The chambers fall into cells by their signs on
    these, and one limit_subspace per cell serves every chamber of the cell.

    Returns the limit of each cell, and the cell of each chamber.
    """
    table = order_regular_chambers(lie)
    blocks: list[set[int]] = []
    for row in e.rows:
        block = {k for k, c in enumerate(row) if c != 0}
        for other in [b for b in blocks if b & block]:
            block |= other
            blocks.remove(other)
        blocks.append(block)
    n = lie.num_pos
    cut: set[int] = set()
    for block in blocks:
        roots = [k - lie.dim_a for k in block if k >= lie.dim_a]
        cut.update(table.pairs[r, s][0] for r, s in combinations(roots, 2))
        if len(roots) < len(block):
            cut.update(table.pairs[r, (r + n) % (2 * n)][0] for r in roots)
    firsts, cells = table.cells(cut)
    return tuple(limit_subspace(lie, e, x) for x in firsts), cells


@stage
def chamber_limits(
    analysis: SphericalAnalysis, e: Subspace
) -> tuple[tuple[Subspace, ...], tuple[int, ...]]:
    """The limits of e on the order-regular chambers, one per block cell
    (chamber_cell_limits)."""
    return chamber_cell_limits(analysis.lie, e)


def compression_cone_of_point(analysis: SphericalAnalysis, h_z: Subspace) -> Cone:
    """Compression cone of an arbitrary open-orbit point, by chamber sweep.

    The reference horospherical algebra is the one attached to the adapted
    analysis.  Limits are constant on order-regular chambers, so the cone is
    the union of the closed chambers whose limit passes, read off their sign
    vectors: it is cut out by the hyperplanes on which every passing chamber
    has the same sign.  ContractViolation unless the table chambers with
    those signs are exactly the passing ones, that is unless the passing
    chambers fill a convex cone.  With no passing chamber it is the zero
    cone.  A limit passes when it is a sign-character twist of h_empty, in
    the model of the coroot lattice.
    """
    lie = analysis.lie
    if not has_open_p_orbit(lie, h_z):
        raise NotAdaptedError("no open P-orbit")
    targets = [analysis.h_empty.scale_coordinates(s) for s in lie.m_sign_characters("coroot")]
    limits, cells = chamber_limits(analysis, h_z)
    passing = [lim in targets for lim in limits]
    table = order_regular_chambers(lie)
    inside = [ch for ch, cell in zip(table.chambers, cells) if passing[cell]]
    if not inside:
        return Cone.from_rays(lie.dim_a, [])
    fixed = table.shared_signs(inside)
    filled = len(table.with_signs(fixed))
    if filled != len(inside):
        raise ContractViolation(
            f"the passing chambers do not fill a convex cone: {len(inside)} pass, {filled} filled"
        )
    return Cone.from_inequalities(
        lie.dim_a, [tuple(-s * c for c in table.hyperplanes[j]) for j, s in fixed]
    )


# ---------------------------------------------------------------------------
# The parametrizing map Phi
# ---------------------------------------------------------------------------


def phi(analysis: SphericalAnalysis, x_a: Sequence) -> Vec:
    """The nilpotent Phi(X) in n_Q with Ad(exp(-Phi(X))) X = X + T^perp(X).

    Solved degree by degree in the root height grading; ad(X) is invertible
    on each root space since X is regular for Sigma(Q).
    """
    lie = analysis.lie
    x_a = vec(x_a)
    if not analysis.a_circ.contains_vector(x_a):
        raise ValueError("argument must lie in a_circ")
    alpha_vals = {}
    for p in analysis.sigma_q:
        val = dot(lie.weights[lie.e_index(p)], x_a)
        if val == 0:
            raise ValueError("argument is not regular for Sigma(Q)")
        alpha_vals[p] = val
    x_g = lie.a_vector_to_g(x_a)
    target = vec_add(x_g, analysis.tperp(x_a))
    out = zero_vec(lie.dim)
    heights = sorted({sum(lie.positive_roots[p]) for p in analysis.sigma_q})
    for h in heights:
        cur = lie.exp_ad_apply(vec_scale(-1, out), x_g)
        residual = tuple(t - c for t, c in zip(target, cur))
        upd = list(out)
        for p in analysis.sigma_q:
            if sum(lie.positive_roots[p]) == h:
                upd[lie.e_index(p)] += Fraction(residual[lie.e_index(p)], alpha_vals[p])
        out = tuple(upd)
    final = lie.exp_ad_apply(vec_scale(-1, out), x_g)
    if final != target:
        raise ContractViolation("Phi does not satisfy its defining identity")
    return out


# ---------------------------------------------------------------------------
# Boundary degenerations
# ---------------------------------------------------------------------------


class DegenerationData(NamedTuple):
    face: Cone
    monoid_generators: tuple[SWeight, ...]
    h_zf: Subspace


@stage
def boundary_degeneration(analysis: SphericalAnalysis, face: Cone) -> DegenerationData:
    """Common limit of h_z along the relative interior of a face of the cone."""
    lie = analysis.lie
    if face not in cone_faces(analysis):
        raise ValueError("not a face of the compression cone")
    span_rows = face.span().rows
    gens = [
        s
        for s in analysis.s_z
        if all(dot(s.functional, row) == 0 for row in span_rows)
    ]
    gen_coords = [s.coords for s in gens]
    rows = list(analysis.l_cap_h.rows)
    basis = identity(lie.dim)
    for p, img in analysis.t_map:
        root_p = lie.positive_roots[p]
        v = list(basis[lie.f_index(p)])
        if any(img[k] != 0 for k in lie.a_indices()) and monoid_contains(
            gen_coords, root_p
        ):
            for k in lie.a_indices():
                v[k] = img[k]
        for pq in analysis.sigma_q:
            k = lie.e_index(pq)
            if img[k] != 0:
                total = tuple(a + b for a, b in zip(root_p, lie.positive_roots[pq]))
                if monoid_contains(gen_coords, total):
                    v[k] = img[k]
        rows.append(tuple(v))
    h_zf = Subspace.from_spanning(lie.dim, rows)
    if not lie.is_subalgebra(h_zf):
        raise ContractViolation("boundary degeneration is not a subalgebra")
    if g_subspace_to_a(lie, lie.a_subspace().intersect(h_zf)) != analysis.a_h:
        raise ContractViolation("boundary degeneration meets a incorrectly")
    return DegenerationData(face, tuple(gens), h_zf)


@stage
def degeneration_analysis(analysis: SphericalAnalysis, face: Cone) -> SphericalAnalysis:
    """The analysis of the boundary degeneration along a face; raises
    NotAdaptedError when the degeneration is not adapted."""
    return analyze(analysis.lie, boundary_degeneration(analysis, face).h_zf)


def normalizer_in_a(lie: LieAlgebraData, e: Subspace) -> Subspace:
    """{X in a : [X, E] is contained in E}, in a-coordinates.

    ad(X) scales each basis vector x_j by wt_j(X), so the k-th basis vector
    of a maps a row v of E to (v_j wt_j[k])_j, and each integer annihilator
    row a of E gives the equation sum over the nonzeros v_j of
    a_j v_j wt_j(X) = 0.
    """
    ann = e.annihilator()
    rows = []
    for v in e.rows:
        nonzero = [(j, c) for j, c in enumerate(v) if c]
        for a in ann:
            rows.append(
                combination(
                    (a[j] * c for j, c in nonzero),
                    (lie.weights[j] for j, _ in nonzero),
                    lie.dim_a,
                )
            )
    return Subspace.kernel_of(lie.dim_a, rows)


def centralizer_in_n_q(analysis: SphericalAnalysis) -> Subspace:
    """Z_{n_Q}(l_Q cap h_z), the directions along which translation preserves
    the adapted structure."""
    lie = analysis.lie
    basis = identity(lie.dim)
    n_basis = [basis[lie.e_index(p)] for p in analysis.sigma_q]
    rows = []
    for v in analysis.l_cap_h.rows:
        images = [lie.bracket(nb, v) for nb in n_basis]
        for k in range(lie.dim):
            rows.append(tuple(img[k] for img in images))
    coeff_kernel = kernel(rows, len(n_basis))
    return Subspace.from_spanning(
        lie.dim, [combination(c, n_basis, lie.dim) for c in coeff_kernel]
    )


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------


@stage
def cell_cap_dims(analysis: SphericalAnalysis) -> tuple[int, ...]:
    """dim(limit cap a) for the limit of h_z on each block cell of the
    chamber table (chamber_limits)."""
    a = analysis.lie.a_subspace()
    return tuple(lim.intersect(a).dim for lim in chamber_limits(analysis, analysis.h_z)[0])


def admissible_cells(analysis: SphericalAnalysis) -> tuple[bool, ...]:
    """Whether the limit of each block cell meets a in exactly a_h."""
    return tuple(cap == analysis.a_h.dim for cap in cell_cap_dims(analysis))


def is_admissible(analysis: SphericalAnalysis) -> bool:
    """All order-regular limits meet a in exactly a_h.

    Limits are constant on the block cells of the chamber table, and every
    cell holds a chamber, so the point is admissible iff every cell passes
    the dimension test dim(limit cap a) = dim a_h (admissible_cells).
    """
    return all(admissible_cells(analysis))


class AdmissibleSearchResult(NamedTuple):
    point: BasePoint
    analysis: SphericalAnalysis
    strategy: str
    attempts: int


class AdmissibleSearchError(ContractViolation):
    """The search found no admissible point, against the expected density of
    such points."""


def _random_regular_direction(
    analysis: SphericalAnalysis, rng: random.Random
) -> Vec | None:
    lie = analysis.lie
    if analysis.a_circ.dim == 0:
        return None
    for _ in range(64):
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(analysis.a_circ.dim)]
        y = combination(coeffs, analysis.a_circ.basis_matrix, lie.dim_a)
        if all(c == 0 for c in y):
            continue
        if all(
            dot(lie.weights[lie.e_index(p)], y) != 0
            for p in analysis.sigma_q
        ):
            return y
    return None


def half_space_direction(analysis: SphericalAnalysis) -> tuple[int, ...] | None:
    """If S_z spans a single ray, its primitive direction in simple-root
    coordinates; otherwise None."""
    if not analysis.s_z:
        return None
    base = primitive_ints(analysis.s_z[0].coords)
    for s in analysis.s_z:
        if primitive_ints(s.coords) != base:
            return None
    return base


def half_space_candidate(analysis: SphericalAnalysis, t: int) -> Vec:
    """The explicit one-parameter family of unipotent corrections used on
    half-space compression cones: n_t = C + t U with the coefficients read
    off from T^perp on ker(alpha) and on the coroot of alpha.

    Degenerates to zero (the identity element) when the data vanish, which
    happens exactly when the base point is already admissible.
    """
    lie = analysis.lie
    direction = half_space_direction(analysis)
    if direction is None:
        raise ValueError("the compression cone is not a half-space")
    u = zero_vec(lie.dim)
    c = zero_vec(lie.dim)
    try:
        p_alpha = lie.positive_roots.index(direction)
    except ValueError:
        p_alpha = None
    if p_alpha is not None and p_alpha in analysis.sigma_q:
        alpha_f = lie.root_functional(direction)
        # X in ker(alpha) cap a_circ with a nonzero alpha-component of T^perp(X)
        ker_rows = [
            combination(coeffs, analysis.a_circ.basis_matrix, lie.dim_a)
            for coeffs in kernel(
                [tuple(dot(alpha_f, row) for row in analysis.a_circ.basis_matrix)],
                analysis.a_circ.dim,
            )
        ]
        x_pick = None
        for x in ker_rows:
            if analysis.tperp(x)[lie.e_index(p_alpha)] != 0:
                x_pick = x
                break
        double = tuple(2 * c_ for c_ in direction)
        p_2alpha = (
            lie.positive_roots.index(double) if double in lie.positive_roots else None
        )
        if x_pick is not None:
            tp = analysis.tperp(x_pick)
            u = _alpha_components(lie, tp, p_alpha, p_2alpha)
        coroot = lie.coroot(direction)
        if analysis.a_circ.contains_vector(coroot):
            tp = analysis.tperp(coroot)
            c = _alpha_components(lie, tp, p_alpha, p_2alpha)
    return vec_add(c, vec_scale(t, u))


def _alpha_components(lie: LieAlgebraData, tp: Vec, p_alpha: int, p_2alpha: int | None) -> Vec:
    out = [0] * lie.dim
    out[lie.e_index(p_alpha)] = Fraction(tp[lie.e_index(p_alpha)], 2)
    if p_2alpha is not None:
        out[lie.e_index(p_2alpha)] = Fraction(tp[lie.e_index(p_2alpha)], 4)
    return tuple(out)


_MAX_T = 8


def find_admissible(
    analysis: SphericalAnalysis,
    max_iters: int = 10,
    seed: int = 0,
) -> AdmissibleSearchResult:
    """Search for an admissible point in the orbit of the base point.

    Tries the point itself, then randomized corrections exp(Phi(Y)) for
    regular rational Y, then (for half-space cones) the explicit unipotent
    family with integer parameter t = 1 .. _MAX_T.
    """
    if is_admissible(analysis):
        return AdmissibleSearchResult(BasePoint((), analysis.h_z), analysis, "self", 0)
    lie = analysis.lie
    rng = random.Random(seed)
    for attempt in range(1, max_iters + 1):
        y = _random_regular_direction(analysis, rng)
        if y is None:
            break
        n = phi(analysis, y)
        bp = translate(lie, analysis.h_z, [WordEntry.exp(n)])
        try:
            cand = analyze(lie, bp.h_z)
        except NotAdaptedError:
            continue
        if is_admissible(cand):
            return AdmissibleSearchResult(bp, cand, "phi-sample", attempt)
    if half_space_direction(analysis) is not None:
        for t in range(1, _MAX_T + 1):
            n = half_space_candidate(analysis, t)
            bp = translate(lie, analysis.h_z, [WordEntry.exp(n)])
            try:
                cand = analyze(lie, bp.h_z)
            except NotAdaptedError:
                continue
            if is_admissible(cand):
                return AdmissibleSearchResult(bp, cand, f"unipotent-family t={t}", t)
    raise AdmissibleSearchError(
        "no admissible point found within the iteration budget; this "
        "contradicts the expected density of admissible points"
    )
