"""Adaptedness machinery for split real spherical pairs.

Given a spherical subalgebra h_z of a split reductive g, this module recovers
the parabolic datum attached to the base point, the graph description of h_z
through the map T, the weight set S_z cutting out the compression cone, the
horospherical degeneration h_empty, the boundary degenerations along faces of
the cone, and the admissibility test through limit subalgebras.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence, TypeVar

from .cones import ChamberSet, Cone, enumerate_chambers
from .lie import LieAlgebraData, LieAlgebraError
from .limits import limit_subspace, order_regular_hyperplanes
from .linalg import (
    Mat,
    Subspace,
    Vec,
    dot,
    kernel,
    mat_mul,
    mat_vec,
    primitive,
    solve,
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


class ContractViolation(RuntimeError):
    """An internal consistency identity failed; indicates a bug or an input
    outside the supported theory."""


# ---------------------------------------------------------------------------
# Base points and translations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WordEntry:
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


@dataclass(frozen=True)
class BasePoint:
    word: tuple[WordEntry, ...]
    h_z: Subspace


def word_entry_ad(lie: LieAlgebraData, entry: WordEntry) -> Mat:
    if entry.kind == "nilpotent":
        return lie.exp_ad(entry.nilpotent)
    if entry.kind == "torus":
        return lie.torus_ad(entry.coweight, entry.scale)
    if entry.kind == "sign":
        return lie.torus_ad(entry.coweight, Fraction(-1))
    if entry.kind == "weyl":
        return lie.weyl_lift(entry.weyl_word).adjoint_lift
    raise ValueError(f"unknown word entry kind {entry.kind!r}")


def translate(lie: LieAlgebraData, h: Subspace, word: Sequence[WordEntry]) -> BasePoint:
    """Base point h_z = Ad(g_1) ... Ad(g_k) h, exactly."""
    m = None
    for entry in word:
        a = word_entry_ad(lie, entry)
        m = a if m is None else mat_mul(m, a)
    h_z = h if m is None else h.transform(m)
    if not lie.is_subalgebra(h_z):
        raise LieAlgebraError("translated subspace is not a subalgebra")
    return BasePoint(tuple(word), h_z)


# ---------------------------------------------------------------------------
# Adaptedness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QData:
    """Parabolic datum recovered from a base point."""

    sigma0: tuple[int, ...]  # positive-root indices of the Levi root system
    sigma_q: tuple[int, ...]  # positive-root indices in the nilradical
    l_q: Subspace
    l_q_nc: Subspace
    n_q: Subspace
    nbar_q: Subspace
    a_perp_h: Subspace  # a cap h_z^perp, in a-coordinates


@dataclass(frozen=True)
class AdaptednessCheck:
    adapted: bool
    reason: str
    q: QData | None


def has_open_p_orbit(lie: LieAlgebraData, h_z: Subspace) -> bool:
    """p + h_z = g for the minimal parabolic p = a + n."""
    return h_z.add(lie.p_subspace()).dim == lie.dim


def g_subspace_to_a(lie: LieAlgebraData, s: Subspace) -> Subspace:
    rows = [lie.g_vector_to_a(r) for r in s.basis_matrix]
    return Subspace.from_spanning(lie.dim_a, rows)


def a_subspace_to_g(lie: LieAlgebraData, s: Subspace) -> Subspace:
    rows = [lie.a_vector_to_g(r) for r in s.basis_matrix]
    return Subspace.from_spanning(lie.dim, rows)


def recover_q(lie: LieAlgebraData, h_z: Subspace) -> tuple[QData | None, str]:
    """Recover (Sigma(Q), l_Q, n_Q, l_Q_nc) from a cap h_z^perp, or fail.

    Succeeds when the open cone {X in a cap h_z^perp : alpha(X) > 0 for all
    alpha in Sigma(Q)} is nonempty.
    """
    if not has_open_p_orbit(lie, h_z):
        return None, "no open P-orbit"
    v_g = lie.a_subspace().intersect(lie.orthocomplement(h_z))
    v_a = g_subspace_to_a(lie, v_g)
    sigma0 = []
    sigma_q = []
    for p, root in enumerate(lie.positive_roots):
        f = lie.root_functional(root)
        if all(dot(f, row) == 0 for row in v_a.basis_matrix):
            sigma0.append(p)
        else:
            sigma_q.append(p)
    # strict positivity of Sigma(Q) on a cap h_z^perp, as a cone feasibility test
    ineqs = [vec_scale(-1, lie.root_functional(lie.positive_roots[p])) for p in sigma_q]
    for g in v_a.annihilator():
        ineqs.append(vec(g))
        ineqs.append(vec_scale(-1, g))
    feas = Cone.from_inequalities(lie.dim_a, ineqs)
    gens = list(feas.rays) + list(feas.lineality.basis_matrix)
    for p in sigma_q:
        f = lie.root_functional(lie.positive_roots[p])
        if all(dot(f, g) == 0 for g in gens):
            return None, "no regular element in a cap h_z^perp"
    idx_l = lie.a_indices()
    nc_rows = []
    for p in sigma0:
        idx_l += [lie.e_index(p), lie.f_index(p)]
        nc_rows.append(tuple(Fraction(1 if k == lie.e_index(p) else 0) for k in range(lie.dim)))
        nc_rows.append(tuple(Fraction(1 if k == lie.f_index(p) else 0) for k in range(lie.dim)))
        nc_rows.append(lie.a_vector_to_g(lie.coroot(lie.positive_roots[p])))
    q = QData(
        sigma0=tuple(sigma0),
        sigma_q=tuple(sigma_q),
        l_q=Subspace.from_coordinates(lie.dim, idx_l),
        l_q_nc=Subspace.from_spanning(lie.dim, nc_rows),
        n_q=Subspace.from_coordinates(lie.dim, [lie.e_index(p) for p in sigma_q]),
        nbar_q=Subspace.from_coordinates(lie.dim, [lie.f_index(p) for p in sigma_q]),
        a_perp_h=v_a,
    )
    return q, ""


def is_adapted(lie: LieAlgebraData, h_z: Subspace) -> AdaptednessCheck:
    """Open P-orbit, regular element in a cap h_z^perp, and l_Q_nc in h_z.

    Cross-checks two structural identities of adapted points and raises
    ContractViolation if the recovered datum fails them.
    """
    q, reason = recover_q(lie, h_z)
    if q is None:
        return AdaptednessCheck(False, reason, None)
    if not h_z.contains(q.l_q_nc):
        return AdaptednessCheck(
            False, "noncompact Levi part not contained in the stabilizer", q
        )
    # q cap h_z = l_Q cap h_z
    q_alg = q.l_q.add(q.n_q)
    if q_alg.intersect(h_z) != q.l_q.intersect(h_z):
        raise ContractViolation("q cap h_z differs from l_Q cap h_z at an adapted point")
    # dim h_z^perp = dim n_Q + dim l_Q - dim(l_Q cap h_z)
    lhs = lie.dim - h_z.dim
    rhs = q.n_q.dim + q.l_q.dim - q.l_q.intersect(h_z).dim
    if lhs != rhs:
        raise ContractViolation("orthocomplement dimension identity fails")
    return AdaptednessCheck(True, "", q)


# ---------------------------------------------------------------------------
# The analysis bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SWeight:
    """Element of S_z: a sum of at most two positive roots, with its
    functional on a."""

    coords: tuple[int, ...]
    functional: Vec


@dataclass(frozen=True)
class SphericalAnalysis:
    lie: LieAlgebraData
    h_z: Subspace
    sigma0: tuple[int, ...]
    sigma_q: tuple[int, ...]
    l_q: Subspace
    l_q_nc: Subspace
    n_q: Subspace
    nbar_q: Subspace
    a_perp_h: Subspace  # a cap h_z^perp (a-coordinates)
    a_h: Subspace  # a cap h_z (a-coordinates)
    a_circ: Subspace  # a cap a_h^perp (a-coordinates)
    l_cap_h: Subspace
    t_map: tuple[tuple[int, Vec], ...]  # (positive-root index, T(f_root)) pairs
    tperp_map: tuple[Vec, ...]  # images of the a_circ basis rows
    supports: tuple[tuple[int, tuple], ...]
    s_z: tuple[SWeight, ...]
    indecomposables: tuple[SWeight, ...]
    h_empty: Subspace
    # derived stages (cone, faces, chamber limits, groups), filled on first use
    _stages: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _stage(self, key, compute: Callable[[], _T]) -> _T:
        """The stage stored under ``key``, computed by ``compute()`` on first use.

        Every consumer of the analysis shares the one stored result.
        """
        if key not in self._stages:
            self._stages[key] = compute()
        return self._stages[key]

    def t_of(self, p: int) -> Vec:
        for q, img in self.t_map:
            if q == p:
                return img
        raise KeyError(p)

    def support_of(self, p: int) -> tuple:
        for q, tags in self.supports:
            if q == p:
                return tags
        raise KeyError(p)

    def tperp(self, x_a: Sequence) -> Vec:
        """T^perp(X) for X in a_circ, as a g-vector in n_Q."""
        coeffs = solve(
            [tuple(row[i] for row in self.a_circ.basis_matrix) for i in range(self.lie.dim_a)],
            vec(x_a),
        )
        if coeffs is None:
            raise ValueError("argument is not in a_circ")
        out = zero_vec(self.lie.dim)
        for c, img in zip(coeffs, self.tperp_map):
            out = vec_add(out, vec_scale(c, img))
        return out

    def is_a_circ_regular(self, x_a: Sequence) -> bool:
        x_a = vec(x_a)
        if not self.a_circ.contains_vector(x_a):
            return False
        for p in self.sigma_q:
            if dot(self.lie.root_functional(self.lie.positive_roots[p]), x_a) == 0:
                return False
        return True


def analyze(lie: LieAlgebraData, h_z: Subspace) -> SphericalAnalysis:
    """Full analysis bundle at an adapted base point; raises NotAdaptedError."""
    if not lie.is_subalgebra(h_z):
        raise LieAlgebraError("h_z is not a subalgebra")
    chk = is_adapted(lie, h_z)
    if not chk.adapted:
        raise NotAdaptedError(chk.reason)
    q = chk.q
    a_h = g_subspace_to_a(lie, lie.a_subspace().intersect(h_z))
    gram_a = tuple(tuple(lie.form_matrix[i][j] for j in range(lie.dim_a)) for i in range(lie.dim_a))
    if a_h.dim:
        eqs = [mat_vec(gram_a, row) for row in a_h.basis_matrix]
        a_circ = Subspace(lie.dim_a, kernel(eqs, lie.dim_a))
    else:
        a_circ = Subspace.full(lie.dim_a)
    l_cap_h = q.l_q.intersect(h_z)

    # T: for each f_beta, the unique w in a_circ + n_Q with f_beta + w in h_z
    ann = h_z.annihilator()
    w_basis = [lie.a_vector_to_g(row) for row in a_circ.basis_matrix] + [
        tuple(Fraction(1 if k == lie.e_index(p) else 0) for k in range(lie.dim))
        for p in q.sigma_q
    ]
    t_map = []
    supports = []
    s_elems: dict[tuple[int, ...], SWeight] = {}
    for p in q.sigma_q:
        f_vec = tuple(Fraction(1 if k == lie.f_index(p) else 0) for k in range(lie.dim))
        cols = [[dot(a, wb) for a in ann] for wb in w_basis]
        rhs = [-dot(a, f_vec) for a in ann]
        rows = [tuple(col[r] for col in cols) for r in range(len(ann))]
        coeffs = solve(rows, rhs)
        if coeffs is None or kernel(rows, len(w_basis)):
            raise ContractViolation("graph decomposition of h_z is not unique")
        img = zero_vec(lie.dim)
        for c, wb in zip(coeffs, w_basis):
            img = vec_add(img, vec_scale(c, wb))
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
        if any(dot(s.functional, row) != 0 for row in a_h.basis_matrix):
            raise ContractViolation("an element of S_z does not vanish on a_h")

    # T^perp: for each X in the a_circ basis, the unique u in n_Q with
    # X + u in h_z^perp
    n_basis = [
        tuple(Fraction(1 if k == lie.e_index(p) else 0) for k in range(lie.dim))
        for p in q.sigma_q
    ]
    tperp_map = []
    for row in a_circ.basis_matrix:
        x_g = lie.a_vector_to_g(row)
        rows = [
            tuple(lie.invariant_form(nb, hb) for nb in n_basis)
            for hb in h_z.basis_matrix
        ]
        rhs = [-lie.invariant_form(x_g, hb) for hb in h_z.basis_matrix]
        coeffs = solve(rows, rhs) if h_z.dim else zero_vec(len(n_basis))
        if coeffs is None:
            raise ContractViolation("no orthogonal correction in n_Q exists")
        u = zero_vec(lie.dim)
        for c, nb in zip(coeffs, n_basis):
            u = vec_add(u, vec_scale(c, nb))
        for hb in l_cap_h.basis_matrix:
            if any(c != 0 for c in lie.bracket(u, hb)):
                raise ContractViolation("T^perp image does not centralize l_Q cap h_z")
        tperp_map.append(u)

    if h_z.dim != l_cap_h.dim + len(q.sigma_q):
        raise ContractViolation("h_z does not split as (l_Q cap h_z) + graph(T)")

    h_empty = l_cap_h.add(q.nbar_q)
    if not lie.is_subalgebra(h_empty):
        raise ContractViolation("horospherical degeneration is not a subalgebra")

    indec = _indecomposables(s_z)
    return SphericalAnalysis(
        lie=lie,
        h_z=h_z,
        sigma0=q.sigma0,
        sigma_q=q.sigma_q,
        l_q=q.l_q,
        l_q_nc=q.l_q_nc,
        n_q=q.n_q,
        nbar_q=q.nbar_q,
        a_perp_h=q.a_perp_h,
        a_h=a_h,
        a_circ=a_circ,
        l_cap_h=l_cap_h,
        t_map=tuple(t_map),
        tperp_map=tuple(tperp_map),
        supports=tuple(supports),
        s_z=s_z,
        indecomposables=indec,
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


def compression_cone(analysis: SphericalAnalysis) -> Cone:
    """Closure of {X in a : gamma(X) < 0 for all gamma in S_z}."""
    return analysis._stage(
        "cone",
        lambda: Cone.from_inequalities(
            analysis.lie.dim_a, [s.functional for s in analysis.s_z]
        ),
    )


_CHAMBER_CACHE: dict[tuple, ChamberSet] = {}


def order_regular_chambers(lie: LieAlgebraData) -> ChamberSet:
    key = (lie.cartan_matrix, lie.center_dim)
    if key not in _CHAMBER_CACHE:
        _CHAMBER_CACHE[key] = enumerate_chambers(
            lie.dim_a, order_regular_hyperplanes(lie)
        )
    return _CHAMBER_CACHE[key]


def compression_cone_of_point(
    analysis: SphericalAnalysis,
    h_z: Subspace,
    m_lattice: str = "coroot",
) -> Cone:
    """Compression cone of an arbitrary open-orbit point, by chamber sweep.

    The reference horospherical algebra is the one attached to the adapted
    analysis; limits are constant on order-regular chambers and the cone is
    the interior of the convex hull of the passing chambers.
    """
    lie = analysis.lie
    if not has_open_p_orbit(lie, h_z):
        raise NotAdaptedError("no open P-orbit")
    chars = lie.m_sign_characters(m_lattice)
    targets = [
        analysis.h_empty.transform(lie.sign_character_ad(chi)) for chi in chars.elements
    ]
    rays: list[Vec] = []
    lin_rows: list[Vec] = []
    for ch in order_regular_chambers(lie).chambers:
        lim = limit_subspace(lie, h_z, ch.representative)
        if lim in targets:
            rays.extend(ch.cone.rays)
            lin_rows.extend(ch.cone.lineality.basis_matrix)
    lin = Subspace.from_spanning(lie.dim_a, lin_rows)
    return Cone.from_rays(lie.dim_a, rays, lin)


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
        val = dot(lie.root_functional(lie.positive_roots[p]), x_a)
        if val == 0:
            raise ValueError("argument is not regular for Sigma(Q)")
        alpha_vals[p] = val
    x_g = lie.a_vector_to_g(x_a)
    target = vec_add(x_g, analysis.tperp(x_a))
    out = zero_vec(lie.dim)
    heights = sorted({sum(lie.positive_roots[p]) for p in analysis.sigma_q})
    for h in heights:
        cur = mat_vec(lie.exp_ad(vec_scale(-1, out)), x_g)
        residual = tuple(t - c for t, c in zip(target, cur))
        upd = list(out)
        for p in analysis.sigma_q:
            if sum(lie.positive_roots[p]) == h:
                upd[lie.e_index(p)] += residual[lie.e_index(p)] / alpha_vals[p]
        out = tuple(upd)
    final = mat_vec(lie.exp_ad(vec_scale(-1, out)), x_g)
    if final != target:
        raise ContractViolation("Phi does not satisfy its defining identity")
    return out


# ---------------------------------------------------------------------------
# Boundary degenerations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegenerationData:
    face: Cone
    monoid_generators: tuple[SWeight, ...]
    h_zf: Subspace


def boundary_degeneration(analysis: SphericalAnalysis, face: Cone) -> DegenerationData:
    """Common limit of h_z along the relative interior of a face of the cone."""
    lie = analysis.lie
    if face not in analysis._stage("faces", compression_cone(analysis).faces):
        raise ValueError("not a face of the compression cone")
    span_rows = face.span().basis_matrix
    gens = [
        s
        for s in analysis.s_z
        if all(dot(s.functional, row) == 0 for row in span_rows)
    ]
    gen_coords = [s.coords for s in gens]
    rows = list(analysis.l_cap_h.basis_matrix)
    for p, img in analysis.t_map:
        root_p = lie.positive_roots[p]
        v = [Fraction(0)] * lie.dim
        v[lie.f_index(p)] = Fraction(1)
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


def normalizer_in_a(lie: LieAlgebraData, e: Subspace) -> Subspace:
    """{X in a : [X, E] is contained in E}, in a-coordinates."""
    ann = e.annihilator()
    rows = []
    for v in e.basis_matrix:
        images = [
            lie.bracket(lie.a_vector_to_g(tuple(Fraction(1 if j == k else 0) for j in range(lie.dim_a))), v)
            for k in range(lie.dim_a)
        ]
        for a in ann:
            rows.append(tuple(dot(a, img) for img in images))
    return Subspace(lie.dim_a, kernel(rows, lie.dim_a))


def centralizer_in_n_q(analysis: SphericalAnalysis) -> Subspace:
    """Z_{n_Q}(l_Q cap h_z), the directions along which translation preserves
    the adapted structure."""
    lie = analysis.lie
    n_basis = [
        tuple(Fraction(1 if k == lie.e_index(p) else 0) for k in range(lie.dim))
        for p in analysis.sigma_q
    ]
    rows = []
    for v in analysis.l_cap_h.basis_matrix:
        images = [lie.bracket(nb, v) for nb in n_basis]
        for k in range(lie.dim):
            rows.append(tuple(img[k] for img in images))
    coeff_kernel = kernel(rows, len(n_basis))
    out = []
    for c in coeff_kernel:
        u = zero_vec(lie.dim)
        for ci, nb in zip(c, n_basis):
            u = vec_add(u, vec_scale(ci, nb))
        out.append(u)
    return Subspace.from_spanning(lie.dim, out)


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChamberLimitRow:
    signs: tuple[int, ...]
    representative: Vec
    limit: Subspace
    a_intersection_dim: int
    ok: bool


def is_admissible(analysis: SphericalAnalysis) -> tuple[bool, tuple[ChamberLimitRow, ...]]:
    """All order-regular limits meet a in exactly a_h.

    One rational representative per order-regular chamber is flowed to its
    limit; the point is admissible iff every chamber passes the dimension
    test dim(limit cap a) = dim a_h.  The rows are the chamber -> limit table
    of the analysis, which weyl_from_limits reads as well.
    """

    def table() -> tuple[bool, tuple[ChamberLimitRow, ...]]:
        lie = analysis.lie
        rows = []
        for ch in order_regular_chambers(lie).chambers:
            lim = limit_subspace(lie, analysis.h_z, ch.representative)
            cap = lim.intersect(lie.a_subspace())
            ok = cap.dim == analysis.a_h.dim
            rows.append(
                ChamberLimitRow(ch.signs, ch.representative, lim, cap.dim, ok)
            )
        return all(r.ok for r in rows), tuple(rows)

    return analysis._stage("chamber_limits", table)


@dataclass(frozen=True)
class AdmissibleSearchResult:
    point: BasePoint
    analysis: SphericalAnalysis
    strategy: str
    attempts: int


class AdmissibleSearchError(RuntimeError):
    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report


def _random_regular_direction(
    analysis: SphericalAnalysis, rng: random.Random
) -> Vec | None:
    lie = analysis.lie
    if analysis.a_circ.dim == 0:
        return None
    for _ in range(64):
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(analysis.a_circ.dim)]
        y = zero_vec(lie.dim_a)
        for c, row in zip(coeffs, analysis.a_circ.basis_matrix):
            y = vec_add(y, vec_scale(c, row))
        if all(c == 0 for c in y):
            continue
        if all(
            dot(lie.root_functional(lie.positive_roots[p]), y) != 0
            for p in analysis.sigma_q
        ):
            return y
    return None


def half_space_direction(analysis: SphericalAnalysis) -> tuple[int, ...] | None:
    """If S_z spans a single ray, its primitive direction in simple-root
    coordinates; otherwise None."""
    if not analysis.s_z:
        return None
    base = primitive(tuple(Fraction(c) for c in analysis.s_z[0].coords))
    for s in analysis.s_z:
        if primitive(tuple(Fraction(c) for c in s.coords)) != base:
            return None
    return tuple(int(c) for c in base)


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
        ker_rows = []
        for coeffs in kernel(
            [tuple(dot(alpha_f, row) for row in analysis.a_circ.basis_matrix)], analysis.a_circ.dim
        ):
            x = zero_vec(lie.dim_a)
            for ci, row in zip(coeffs, analysis.a_circ.basis_matrix):
                x = vec_add(x, vec_scale(ci, row))
            ker_rows.append(x)
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
    out = [Fraction(0)] * lie.dim
    out[lie.e_index(p_alpha)] = tp[lie.e_index(p_alpha)] / 2
    if p_2alpha is not None:
        out[lie.e_index(p_2alpha)] = tp[lie.e_index(p_2alpha)] / 4
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
    ok, report = is_admissible(analysis)
    if ok:
        return AdmissibleSearchResult(BasePoint((), analysis.h_z), analysis, "self", 0)
    lie = analysis.lie
    rng = random.Random(seed)
    last_report = report
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
        ok, last_report = is_admissible(cand)
        if ok:
            return AdmissibleSearchResult(bp, cand, "phi-sample", attempt)
    if half_space_direction(analysis) is not None:
        for t in range(1, _MAX_T + 1):
            n = half_space_candidate(analysis, t)
            bp = translate(lie, analysis.h_z, [WordEntry.exp(n)])
            try:
                cand = analyze(lie, bp.h_z)
            except NotAdaptedError:
                continue
            ok, last_report = is_admissible(cand)
            if ok:
                return AdmissibleSearchResult(bp, cand, f"unipotent-family t={t}", t)
    raise AdmissibleSearchError(
        "no admissible point found within the iteration budget; this "
        "contradicts the expected density of admissible points",
        last_report,
    )
