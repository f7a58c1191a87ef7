"""Split real reductive Lie algebras from Cartan matrices.

A Chevalley basis is built for the semisimple part, an abelian center may be
appended, and all structure constants are exact integers.  The basis order is

    h_1 .. h_r,  z_1 .. z_c,  e_{b_1} .. e_{b_m},  f_{b_1} .. f_{b_m}

with the positive roots b_1 < ... < b_m sorted by height, then by coordinate
vector, so basis vector dim_a + k is the root vector of roots()[k].  The
Cartan subalgebra a is spanned by the h_i and z_j, so a-vectors are the first
dim_a = r + c coordinates.

Structure constant signs follow the extraspecial pair convention: for each
non-simple positive root the decomposition with the smallest first summand
gets a positive constant, and all other constants are derived from the
standard bilinearity relations.  At construction time the table is checked
to be antisymmetric and graded by the weights, and the Jacobi identity on
every basis triple whose weight sum is a weight (the others vanish by the
grading).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import gcd
from typing import Iterator, NamedTuple, Sequence

from .linalg import (
    Frozen,
    Mat,
    Subspace,
    Vec,
    dot,
    frac,
    identity,
    mat_vec,
    vec,
    vec_scale,
    zero_vec,
)


class LieAlgebraError(ValueError):
    pass


class ContractViolation(RuntimeError):
    """An internal consistency identity failed; indicates a bug or an input
    outside the supported theory."""


# ---------------------------------------------------------------------------
# Cartan matrices and root systems
# ---------------------------------------------------------------------------


def validate_cartan_matrix(a: Sequence[Sequence[int]]) -> list[int]:
    """Check that a is a generalized Cartan matrix of finite type.

    Returns the diagonal symmetrizer d (positive integers, gcd 1 per connected
    component) with d_i * a_ij symmetric.  Raises LieAlgebraError otherwise.
    """
    n = len(a)
    for i in range(n):
        if len(a[i]) != n:
            raise LieAlgebraError("Cartan matrix must be square")
        if a[i][i] != 2:
            raise LieAlgebraError(f"diagonal entry a[{i}][{i}] = {a[i][i]} != 2")
        for j in range(n):
            if int(a[i][j]) != a[i][j]:
                raise LieAlgebraError("Cartan matrix entries must be integers")
            if i != j:
                if a[i][j] > 0:
                    raise LieAlgebraError(f"off-diagonal entry a[{i}][{j}] > 0")
                if (a[i][j] == 0) != (a[j][i] == 0):
                    raise LieAlgebraError(f"a[{i}][{j}] = 0 but a[{j}][{i}] != 0")
    # symmetrizer per connected component
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i != j and a[i][j] != 0:
                    want = d[i] * Fraction(a[i][j], a[j][i])
                    if d[j] is None:
                        d[j] = want
                        stack.append(j)
                    elif d[j] != want:
                        raise LieAlgebraError("Cartan matrix is not symmetrizable")
    # scale to positive integers with gcd 1 per component
    denom_lcm = 1
    for x in d:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in d]
    g = 0
    for x in ints:
        g = gcd(g, x)
    ints = [x // g for x in ints]
    # finite type iff the symmetrization is positive definite
    s = [[ints[i] * a[i][j] for j in range(n)] for i in range(n)]
    k = _first_nonpositive_minor(s)
    if k is not None:
        raise LieAlgebraError(
            "Cartan matrix is not of finite type "
            f"(leading principal minor {k} is not positive)"
        )
    return ints


def _first_nonpositive_minor(s: Sequence[Sequence]) -> int | None:
    """The index k of the first leading principal minor of s that is <= 0,
    or None when all are positive (s is positive definite if symmetric).

    One elimination without row swaps: while minors 1..c are positive, the
    pivot in column c is the ratio of minors c + 1 and c, so the first pivot
    <= 0 marks the first minor <= 0.
    """
    m = [list(row) for row in s]
    n = len(m)
    for c in range(n):
        pv = m[c][c]
        if pv <= 0:
            return c + 1
        for r in range(c + 1, n):
            if m[r][c] != 0:
                f = Fraction(m[r][c], pv)
                m[r][c:] = [x - f * y for x, y in zip(m[r][c:], m[c][c:])]
    return None


def root_pairing(a, d, r1: Sequence[int], r2: Sequence[int]) -> int:
    """The symmetrised form sum_ij d_i a_ij r1_i r2_j of two roots in simple-root
    coordinates, for the Cartan matrix a and its symmetrizer d."""
    return sum(d[i] * a[i][j] * x * y for i, x in enumerate(r1) for j, y in enumerate(r2))


def _coroot(a, d, root: Sequence[int]) -> tuple[int, ...]:
    """The coroot 2 root / (root, root) over h_1..h_r, for the Cartan matrix a
    and its symmetrizer d; raises LieAlgebraError unless it is integral."""
    n2 = root_pairing(a, d, root, root)
    coords = [Fraction(2 * d[i] * root[i], n2) for i in range(len(d))]
    if any(c.denominator != 1 for c in coords):
        raise LieAlgebraError("coroot is not integral")
    return tuple(c.numerator for c in coords)


def positive_roots_of(a: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Positive roots in simple-root coordinates, by height then lexicographic.

    Every root is a W-image of a simple root (Humphreys, Reflection Groups
    and Coxeter Groups, 1.5), so the simple roots are closed under
    s_i(beta) = beta - <beta, alpha_i^vee> alpha_i, with <beta, alpha_i^vee>
    = beta(h_i), keeping the positive images: s_i maps the positive roots
    other than alpha_i onto themselves, and a positive root of height above
    one is s_i of a lower one for the first i with beta(h_i) > 0.  The
    simple roots come first, in order: simple root i is the root at index i.
    """
    n = len(a)
    roots = {tuple(int(j == i) for j in range(n)) for i in range(n)}
    frontier = list(roots)
    while frontier:
        beta = frontier.pop()
        for i in range(n):
            c = sum(a[i][j] * beta[j] for j in range(n))
            image = tuple(b - c if j == i else b for j, b in enumerate(beta))
            if min(image) >= 0 and image not in roots:
                roots.add(image)
                frontier.append(image)
    # height first; ties broken so that earlier simple roots come first
    return sorted(roots, key=lambda r: (sum(r), tuple(-x for x in r)))


class _ChevalleyConstants:
    """Structure constants N(a, b) with [e_a, e_b] = N(a, b) e_{a+b}."""

    def __init__(self, cartan: Sequence[Sequence[int]], symmetrizer: Sequence[int]):
        self.a = cartan
        self.n = len(cartan)
        self.pos = positive_roots_of(cartan)
        self.index = {r: i for i, r in enumerate(self.pos)}
        self.all_roots = set(self.pos) | {tuple(-x for x in r) for r in self.pos}
        self.d = list(symmetrizer)
        self._memo: dict[tuple, int] = {}
        self._special: dict[tuple, int] = {}
        self._compute_special()

    def norm2(self, r: tuple[int, ...]) -> int:
        return root_pairing(self.a, self.d, r, r)

    def p_value(self, al, be) -> int:
        """Largest p with be - p*al a root."""
        p = 0
        cur = tuple(be)
        while True:
            cur = tuple(x - y for x, y in zip(cur, al))
            if cur in self.all_roots:
                p += 1
            else:
                return p

    def _compute_special(self):
        for gamma in self.pos:
            if sum(gamma) < 2:
                continue
            pairs = []
            for al in self.pos:
                be = tuple(g - x for g, x in zip(gamma, al))
                if be in self.index and self.index[al] < self.index[be]:
                    pairs.append((al, be))
            pairs.sort(key=lambda p: self.index[p[0]])
            a1, b1 = pairs[0]
            self._special[(a1, b1)] = self.p_value(a1, b1) + 1
            g2 = self.norm2(gamma)
            for al, be in pairs[1:]:
                t1 = 0
                diff1 = tuple(x - y for x, y in zip(b1, al))
                if diff1 in self.all_roots:
                    t1 = Fraction(
                        self.N(b1, tuple(-x for x in al)) * self.N(a1, tuple(-x for x in be)),
                        self.norm2(diff1),
                    )
                t2 = 0
                diff2 = tuple(x - y for x, y in zip(a1, al))
                if diff2 in self.all_roots:
                    t2 = Fraction(
                        self.N(tuple(-x for x in al), a1) * self.N(b1, tuple(-x for x in be)),
                        self.norm2(diff2),
                    )
                val = Fraction(g2 * (t1 + t2), self._special[(a1, b1)])
                if val.denominator != 1 or val == 0:
                    raise ContractViolation(
                        f"structure constant N({al}, {be}) = {val} is not a nonzero integer"
                    )
                self._special[(al, be)] = val.numerator

    def N(self, mu, nu) -> int:
        mu, nu = tuple(mu), tuple(nu)
        s = tuple(x + y for x, y in zip(mu, nu))
        if s not in self.all_roots:
            return 0
        key = (mu, nu)
        if key in self._memo:
            return self._memo[key]
        mu_pos = mu in self.index
        nu_pos = nu in self.index
        if mu_pos and nu_pos:
            if self.index[mu] < self.index[nu]:
                val = self._special[(mu, nu)]
            else:
                val = -self.N(nu, mu)
        elif not mu_pos and not nu_pos:
            val = -self.N(tuple(-x for x in mu), tuple(-x for x in nu))
        elif mu_pos and not nu_pos:
            gamma = tuple(-x for x in s)
            if s in self.index:
                q = Fraction(self.norm2(s) * self.N(nu, gamma), self.norm2(mu))
            else:
                q = Fraction(self.norm2(s) * self.N(gamma, mu), self.norm2(nu))
            if q.denominator != 1:
                raise ContractViolation(f"structure constant N({mu}, {nu}) = {q} is not an integer")
            val = q.numerator
        else:
            val = -self.N(nu, mu)
        self._memo[key] = val
        return val


# ---------------------------------------------------------------------------
# The Lie algebra container
# ---------------------------------------------------------------------------


class WeylGroupElement(NamedTuple):
    """An element w of the Weyl group: its shortest word (the least in word
    order), its integer matrix on a, and its permutation of the roots,
    w(roots()[k]) = roots()[perm[k]]."""

    word: tuple[int, ...]
    matrix: Mat
    perm: tuple[int, ...]


class WeylElement(NamedTuple):
    """Element n_w of N_G(a) given by a word in the simple reflections.

    Ad(n_w) maps a to itself by the matrix of ``element``, the word's element
    of the weyl_group table, and permutes the root vectors up to sign as
    element.perm permutes the roots: root coordinate r (basis index
    dim_a + r) goes to ``signs[r]`` times root coordinate element.perm[r].
    The signs depend on the word, not only on its element.
    """

    word: tuple[int, ...]
    element: WeylGroupElement
    signs: tuple[int, ...]

    def apply(self, v: Sequence) -> Vec:
        """Ad(n_w) v."""
        m = self.element.matrix
        d = len(m)
        out = list(mat_vec(m, v[:d])) + [0] * len(self.signs)
        for r, (t, s) in enumerate(zip(self.element.perm, self.signs)):
            out[d + t] = v[d + r] if s > 0 else -v[d + r]
        return tuple(out)


class LieAlgebraData(Frozen):
    """A reductive Lie algebra in the basis h_1..h_r, z_1..z_c, e_p, f_p.
    Equality and the hash read every field but the bracket table, and the
    repr shows the first five."""

    rank: int
    center_dim: int
    cartan_matrix: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[int, ...]
    positive_roots: tuple[tuple[int, ...], ...]
    # [x_i, x_j] = bracket_table[i][j], a sparse dict {k: c}, for every pair;
    # read only: pairs that bracket to zero share one empty dict
    bracket_table: tuple[tuple[dict[int, int], ...], ...]
    form_matrix: Mat
    # the a-functional of each basis vector, as integer values on h_1..h_r, z_1..z_c
    weights: tuple[tuple[int, ...], ...]

    def _key(self) -> tuple:
        return (
            self.rank,
            self.center_dim,
            self.cartan_matrix,
            self.symmetrizer,
            self.positive_roots,
            self.form_matrix,
            self.weights,
        )

    def __repr__(self) -> str:
        return (
            f"LieAlgebraData(rank={self.rank!r}, center_dim={self.center_dim!r}, "
            f"cartan_matrix={self.cartan_matrix!r}, symmetrizer={self.symmetrizer!r}, "
            f"positive_roots={self.positive_roots!r})"
        )

    # -- shape helpers ------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def dim_a(self) -> int:
        return self.rank + self.center_dim

    @property
    def num_pos(self) -> int:
        return len(self.positive_roots)

    def e_index(self, p: int) -> int:
        return self.dim_a + p

    def f_index(self, p: int) -> int:
        return self.dim_a + self.num_pos + p

    def roots(self) -> list[tuple[int, ...]]:
        return list(self.positive_roots) + [
            tuple(-x for x in r) for r in self.positive_roots
        ]

    def root_functional(self, root: Sequence[int]) -> tuple[int, ...]:
        """The root as a functional on a (values on h_1..h_r, z_1..z_c)."""
        vals = tuple(
            sum(self.cartan_matrix[i][j] * root[j] for j in range(self.rank))
            for i in range(self.rank)
        )
        return vals + zero_vec(self.center_dim)

    def coroot(self, root: Sequence[int]) -> tuple[int, ...]:
        """Coroot as an a-vector (coordinates over h_1..h_r, zero on the center)."""
        return _coroot(self.cartan_matrix, self.symmetrizer, root) + zero_vec(self.center_dim)

    # -- bracket, form, involution -------------------------------------------

    def bracket_basis(self, i: int, j: int) -> dict[int, int]:
        """[x_i, x_j] as the sparse dict {k: c} of the bracket table (read only)."""
        return self.bracket_table[i][j]

    def bracket(self, x: Sequence, y: Sequence) -> Vec:
        """[x, y], summed over the nonzeros of x and y."""
        if len(x) != self.dim or len(y) != self.dim:
            raise LieAlgebraError("dimension mismatch in bracket")
        br = self.bracket_table
        ys = [(j, yj) for j, yj in enumerate(y) if yj != 0]
        out = [0] * self.dim
        for i, xi in enumerate(x):
            if xi != 0:
                row = br[i]
                for j, yj in ys:
                    for k, c in row[j].items():
                        out[k] += xi * yj * c
        return tuple(out)

    @cached_property
    def _form_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Nonzero (column, entry) pairs of each row of the form matrix: the
        a-block and the e_p <-> f_p pairing."""
        return tuple(
            tuple((j, c) for j, c in enumerate(row) if c != 0) for row in self.form_matrix
        )

    def invariant_form(self, x: Sequence, y: Sequence) -> int | Fraction:
        total = 0
        for xi, row in zip(x, self._form_rows, strict=True):
            if xi != 0:
                for j, c in row:
                    if y[j] != 0:
                        total += xi * c * y[j]
        return total

    def theta(self, x: Sequence) -> Vec:
        """The Cartan involution: -1 on a and e_p <-> -f_p, a signed swap."""
        if len(x) != self.dim:
            raise LieAlgebraError("dimension mismatch in theta")
        d, m = self.dim_a, self.num_pos
        return tuple(-c for c in x[:d] + x[d + m :] + x[d : d + m])

    def exp_ad_apply(self, x: Sequence, v: Sequence) -> Vec:
        """exp(ad x) v = sum_k ad(x)^k v / k! as a bracket series, without
        forming exp(ad x); raises unless the series ends within dim + 1 terms.

        Each term is kept as the dict of its nonzeros and bracketed through
        the table rows of the nonzeros of x.  The division by k stays an int
        where it is exact, so on the integer span of a Chevalley basis the
        series of ad(e_alpha) is all ints (ad(e_alpha)^k / k! preserves it)."""
        dim = self.dim
        if len(x) != dim or len(v) != dim:
            raise LieAlgebraError("dimension mismatch in exp_ad_apply")
        br = self.bracket_table
        rows = [(br[i], xi) for i, xi in enumerate(x) if xi != 0]
        out = list(v)
        term = {j: c for j, c in enumerate(v) if c != 0}
        k = 0
        while term:
            k += 1
            if k > dim + 1:
                raise LieAlgebraError("exp_ad requires an ad-nilpotent argument")
            nxt: dict[int, int | Fraction] = {}
            for row, xi in rows:
                for j, c in term.items():
                    for l, s in row[j].items():
                        nxt[l] = nxt.get(l, 0) + xi * c * s
            term = {}
            for l, c in nxt.items():
                if c != 0:
                    c = c // k if type(c) is int and c % k == 0 else Fraction(c, k)
                    term[l] = c
                    out[l] += c
        return tuple(out)

    def torus_scaling(self, coweight: Sequence, scale) -> Vec:
        """Ad of the torus element scale^coweight, which scales each basis
        vector, as the tuple of factors.  Exact for rational scale.

        The coweight must pair integrally with every root.
        """
        coweight = vec(coweight)
        if len(coweight) != self.dim_a:
            raise LieAlgebraError("coweight must be an a-vector")
        scale = frac(scale)
        if scale == 0:
            raise LieAlgebraError("torus scale must be nonzero")
        out = []
        for w in self.weights:
            k = dot(w, coweight)
            if k.denominator != 1:
                raise LieAlgebraError("coweight does not pair integrally with the roots")
            out.append(scale ** int(k))
        return tuple(out)

    # -- distinguished subspaces ---------------------------------------------

    def a_indices(self) -> list[int]:
        return list(range(self.dim_a))

    def a_subspace(self) -> Subspace:
        return Subspace.from_coordinates(self.dim, self.a_indices())

    def nbar_subspace(self) -> Subspace:
        return Subspace.from_coordinates(
            self.dim, [self.f_index(p) for p in range(self.num_pos)]
        )

    def a_vector_to_g(self, x: Sequence) -> Vec:
        return tuple(x) + zero_vec(self.dim - self.dim_a)

    def g_vector_to_a(self, x: Sequence) -> tuple:
        """The a coordinates of a vector of g, entries kept as they are."""
        return tuple(x[: self.dim_a])

    def orthocomplement(self, e: Subspace) -> Subspace:
        """B-orthogonal complement in g.  The equation of each row v of E is
        B(v, .), the sum of v_l times row l of the form, read from the
        nonzeros of the form rows (the form is symmetric)."""
        if e.dim == 0:
            return Subspace.full(self.dim)
        eqs = []
        for row in e.rows:
            eq = [0] * self.dim
            for l, c in enumerate(row):
                if c != 0:
                    for i, f in self._form_rows[l]:
                        eq[i] += f * c
            eqs.append(eq)
        return Subspace.kernel_of(self.dim, eqs)

    def is_subalgebra(self, e: Subspace) -> bool:
        """Whether E is closed under the bracket, read on its integer rows."""
        rows = e.rows
        for i in range(e.dim):
            for j in range(i + 1, e.dim):
                if not e.contains_vector(self.bracket(rows[i], rows[j])):
                    return False
        return True

    # -- Weyl group ----------------------------------------------------------

    def reflection_perm(self, root: Sequence[int]) -> tuple[int, ...]:
        """The reflection in the root as a permutation of roots():
        beta -> beta - <beta, root^vee> root."""
        roots = self.roots()
        at = {r: k for k, r in enumerate(roots)}
        cor = self.coroot(root)
        out = []
        for beta in roots:
            c = dot(self.root_functional(beta), cor)
            out.append(at[tuple(b - c * x for b, x in zip(beta, root))])
        return tuple(out)

    @cached_property
    def weyl_group(self) -> dict[tuple[int, ...], WeylGroupElement]:
        """The Weyl group keyed by root permutation, enumerated on first use
        and then stored with the algebra.

        W acts faithfully on the roots, so the closure runs over the root
        permutations of the simple reflections, in the order of
        group_closure.  Each element's matrix on a is read off its
        permutation: w preserves the form, so w(alpha_i^vee) = (w alpha_i)^vee
        (Humphreys, Introduction to Lie Algebras and Representation Theory,
        section 9), and column i is the coroot of roots()[perm[i]], alpha_i
        being roots()[i]; w fixes the center, whose columns are unit vectors.
        """
        gens = [self.reflection_perm(r) for r in self.positive_roots[: self.rank]]
        coroots = [self.coroot(r) for r in self.roots()]
        center = list(identity(self.dim_a)[self.rank :])
        out: dict[tuple[int, ...], WeylGroupElement] = {}
        for perm, word in group_closure(gens, tuple(range(2 * self.num_pos))):
            cols = [coroots[k] for k in perm[: self.rank]] + center
            out[perm] = WeylGroupElement(word, tuple(zip(*cols)), perm)
        return out

    @cached_property
    def _simple_lifts(self) -> tuple[WeylElement, ...]:
        """Ad(n_i) for n_i = exp(ad e_i) exp(-ad f_i) exp(ad e_i), one per
        simple root.  Column k is the three bracket series applied to the
        basis vector b_k in turn.  The lift must act on a and permute the
        root vectors up to sign as the table element of the simple
        reflection does."""
        d, basis = self.dim_a, identity(self.dim)
        out = []
        for i in range(self.rank):
            e_vec = basis[self.e_index(i)]
            minus_f = vec_scale(-1, basis[self.f_index(i)])
            cols = [
                self.exp_ad_apply(
                    e_vec, self.exp_ad_apply(minus_f, self.exp_ad_apply(e_vec, b))
                )
                for b in basis
            ]
            if any(c != 0 for col in cols[:d] for c in col[d:]):
                raise LieAlgebraError(f"the lift of s{i + 1} does not preserve a")
            perm, signs = [], []
            for col in cols[d:]:
                nz = [(r, c) for r, c in enumerate(col) if c != 0]
                if len(nz) != 1 or nz[0][0] < d or abs(nz[0][1]) != 1:
                    raise LieAlgebraError(
                        f"the lift of s{i + 1} is not a signed permutation of the root vectors"
                    )
                perm.append(nz[0][0] - d)
                signs.append(int(nz[0][1]))
            refl = self.weyl_group[self.reflection_perm(self.positive_roots[i])]
            a_block = tuple(zip(*(col[:d] for col in cols[:d])))
            if a_block != refl.matrix or tuple(perm) != refl.perm:
                raise LieAlgebraError(f"the lift of s{i + 1} does not act as the reflection")
            out.append(WeylElement((i,), refl, tuple(signs)))
        return tuple(out)

    def weyl_lift(self, word: Sequence[int]) -> WeylElement:
        """Lift of a Weyl word: the product of the simple-root lifts, composed
        as signed permutations of the root vectors.  Its element is the
        word's element of the weyl_group table, looked up by permutation."""
        m2 = 2 * self.num_pos
        perm, signs = tuple(range(m2)), (1,) * m2
        for i in word:
            if not 0 <= i < self.rank:
                raise LieAlgebraError(f"Weyl letter {i} is not a simple root index")
            lift = self._simple_lifts[i]
            signs = tuple(s * signs[t] for t, s in zip(lift.element.perm, lift.signs))
            perm = compose_perms(perm, lift.element.perm)
        return WeylElement(tuple(word), self.weyl_group[perm], signs)

    # -- sign characters -------------------------------------------------------

    def m_sign_characters(self, lattice: str = "coroot") -> tuple[tuple[int, ...], ...]:
        """The sign characters chi_t(beta) = (-1)^{beta(t)}, t a sum of
        distinct generators of the chosen lattice, as their distinct +-1
        scalings of g (1 on a), in descending order.

        On the coroot lattice beta(h_i) is entry i of beta's weight; on the
        coweight lattice beta(varpi_i^vee) is beta's i-th simple-root
        coordinate.
        """
        if lattice == "coroot":
            pairing = [w[: self.rank] for w in self.weights]
        elif lattice == "coweight":
            pairing = [(0,) * self.rank] * self.dim_a + self.roots()
        else:
            raise LieAlgebraError(f"unknown lattice {lattice!r}")
        scalings = {
            tuple(-1 if dot(t, p) % 2 else 1 for p in pairing)
            for t in product((0, 1), repeat=self.rank)
        }
        return tuple(sorted(scalings, reverse=True))

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        """Certify the algebra from its sparse structure constants: the table
        antisymmetric and graded by the weights, the Jacobi identity on every
        basis triple, a symmetric form, theta an involution and
        -B(x, theta y) positive definite.  The invariance of the form is
        verify's ``form_invariance``.

        The grading is checked first, on each pair i <= j: every term x_m of
        [x_i, x_j] has weight w_i + w_j.  Then each of the three terms of
        the Jacobi sum on a triple i < j < k lies in the weight space of
        w_i + w_j + w_k, so a triple whose weight sum is no basis vector's
        weight sums to zero and is skipped (Humphreys, Introduction to Lie
        Algebras and Representation Theory, section 25, for the root grading
        of a Chevalley basis).  The test reads an int key per weight, linear
        in its coordinates, so a weight sum always keys to a weight; a key
        that collides only lets an extra triple through.  The rest of the
        triples, fewer than half on B3, D4 and F4, are summed in ints.  E6,
        E7 and E8 build in about 0.05, 0.16 and 0.75 CPU s (Python 3.11, a
        shared 2-vCPU Linux guest).
        """
        dim = self.dim
        br = self.bracket_table
        weights = self.weights
        for i in range(dim):
            bri = br[i]
            for j in range(i, dim):
                bij = bri[j]
                if br[j][i] != {m: -c for m, c in bij.items()}:
                    raise LieAlgebraError(f"bracket table is not antisymmetric on pair {(i, j)}")
                if bij:
                    w = tuple(x + y for x, y in zip(weights[i], weights[j]))
                    for m in bij:
                        if weights[m] != w:
                            raise LieAlgebraError(
                                f"bracket table is not graded on pair {(i, j)}: term {m} has "
                                f"weight {weights[m]}, not {weights[i]} + {weights[j]}"
                            )
        # Jacobi on the triples i < j < k whose weight sum is a weight.  The
        # key reads a weight as digits in base 6M + 1, M the largest |entry|,
        # so it is additive, and on int weights no two sums of three collide.
        base = 6 * max((abs(x) for w in weights for x in w), default=0) + 1
        key = [sum(x * base**c for c, x in enumerate(w)) for w in weights]
        keys = set(key)
        for i in range(dim):
            bri, ki = br[i], key[i]
            for j in range(i + 1, dim):
                brj, bij, kij = br[j], bri[j], ki + key[j]
                for k in [k for k in range(j + 1, dim) if kij + key[k] in keys]:
                    bjk, bki = brj[k], br[k][i]
                    if not (bij or bjk or bki):
                        continue
                    # [[x_i, x_j], x_k] + [[x_j, x_k], x_i] + [[x_k, x_i], x_j]
                    total: dict[int, int] = {}
                    for u, x in ((bij, k), (bjk, i), (bki, j)):
                        for l, c in u.items():
                            for m, d in br[l][x].items():
                                total[m] = total.get(m, 0) + c * d
                    if any(total.values()):
                        raise LieAlgebraError(f"Jacobi identity fails on triple {(i, j, k)}")
        # symmetry of the form (its invariance is verify's form_invariance)
        for i in range(dim):
            for j in range(dim):
                if self.form_matrix[i][j] != self.form_matrix[j][i]:
                    raise LieAlgebraError("form is not symmetric")
        # theta is an involution with -B(x, theta x) > 0.  gram[i][j] =
        # -B(x_i, theta x_j) is summed over the nonzeros c x_l of theta x_j
        # and the nonzeros B(x_l, x_i) of form row l (the form is symmetric).
        gram = [[0] * dim for _ in range(dim)]
        for j, b in enumerate(identity(dim)):
            t = self.theta(b)
            if self.theta(t) != b:
                raise LieAlgebraError("theta is not an involution")
            for l, c in enumerate(t):
                if c != 0:
                    for i, f in self._form_rows[l]:
                        gram[i][j] -= f * c
        if _first_nonpositive_minor(gram) is not None:
            raise LieAlgebraError("-B(., theta .) is not positive definite")


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def build_from_cartan(
    cartan_matrix: Sequence[Sequence[int]], abelian_center_dim: int = 0
) -> LieAlgebraData:
    """Split reductive Lie algebra with the given Cartan matrix (rows of
    integers, not bools) and center."""
    if not isinstance(cartan_matrix, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) and all(type(x) is int for x in row)
        for row in cartan_matrix
    ):
        raise LieAlgebraError("Cartan matrix must be a list of rows of integers")
    if type(abelian_center_dim) is not int:
        raise LieAlgebraError("center dimension must be an integer")
    return _build_cached((tuple(map(tuple, cartan_matrix)), abelian_center_dim))


@lru_cache(maxsize=None)
def _build_cached(key) -> LieAlgebraData:
    cartan_matrix, abelian_center_dim = key
    a = [list(row) for row in cartan_matrix]
    n = len(a)
    if abelian_center_dim < 0:
        raise LieAlgebraError("center dimension must be nonnegative")
    d = validate_cartan_matrix(a) if n else []
    cc = _ChevalleyConstants(a, d) if n else None
    pos = cc.pos if cc else []
    dim_a = n + abelian_center_dim
    # basis vector dim_a + k has the root roots[k]: the e's, then the f's
    roots = pos + [tuple(-x for x in r) for r in pos]
    at = {r: k for k, r in enumerate(roots)}
    weights = [(0,) * dim_a] * dim_a
    weights += [
        tuple(sum(a[i][j] * r[j] for j in range(n)) for i in range(n))
        + (0,) * abelian_center_dim
        for r in roots
    ]
    dim = len(weights)

    zero: dict[int, int] = {}
    br = [[zero] * dim for _ in range(dim)]

    def put(i, j, comp: dict[int, int]):
        br[i][j], br[j][i] = comp, {k: -c for k, c in comp.items()}

    # [h_i, x_k] = weights[k][i] x_k
    for k in range(dim_a, dim):
        for i in range(n):
            if weights[k][i]:
                put(i, k, {k: weights[k][i]})
    # root vector brackets; for ki < kj with mu + nu = 0, mu is positive
    for ki, mu in enumerate(roots):
        for kj in range(ki + 1, len(roots)):
            nu = roots[kj]
            s = tuple(x + y for x, y in zip(mu, nu))
            if s in at:
                put(dim_a + ki, dim_a + kj, {dim_a + at[s]: cc.N(mu, nu)})
            elif not any(s):
                # [e_b, f_b] = coroot of b
                comp = {i: c for i, c in enumerate(_coroot(a, d, mu)) if c}
                put(dim_a + ki, dim_a + kj, comp)

    # Killing form B(x_i, x_j) = tr(ad x_i ad x_j) = sum_{k,l} c_il^k c_jk^l on
    # the semisimple part, read off the table. B pairs weight spaces of
    # opposite weight only, so the nonzero entries lie in the (h, h) block and
    # at the (e_p, f_p) pairs; the center pairs by the identity.
    def killing(i: int, j: int) -> int:
        t = 0
        for l in range(dim):
            for k, c in br[i][l].items():
                c2 = br[j][k].get(l)
                if c2:
                    t += c * c2
        return t

    form = [[0] * dim for _ in range(dim)]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    pairs += [(dim_a + p, dim_a + len(pos) + p) for p in range(len(pos))]
    for i, j in pairs:
        form[i][j] = form[j][i] = killing(i, j)
    for z in range(abelian_center_dim):
        form[n + z][n + z] = 1

    data = LieAlgebraData(
        rank=n,
        center_dim=abelian_center_dim,
        cartan_matrix=tuple(tuple(row) for row in a),
        symmetrizer=tuple(d),
        positive_roots=tuple(pos),
        bracket_table=tuple(map(tuple, br)),
        form_matrix=tuple(map(tuple, form)),
        weights=tuple(weights),
    )
    data.validate()
    return data


def compose_perms(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """The permutation p . q: k -> p[q[k]]."""
    return tuple(p[k] for k in q)


def inverse_perm(p: Sequence[int]) -> tuple[int, ...]:
    """The permutation q with p . q = q . p the identity."""
    out = [0] * len(p)
    for k, pk in enumerate(p):
        out[pk] = k
    return tuple(out)


def group_closure(generators: Sequence, identity_element) -> Iterator[tuple]:
    """The group generated by the permutations under compose_perms, as
    (element, word) pairs in discovery order; the element is the product of
    the generators named by the word, left to right.

    Breadth first from the identity, each level expanded in word order, so
    every word is the lexicographically least of the shortest words of its
    element.  A generator, so that a caller can stop at an element it rejects.
    """
    seen = {identity_element}
    level = [((), identity_element)]
    yield identity_element, ()
    while level:
        nxt = []
        for word, m in level:
            for i, g in enumerate(generators):
                m2 = compose_perms(m, g)
                if m2 not in seen:
                    seen.add(m2)
                    nxt.append((word + (i,), m2))
                    yield m2, word + (i,)
        level = nxt


# ---------------------------------------------------------------------------
# Named Cartan types
# ---------------------------------------------------------------------------


# the ranks each letter names, from the least to the most (A to D: any rank
# from the least); a letter not listed names none
_LEAST_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}
_MOST_RANK = {"E": 8, "F": 4, "G": 2}


def cartan_type_blocks(name: str) -> list[tuple[str, int]]:
    """The simple blocks of a named type such as "A2", "B3" or "A1xA1", as
    (letter, rank) pairs, read off the name before any matrix is built."""
    if not isinstance(name, str):
        raise LieAlgebraError(f"unknown Cartan type {name!r}")
    blocks = []
    for part in name.split("x"):
        part = part.strip()
        letter, rank_s = part[:1], part[1:]
        try:
            r = int(rank_s) if rank_s.isdecimal() else 0
        except ValueError as err:  # more digits than int() converts
            raise LieAlgebraError(f"Cartan type rank: {err}") from err
        if not _LEAST_RANK.get(letter, r + 1) <= r <= _MOST_RANK.get(letter, r):
            raise LieAlgebraError(f"unknown Cartan type {part!r}")
        blocks.append((letter, r))
    return blocks


def cartan_matrix_of_type(name: str) -> list[list[int]]:
    """Cartan matrix for names like "A2", "B3", "G2" or products "A1xA1"."""
    blocks = [_simple_type_matrix(*block) for block in cartan_type_blocks(name)]
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i in range(len(b)):
            for j in range(len(b)):
                out[off + i][off + j] = b[i][j]
        off += len(b)
    return out


def _simple_type_matrix(letter: str, r: int) -> list[list[int]]:
    """The Cartan matrix of one block of cartan_type_blocks."""

    def chain(n):
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = 2
            if i + 1 < n:
                m[i][i + 1] = -1
                m[i + 1][i] = -1
        return m

    if letter == "A":
        return chain(r)
    if letter == "B":
        m = chain(r)
        m[r - 1][r - 2] = -2
        return m
    if letter == "C":
        m = chain(r)
        m[r - 2][r - 1] = -2
        return m
    if letter in "DE":
        # a chain of r - 1 nodes, and one more joined to node r - 3 (D) or 2 (E)
        j = r - 3 if letter == "D" else 2
        m = chain(r - 1)
        for row in m:
            row.append(0)
        m.append([0] * r)
        m[r - 1][r - 1] = 2
        m[r - 1][j] = -1
        m[j][r - 1] = -1
        return m
    if letter == "F":
        m = chain(4)
        m[2][1] = -2
        m[1][2] = -1
        return m
    return [[2, -1], [-3, 2]]  # G2
