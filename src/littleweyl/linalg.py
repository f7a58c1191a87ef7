"""Exact linear algebra over the rationals.

Vectors are tuples of Fraction, matrices are tuples of row tuples.  There
is one elimination, the fraction-free ``integer_echelon`` on primitive
integer rows; ``rref`` reads the canonical reduced row echelon form off it,
so two subspaces are equal as sets exactly when their basis matrices are
identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]
# (pivot, row) pairs of a fraction-free echelon form; see integer_echelon
IntEchelon = list[tuple[int, tuple[int, ...]]]


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries: Iterable) -> Vec:
    return tuple(frac(x) for x in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_scale(c, a: Vec) -> Vec:
    c = frac(c)
    return tuple(c * x for x in a)


def dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def sparse_combination(
    terms: Iterable[tuple[Fraction, dict[int, Fraction]]],
) -> dict[int, Fraction]:
    """The sum of c * v over the (c, v) in terms, for sparse vectors v
    (index -> entry), as a sparse vector with no zero entries."""
    out: dict[int, Fraction] = {}
    for c, v in terms:
        for k, x in v.items():
            out[k] = out.get(k, 0) + c * x
    return {k: x for k, x in out.items() if x != 0}


def combination(coeffs: Iterable, rows: Iterable[Sequence], n: int) -> Vec:
    """The sum of c * row over coeffs and rows taken in pairs, in Q^n; the
    pairing stops at the shorter of the two."""
    out = [Fraction(0)] * n
    for c, row in zip(coeffs, rows):
        if c:
            for i, x in enumerate(row):
                if x:
                    out[i] += c * x
    return tuple(out)


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b)) if b else ()
    return tuple(tuple(dot(row, vec(col)) for col in bt) for row in a)


def identity(n: int) -> Mat:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def mat_inverse(m: Mat) -> Mat:
    """Inverse of a square rational matrix; raises on singular input."""
    n = len(m)
    aug = [list(row) + list(identity(n)[i]) for i, row in enumerate(m)]
    red, pivots = rref(aug)
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(red[i][n:]) for i in range(n))


def mat_transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def rref(rows: Sequence[Sequence]) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns).

    Each row is scaled to a primitive integer vector, which keeps the row
    space, and the rows are reduced by ``integer_echelon``."""
    return _rref_of_echelon(integer_echelon(primitive_ints(r) for r in rows))


def _rref_of_echelon(echelon: IntEchelon) -> tuple[Mat, tuple[int, ...]]:
    """The reduced row echelon form read off an integer echelon form: its
    rows sorted by pivot, each divided by its pivot entry."""
    echelon = sorted(echelon)
    return (
        tuple(tuple(Fraction(x, row[p]) for x in row) for p, row in echelon),
        tuple(p for p, _ in echelon),
    )


def rank(rows: Sequence[Sequence]) -> int:
    return integer_rank(primitive_ints(r) for r in rows)


def kernel(rows: Sequence[Sequence], ncols: int) -> Mat:
    """Canonical basis of {x : M x = 0} for the matrix with the given rows."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(tuple(v))
    red_basis, _ = rref(basis)
    return red_basis


def solve(rows: Sequence[Sequence], rhs: Sequence) -> Vec | None:
    """One solution of M x = b, or None if inconsistent."""
    rows = mat(rows)
    b = vec(rhs)
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(r) + [bi] for r, bi in zip(rows, b, strict=True)]
    red, pivots = rref(aug)
    for row in red:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        if p == ncols:
            return None
        x[p] = red[r][-1]
    return tuple(x)


def primitive_ints(v: Sequence) -> tuple[int, ...]:
    """The primitive integer vector on the ray of a rational vector; 0 stays 0."""
    if all(type(x) is int for x in v):
        ints = v
    else:
        v = vec(v)
        l = lcm(*(x.denominator for x in v))
        ints = [x.numerator * (l // x.denominator) for x in v]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def primitive(v: Sequence) -> Vec:
    """Scale a rational vector to a primitive integer vector, keeping direction."""
    return tuple(Fraction(x) for x in primitive_ints(v))


def primitive_signed(v: Sequence) -> Vec:
    """Primitive integer vector with first nonzero entry positive."""
    p = primitive(v)
    for x in p:
        if x != 0:
            return p if x > 0 else vec_scale(-1, p)
    return p


def integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """Z-basis of {x in Z^n : M x = 0} for an integer matrix M.

    Column elimination with extended gcd steps; the tracked transformation is
    unimodular, so the result is a basis of the full (saturated) kernel lattice.
    """
    m = [list(map(int, r)) for r in rows]
    u = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    active = list(range(ncols))

    def col_combine(ca, cb, a, b, c, d):
        # (col_ca, col_cb) <- (a*col_ca + b*col_cb, c*col_ca + d*col_cb)
        for row in m:
            x, y = row[ca], row[cb]
            row[ca], row[cb] = a * x + b * y, c * x + d * y
        for row in u:
            x, y = row[ca], row[cb]
            row[ca], row[cb] = a * x + b * y, c * x + d * y

    for i in range(len(m)):
        nz = [c for c in active if m[i][c] != 0]
        while len(nz) > 1:
            ca, cb = nz[0], nz[1]
            x, y = m[i][ca], m[i][cb]
            g, s, t = _xgcd(x, y)
            col_combine(ca, cb, s, t, -(y // g), x // g)
            nz = [c for c in active if m[i][c] != 0]
        if nz:
            active.remove(nz[0])
    return [tuple(u[r][c] for r in range(ncols)) for c in active]


def integer_reduce(v: Sequence[int], echelon: IntEchelon) -> tuple[int, ...]:
    """A positive multiple of v, reduced to zero on the pivots of ``echelon``.

    Each step is v -> row[p]·v - v[p]·row with row[p] > 0, so the direction of
    v modulo the span of the rows is kept and no division is needed."""
    for p, row in echelon:
        f = v[p]
        if f:
            d = row[p]
            v = [d * x - f * y for x, y in zip(v, row)]
    return tuple(v)


def integer_echelon(rows: Iterable[Sequence[int]]) -> IntEchelon:
    """Fraction-free reduced echelon form of an integer matrix.

    Returns (pivot, row) pairs: each row is primitive, its first nonzero entry
    is positive and sits at its pivot, and every other row is zero there.
    Dividing each row by its pivot entry and sorting by pivot gives the
    reduced row echelon form of ``rref``.
    """
    out: IntEchelon = []
    for v in rows:
        v = integer_reduce(v, out)
        p = next((c for c, x in enumerate(v) if x), None)
        if p is None:
            continue
        v = primitive_ints(v if v[p] > 0 else [-x for x in v])
        d = v[p]
        out = [
            (q, primitive_ints([d * x - b[p] * y for x, y in zip(b, v)]) if b[p] else b)
            for q, b in out
        ]
        out.append((p, v))
    return out


def integer_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank of an integer matrix, by fraction-free elimination."""
    return len(integer_echelon(rows))


def int_dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^n in canonical reduced row echelon form.

    Rows of ``basis_matrix`` are the basis vectors; equality of subspaces is
    equality of matrices.  Membership and reduction read the pivots of that
    echelon form, with no further elimination.
    """

    ambient_dim: int
    basis_matrix: Mat

    @staticmethod
    def from_spanning(ambient_dim: int, rows: Sequence[Sequence]) -> "Subspace":
        red, _ = rref(rows)
        return Subspace(ambient_dim, red)

    @staticmethod
    def from_echelon(ambient_dim: int, echelon: IntEchelon) -> "Subspace":
        """The subspace spanned by the rows of an integer echelon form."""
        return Subspace(ambient_dim, _rref_of_echelon(echelon)[0])

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, identity(ambient_dim))

    @staticmethod
    def from_coordinates(ambient_dim: int, indices: Iterable[int]) -> "Subspace":
        rows = []
        for i in sorted(set(indices)):
            v = [Fraction(0)] * ambient_dim
            v[i] = Fraction(1)
            rows.append(tuple(v))
        return Subspace(ambient_dim, tuple(rows))

    @property
    def dim(self) -> int:
        return len(self.basis_matrix)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """The pivot column of each basis row: its first nonzero entry."""
        return tuple(next(c for c, x in enumerate(row) if x) for row in self.basis_matrix)

    def contains_vector(self, v: Sequence) -> bool:
        return not any(self.reduce_vector(v))

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(row) for row in other.basis_matrix)

    def add(self, other: "Subspace") -> "Subspace":
        return Subspace.from_spanning(
            self.ambient_dim, self.basis_matrix + other.basis_matrix
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        """U cap V via the kernel of the stacked coefficient system."""
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        k, l = self.dim, other.dim
        # columns of M are the equations sum a_i u_i - sum b_j v_j = 0
        eq_rows = []
        for c in range(self.ambient_dim):
            eq_rows.append(
                tuple(self.basis_matrix[i][c] for i in range(k))
                + tuple(-other.basis_matrix[j][c] for j in range(l))
            )
        rows = [
            combination(coeffs, self.basis_matrix, self.ambient_dim)
            for coeffs in kernel(eq_rows, k + l)
        ]
        return Subspace.from_spanning(self.ambient_dim, rows)

    def annihilator(self) -> Mat:
        """Canonical basis of functionals vanishing on the subspace."""
        return kernel(self.basis_matrix, self.ambient_dim)

    def transform(self, m: Mat) -> "Subspace":
        """Image under the linear map given by the matrix (columns = input coords)."""
        return self.image(lambda row: mat_vec(m, row), len(m))

    def image(self, fn: Callable[[Vec], Vec], ambient_dim: int | None = None) -> "Subspace":
        """Image under a linear map given as a function on vectors, in a space
        of dimension ambient_dim (by default the same space)."""
        dim = self.ambient_dim if ambient_dim is None else ambient_dim
        return Subspace.from_spanning(dim, [fn(row) for row in self.basis_matrix])

    def scale_coordinates(self, factors: Sequence) -> "Subspace":
        """Image under the diagonal map x_i -> factors[i] x_i (factors nonzero).

        Dividing each scaled row by the factor at its pivot keeps the reduced
        row echelon form, so no row reduction is needed.
        """
        factors = vec(factors)
        if len(factors) != self.ambient_dim or any(f == 0 for f in factors):
            raise ValueError("coordinate scaling needs one nonzero factor per coordinate")
        rows = tuple(
            tuple(x * f / factors[p] for x, f in zip(row, factors))
            for row, p in zip(self.basis_matrix, self.pivots)
        )
        return Subspace(self.ambient_dim, rows)

    def reduce_vector(self, v: Sequence) -> Vec:
        """Canonical representative of v modulo the subspace: v reduced to
        zero on the pivots, one row at a time."""
        v = vec(v)
        for row, p in zip(self.basis_matrix, self.pivots):
            f = v[p]
            if f:
                v = tuple(x - f * y if y else x for x, y in zip(v, row))
        return v
