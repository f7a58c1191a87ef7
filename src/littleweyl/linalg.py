"""Exact linear algebra over the rationals.

Vectors and matrices are tuples of rationals, each entry an ``int`` or a
``Fraction``.  The vector routines keep the type of their input: they start
from the integer 0, so integer input gives integer output, and a
``Fraction`` appears only where a division made one.  The routines that
row-reduce reject other entry types with a TypeError.  There is one
elimination, the fraction-free ``integer_echelon`` on primitive integer
rows.  A ``Subspace`` stores the canonical echelon form it gives as primitive
integer rows, so two subspaces are equal as sets exactly when their rows are
identical; ``Subspace.basis_matrix`` is the ``Fraction`` view of that form,
its reduced row echelon form, for callers that need exact rational
coordinates.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Sequence

Vec = tuple[int | Fraction, ...]
Mat = tuple[Vec, ...]
IntVec = tuple[int, ...]
# (pivot, row) pairs of a fraction-free echelon form; see integer_echelon
IntEchelon = list[tuple[int, tuple[int, ...]]]


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries: Iterable) -> Vec:
    return tuple(frac(x) for x in entries)


def zero_vec(n: int) -> Vec:
    return (0,) * n


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_scale(c, a: Vec) -> Vec:
    return tuple(c * x for x in a)


def dot(a: Vec, b: Vec) -> int | Fraction:
    if len(a) != len(b):
        raise ValueError(f"dot of vectors of lengths {len(a)} and {len(b)}")
    return sum(map(mul, a, b))


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
    out = [0] * n
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
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def identity(n: int) -> Mat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


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
    return Subspace.kernel_of(ncols, rows).basis_matrix


def _kernel_rows(echelon: IntEchelon, ncols: int) -> list[IntVec]:
    """Integer rows spanning {x : M x = 0}, for M in reduced integer echelon
    form: one per free column f, with x_f the lcm of the pivot entries of the
    rows that meet column f, so that every pivot coordinate is an integer."""
    pivots = {p for p, _ in echelon}
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        meet = [(p, row) for p, row in echelon if row[f]]
        l = lcm(*(row[p] for p, row in meet))
        x = [0] * ncols
        x[f] = l
        for p, row in meet:
            x[p] = -row[f] * (l // row[p])
        out.append(tuple(x))
    return out


def solve(rows: Sequence[Sequence], rhs: Sequence, ncols: int) -> Vec | None:
    """One solution of M x = b for the matrix M with the given rows and ncols
    columns, or None if inconsistent; the free unknowns are 0."""
    return solve_columns(rows, [rhs], ncols)[1][0]


def solve_columns(
    rows: Sequence[Sequence], columns: Sequence[Sequence], ncols: int
) -> tuple[int, list[Vec | None]]:
    """The rank of M and, for each right-hand side b in columns, what
    ``solve`` answers for M x = b, from one elimination of M augmented with
    every b.

    The echelon rows with a pivot in M span the reduced echelon form of M,
    and those with a pivot among the right-hand sides span the combinations
    that vanish on M.  So M x = b is consistent when each of the latter is
    zero in b's column, and then each of the former gives its pivot unknown
    as its entry there over its pivot entry, with the free unknowns 0."""
    echelon = integer_echelon(
        primitive_ints((*r, *b)) for r, *b in zip(rows, *columns, strict=True)
    )
    solutions: list[Vec | None] = []
    for j in range(ncols, ncols + len(columns)):
        if any(p >= ncols and row[j] for p, row in echelon):
            solutions.append(None)
            continue
        x = [0] * ncols
        for p, row in echelon:
            if p < ncols:
                x[p] = Fraction(row[j], row[p])
        solutions.append(tuple(x))
    return sum(p < ncols for p, _ in echelon), solutions


def primitive_ints(v: Sequence) -> tuple[int, ...]:
    """The primitive integer vector on the ray of a rational vector, its
    entries int or Fraction; 0 stays 0.  Every row-reducing entry point of
    this module (rank, kernel, solve, the Subspace constructors and
    membership tests) reads its rows through here.  An int vector costs one
    gcd: math.gcd refuses any other entry."""
    try:
        g = gcd(*v)
    except TypeError:
        try:
            l = lcm(*(x.denominator for x in v))
        except AttributeError:
            raise TypeError("vector entries must be int or Fraction") from None
        v = [x.numerator * (l // x.denominator) for x in v]
        g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def primitive_signed(v: Sequence) -> IntVec:
    """Primitive integer vector with first nonzero entry positive."""
    p = primitive_ints(v)
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

    Returns (pivot, row) pairs, in the order the rows that raise the rank
    arrive: each row is primitive, its first nonzero entry is positive and
    sits at its pivot, and every other row is zero there.  Dividing each row
    by its pivot entry and sorting by pivot gives the reduced row echelon
    form (``_rref_of_echelon``).

    One forward pass reduces each new row against the stored rows in pivot
    order (``integer_reduce``), which clears it on their pivots since a row
    is zero before its own pivot, and stores it primitive.  One
    back-substitution, from the last pivot up, then clears each row on the
    pivots after its own, and makes primitive the rows it changed.
    """
    stair: IntEchelon = []  # the stored rows, sorted by pivot
    order = []
    for v in rows:
        v = integer_reduce(v, stair)
        for p, x in enumerate(v):
            if x:
                break
        else:
            continue
        insort(stair, (p, primitive_ints(v if x > 0 else [-y for y in v])))
        order.append(p)
    if len(stair) < 2:
        return stair
    for i in range(len(stair) - 2, -1, -1):
        p, v = stair[i]
        w = integer_reduce(v, stair[i + 1 :])
        if w is not v:  # tuple() of an unchanged tuple is that tuple
            stair[i] = (p, primitive_ints(w))
    reduced = dict(stair)
    return [(p, reduced[p]) for p in order]


def integer_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank of an integer matrix, by fraction-free elimination."""
    return len(integer_echelon(rows))


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


class Frozen:
    """Base of the value classes that keep per-instance caches in their
    ``__dict__`` (``cached_property`` values, stages).  A subclass's fields
    are its own annotated names without a leading underscore, in order, and
    ``_fields`` lists them.  The one constructor takes them as a call of
    that signature would; assigning or deleting an attribute afterwards
    raises AttributeError.  Equality and the hash read the tuple ``_key()``,
    every field unless the class names fewer, and the repr lists
    ``_fields``.  ``_stages``, the store of ``spherical.stage``, is created
    on the first stage, so an instance built again starts with none."""

    __slots__ = ()
    _fields: tuple[str, ...]  # the constructor's parameters, in order

    def __init_subclass__(cls) -> None:
        names = vars(cls).get("__annotations__", {})
        setattr(cls, "_fields", tuple(name for name in names if not name.startswith("_")))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = _bind(fields, (), args, kwargs)
        self.__dict__.update(zip(fields, args))

    @cached_property
    def _stages(self) -> dict:
        return {}

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


def _bind(names: tuple[str, ...], defaults: tuple, args: tuple, kwargs: dict) -> tuple:
    """The arguments of a call in the order of ``names``, the trailing
    ``defaults`` filling what the call leaves out: the binder of the
    ``Frozen`` constructor and of ``spherical.stage``."""
    if len(args) > len(names):
        raise TypeError("too many positional arguments")
    given = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"got an unexpected keyword argument {name!r}")
        if name in given:
            raise TypeError(f"multiple values for argument {name!r}")
        given[name] = value
    given = dict(zip(names[len(names) - len(defaults) :], defaults)) | given
    for name in names:
        if name not in given:
            raise TypeError(f"missing a required argument: {name!r}")
    return tuple(given[name] for name in names)


class Subspace(Frozen):
    """Subspace of Q^n, stored as its canonical integer echelon form.

    ``rows`` are primitive integer vectors sorted by pivot, the column of
    their first nonzero entry; each pivot entry is positive and every other
    row is zero in its column.  That is the reduced row echelon form with
    each row scaled to a primitive integer vector, so it is unique: equality
    of subspaces is equality of rows.  Membership and reduction read the
    pivots, with no further elimination.  ``basis_matrix`` is the reduced row
    echelon form itself, as Fractions.  The constructor takes rows already in
    that form; the static methods build them from any other description.
    """

    ambient_dim: int
    rows: tuple[IntVec, ...]

    def _key(self) -> tuple:
        return self.ambient_dim, self.rows

    def __repr__(self) -> str:
        # the Fraction view, which reports print in their check details
        return f"Subspace(ambient_dim={self.ambient_dim!r}, basis_matrix={self.basis_matrix!r})"

    @staticmethod
    def from_spanning(ambient_dim: int, rows: Sequence[Sequence]) -> "Subspace":
        return Subspace.from_echelon(
            ambient_dim, integer_echelon(primitive_ints(r) for r in rows)
        )

    @staticmethod
    def from_echelon(ambient_dim: int, echelon: IntEchelon) -> "Subspace":
        """The subspace spanned by the rows of an integer echelon form."""
        return Subspace(ambient_dim, tuple(row for _, row in sorted(echelon)))

    @staticmethod
    def kernel_of(ambient_dim: int, rows: Sequence[Sequence]) -> "Subspace":
        """{x : M x = 0} for the matrix with the given rows and ambient_dim
        columns."""
        echelon = integer_echelon(primitive_ints(r) for r in rows)
        return Subspace.from_spanning(ambient_dim, _kernel_rows(echelon, ambient_dim))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace.from_coordinates(ambient_dim, range(ambient_dim))

    @staticmethod
    def from_coordinates(ambient_dim: int, indices: Iterable[int]) -> "Subspace":
        rows = []
        for i in sorted(set(indices)):
            v = [0] * ambient_dim
            v[i] = 1
            rows.append(tuple(v))
        return Subspace(ambient_dim, tuple(rows))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """The pivot column of each row: its first nonzero entry."""
        return tuple(next(c for c, x in enumerate(row) if x) for row in self.rows)

    @cached_property
    def _echelon(self) -> IntEchelon:
        return list(zip(self.pivots, self.rows))

    @cached_property
    def basis_matrix(self) -> Mat:
        """The reduced row echelon form: each row divided by its pivot entry."""
        return _rref_of_echelon(self._echelon)[0]

    def _check_dim(self, other_dim: int, what: str) -> None:
        if other_dim != self.ambient_dim:
            raise ValueError(f"{what} of Q^{other_dim} against a subspace of Q^{self.ambient_dim}")

    def contains_vector(self, v: Sequence) -> bool:
        self._check_dim(len(v), "vector")
        return not any(integer_reduce(primitive_ints(v), self._echelon))

    def contains(self, other: "Subspace") -> bool:
        self._check_dim(other.ambient_dim, "subspace")
        return all(self.contains_vector(row) for row in other.rows)

    def add(self, other: "Subspace") -> "Subspace":
        self._check_dim(other.ambient_dim, "subspace")
        return Subspace.from_echelon(
            self.ambient_dim, integer_echelon(self.rows + other.rows)
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        """U cap V: the combinations sum c_i u_i of U's rows that every
        annihilator row a of V kills, the kernel of the matrix (a . u_i).
        The annihilator rows are read by their nonzeros, so a coordinate V
        costs a read of U's rows in the coordinates it lacks."""
        self._check_dim(other.ambient_dim, "subspace")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        eqs = [
            tuple(sum(x * u[j] for j, x in a) for u in self.rows)
            for a in other._annihilator_terms
        ]
        rows = [
            combination(coeffs, self.rows, self.ambient_dim)
            for coeffs in _kernel_rows(integer_echelon(eqs), self.dim)
        ]
        return Subspace.from_spanning(self.ambient_dim, rows)

    @cached_property
    def _annihilator_rows(self) -> list[IntVec]:
        """Integer functionals spanning the annihilator: one per non-pivot
        column, as ``_kernel_rows`` gives them, so a coordinate subspace gives
        the other coordinates."""
        return _kernel_rows(self._echelon, self.ambient_dim)

    @cached_property
    def _annihilator_terms(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzero (column, entry) pairs of ``_annihilator_rows``."""
        return tuple(tuple((j, x) for j, x in enumerate(a) if x) for a in self._annihilator_rows)

    @cached_property
    def _annihilator(self) -> tuple[IntVec, ...]:
        return Subspace.from_spanning(self.ambient_dim, self._annihilator_rows).rows

    def annihilator(self) -> tuple[IntVec, ...]:
        """Canonical basis of the functionals vanishing on the subspace: the
        integer echelon rows of that space of functionals, computed once per
        subspace."""
        return self._annihilator

    def transform(self, m: Mat) -> "Subspace":
        """Image under the linear map given by the matrix (columns = input coords)."""
        return self.image(lambda row: mat_vec(m, row), len(m))

    def image(
        self, fn: Callable[[Sequence], Sequence], ambient_dim: int | None = None
    ) -> "Subspace":
        """Image under a linear map given as a function on vectors, in a space
        of dimension ambient_dim (by default the same space).  The function
        is applied to the integer rows."""
        dim = self.ambient_dim if ambient_dim is None else ambient_dim
        return Subspace.from_spanning(dim, [fn(row) for row in self.rows])

    def scale_coordinates(self, factors: Sequence) -> "Subspace":
        """Image under the diagonal map x_i -> factors[i] x_i (factors nonzero).

        The scaled rows keep the zero pattern of a reduced echelon form, so
        no row reduction is needed: each row is scaled back to a primitive
        integer vector, negated when its pivot factor is negative.  Scaling
        every factor by one positive number scales each image vector and
        keeps the image, so the factors are first made primitive integers.
        """
        factors = tuple(factors)
        if len(factors) != self.ambient_dim or not all(factors):
            raise ValueError("coordinate scaling needs one nonzero factor per coordinate")
        factors = primitive_ints(factors)
        rows = []
        for p, row in self._echelon:
            scaled = primitive_ints([x * f for x, f in zip(row, factors)])
            rows.append(scaled if factors[p] > 0 else tuple(-x for x in scaled))
        return Subspace(self.ambient_dim, tuple(rows))

    def reduce_vector(self, v: Sequence) -> Vec:
        """Canonical representative of v modulo the subspace: v reduced to
        zero on the pivots, one row at a time."""
        v = tuple(v)
        for p, row in self._echelon:
            f = v[p]
            if f:
                c = Fraction(f, row[p])
                v = tuple(x - c * y if y else x for x, y in zip(v, row))
        return v
