import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mat_inverse, rref

from littleweyl.linalg import (
    Subspace,
    _kernel_rows,
    combination,
    integer_echelon,
    integer_kernel,
    integer_reduce,
    primitive_ints,
    kernel,
    mat_mul,
    primitive_signed,
    rank,
    solve,
    solve_columns,
    vec,
)


def test_rref_is_canonical():
    s1 = Subspace.from_spanning(3, [(1, 2, 3), (0, 1, 1)])
    s2 = Subspace.from_spanning(3, [(2, 5, 7), (1, 3, 4)])
    assert s1 == s2
    assert s1.basis_matrix == s2.basis_matrix


def test_rref_pivots():
    red, pivots = rref([(0, 2, 4), (0, 1, 2)])
    assert pivots == (1,)
    assert red == ((Fraction(0), Fraction(1), Fraction(2)),)


def test_kernel_and_solve():
    m = [(1, 2, 1), (0, 1, 1)]
    k = kernel(m, 3)
    assert len(k) == 1
    for row in m:
        assert sum(a * b for a, b in zip(row, k[0])) == 0
    x = solve(m, (3, 2), 3)
    assert x is not None
    assert tuple(sum(a * b for a, b in zip(row, x)) for row in m) == (3, 2)
    assert solve([(1, 1), (1, 1)], (0, 1), 2) is None
    assert solve([], [], 2) == vec((0, 0))


def test_subspace_operations():
    u = Subspace.from_spanning(3, [(1, 0, 0), (0, 1, 0)])
    v = Subspace.from_spanning(3, [(0, 1, 0), (0, 0, 1)])
    meet = u.intersect(v)
    assert meet.dim == 1 and meet.contains_vector((0, 1, 0))
    join = u.add(v)
    assert join.dim == 3
    assert u.contains(meet) and v.contains(meet)
    assert u.dim + v.dim == meet.dim + join.dim


def test_intersection_random_dimension_formula():
    rng = random.Random(3)
    for _ in range(30):
        n = 4
        u = Subspace.from_spanning(
            n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(2)]
        )
        v = Subspace.from_spanning(
            n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(2)]
        )
        assert u.intersect(v).dim + u.add(v).dim == u.dim + v.dim
        assert u.contains(u.intersect(v))


def test_reduce_vector_canonical_mod_subspace():
    s = Subspace.from_spanning(3, [(1, 0, 1)])
    assert s.reduce_vector((2, 3, 2)) == vec((0, 3, 0))
    assert s.reduce_vector((1, 0, 1)) == vec((0, 0, 0))


def test_primitive_normalization():
    for v, want in [((0, -2, 4), (0, 1, -2)), ((Fraction(2, 3), Fraction(-4, 3)), (1, -2))]:
        got = primitive_signed(v)
        assert got == want and all(type(x) is int for x in got)


def test_entries_must_be_int_or_fraction():
    assert primitive_ints((Fraction(1, 2), 1, Fraction(-1, 4))) == (2, 4, -1)
    u = Subspace.from_spanning(2, [(Fraction(1, 3), 1)])
    for bad in [("1/3", 1), (0.5, 1)]:
        with pytest.raises(TypeError, match="int or Fraction"):
            primitive_ints(bad)
        with pytest.raises(TypeError, match="int or Fraction"):
            Subspace.from_spanning(2, [bad])
        with pytest.raises(TypeError, match="int or Fraction"):
            u.contains_vector(bad)
        with pytest.raises(TypeError, match="int or Fraction"):
            kernel([bad], 2)


def test_integer_kernel_is_saturated():
    assert integer_kernel([(1, 1)], 2) in ([(1, -1)], [(-1, 1)])
    k = integer_kernel([(2, 4)], 2)
    assert len(k) == 1 and tuple(sorted(map(abs, k[0]))) == (1, 2)
    # kernel lattice of an integer matrix contains every integer solution:
    # x0 + x2 = 0 and 2 x1 + x2 = 0 force x0 even, generator +-(2, 1, -2)
    k = integer_kernel([(1, 0, 1), (0, 2, 1)], 3)
    assert len(k) == 1
    x = k[0]
    assert x[0] + x[2] == 0 and 2 * x[1] + x[2] == 0
    assert tuple(map(abs, x)) == (2, 1, 2)


def test_mat_inverse():
    m = ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(5)))
    inv = mat_inverse(m)
    assert mat_mul(m, inv) == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


_ENTRIES = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _subspace_and_vectors(draw):
    n = draw(st.integers(1, 5))
    row = st.lists(_ENTRIES, min_size=n, max_size=n)
    sub = Subspace.from_spanning(n, draw(st.lists(row, max_size=4)))
    # a member of sub first, so that both answers occur
    coeffs = draw(st.lists(_ENTRIES, min_size=sub.dim, max_size=sub.dim))
    member = [Fraction(0)] * n
    for c, b in zip(coeffs, sub.basis_matrix):
        member = [x + c * y for x, y in zip(member, b)]
    vectors = draw(st.lists(row, min_size=1, max_size=3))
    return sub, [vec(member)] + [vec(v) for v in vectors]


@settings(max_examples=150, deadline=None)
@given(_subspace_and_vectors())
def test_membership_agrees_with_row_reduction(case):
    """reduce_vector, contains_vector and contains against their rref definitions."""
    sub, vectors = case
    _, pivots = rref(sub.basis_matrix)
    assert sub.pivots == pivots
    for v in vectors:
        want = list(v)
        for row, p in zip(sub.basis_matrix, pivots):
            f = want[p]
            want = [x - f * y for x, y in zip(want, row)]
        assert sub.reduce_vector(v) == tuple(want)
        assert sub.contains_vector(v) == (len(rref(sub.basis_matrix + (v,))[0]) == sub.dim)
    assert sub.contains(Subspace.from_spanning(sub.ambient_dim, vectors[:1]))
    spanned = Subspace.from_spanning(sub.ambient_dim, vectors)
    for other in (spanned, sub.add(spanned)):
        assert sub.contains(other) == (
            len(rref(sub.basis_matrix + other.basis_matrix)[0]) == sub.dim
        )


# -- differential tests against sympy.Matrix ---------------------------------


@st.composite
def _matrices(draw, square=False, min_rows=0):
    """Rational matrices with at least one column: some empty, some with zero
    rows, wide or tall, and some rank-deficient by design."""
    n_cols = draw(st.integers(1, 5))
    n_rows = n_cols if square else draw(st.integers(min_rows, 6))
    n_free = draw(st.integers(0, n_rows))
    row = st.lists(_ENTRIES, min_size=n_cols, max_size=n_cols)
    rows = draw(st.lists(row, min_size=n_free, max_size=n_free))
    # the remaining rows are combinations of the first ones, or zero rows
    for _ in range(n_rows - n_free):
        coeffs = draw(st.lists(_ENTRIES, min_size=len(rows), max_size=len(rows)))
        combo = [Fraction(0)] * n_cols
        for c, r in zip(coeffs, rows):
            combo = [x + c * y for x, y in zip(combo, r)]
        rows.append(combo)
    rows = draw(st.permutations(rows))
    return n_cols, [vec(r) for r in rows]


def _sym(n_cols: int, rows) -> sympy.Matrix:
    entries = [sympy.Rational(x.numerator, x.denominator) for r in rows for x in r]
    return sympy.Matrix(len(rows), n_cols, entries)


def _fracs(m: sympy.Matrix) -> tuple:
    return tuple(tuple(Fraction(int(x.p), int(x.q)) for x in m.row(i)) for i in range(m.rows))


@settings(max_examples=100, deadline=None)
@given(_matrices())
def test_rref_and_kernel_agree_with_sympy(case):
    n, rows = case
    m = _sym(n, rows)
    want, want_pivots = m.rref()
    red, pivots = rref(rows)
    assert pivots == tuple(want_pivots)
    assert rank(rows) == len(want_pivots)
    assert red == _fracs(want)[: len(pivots)]
    ker = kernel(rows, n)
    theirs = m.nullspace()
    assert len(ker) == len(theirs)
    if ker:
        # equal spans: the same reduced row echelon form, computed by sympy
        ours = _sym(n, ker).rref()[0]
        assert ours == sympy.Matrix.hstack(*theirs).T.rref()[0]


@settings(max_examples=100, deadline=None)
@given(_matrices(min_rows=0), st.data())
def test_solve_answers_exactly_the_consistent_systems(case, data):
    n, rows = case
    m = _sym(n, rows)
    if data.draw(st.booleans()):  # a right-hand side in the column space
        x = data.draw(st.lists(_ENTRIES, min_size=n, max_size=n))
        rhs = [sum((a * b for a, b in zip(r, x)), Fraction(0)) for r in rows]
    else:
        rhs = data.draw(st.lists(_ENTRIES, min_size=len(rows), max_size=len(rows)))
    consistent = m.rank() == m.row_join(_sym(1, [(b,) for b in rhs])).rank()
    x = solve(rows, rhs, n)
    assert (x is not None) == consistent
    if x is not None:
        assert len(x) == n
        assert [sum((a * b for a, b in zip(r, x)), Fraction(0)) for r in rows] == list(rhs)


@settings(max_examples=100, deadline=None)
@given(_matrices(square=True))
def test_mat_inverse_agrees_with_sympy(case):
    n, rows = case
    m = _sym(n, rows)
    if m.det() == 0:
        with pytest.raises(ValueError):
            mat_inverse(tuple(rows))
    else:
        assert mat_inverse(tuple(rows)) == _fracs(m.inv())


# -- differential tests against a Fraction Subspace ----------------------------
#
# The reference keeps a subspace as its reduced row echelon form over Fraction,
# from a plain Gauss-Jordan elimination, and runs every operation on those rows:
# the representation Subspace had before it stored primitive integer rows.


def _gauss_jordan(rows, n: int):
    """Reduced row echelon form of the first n columns: (rows, pivots)."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(n):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return tuple(tuple(r) for r in m[: len(pivots)]), tuple(pivots)


class _FracSubspace:
    def __init__(self, n: int, rows):
        self.n = n
        self.basis, self.pivots = _gauss_jordan(rows, n)

    def reduce_vector(self, v):
        v = tuple(Fraction(x) for x in v)
        for row, p in zip(self.basis, self.pivots):
            f = v[p]
            if f:
                v = tuple(x - f * y for x, y in zip(v, row))
        return v

    def contains_vector(self, v) -> bool:
        return not any(self.reduce_vector(v))

    def contains(self, other) -> bool:
        return all(self.contains_vector(r) for r in other.basis)

    def add(self, other):
        return _FracSubspace(self.n, self.basis + other.basis)

    def intersect(self, other):
        k = len(self.basis)
        eqs = [
            tuple(u[c] for u in self.basis) + tuple(-w[c] for w in other.basis)
            for c in range(self.n)
        ]
        rows = []
        for coeffs in _frac_kernel(eqs, k + len(other.basis)):
            row = [Fraction(0)] * self.n
            for c, u in zip(coeffs[:k], self.basis):
                row = [x + c * y for x, y in zip(row, u)]
            rows.append(row)
        return _FracSubspace(self.n, rows)

    def annihilator(self):
        return _frac_kernel(self.basis, self.n)

    def scale_coordinates(self, factors):
        return tuple(
            tuple(x * f / factors[p] for x, f in zip(row, factors))
            for row, p in zip(self.basis, self.pivots)
        )

    def transform(self, m):
        rows = [
            [sum((a * b for a, b in zip(mr, row)), Fraction(0)) for mr in m]
            for row in self.basis
        ]
        return _FracSubspace(len(m), rows)


def _frac_kernel(rows, n: int):
    red, pivots = _gauss_jordan(rows, n)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return _gauss_jordan(basis, n)[0]


@st.composite
def _spanning_rows(draw, n: int):
    """Spanning sets of subspaces of Q^n: empty, full, or rows of which some
    are combinations of the others or zero, so that many are rank-deficient."""
    kind = draw(st.sampled_from(["rows", "rows", "rows", "empty", "full"]))
    if kind == "empty":
        return []
    if kind == "full":
        return [[int(i == j) for j in range(n)] for i in range(n)]
    row = st.lists(_ENTRIES, min_size=n, max_size=n)
    rows = draw(st.lists(row, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        coeffs = draw(st.lists(_ENTRIES, min_size=len(rows), max_size=len(rows)))
        combo = [Fraction(0)] * n
        for c, r in zip(coeffs, rows):
            combo = [x + c * y for x, y in zip(combo, r)]
        rows.append(combo)
    return draw(st.permutations(rows))


def _same(sub: Subspace, ref: _FracSubspace) -> None:
    assert sub.basis_matrix == ref.basis
    assert sub.pivots == ref.pivots
    assert sub.rows == tuple(primitive_ints(r) for r in ref.basis)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_subspace_operations_match_the_fraction_reference(data):
    n = data.draw(st.integers(1, 5))
    rows_u = data.draw(_spanning_rows(n))
    rows_v = data.draw(_spanning_rows(n))
    u, ref_u = Subspace.from_spanning(n, rows_u), _FracSubspace(n, rows_u)
    v, ref_v = Subspace.from_spanning(n, rows_v), _FracSubspace(n, rows_v)
    _same(u, ref_u)
    _same(v, ref_v)

    _same(u.add(v), ref_u.add(ref_v))
    _same(u.intersect(v), ref_u.intersect(ref_v))
    _same(v.intersect(u), ref_v.intersect(ref_u))
    ann = u.annihilator()
    assert Subspace.from_spanning(n, ann).basis_matrix == ref_u.annihilator()
    assert ann == tuple(primitive_ints(r) for r in ref_u.annihilator())
    assert u.contains(v) == ref_u.contains(ref_v)
    assert v.contains(u) == ref_v.contains(ref_u)
    for w in list(rows_v) + [list(r) for r in ref_u.basis]:
        assert u.contains_vector(w) == ref_u.contains_vector(w)
        assert u.reduce_vector(w) == ref_u.reduce_vector(w)

    sign = st.sampled_from([1, -1, Fraction(1), Fraction(-1)])
    signs = data.draw(st.lists(sign, min_size=n, max_size=n))
    assert u.scale_coordinates(signs).basis_matrix == ref_u.scale_coordinates(signs)
    nonzero = _ENTRIES.filter(lambda x: x != 0)
    factors = data.draw(st.lists(nonzero, min_size=n, max_size=n))
    scaled = u.scale_coordinates(factors)
    assert scaled.basis_matrix == ref_u.scale_coordinates(factors)
    assert scaled == Subspace.from_spanning(n, scaled.basis_matrix)

    m = data.draw(st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), min_size=1, max_size=5))
    _same(u.transform(m), ref_u.transform(m))

    # equality and hash depend on the subspace only: any other spanning set,
    # here a triangular recombination of the basis plus the zero vector
    other = [list(r) for r in ref_u.basis]
    for i in range(1, len(other)):
        c = data.draw(_ENTRIES)
        other[i] = [x + c * y for x, y in zip(other[i], other[i - 1])]
    other = [[2 * x for x in r] for r in other] + [[0] * n]
    same = Subspace.from_spanning(n, data.draw(st.permutations(other)))
    assert same == u and hash(same) == hash(u)
    assert (u == v) == (ref_u.basis == ref_v.basis)


# -- differential tests against the earlier elimination ------------------------
#
# The oracles are the routines the library used before its one-pass echelon:
# an echelon that back-substitutes every new row into every stored row and
# makes each changed row primitive, an intersection through the kernel of the
# stacked n x (k + l) system [U^T | -V^T], and one elimination per
# right-hand side.


def _oracle_echelon(rows):
    out = []
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


def _oracle_subspace(n: int, rows) -> Subspace:
    return Subspace.from_echelon(n, _oracle_echelon(primitive_ints(r) for r in rows))


def _oracle_intersect(u: Subspace, v: Subspace) -> Subspace:
    if u.dim == 0 or v.dim == 0:
        return Subspace.zero(u.ambient_dim)
    eq_rows = [
        tuple(a[c] for a in u.rows) + tuple(-b[c] for b in v.rows)
        for c in range(u.ambient_dim)
    ]
    rows = [
        combination(coeffs, u.rows, u.ambient_dim)
        for coeffs in _kernel_rows(_oracle_echelon(eq_rows), u.dim + v.dim)
    ]
    return _oracle_subspace(u.ambient_dim, rows)


def _oracle_solve(rows, rhs, ncols):
    echelon = _oracle_echelon(primitive_ints((*r, b)) for r, b in zip(rows, rhs))
    x = [0] * ncols
    for p, row in echelon:
        if p == ncols:
            return None
        x[p] = Fraction(row[-1], row[p])
    return tuple(x)


@st.composite
def _int_matrices(draw, min_cols=1):
    """Integer matrices with zero rows, repeated rows and rows that are
    combinations of earlier ones, so that many are rank-deficient."""
    n = draw(st.integers(min_cols, 7))
    row = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    rows = draw(st.lists(row, max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "repeat", "combination"]))
        if kind == "zero" or not rows:
            rows.append([0] * n)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)])
    return n, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(_int_matrices())
def test_echelon_matches_the_oracle_pair_for_pair(case):
    """The same (pivot, row) pairs in the same order, the order the rows
    that raise the rank arrive in."""
    _, rows = case
    assert integer_echelon(rows) == _oracle_echelon(rows)
    assert integer_echelon(map(tuple, rows)) == _oracle_echelon(rows)


@st.composite
def _subspace_pairs(draw):
    """Pairs of subspaces of Q^n; in some one side is a coordinate subspace,
    as a, l_Q and l_Q + n_Q are in g."""
    n = draw(st.integers(1, 7))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    pair = []
    for _ in range(2):
        if draw(st.integers(0, 2)) == 0:
            pair.append(Subspace.from_coordinates(n, draw(st.sets(st.integers(0, n - 1)))))
        else:
            pair.append(Subspace.from_spanning(n, draw(st.lists(row, max_size=n + 1))))
    return pair


@settings(max_examples=300, deadline=None)
@given(_subspace_pairs())
def test_intersect_matches_the_stacked_kernel_oracle(pair):
    u, v = pair
    assert u.intersect(v) == _oracle_intersect(u, v)
    assert v.intersect(u) == _oracle_intersect(v, u)


@settings(max_examples=200, deadline=None)
@given(_int_matrices(), st.data())
def test_one_elimination_answers_every_right_hand_side(case, data):
    """solve_columns gives, for each right-hand side, what one elimination
    per right-hand side gives, None included, and the rank of M."""
    n, rows = case
    columns = []
    for _ in range(data.draw(st.integers(0, 4))):
        if data.draw(st.booleans()):  # in the column space
            x = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
            columns.append([sum(a * b for a, b in zip(r, x)) for r in rows])
        else:
            columns.append(
                data.draw(st.lists(_ENTRIES, min_size=len(rows), max_size=len(rows)))
            )
    got_rank, got = solve_columns(rows, columns, n)
    assert got_rank == len(_oracle_echelon(rows))
    assert got == [_oracle_solve(rows, b, n) for b in columns]
    assert [solve(rows, b, n) for b in columns] == got


def test_binary_operations_refuse_a_dimension_mismatch():
    u = Subspace.from_spanning(3, [(1, 0, 0)])
    v = Subspace.from_spanning(2, [(0, 1)])
    for a, b in ((u, v), (v, u)):
        want = rf"subspace of Q\^{b.ambient_dim} against a subspace of Q\^{a.ambient_dim}"
        for op in (a.add, a.intersect, a.contains):
            with pytest.raises(ValueError, match=want):
                op(b)
    with pytest.raises(ValueError, match=r"vector of Q\^2 against a subspace of Q\^3"):
        u.contains_vector((1, 0))
    with pytest.raises(ValueError, match=r"vector of Q\^3 against a subspace of Q\^2"):
        v.contains_vector((0, 1, 0))


def test_library_divides_exactly():
    # int / int is a float in Python: every exact division of the library is
    # written Fraction(a, b), and the float flow oracle normalises its rows
    # in _orthonormal_rows, the one place that divides with /
    src = Path(__file__).resolve().parents[1] / "src" / "littleweyl"
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (path.name, node.name) == (
                "limits.py",
                "_orthonormal_rows",
            ):
                allowed |= {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                if id(node) not in allowed:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
