import hashlib
import re
from fractions import Fraction

import pytest
import sympy
from conftest import replace, root_index, sign_scalings
from hypothesis import given, settings
from hypothesis import strategies as st

from littleweyl import lie as lie_module
from littleweyl.lie import (
    ContractViolation,
    LieAlgebraData,
    LieAlgebraError,
    _ChevalleyConstants,
    _first_nonpositive_minor,
    build_from_cartan,
    cartan_matrix_of_type,
    cartan_type_blocks,
    positive_roots_of,
    validate_cartan_matrix,
)
from littleweyl.linalg import (
    Subspace,
    dot,
    identity,
    kernel,
    mat_mul,
    mat_vec,
    vec,
    vec_add,
    vec_scale,
)
from littleweyl.spherical import WordEntry, translate
from littleweyl.verify import CheckResult, lie_invariants


H, E, F = (1, 0, 0), (0, 1, 0), (0, 0, 1)


@pytest.mark.parametrize(
    "name,dim",
    [("A1", 3), ("A2", 8), ("B2", 10), ("G2", 14), ("A1xA1", 6)],
)
def test_dimensions(name, dim):
    lie = build_from_cartan(cartan_matrix_of_type(name))
    assert lie.dim == dim
    assert lie.dim == lie.rank + 2 * lie.num_pos


def test_center_dimension():
    lie = build_from_cartan(cartan_matrix_of_type("A1"), abelian_center_dim=2)
    assert lie.dim == 5 and lie.dim_a == 3
    z = (0, 1, 0, 0, 0)
    assert all(c == 0 for c in lie.bracket(z, (1, 0, 0, 1, 1)))
    assert lie.invariant_form(z, z) == 1


def test_sl2_chevalley_relations(a1):
    assert a1.bracket(H, E) == vec((0, 2, 0))
    assert a1.bracket(E, F) == vec(H)
    assert all(c == 0 for c in a1.bracket(E, E))
    assert a1.bracket(E, H) == vec((0, -2, 0))


def test_sl2_killing_form_values(a1):
    # oracle: trace of products of ad matrices assembled from the bracket
    basis = identity(3)
    ads = [tuple(zip(*[a1.bracket(b, e) for e in basis])) for b in basis]

    def tr(p, q):
        m = mat_mul(ads[p], ads[q])
        return sum(m[i][i] for i in range(3))

    assert a1.invariant_form(H, H) == tr(0, 0) == 8
    assert a1.invariant_form(E, E) == tr(1, 1) == 0
    assert a1.invariant_form(E, F) == tr(1, 2) == 4


@pytest.mark.parametrize(
    "name, center", [("A1", 0), ("A2", 0), ("B2", 0), ("G2", 0), ("A3", 0), ("A2", 1)]
)
def test_killing_form_matches_the_dense_trace_formula(name, center):
    # oracle: tr(ad x_i ad x_j) over dense ad matrices, identity on the center
    lie = build_from_cartan(cartan_matrix_of_type(name), abelian_center_dim=center)
    basis = identity(lie.dim)
    ads = [tuple(zip(*[lie.bracket(b, e) for e in basis])) for b in basis]
    n = range(lie.dim)
    want = [
        [sum((ads[i][r][s] * ads[j][s][r] for r in n for s in n), Fraction(0)) for j in n]
        for i in n
    ]
    for z in range(center):
        want[lie.rank + z][lie.rank + z] = Fraction(1)
    assert lie.form_matrix == tuple(tuple(row) for row in want)


def test_jacobi_holds_at_build():
    # validate() runs at construction; G2 exercises constants up to +-3
    build_from_cartan(cartan_matrix_of_type("G2")).validate()


def test_structure_constants_match_root_strings(b2):
    # |N(alpha, beta)| = p + 1 with p the length of the descending root string
    roots = set(b2.positive_roots) | {
        tuple(-x for x in r) for r in b2.positive_roots
    }
    for a in roots:
        for b in roots:
            s = tuple(x + y for x, y in zip(a, b))
            if s not in roots:
                continue
            ia = b2.e_index(root_index(b2, a)) if a in b2.positive_roots else b2.f_index(
                root_index(b2, tuple(-x for x in a))
            )
            ib = b2.e_index(root_index(b2, b)) if b in b2.positive_roots else b2.f_index(
                root_index(b2, tuple(-x for x in b))
            )
            out = b2.bracket_basis(ia, ib)
            assert len(out) == 1
            coeff = abs(next(iter(out.values())))
            p = 0
            cur = b
            while True:
                cur = tuple(x - y for x, y in zip(cur, a))
                if cur in roots:
                    p += 1
                else:
                    break
            assert coeff == p + 1


def test_theta_properties(a2):
    basis = identity(a2.dim)
    assert all(a2.theta(a2.theta(b)) == b for b in basis)
    for p in range(a2.num_pos):
        e = identity(a2.dim)[a2.e_index(p)]
        img = a2.theta(e)
        assert img[a2.f_index(p)] == -1
        assert sum(1 for c in img if c != 0) == 1
    for k in range(a2.dim_a):
        v = identity(a2.dim)[k]
        assert a2.theta(v) == tuple(-c for c in v)


def test_minus_b_theta_positive_definite(a2):
    basis = identity(a2.dim)
    for i in range(a2.dim):
        assert -a2.invariant_form(basis[i], a2.theta(basis[i])) > 0


def test_orthocomplement_examples(a1):
    perp_f = a1.orthocomplement(Subspace.from_spanning(3, [F]))
    assert perp_f == Subspace.from_spanning(3, [H, F])
    for row in perp_f.basis_matrix:
        assert a1.invariant_form(row, F) == 0
    assert a1.orthocomplement(Subspace.full(3)).dim == 0
    perp_a = a1.orthocomplement(Subspace.from_spanning(3, [H]))
    assert perp_a == Subspace.from_spanning(3, [E, F])
    e = Subspace.from_spanning(3, [F])
    assert e.dim + a1.orthocomplement(e).dim == 3
    assert a1.orthocomplement(a1.orthocomplement(e)) == e


_ORTHO_ALGEBRAS = {
    (name, center): build_from_cartan(cartan_matrix_of_type(name), abelian_center_dim=center)
    for name, center in [("A2", 0), ("B2", 0), ("G2", 0), ("A2", 1)]
}


@pytest.mark.parametrize("name,center", [("A1", 0), ("B2", 0), ("G2", 0), ("A2", 1)])
def test_chevalley_data_are_ints(name, center):
    # on a Chevalley basis every structure constant, the Killing form, the
    # root functionals, coroots, Weyl group matrices and sign scalings are
    # integers, and the library keeps them as int
    lie = build_from_cartan(cartan_matrix_of_type(name), abelian_center_dim=center)
    roots = lie.roots()
    data = [c for row in lie.bracket_table for comp in row for c in comp.values()]
    data += [x for row in lie.form_matrix for x in row]
    data += [x for r in roots for x in lie.root_functional(r) + lie.coroot(r)]
    data += [x for w in lie.weyl_group.values() for row in w.matrix for x in row]
    for lattice in ("coroot", "coweight"):
        data += [x for s in lie.m_sign_characters(lattice) for x in s]
    assert data and {type(x) for x in data} == {int}


def _dense_orthocomplement(lie, e):
    """Reference: the kernel of the dense products form_matrix * v over the rows v of E."""
    if e.dim == 0:
        return Subspace.full(lie.dim)
    eqs = [mat_vec(lie.form_matrix, row) for row in e.basis_matrix]
    return Subspace.from_spanning(lie.dim, kernel(eqs, lie.dim))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_ORTHO_ALGEBRAS)), st.data())
def test_orthocomplement_matches_the_dense_definition(key, data):
    lie = _ORTHO_ALGEBRAS[key]
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 3)])
    rows = data.draw(
        st.lists(st.lists(entry, min_size=lie.dim, max_size=lie.dim), min_size=0, max_size=5)
    )
    e = Subspace.from_spanning(lie.dim, rows)
    assert lie.orthocomplement(e) == _dense_orthocomplement(lie, e)


def _dense(lift, dim):
    """Ad(n_w) as a matrix whose column k is lift.apply(b_k)."""
    return tuple(zip(*(lift.apply(b) for b in identity(dim))))


def test_weyl_lift_sl2(a1):
    # oracle: multiply the three unipotent exponentials assembled by hand
    basis = identity(3)
    ad_e = tuple(zip(*[a1.bracket(E, b) for b in basis]))
    ad_f = tuple(zip(*[a1.bracket(F, b) for b in basis]))

    def exp3(m):
        out = identity(3)
        term = identity(3)
        for k in (1, 2, 3):
            term = tuple(
                tuple(Fraction(c, k) for c in row) for row in mat_mul(term, m)
            )
            out = tuple(
                tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(out, term)
            )
        return out

    neg_ad_f = tuple(tuple(-c for c in row) for row in ad_f)
    expected = mat_mul(mat_mul(exp3(ad_e), exp3(neg_ad_f)), exp3(ad_e))
    w = a1.weyl_lift([0])
    assert _dense(w, 3) == expected
    assert w.apply(vec(H)) == vec((-1, 0, 0))
    assert w.apply(vec(E)) == vec((0, 0, -1))
    assert _dense(a1.weyl_lift([]), 3) == identity(3)


def test_weyl_lift_preserves_form_and_permutes_root_spaces(a2):
    for word in ([0], [1], [0, 1], [0, 1, 0]):
        w = a2.weyl_lift(word)
        n = _dense(w, 8)
        # B(Ad(n)x, Ad(n)y) = B(x, y) as a matrix identity
        nt = tuple(zip(*n))
        assert mat_mul(mat_mul(nt, a2.form_matrix), n) == a2.form_matrix
        # Ad(n) g_alpha = g_{w alpha}
        fn_to_root = {a2.root_functional(r): r for r in a2.roots()}
        for p, root in enumerate(a2.positive_roots):
            img = mat_vec(n, identity(8)[a2.e_index(p)])
            nz = [k for k, c in enumerate(img) if c != 0]
            assert len(nz) == 1
            target_f = tuple(
                sum(
                    a2.root_functional(root)[i] * inv_col
                    for i, inv_col in enumerate(col)
                )
                for col in zip(*_inv(w.element.matrix))
            )
            assert a2.weights[nz[0]] == target_f


def _inv(m):
    from conftest import mat_inverse

    return mat_inverse(m)


def test_sign_characters(a1, a2):
    assert a1.m_sign_characters("coroot") == ((1, 1, 1),)
    assert a1.m_sign_characters("coweight") == ((1, 1, 1), (1, -1, -1))
    g = a2.m_sign_characters("coroot")
    assert len(g) == 4
    # oracle: direct enumeration of (-1)^{<beta, t>} over the coroot lattice mod 2
    seen = set()
    for mask in range(4):
        t = [0, 0]
        if mask & 1:
            t = [t[i] + a2.coroot((1, 0))[i] for i in range(2)]
        if mask & 2:
            t = [t[i] + a2.coroot((0, 1))[i] for i in range(2)]
        vals = tuple(
            (-1) ** int(sum(a * b for a, b in zip(a2.root_functional(r), t)))
            for r in a2.positive_roots
        )
        seen.add(vals)
    assert {s[a2.dim_a : a2.dim_a + a2.num_pos] for s in g} == seen
    assert g[0] == (1,) * a2.dim


def test_sign_character_group_closure(a2):
    g = a2.m_sign_characters("coroot")
    for c1 in g:
        for c2 in g:
            assert tuple(a * b for a, b in zip(c1, c2)) in g
            assert tuple(a * a for a in c1) == (1,) * a2.dim


SIGN_ALGEBRAS = [
    ("A1", 0), ("A2", 0), ("B2", 0), ("G2", 0), ("A3", 0), ("B3", 0), ("C3", 0),
    ("A4", 0), ("D4", 0), ("B4", 0), ("C4", 0), ("F4", 0), ("A1xA2", 0), ("A2", 1),
]


@pytest.mark.parametrize("lattice", ["coroot", "coweight"])
@pytest.mark.parametrize("name,center", SIGN_ALGEBRAS)
def test_sign_scalings_match_the_lattice_sums(name, center, lattice):
    """Old against new: the scalings read off the weights (coroot lattice)
    or the root coordinates (coweight lattice) are those of every sum of
    lattice generators, the fundamental coweights found by solve."""
    lie = build_from_cartan(cartan_matrix_of_type(name), center)
    assert lie.m_sign_characters(lattice) == sign_scalings(lie, lattice)


def test_sl2_nonvanishing(a2):
    for p in range(a2.num_pos):
        e = identity(8)[a2.e_index(p)]
        f = identity(8)[a2.f_index(p)]
        v = a2.bracket(e, a2.bracket(e, f))
        assert any(c != 0 for c in v)


@pytest.mark.parametrize("name", ["A1", "A5", "B2", "C3", "D4", "E6", "E8", "F4", "G2", "A1xG2"])
def test_named_type_blocks_give_the_matrix_rank(name):
    """The rank read off the name is that of the matrix built from it."""
    blocks = cartan_type_blocks(name)
    assert sum(r for _, r in blocks) == len(cartan_matrix_of_type(name))
    validate_cartan_matrix(cartan_matrix_of_type(name))


@pytest.mark.parametrize(
    "name", ["E5", "E9", "B1", "C1", "D2", "F3", "G3", "H3", "A0", "A", "A1x", "A\u00b2", 2]
)
def test_unknown_named_types_are_refused(name):
    # "A\u00b2" passed str.isdigit and then failed int() with a ValueError
    for read in (cartan_type_blocks, cartan_matrix_of_type):
        with pytest.raises(LieAlgebraError, match="unknown Cartan type"):
            read(name)


@pytest.mark.parametrize(
    "matrix",
    [
        [[2, -2], [-2, 2]],  # affine A1~
        [[2, -1], [-4, 2]],  # affine
        [[2, 1], [1, 2]],  # positive off-diagonal
        [[2, 0], [-1, 2]],  # broken zero symmetry
        [[2, -1], [-1, 3]],  # bad diagonal
    ],
)
def test_invalid_cartan_matrices_rejected(matrix):
    with pytest.raises(LieAlgebraError):
        build_from_cartan(matrix)


def test_torus_scaling_exactness(a1):
    factors = a1.torus_scaling((Fraction(1, 2),), Fraction(2, 3))
    # alpha(coweight) = 1, so h is fixed, e scales by 2/3 and f by 3/2
    assert factors == vec((1, Fraction(2, 3), Fraction(3, 2)))
    with pytest.raises(LieAlgebraError):
        a1.torus_scaling((Fraction(1, 3),), Fraction(2))


def test_weyl_group_words_are_breadth_first_in_word_order(a2):
    words = [w.word for w in a2.weyl_group.values()]
    assert words == [(), (0,), (1,), (0, 1), (1, 0), (0, 1, 0)]


def test_exp_ad_requires_nilpotent(a1):
    """A nilpotent word entry of h is refused: ad(h) scales e by 2."""
    with pytest.raises(LieAlgebraError, match="ad-nilpotent"):
        translate(a1, a1.a_subspace(), [WordEntry.exp(H)])


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "F4", "G2"]
    + ["A1xA1", "A1xA2"],
)
@pytest.mark.parametrize("center", [0, 1])
def test_the_simple_roots_come_first_in_order(name, center):
    """Simple root i is positive_roots[i], which the Weyl group table, the
    simple lifts, the wall reflections and the spherical roots read."""
    lie = build_from_cartan(cartan_matrix_of_type(name), center)
    units = [tuple(int(j == i) for j in range(lie.rank)) for i in range(lie.rank)]
    assert list(lie.positive_roots[: lie.rank]) == units


def test_exp_ad_apply_checks_both_lengths(a2):
    """A wrong length is refused before the series reads any nonzero, also
    when v is zero, and the error names exp_ad_apply."""
    for x, v in [((1, 0, 0), (0,) * 8), ((1, 0, 0), (1,) + (0,) * 7), ((0,) * 8, (1, 0, 0))]:
        with pytest.raises(LieAlgebraError, match="exp_ad_apply"):
            a2.exp_ad_apply(x, v)


def test_exp_ad_apply_refuses_a_non_nilpotent_x_after_dim_plus_one_terms(a2, monkeypatch):
    """ad(h_1) scales e_1 by alpha_1(h_1) = 2, so every term of the series is
    nonzero: the series brackets dim + 1 times and then raises.  ad(e + f)
    moves h_1 to -2e_1 + 2f_1 and that to 4h_1, so it never ends either."""
    reads = []

    class Counting(dict):
        def items(self):
            reads.append(1)
            return super().items()

    table = tuple(tuple(Counting(comp) for comp in row) for row in a2.bracket_table)
    a2 = replace(a2, bracket_table=table)
    unit = identity(a2.dim)
    e, f = unit[a2.e_index(0)], unit[a2.f_index(0)]
    with pytest.raises(LieAlgebraError, match="ad-nilpotent"):
        a2.exp_ad_apply(unit[0], e)
    assert len(reads) == a2.dim + 1
    with pytest.raises(LieAlgebraError, match="ad-nilpotent"):
        a2.exp_ad_apply(vec_add(e, f), unit[0])


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_simple_lift_series_stay_ints(name):
    """ad(e_alpha)^k / k! maps the integer span of a Chevalley basis to
    itself, so each of the three series of every column of a simple lift,
    exp(ad e_i), exp(-ad f_i), exp(ad e_i), has int entries only."""
    lie = build_from_cartan(cartan_matrix_of_type(name))
    unit = identity(lie.dim)
    for i in range(lie.rank):
        p = root_index(lie, tuple(int(j == i) for j in range(lie.rank)))
        e, minus_f = unit[lie.e_index(p)], vec_scale(-1, unit[lie.f_index(p)])
        for b in unit:
            first = lie.exp_ad_apply(e, b)
            second = lie.exp_ad_apply(minus_f, first)
            third = lie.exp_ad_apply(e, second)
            assert {type(c) for c in first + second + third} == {int}


@pytest.mark.parametrize(
    "matrix,minor",
    [
        ([[2, -2], [-2, 2]], 2),  # affine A1~
        ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], 3),  # affine A2~, the 3-cycle
    ],
)
def test_affine_cartan_matrices_name_the_first_nonpositive_minor(matrix, minor):
    with pytest.raises(LieAlgebraError, match=f"leading principal minor {minor} is not positive"):
        validate_cartan_matrix(matrix)


@st.composite
def _symmetric_matrices(draw):
    n = draw(st.integers(1, 5))
    upper = {
        (i, j): draw(st.integers(-1, 6) if i == j else st.integers(-3, 3))
        for i in range(n)
        for j in range(i, n)
    }
    return [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(_symmetric_matrices())
def test_first_nonpositive_minor_matches_sympy_determinants(m):
    n = len(m)
    dets = [sympy.Matrix(m).extract(list(range(k)), list(range(k))).det() for k in range(1, n + 1)]
    expected = next((k + 1 for k, d in enumerate(dets) if d <= 0), None)
    # validate passes int Gram rows; int rows and their Fraction copies agree
    assert _first_nonpositive_minor(m) == expected
    assert _first_nonpositive_minor([[Fraction(x) for x in row] for row in m]) == expected


# ---------------------------------------------------------------------------
# validate: mutations, and the dense Jacobi loop as its reference
# ---------------------------------------------------------------------------

MUTATED = ["A2", "B2", "G2", "B3", "A1xA2"]
# the center dimension of a MUTATED type, when it has one: the weight key of
# validate then reads a product and a center
MUTATED_CENTER = {"A1xA2": 1}


def _mutated(name):
    return build_from_cartan(cartan_matrix_of_type(name), abelian_center_dim=MUTATED_CENTER.get(name, 0))


def _dense_jacobi_failure(lie):
    """The first basis triple i < j < k on which the Jacobi identity fails, or
    None, from dense brackets of basis vectors: the reference for the
    sparse Jacobi loop of validate."""
    basis = identity(lie.dim)
    for i in range(lie.dim):
        for j in range(i + 1, lie.dim):
            bij = lie.bracket(basis[i], basis[j])
            for k in range(j + 1, lie.dim):
                s = lie.bracket(bij, basis[k])
                s = vec_add(s, lie.bracket(lie.bracket(basis[j], basis[k]), basis[i]))
                s = vec_add(s, lie.bracket(lie.bracket(basis[k], basis[i]), basis[j]))
                if any(x != 0 for x in s):
                    return (i, j, k)
    return None


def _validate_error(lie):
    try:
        lie.validate()
    except LieAlgebraError as err:
        return str(err)
    return None


def _diagonal_error(lie, i, m):
    """validate's message for [x_i, x_m] other than weights[m][i] x_m, i an
    a-index."""
    return (
        f"ad(a) is not diagonal with the weights on pair {(i, m)}: "
        f"[x_{i}, x_{m}] is {lie.bracket_table[i][m]}, not {lie.weights[m][i]} x_{m}"
    )


def _constants(lie):
    """The (i, j), k of every structure constant c^k of [x_i, x_j], i < j."""
    br = lie.bracket_table
    return sorted(((i, j), k) for i in range(lie.dim) for j in range(i + 1, lie.dim) for k in br[i][j])


def _with_table_entries(lie, entries):
    """A copy of lie with table[i][j] = comp for each (i, j), comp in entries."""
    table = [list(row) for row in lie.bracket_table]
    for (i, j), comp in entries.items():
        table[i][j] = comp
    return replace(lie, bracket_table=tuple(map(tuple, table)))


def _with_constant(lie, key, k, factor):
    """A copy of lie with the structure constant c^k of [x_i, x_j], (i, j) =
    key, and its mirror c^k of [x_j, x_i] multiplied by factor."""
    i, j = key
    comp = dict(lie.bracket_table[i][j])
    comp[k] *= factor
    return _with_table_entries(lie, {(i, j): comp, (j, i): {x: -c for x, c in comp.items()}})


def _with_form_entries(lie, entries):
    form = [list(row) for row in lie.form_matrix]
    for (i, j), value in entries.items():
        form[i][j] = value
    return replace(lie, form_matrix=tuple(map(tuple, form)))


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A1xA1"])
@pytest.mark.parametrize("center", [0, 1, 2])
def test_bracket_table_is_antisymmetric_and_read_by_bracket_basis(name, center):
    lie = build_from_cartan(cartan_matrix_of_type(name), abelian_center_dim=center)
    table = lie.bracket_table
    assert len(table) == lie.dim and all(len(row) == lie.dim for row in table)
    for i in range(lie.dim):
        for j in range(lie.dim):
            assert table[j][i] == {k: -c for k, c in table[i][j].items()}
            assert lie.bracket_basis(i, j) is table[i][j]


@pytest.mark.parametrize("name", MUTATED)
def test_validate_and_the_dense_jacobi_loop_accept_the_built_tables(name):
    lie = _mutated(name)
    assert _validate_error(lie) is None
    assert _dense_jacobi_failure(lie) is None


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(MUTATED),
    st.data(),
    st.sampled_from([Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(0)]),
)
def test_validate_rejects_one_corrupted_structure_constant(name, data, factor):
    lie = _mutated(name)
    entries = _constants(lie)
    key, k = data.draw(st.sampled_from(entries))
    bad = _with_constant(lie, key, k, factor)
    # the dense loop rejects the same tables as validate
    triple = _dense_jacobi_failure(bad)
    if triple is None:
        # [e, f] = c h satisfies Jacobi for every c, so a multiple of the one
        # constant of [e, f] of the A1 factor is still a Lie algebra
        assert name == "A1xA2" and (key, k) == ((lie.e_index(0), lie.f_index(0)), 0)
        assert _validate_error(bad) is None
    elif key[0] < lie.dim_a:
        # the diagonal check of ad(a) runs before Jacobi and names the pair
        assert _validate_error(bad) == _diagonal_error(bad, *key)
    else:
        # first on the same triple: once ad(a) is diagonal, no triple with an
        # a-index fails
        assert _validate_error(bad) == f"Jacobi identity fails on triple {triple}"


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MUTATED), st.data())
def test_validate_rejects_a_constant_moved_to_another_weight(name, data):
    lie = _mutated(name)
    (i, j), k = data.draw(st.sampled_from(_constants(lie)))
    comp = lie.bracket_table[i][j]
    w = lie.weights
    m = data.draw(st.sampled_from([m for m in range(lie.dim) if m not in comp and w[m] != w[k]]))
    moved = {m if x == k else x: c for x, c in comp.items()}
    bad = _with_table_entries(lie, {(i, j): moved, (j, i): {x: -c for x, c in moved.items()}})
    if i < lie.dim_a:
        # the grading of [x_i, x_j] for an a-index i is the diagonal check
        assert _validate_error(bad) == _diagonal_error(bad, i, j)
    else:
        assert _validate_error(bad) == (
            f"bracket table is not graded on pair {(i, j)}: "
            f"term {m} has weight {w[m]}, not {w[i]} + {w[j]}"
        )
    # the table is not a Lie algebra either
    assert _dense_jacobi_failure(bad) is not None


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MUTATED), st.data(), st.booleans())
def test_validate_rejects_a_constant_changed_without_its_mirror(name, data, lower):
    lie = _mutated(name)
    (i, j), k = data.draw(st.sampled_from(_constants(lie)))
    a, b = (j, i) if lower else (i, j)
    changed = dict(lie.bracket_table[a][b])
    changed[k] += 1
    bad = _with_table_entries(lie, {(a, b): changed})
    assert _validate_error(bad) == f"bracket table is not antisymmetric on pair {(i, j)}"


@pytest.mark.parametrize("coord", range(10))
def test_validate_rejects_theta_with_one_sign_flipped(b2, monkeypatch, coord):
    theta = LieAlgebraData.theta

    def flipped(self, x):
        out = list(theta(self, x))
        out[coord] = -out[coord]
        return tuple(out)

    monkeypatch.setattr(LieAlgebraData, "theta", flipped)
    # flipping a coordinate of a keeps an involution but B(h, h) > 0 enters
    # the Gram; flipping a root coordinate breaks the involution
    want = "-B(., theta .) is not positive definite" if coord < b2.dim_a else "theta is not an involution"
    assert _validate_error(b2) == want


@pytest.mark.parametrize("name", MUTATED)
def test_validate_rejects_ad_a_off_the_weights_in_a_lie_algebra(name):
    """The basis change h_i -> 2 h_i gives an isomorphic Lie algebra, with
    [h_i, x_m] = 2 w_m(h_i) x_m and the coroot of [e_b, f_b] halved, so the
    dense Jacobi loop accepts it; the stored weights are no longer the
    eigenvalues of ad(a), which the diagonal check of validate refuses.  It
    certifies the weights that verify's root_space_grading also reads."""
    lie = _mutated(name)
    br, r = lie.bracket_table, lie.rank
    entries = {}
    for i in range(lie.dim):
        for j in range(lie.dim):
            if i < r or j < r:
                comp = {m: 2 * c for m, c in br[i][j].items()}
            else:
                comp = {m: c if m >= r else Fraction(c, 2) for m, c in br[i][j].items()}
            entries[(i, j)] = comp
    bad = _with_table_entries(lie, entries)
    assert _dense_jacobi_failure(bad) is None
    m = min(m for m in range(lie.dim) if lie.weights[m][0])
    assert _validate_error(bad) == _diagonal_error(bad, 0, m)


@pytest.mark.parametrize(
    "image",
    [
        lambda x: x[:1] + (x[0] + x[1],) + x[2:],  # a shear
        lambda x: tuple(2 * c for c in x),
        lambda x: tuple(Fraction(c, 2) for c in x),
        lambda x: (0,) * len(x),
        lambda x: x[:-1],
        lambda x: x + (len(x) + 1,),
    ],
)
def test_validate_refuses_a_theta_that_is_no_signed_permutation(b2, monkeypatch, image):
    theta = LieAlgebraData.theta
    monkeypatch.setattr(LieAlgebraData, "theta", lambda self, x: image(theta(self, x)))
    # a LieAlgebraError, not an IndexError or KeyError from reading the probe
    assert _validate_error(b2) == "theta is not a signed permutation of the basis"


# sha256 of (bracket_table with each dict as its sorted items, form_matrix,
# weights) of an algebra built without the cache
TABLE_DIGESTS = {
    "B3": "cbf5c250fc655c458601a1021cf2b3dd654b0b06570c45d5a0e0864171a91903",
    "D4": "a333e474f0468c29c4f78cfa5d1d40693129c4cbae608d92219158a8fe30211d",
    "F4": "f619af82103030946addac4b4a525a9e6883f8adc7cdb4765dc49b72d363c54b",
    "E6": "780e9b6aad58a9610c920233d84797d3b53333d1c8dd271cb5f00b3e930952c0",
}


@pytest.mark.parametrize("name", sorted(TABLE_DIGESTS))
def test_built_tables_match_their_pinned_digests(name):
    m = cartan_matrix_of_type(name)
    lie = lie_module._build_cached.__wrapped__((tuple(map(tuple, m)), 0))
    table = tuple(tuple(tuple(sorted(d.items())) for d in row) for row in lie.bracket_table)
    got = hashlib.sha256(repr((table, lie.form_matrix, lie.weights)).encode()).hexdigest()
    assert got == TABLE_DIGESTS[name]


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_validate_rejects_an_asymmetric_form(name):
    lie = build_from_cartan(cartan_matrix_of_type(name))
    off_diagonal = [
        (i, j) for i in range(lie.dim) for j in range(lie.dim) if i != j and lie.form_matrix[i][j] != 0
    ]
    for i, j in off_diagonal + [(0, lie.dim - 1)]:
        bad = _with_form_entries(lie, {(i, j): lie.form_matrix[i][j] + 1})
        with pytest.raises(LieAlgebraError, match="form is not symmetric"):
            bad.validate()


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_validate_rejects_a_negated_root_pairing(name):
    # B(e_p, f_p) < 0 on both sides keeps the form symmetric but makes
    # -B(e_p, theta e_p) negative
    lie = build_from_cartan(cartan_matrix_of_type(name))
    for p in range(lie.num_pos):
        e, f = lie.e_index(p), lie.f_index(p)
        c = lie.form_matrix[e][f]
        bad = _with_form_entries(lie, {(e, f): -c, (f, e): -c})
        with pytest.raises(LieAlgebraError, match=re.escape("-B(., theta .) is not positive definite")):
            bad.validate()


def test_construction_never_calls_the_dense_bracket(monkeypatch):
    def refuse(self, x, y):
        raise AssertionError("the dense bracket ran during construction")

    monkeypatch.setattr(LieAlgebraData, "bracket", refuse)
    lie_module._build_cached.cache_clear()
    for name in ("B3", "D4", "F4"):
        build_from_cartan(cartan_matrix_of_type(name))


def test_a_structure_constant_off_the_integers_is_a_contract_violation(monkeypatch):
    """Both integrality identities of the Chevalley constants raise, with the
    roots and the value, on a constructed instance: build_from_cartan caches
    its algebras, so none is built through it."""
    a = cartan_matrix_of_type("A2")
    cc = _ChevalleyConstants(a, validate_cartan_matrix(a))
    monkeypatch.setattr(cc, "norm2", lambda r: 2 + abs(sum(r)))
    with pytest.raises(ContractViolation, match=re.escape("N((1, 0), (-1, -1)) = -3/4 is not")):
        cc.N((1, 0), (-1, -1))
    a = cartan_matrix_of_type("A3")
    monkeypatch.setattr(_ChevalleyConstants, "norm2", lambda self, r: 1 if sum(r) == 3 else 2)
    with pytest.raises(ContractViolation, match=re.escape("= -1/2 is not a nonzero integer")):
        _ChevalleyConstants(a, validate_cartan_matrix(a))


# ---------------------------------------------------------------------------
# verify.lie_invariants against its dense definition
# ---------------------------------------------------------------------------


def _dense_lie_invariants(lie):
    """lie_invariants from dense brackets of basis vectors, stopping
    form_invariance at the first failing triple."""
    out = []
    basis = identity(lie.dim)
    bad = None
    for i in range(lie.dim):
        for j in range(lie.dim):
            for k in range(lie.dim):
                lhs = lie.invariant_form(lie.bracket(basis[i], basis[j]), basis[k])
                rhs = lie.invariant_form(basis[i], lie.bracket(basis[j], basis[k]))
                if bad is None and lhs != rhs:
                    bad = (i, j, k)
    out.append(CheckResult("form_invariance", bad is None, f"triple {bad}"))
    bad = None
    for i in range(lie.dim):
        for j in range(lie.dim):
            x, y = basis[i], basis[j]
            if lie.bracket(lie.theta(x), lie.theta(y)) != lie.theta(lie.bracket(x, y)):
                bad = (i, j)
    out.append(CheckResult("theta_automorphism", bad is None, f"pair {bad}"))
    bad = None
    for p, root in enumerate(lie.positive_roots):
        e, f = basis[lie.e_index(p)], basis[lie.f_index(p)]
        if all(c == 0 for c in lie.bracket(e, lie.bracket(e, f))):
            bad = root
    out.append(CheckResult("sl2_nonvanishing", bad is None, f"ad^2(e)f = 0 at root {bad}"))
    bad = None
    for k in range(lie.dim_a):
        for idx in range(lie.dim):
            expect = vec_scale(dot(lie.weights[idx], basis[k][: lie.dim_a]), basis[idx])
            if lie.bracket(basis[k], basis[idx]) != expect:
                bad = (k, idx)
    out.append(CheckResult("root_space_grading", bad is None, f"pair {bad}"))
    return out


@pytest.mark.parametrize("name, center", [("A1", 0), ("A2", 0), ("B2", 0), ("G2", 0), ("A2", 1)])
def test_lie_invariants_match_the_dense_definition(name, center):
    lie = build_from_cartan(cartan_matrix_of_type(name), abelian_center_dim=center)
    got = lie_invariants(lie)
    assert all(r.ok for r in got)
    assert got[:4] == _dense_lie_invariants(lie)


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_lie_invariants_report_each_flipped_constant_like_the_dense_definition(name):
    lie = build_from_cartan(cartan_matrix_of_type(name))
    for key, k in _constants(lie):
        bad = _with_constant(lie, key, k, Fraction(-1))
        got = lie_invariants(bad)[:4]
        assert not all(r.ok for r in got)
        assert got == _dense_lie_invariants(bad)


def _root_string_positive_roots(a):
    """The positive roots grown by root strings: beta + alpha_i is a root
    exactly when q = p - <beta, alpha_i^vee> >= 1, where p counts the steps
    down the alpha_i-string through beta."""
    n = len(a)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for beta in frontier:
            for i in range(n):
                p = 0
                cur = beta
                while True:
                    down = tuple(cur[j] - simple[i][j] for j in range(n))
                    if all(x == 0 for x in down) or down not in roots:
                        break
                    p += 1
                    cur = down
                if p - sum(a[i][j] * beta[j] for j in range(n)) >= 1:
                    up = tuple(beta[j] + simple[i][j] for j in range(n))
                    if up not in roots:
                        roots.add(up)
                        new.append(up)
        frontier = new
    return sorted(roots, key=lambda r: (sum(r), tuple(-x for x in r)))


@pytest.mark.parametrize(
    "name",
    "A1 A2 A3 A4 A5 B2 B3 B4 C3 C4 D4 D5 E6 E7 E8 F4 G2 A1xA1 A1xB2".split(),
)
def test_positive_roots_as_the_weyl_orbit_equal_the_root_strings(name):
    a = cartan_matrix_of_type(name)
    assert positive_roots_of(a) == _root_string_positive_roots(a)
