from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from littleweyl.lie import (
    LieAlgebraError,
    _first_nonpositive_minor,
    build_from_cartan,
    cartan_matrix_of_type,
    validate_cartan_matrix,
)
from littleweyl.linalg import Subspace, identity, mat_mul, mat_vec, vec


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


def test_jacobi_and_invariance_hold_at_build():
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
            ia = b2.e_index(b2.root_index(a)) if a in b2.positive_roots else b2.f_index(
                b2.root_index(tuple(-x for x in a))
            )
            ib = b2.e_index(b2.root_index(b)) if b in b2.positive_roots else b2.f_index(
                b2.root_index(tuple(-x for x in b))
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


def test_centralizer_examples(a1, a2):
    assert a1.centralizer_in_g(Subspace.from_spanning(3, [H])) == a1.a_subspace()
    assert a1.centralizer_in_g(Subspace.zero(3)) == Subspace.full(3)
    # evaluate all six A2 roots to derive the expectations
    coroot1 = a2.a_vector_to_g(a2.coroot((1, 0)))
    vals = [
        sum(a * b for a, b in zip(a2.root_functional(r), a2.coroot((1, 0))))
        for r in a2.roots()
    ]
    assert 0 not in vals  # no root vanishes on the coroot of alpha_1
    cz = a2.centralizer_in_g(Subspace.from_spanning(8, [coroot1]))
    assert cz == a2.a_subspace()
    # the fundamental coweight dual to alpha_1 kills exactly +-alpha_2
    omega1 = a2._fundamental_coweights()[0]
    vanishing = [
        r
        for r in a2.roots()
        if sum(a * b for a, b in zip(a2.root_functional(r), omega1)) == 0
    ]
    assert sorted(vanishing) == [(0, -1), (0, 1)]
    cz = a2.centralizer_in_g(
        Subspace.from_spanning(8, [a2.a_vector_to_g(omega1)])
    )
    p2 = a2.root_index((0, 1))
    assert cz == Subspace.from_coordinates(
        8, list(range(2)) + [a2.e_index(p2), a2.f_index(p2)]
    )
    with pytest.raises(LieAlgebraError):
        a1.centralizer_in_g(Subspace.from_spanning(3, [E]))


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
                tuple(c / k for c in row) for row in mat_mul(term, m)
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
                for col in zip(*_inv(w.action_on_a))
            )
            assert a2.weights[nz[0]] == target_f


def _inv(m):
    from littleweyl.linalg import mat_inverse

    return mat_inverse(m)


def test_sign_characters(a1, a2):
    assert a1.m_sign_characters("coroot").order == 1
    assert a1.m_sign_characters("coweight").order == 2
    g = a2.m_sign_characters("coroot")
    assert g.order == 4
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
    assert len(seen) == 4
    assert any(all(v == 1 for v in chi.values) for chi in g.elements)


def test_sign_character_group_closure(a2):
    g = a2.m_sign_characters("coroot")
    values = {chi.values for chi in g.elements}
    for c1 in g.elements:
        for c2 in g.elements:
            prod = tuple(a * b for a, b in zip(c1.values, c2.values))
            assert prod in values
            assert tuple(a * a for a in c1.values) == tuple([1] * len(c1.values))


def test_sl2_nonvanishing(a2):
    for p in range(a2.num_pos):
        e = identity(8)[a2.e_index(p)]
        f = identity(8)[a2.f_index(p)]
        v = a2.bracket(e, a2.bracket(e, f))
        assert any(c != 0 for c in v)


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
    with pytest.raises(LieAlgebraError):
        a1.exp_ad(H)


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
    assert _first_nonpositive_minor([[Fraction(x) for x in row] for row in m]) == expected
