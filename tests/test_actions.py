"""Structured actions against dense references built here and in conftest.

Weyl lifts are signed permutations of the root vectors, sign characters and
torus elements are coordinate scalings, exp(ad x) v is a bracket series and
the invariant form is sparse.  Each is compared with the dense matrix it
replaces.
"""

from fractions import Fraction

import pytest
from conftest import dense_ad, dense_exp_ad, reflection_on_a, replace, root_index
from hypothesis import example, given, settings
from hypothesis import strategies as st

from littleweyl.lie import (
    LieAlgebraData,
    LieAlgebraError,
    build_from_cartan,
    cartan_matrix_of_type,
)
from littleweyl.linalg import Subspace, dot, identity, mat_mul, mat_vec, vec
from littleweyl.spherical import WordEntry, translate


def _lie(name, center=0):
    return build_from_cartan(cartan_matrix_of_type(name), center)


def _unit(dim, k):
    return tuple(Fraction(1 if i == k else 0) for i in range(dim))


def _columns(lift, dim):
    """Ad(n_w) as a matrix whose column k is lift.apply(b_k)."""
    return tuple(zip(*(lift.apply(b) for b in identity(dim))))


def _dense_lifts(lie):
    """word -> (dense lift, matrix on a), through the products
    exp(ad e_i) exp(-ad f_i) exp(ad e_i) and the simple reflections."""
    letters = []
    for i in range(lie.rank):
        p = root_index(lie, tuple(1 if j == i else 0 for j in range(lie.rank)))
        e = dense_exp_ad(lie, _unit(lie.dim, lie.e_index(p)))
        minus_f = dense_exp_ad(lie, tuple(-c for c in _unit(lie.dim, lie.f_index(p))))
        n_i = mat_mul(mat_mul(e, minus_f), e)
        letters.append((n_i, reflection_on_a(lie, lie.positive_roots[p])))

    def lift(word):
        dense, on_a = identity(lie.dim), identity(lie.dim_a)
        for i in word:
            dense = mat_mul(dense, letters[i][0])
            on_a = mat_mul(on_a, letters[i][1])
        return dense, on_a

    return lift


@pytest.mark.parametrize("name", ["A1", "A2", "B2"])
def test_lifts_match_dense_products_on_all_of_w(name):
    lie = _lie(name)
    dense = _dense_lifts(lie)
    for w in lie.weyl_group.values():
        word, m = w.word, w.matrix
        lift = lie.weyl_lift(word)
        want, on_a = dense(word)
        assert lift.element.matrix == on_a == m
        assert _columns(lift, lie.dim) == want
        v = tuple(Fraction(k + 1, 3) for k in range(lie.dim))
        assert lift.apply(v) == mat_vec(want, v)


@pytest.mark.parametrize("name", ["G2", "A3"])
def test_lifts_match_dense_products_on_generators_and_longest(name):
    lie = _lie(name)
    dense = _dense_lifts(lie)
    longest = max((w.word for w in lie.weyl_group.values()), key=len)
    for word in [(i,) for i in range(lie.rank)] + [longest]:
        lift = lie.weyl_lift(word)
        want, on_a = dense(word)
        assert lift.element.matrix == on_a
        assert _columns(lift, lie.dim) == want


def test_lift_rejects_letters_outside_the_rank():
    lie = _lie("A2")
    with pytest.raises(ValueError):
        lie.weyl_lift([2])
    with pytest.raises(ValueError):
        lie.weyl_lift([-1])


_coroot = LieAlgebraData.coroot


def _coroot_negated_on_negative_roots(self, root):
    """A wrong coroot: right on the positive roots, so that every simple
    reflection keeps its root permutation, and negated on the negative
    roots, from which the table reads the simple reflections' matrices."""
    cor = _coroot(self, root)
    return cor if sum(root) > 0 else tuple(-c for c in cor)


@pytest.mark.parametrize(
    "method,wrong",
    [
        ("coroot", _coroot_negated_on_negative_roots),
        ("reflection_perm", lambda self, root: tuple(range(2 * self.num_pos))),
    ],
)
def test_simple_lift_must_act_as_the_reflection(monkeypatch, method, wrong):
    lie = replace(_lie("A2"))  # same algebra, no table or lifts yet
    monkeypatch.setattr(LieAlgebraData, method, wrong)
    with pytest.raises(LieAlgebraError, match="does not act as the reflection"):
        lie.weyl_lift([0])


_ALGEBRAS = {name: _lie(name) for name in ("A2", "B2", "G2")}
_small = st.integers(-3, 3).map(Fraction)
_entries = st.one_of(
    st.integers(-3, 3),
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def _algebra_and_vectors(draw, part: str):
    """An algebra and two vectors x, v of int and Fraction entries; x lies in
    n, in nbar or anywhere, as part says."""
    lie = _ALGEBRAS[draw(st.sampled_from(sorted(_ALGEBRAS)))]
    v = tuple(draw(st.lists(_entries, min_size=lie.dim, max_size=lie.dim)))
    x = list(draw(st.lists(_entries, min_size=lie.dim, max_size=lie.dim)))
    if part != "g":
        index = lie.e_index if part == "n" else lie.f_index
        coords = {index(p) for p in range(lie.num_pos)}
        x = [c if k in coords else 0 for k, c in enumerate(x)]
    return lie, tuple(x), v


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["n", "nbar"]).flatmap(_algebra_and_vectors))
def test_exp_ad_apply_matches_dense_exp_ad(case):
    lie, x, v = case
    dense = dense_exp_ad(lie, x)
    assert lie.exp_ad_apply(x, v) == mat_vec(dense, v)


_ENTRY_ALGEBRAS = [_lie(name, c) for name in ("A1", "A2", "B2", "A3") for c in (0, 1)]


@st.composite
def _word_entry_vectors(draw):
    """An algebra of type A1, A2, B2 or A3 with center 0 or 1 and a vector x
    whose nonzeros lie in the parts of g drawn: the semisimple part of a,
    the center, n and nbar.  x in n, in nbar, or central plus either, is
    ad-nilpotent; an a-part off the center or both of n and nbar usually
    makes it not."""
    lie = draw(st.sampled_from(_ENTRY_ALGEBRAS))
    parts = {
        "a": range(lie.rank),
        "center": range(lie.rank, lie.dim_a),
        "n": range(lie.e_index(0), lie.f_index(0)),
        "nbar": range(lie.f_index(0), lie.dim),
    }
    chosen = draw(st.sets(st.sampled_from(sorted(parts)), min_size=1))
    coords = {k for part in chosen for k in parts[part]}
    x = [draw(_entries) if k in coords else 0 for k in range(lie.dim)]
    return lie, tuple(x)


@settings(max_examples=80, deadline=None)
@given(_word_entry_vectors())
@example((_lie("A1"), (1, 0, 0)))
@example((_lie("A1", 1), (0, 1, 1, 0)))
@example((_lie("A2"), (0, 0, 1, 0, 0, 0, 0, 1)))
def test_a_nilpotent_entry_is_refused_exactly_when_dense_exp_ad_refuses_it(case):
    """The nilpotency check of a word entry reads the series on the e_i and
    f_i alone; dense exp(ad x) over all of g refuses the same x, and where
    both accept, the translates of a agree."""
    lie, x = case
    h = lie.a_subspace()
    try:
        dense = dense_exp_ad(lie, x)
    except LieAlgebraError:
        with pytest.raises(LieAlgebraError, match="ad-nilpotent"):
            translate(lie, h, [WordEntry.exp(x)])
        return
    moved = translate(lie, h, [WordEntry.exp(x)]).h_z
    assert moved == Subspace.from_spanning(lie.dim, [mat_vec(dense, r) for r in h.rows])


@settings(max_examples=60, deadline=None)
@given(_algebra_and_vectors("g"))
def test_bracket_matches_the_double_loop_over_bracket_basis(case):
    lie, x, y = case
    want = [0] * lie.dim
    for i in range(lie.dim):
        for j in range(lie.dim):
            for k, c in lie.bracket_basis(i, j).items():
                want[k] += x[i] * y[j] * c
    assert lie.bracket(x, y) == tuple(want)
    assert lie.bracket(x, y) == mat_vec(dense_ad(lie, x), y)


@settings(max_examples=60, deadline=None)
@given(_algebra_and_vectors("g"))
def test_sparse_invariant_form_matches_form_matrix(case):
    lie, x, y = case
    assert lie.invariant_form(x, y) == dot(vec(x), mat_vec(lie.form_matrix, vec(y)))


@st.composite
def _subspace_and_scaling(draw):
    lie = _ALGEBRAS[draw(st.sampled_from(sorted(_ALGEBRAS)))]
    rows = draw(
        st.lists(st.lists(_small, min_size=lie.dim, max_size=lie.dim), max_size=4)
    )
    sub = Subspace.from_spanning(lie.dim, rows)
    if draw(st.booleans()):
        scalings = lie.m_sign_characters(draw(st.sampled_from(["coroot", "coweight"])))
        chi = scalings[draw(st.integers(0, len(scalings) - 1))]
        # chi(-beta) = chi(beta): the e's values again on the f's
        old = [1] * lie.dim_a + list(chi[lie.dim_a : lie.dim_a + lie.num_pos]) * 2
        return sub, chi, old
    coweight = tuple(draw(st.lists(st.integers(-2, 2), min_size=lie.rank, max_size=lie.rank)))
    scale = draw(st.sampled_from([Fraction(-1), Fraction(2, 3), Fraction(5)]))
    old = [scale ** int(dot(w, vec(coweight))) for w in lie.weights]
    return sub, lie.torus_scaling(coweight, scale), old


@settings(max_examples=60, deadline=None)
@given(_subspace_and_scaling())
def test_diagonal_actions_match_dense_diagonals(case):
    sub, factors, old_diagonal = case
    n = len(old_diagonal)
    dense = tuple(
        tuple(Fraction(old_diagonal[i]) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )
    assert factors == vec(old_diagonal)
    assert sub.scale_coordinates(factors) == sub.transform(dense)
