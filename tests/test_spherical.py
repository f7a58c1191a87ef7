from fractions import Fraction

import pytest
from conftest import dense_exp_ad, dual, full_space, walls_of
from hypothesis import given, settings
from hypothesis import strategies as st

from littleweyl.catalog import list_entries, load
from littleweyl.cones import Cone
from littleweyl.lie import LieAlgebraError, build_from_cartan, cartan_matrix_of_type
from littleweyl.limits import limit_subspace
from littleweyl.linalg import Subspace, dot, identity, kernel, mat_vec, vec
from littleweyl.spherical import (
    NotAdaptedError,
    WordEntry,
    analyze,
    boundary_degeneration,
    chamber_limits,
    compression_cone,
    compression_cone_of_point,
    find_admissible,
    half_space_candidate,
    half_space_direction,
    has_open_p_orbit,
    is_adapted,
    is_admissible,
    monoid_contains,
    normalizer_in_a,
    order_regular_chambers,
    phi,
    recover_q,
    translate,
)
from littleweyl.serialize import word_entry_from_json
from littleweyl.verify import structural_invariants

H, E, F = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def span(dim, *rows):
    return Subspace.from_spanning(dim, rows)


# ---------------------------------------------------------------------------
# translate
# ---------------------------------------------------------------------------


def test_translate_empty_word(a1, sl2_subalgebras):
    bp = translate(a1, sl2_subalgebras["nbar"], [])
    assert bp.h_z == sl2_subalgebras["nbar"]


def test_translate_exp_e_on_f_line(a1, sl2_subalgebras):
    # oracle: Ad(exp ad e) f = f + [e,f] + [e,[e,f]]/2 = f + h - e
    step1 = a1.bracket(E, F)
    step2 = a1.bracket(E, step1)
    expected = vec(F)
    expected = tuple(a + b for a, b in zip(expected, step1))
    expected = tuple(a + Fraction(b, 2) for a, b in zip(expected, step2))
    assert expected == vec((1, -1, 1))  # h - e + f
    bp = translate(a1, sl2_subalgebras["nbar"], [WordEntry.exp(E)])
    assert bp.h_z == span(3, expected)


def test_translate_torus_fixes_eigenline(a1, sl2_subalgebras):
    bp = translate(
        a1, sl2_subalgebras["nbar"], [WordEntry.torus((1,), Fraction(5, 7))]
    )
    assert bp.h_z == sl2_subalgebras["nbar"]


def test_translate_rejects_non_subalgebra_result(a1):
    # a line that is not bracket-closed cannot arise, but a bad input can
    with pytest.raises(LieAlgebraError):
        translate(a1, span(3, (1, 1, 0), (0, 0, 1)), [])


# ---------------------------------------------------------------------------
# open orbit, Q recovery, adaptedness
# ---------------------------------------------------------------------------


def test_open_orbit_examples(a1, sl2_subalgebras):
    assert has_open_p_orbit(a1, sl2_subalgebras["nbar"])
    assert not has_open_p_orbit(a1, sl2_subalgebras["a"])
    assert not has_open_p_orbit(a1, sl2_subalgebras["n"])


def test_recover_q_nbar(a1, sl2_subalgebras):
    q = recover_q(a1, sl2_subalgebras["nbar"])
    assert q.a_perp_h == Subspace.full(1)  # V = a since B(h, f) = 0
    assert q.sigma_q == (0,) and q.sigma0 == ()
    assert q.l_q == a1.a_subspace()


def test_recover_q_failure_modes(a1, sl2_subalgebras):
    with pytest.raises(NotAdaptedError, match="^no open P-orbit$"):
        recover_q(a1, sl2_subalgebras["a"])
    # the translated point exp(e) . f-line: V = 0, so the recovered Levi is
    # all of g and adaptedness fails at the noncompact-part inclusion
    bp = translate(a1, sl2_subalgebras["nbar"], [WordEntry.exp(E)])
    with pytest.raises(
        NotAdaptedError, match="^noncompact Levi part not contained in the stabilizer$"
    ):
        recover_q(a1, bp.h_z)


def test_recover_q_without_a_regular_element(a2, so3_subalgebra):
    # exp(e_{alpha1+alpha2}) . so(3) keeps an open P-orbit, but a root of
    # Sigma(Q) vanishes on every X in a cap h_z^perp that is >= 0 on Sigma(Q)
    e_top = identity(8)[a2.e_index(2)]
    bp = translate(a2, so3_subalgebra, [WordEntry.exp(e_top)])
    assert has_open_p_orbit(a2, bp.h_z)
    with pytest.raises(NotAdaptedError, match=r"^no regular element in a cap h_z\^perp$") as err:
        recover_q(a2, bp.h_z)
    assert err.value.reason == "no regular element in a cap h_z^perp"
    assert is_adapted(a2, bp.h_z) is False


def test_recover_q_twisted_diagonal(a1xa1, twisted_diagonal):
    q = recover_q(a1xa1, twisted_diagonal)
    assert q.a_perp_h == span(2, (1, 1))  # B-orthogonality in the product
    assert q.sigma_q == (0, 1)


def test_is_adapted_examples(a1, sl2_subalgebras):
    assert is_adapted(a1, sl2_subalgebras["nbar"]) is True
    assert is_adapted(a1, sl2_subalgebras["so2"]) is True
    bp = translate(a1, sl2_subalgebras["nbar"], [WordEntry.exp(E)])
    assert is_adapted(a1, bp.h_z) is False


@pytest.mark.parametrize("name", [e.name for e in list_entries()])
def test_is_adapted_answers_with_a_bool_on_the_catalog(name):
    lie, bp, claims = load(name)
    assert is_adapted(lie, bp.h_z) is True
    witness = claims.get("non_adapted_witness")
    if witness:
        word = [word_entry_from_json(w, "witness") for w in witness["word"]]
        assert is_adapted(lie, translate(lie, bp.h_z, word).h_z) is False


def test_degenerate_whole_algebra_is_adapted(a1):
    an = analyze(a1, Subspace.full(3))
    assert an.s_z == ()
    assert compression_cone(an) == full_space(1)
    assert is_admissible(an)


# ---------------------------------------------------------------------------
# T, supports, S_z
# ---------------------------------------------------------------------------


def test_t_map_nbar(a1, sl2_subalgebras):
    an = analyze(a1, sl2_subalgebras["nbar"])
    assert an.t_map == ((0, vec((0, 0, 0))),)
    assert an.supports == ((0, ()),)
    assert an.s_z == ()


def test_t_map_so2(a1, sl2_subalgebras):
    an = analyze(a1, sl2_subalgebras["so2"])
    # f + w in span(e - f) forces w = -e
    assert an.t_map == ((0, vec((0, -1, 0))),)
    assert an.support_of(0) == (("root", 0),)
    assert [s.coords for s in an.s_z] == [(2,)]


def test_t_map_twisted_diagonal(a1xa1, twisted_diagonal):
    an = analyze(a1xa1, twisted_diagonal)
    images = dict(an.t_map)
    # T(f_1) = -e_2 and T(f_2) = -e_1 in the product coordinates
    assert images[0] == vec((0, 0, 0, -1, 0, 0))
    assert images[1] == vec((0, 0, -1, 0, 0, 0))
    assert [s.coords for s in an.s_z] == [(1, 1)]
    assert an.a_h == span(2, (1, -1))
    assert an.l_cap_h == Subspace.from_spanning(6, [(1, -1, 0, 0, 0, 0)])


def test_s_z_vanishes_on_a_h(a1xa1, twisted_diagonal):
    an = analyze(a1xa1, twisted_diagonal)
    for s in an.s_z:
        for row in an.a_h.basis_matrix:
            assert sum(a * b for a, b in zip(s.functional, row)) == 0


def test_indecomposables_so3(a2, so3_subalgebra):
    an = analyze(a2, so3_subalgebra)
    assert [s.coords for s in an.s_z] == [(0, 2), (2, 0), (2, 2)]
    assert [s.coords for s in an.indecomposables] == [(0, 2), (2, 0)]


@pytest.mark.parametrize("which", ["so2", "so11"])
def test_indecomposables_come_from_simple_roots(
    a1, a1xa1, a2, sl2_subalgebras, twisted_diagonal, so3_subalgebra, which
):
    # every indecomposable weight is (simple root) + (member of its support)
    cases = [
        (a1, sl2_subalgebras[which]),
        (a1xa1, twisted_diagonal),
        (a2, so3_subalgebra),
    ]
    for lie, h in cases:
        an = analyze(lie, h)
        for s in an.indecomposables:
            found = False
            for i in range(lie.rank):
                alpha = tuple(1 if j == i else 0 for j in range(lie.rank))
                if alpha not in lie.positive_roots:
                    continue
                p = lie.positive_roots.index(alpha)
                if p not in an.sigma_q:
                    continue
                rest = tuple(a - b for a, b in zip(s.coords, alpha))
                tags = an.support_of(p)
                if rest == alpha and ("a",) in tags:
                    found = True  # weight = 2 * simple with a-support
                if any(
                    t[0] == "root" and lie.positive_roots[t[1]] == rest
                    for t in tags
                ):
                    found = True
                if all(c == 0 for c in rest) and ("a",) in tags:
                    found = True
            assert found, s.coords


def test_monoid_membership():
    gens = [(2, 0), (0, 2)]
    assert monoid_contains(gens, (2, 2))
    assert monoid_contains(gens, (0, 0))
    assert not monoid_contains(gens, (1, 1))
    assert not monoid_contains(gens, (3, 0))
    assert not monoid_contains([], (1, 0))


# ---------------------------------------------------------------------------
# compression cone
# ---------------------------------------------------------------------------


def test_cone_nbar_is_everything(a1, sl2_subalgebras):
    an = analyze(a1, sl2_subalgebras["nbar"])
    assert compression_cone(an) == full_space(1)


def test_cone_so2_is_negative_chamber(a1, sl2_subalgebras):
    an = analyze(a1, sl2_subalgebras["so2"])
    assert compression_cone(an) == Cone.from_inequalities(1, [[1]])


def test_cone_twisted_diagonal_half_space(a1xa1, twisted_diagonal):
    an = analyze(a1xa1, twisted_diagonal)
    cone = compression_cone(an)
    f = a1xa1.root_functional((1, 0))
    g = a1xa1.root_functional((0, 1))
    want = Cone.from_inequalities(2, [tuple(x + y for x, y in zip(f, g))])
    assert cone == want
    assert cone.lineality == an.a_h


def test_cone_monotone_under_bad_translate(a1, sl2_subalgebras):
    an = analyze(a1, sl2_subalgebras["nbar"])
    bp = translate(a1, sl2_subalgebras["nbar"], [WordEntry.exp(E)])
    smaller = compression_cone_of_point(an, bp.h_z)
    assert smaller == Cone.from_inequalities(1, [[1]])
    assert compression_cone(an).contains_cone(smaller)
    assert smaller != compression_cone(an)


def test_cone_of_point_requires_open_orbit(a1, sl2_subalgebras):
    an = analyze(a1, sl2_subalgebras["nbar"])
    with pytest.raises(NotAdaptedError):
        compression_cone_of_point(an, sl2_subalgebras["a"])


def test_dual_of_compression_cone_generated_by_weights(
    a1, a1xa1, a2, sl2_subalgebras, twisted_diagonal, so3_subalgebra
):
    # the dual cone is generated by the negatives of the cutting weights
    cases = [
        (a1, sl2_subalgebras["so2"]),
        (a1xa1, twisted_diagonal),
        (a2, so3_subalgebra),
    ]
    for lie, h in cases:
        an = analyze(lie, h)
        cone = compression_cone(an)
        gens = [tuple(-c for c in s.functional) for s in an.s_z]
        assert dual(cone) == Cone.from_rays(lie.dim_a, gens)


# ---------------------------------------------------------------------------
# Phi
# ---------------------------------------------------------------------------


def test_phi_zero_when_tperp_zero(a1, sl2_subalgebras):
    an = analyze(a1, sl2_subalgebras["so2"])
    assert an.tperp((1,)) == vec((0, 0, 0))
    assert phi(an, (-1,)) == vec((0, 0, 0))


def test_phi_defining_identity_nontrivial(a1xa1, twisted_diagonal):
    an = analyze(a1xa1, twisted_diagonal)
    y = (Fraction(1), Fraction(1))  # in a_circ and regular
    n = phi(an, y)
    lhs = mat_vec(dense_exp_ad(a1xa1, tuple(-c for c in n)), a1xa1.a_vector_to_g(y))
    rhs = tuple(
        a + b for a, b in zip(a1xa1.a_vector_to_g(y), an.tperp(y))
    )
    assert lhs == rhs


def test_phi_rejects_irregular(a1, sl2_subalgebras):
    an = analyze(a1, sl2_subalgebras["so2"])
    with pytest.raises(ValueError):
        phi(an, (0,))


# ---------------------------------------------------------------------------
# boundary degenerations
# ---------------------------------------------------------------------------


def test_degeneration_at_full_cone_is_horospherical(a1xa1, twisted_diagonal):
    an = analyze(a1xa1, twisted_diagonal)
    cone = compression_cone(an)
    deg = boundary_degeneration(an, cone)
    assert deg.h_zf == an.h_empty


def test_degeneration_at_wall_so2_is_h_itself(a1, sl2_subalgebras):
    an = analyze(a1, sl2_subalgebras["so2"])
    cone = compression_cone(an)
    wall = walls_of(cone)[0]
    deg = boundary_degeneration(an, wall)
    assert deg.h_zf == sl2_subalgebras["so2"]
    assert [s.coords for s in deg.monoid_generators] == [(2,)]


def test_degeneration_formula_equals_limit_all_faces(a2, so3_subalgebra):
    an = analyze(a2, so3_subalgebra)
    cone = compression_cone(an)
    for face in cone.faces():
        deg = boundary_degeneration(an, face)
        x = face.relative_interior_point()
        assert deg.h_zf == limit_subspace(a2, so3_subalgebra, x)
        assert normalizer_in_a(a2, deg.h_zf) == face.span()


def _dense_normalizer_in_a(lie, e):
    """{X in a : [X, E] in E} from dense brackets with the basis of a."""
    ann = e.annihilator()
    rows = []
    for v in e.basis_matrix:
        images = [lie.bracket(lie.a_vector_to_g(b), v) for b in identity(lie.dim_a)]
        rows += [tuple(dot(a, img) for img in images) for a in ann]
    return Subspace.from_spanning(lie.dim_a, kernel(rows, lie.dim_a))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("A2", 0), ("B2", 0), ("A2", 1)]), st.data())
def test_normalizer_in_a_matches_dense_brackets(algebra, data):
    lie = build_from_cartan(cartan_matrix_of_type(algebra[0]), abelian_center_dim=algebra[1])
    entry = st.sampled_from([0, 0, 0, 1, -1, 2])
    rows = data.draw(st.lists(st.lists(entry, min_size=lie.dim, max_size=lie.dim), min_size=1, max_size=3))
    e = Subspace.from_spanning(lie.dim, [tuple(Fraction(x) for x in r) for r in rows])
    assert normalizer_in_a(lie, e) == _dense_normalizer_in_a(lie, e)


def test_degeneration_rejects_non_face(a1, sl2_subalgebras):
    an = analyze(a1, sl2_subalgebras["so2"])
    with pytest.raises(ValueError):
        boundary_degeneration(an, Cone.from_inequalities(1, [[-1]]))


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def test_admissible_nbar(a1, sl2_subalgebras):
    an = analyze(a1, sl2_subalgebras["nbar"])
    assert is_admissible(an)
    limits, cells = chamber_limits(an, an.h_z)
    assert len(cells) == 2
    for cell in cells:
        assert limits[cell] == sl2_subalgebras["nbar"]  # eigenline is flow-fixed


def test_admissible_so2_limits(a1, sl2_subalgebras):
    an = analyze(a1, sl2_subalgebras["so2"])
    assert is_admissible(an)
    cell_limits, cells = chamber_limits(an, an.h_z)
    chambers = order_regular_chambers(a1).chambers
    limits = {ch.signs: cell_limits[cell] for ch, cell in zip(chambers, cells)}
    assert limits[(1,)] == span(3, E)
    assert limits[(-1,)] == span(3, F)


def test_non_adapted_rejected_by_analyze(a1, sl2_subalgebras):
    bp = translate(a1, sl2_subalgebras["nbar"], [WordEntry.exp(E)])
    with pytest.raises(NotAdaptedError):
        analyze(a1, bp.h_z)


def test_find_admissible_returns_self(a1, sl2_subalgebras):
    an = analyze(a1, sl2_subalgebras["nbar"])
    res = find_admissible(an)
    assert res.strategy == "self" and res.point.h_z == sl2_subalgebras["nbar"]


def test_half_space_family_on_group_case(a1xa1, twisted_diagonal):
    an = analyze(a1xa1, twisted_diagonal)
    assert half_space_direction(an) == (1, 1)
    # T^perp vanishes here, so the family degenerates to the identity and
    # every member of the family is admissible
    for t in range(1, 9):
        n = half_space_candidate(an, t)
        bp = translate(a1xa1, twisted_diagonal, [WordEntry.exp(n)])
        ok = is_admissible(analyze(a1xa1, bp.h_z))
        if ok:
            break
    assert ok and t == 1


def test_half_space_direction_none_for_so3(a2, so3_subalgebra):
    an = analyze(a2, so3_subalgebra)
    assert half_space_direction(an) is None


# ---------------------------------------------------------------------------
# structural invariants on all catalog subalgebras
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "fixture",
    ["sl2_subalgebras", "twisted_diagonal", "so3_subalgebra", "a2_nbar"],
)
def test_structural_suite(fixture, request, a1, a1xa1, a2):
    obj = request.getfixturevalue(fixture)
    cases = (
        [(a1, s) for name, s in obj.items() if name in ("nbar", "so2", "so11")]
        if isinstance(obj, dict)
        else [((a1xa1 if obj.ambient_dim == 6 else a2), obj)]
    )
    for lie, h in cases:
        results = structural_invariants(analyze(lie, h))
        assert all(r.ok for r in results), [r for r in results if not r.ok]
