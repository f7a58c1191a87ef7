import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from littleweyl.cones import Cone, ConeError, enumerate_chambers
from littleweyl.limits import order_regular_hyperplanes
from littleweyl.linalg import Subspace, dot, vec


def test_single_inequality_rank_one():
    c = Cone.from_inequalities(1, [[2]])
    assert c.rays == ((Fraction(-1),),)
    assert c.lineality.dim == 0


def test_empty_inequalities_whole_space():
    c = Cone.from_inequalities(2, [])
    assert c.rays == () and c.lineality.dim == 2
    assert c.edge().dim == 2
    assert c == Cone.full_space(2)


def test_negative_quadrant():
    c = Cone.from_inequalities(2, [[1, 0], [0, 1]])
    assert c.rays == (vec((-1, 0)), vec((0, -1)))
    assert c.contains((-1, -2)) and not c.contains((1, 0))
    assert c.contains_strictly((-1, -2)) and not c.contains_strictly((-1, 0))


def test_dual_examples():
    assert Cone.full_space(2).dual().rays == () and Cone.full_space(2).dual().dim == 0
    half = Cone.from_inequalities(1, [[1]])
    dual = half.dual()
    assert dual.rays == ((Fraction(-1),),)  # functionals nonpositive on the half-line
    quad = Cone.from_inequalities(2, [[1, 0], [0, 1]])
    dq = quad.dual()
    assert dq.rays == (vec((-1, 0)), vec((0, -1)))


def test_double_dual_is_identity_random():
    rng = random.Random(4)
    for _ in range(20):
        dim = rng.randint(1, 3)
        n = rng.randint(0, 4)
        ineqs = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(n)]
        ineqs = [g for g in ineqs if any(g)]
        c = Cone.from_inequalities(dim, ineqs)
        assert c.dual().dual() == c


def test_faces_walls_edge_half_line():
    c = Cone.from_inequalities(1, [[1]])
    faces = c.faces()
    assert sorted(f.dim for f in faces) == [0, 1]
    assert len(c.walls()) == 1 and c.walls()[0].dim == 0
    assert c.edge().dim == 0


@st.composite
def _cones(draw):
    """Cones of ambient dimension 1-4; equality pairs make lower-dimensional ones."""
    dim = draw(st.integers(1, 4))
    row = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    ineqs = draw(st.lists(row, max_size=4))
    eqs = draw(st.lists(row, max_size=2))
    return Cone.from_inequalities(dim, ineqs + eqs + [[-c for c in g] for g in eqs])


@settings(max_examples=80, deadline=None)
@given(_cones())
def test_walls_are_the_codimension_one_faces(c):
    assert c.walls() == [f for f in c.faces() if f.span().dim == c.ambient_dim - 1]


def test_faces_whole_space():
    c = Cone.full_space(2)
    assert len(c.faces()) == 1
    assert c.walls() == []
    assert c.edge().dim == 2


def test_half_plane_wall_is_boundary_line():
    c = Cone.from_inequalities(2, [[1, 1]])
    walls = c.walls()
    assert len(walls) == 1
    w = walls[0]
    assert w.lineality == Subspace.from_spanning(2, [(1, -1)])
    assert c.edge() == w.lineality


def test_each_wall_in_exactly_one_facet_hyperplane():
    c = Cone.from_inequalities(2, [[1, 0], [0, 1], [1, 1]])  # third is redundant
    facets = c._facet_inequalities()
    assert len(facets) == 2
    for w in c.walls():
        containing = [
            g
            for g in facets
            if all(dot(vec(g), r) == 0 for r in w.span().basis_matrix)
        ]
        assert len(containing) == 1


def test_edge_contained_in_top_faces():
    c = Cone.from_inequalities(3, [[1, 1, 0], [1, -1, 0]])
    assert c.edge().dim == 1
    for f in c.faces():
        if f.dim == c.dim:
            assert f.edge().contains(c.edge())


def test_transform():
    c = Cone.from_inequalities(2, [[1, 0]])
    m = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))  # swap coords
    assert c.transform(m) == Cone.from_inequalities(2, [[0, 1]])


def test_relative_interior_point():
    c = Cone.from_inequalities(2, [[1, 0], [0, 1]])
    p = c.relative_interior_point()
    assert c.contains_strictly(p)
    w = c.walls()[0]
    q = w.relative_interior_point()
    assert w.contains(q) and not c.contains_strictly(q)


def _grid_chamber_count(dim, hyperplanes, radius=6):
    signs = set()
    for point in product(range(-radius, radius + 1), repeat=dim):
        sv = tuple(
            (dot(vec(h), vec(point)) > 0) - (dot(vec(h), vec(point)) < 0)
            for h in hyperplanes
        )
        if 0 not in sv:
            signs.add(sv)
    return len(signs)


def test_chamber_counts_trivial():
    assert enumerate_chambers(1, [[1]]).count == 2
    assert enumerate_chambers(2, [[1, 0]]).count == 2


def test_chamber_count_a1_order_regular(a1):
    cs = enumerate_chambers(1, order_regular_hyperplanes(a1))
    assert cs.count == 2


@pytest.mark.parametrize("name", ["a2", "b2"])
def test_chamber_count_matches_grid(name, request):
    lie = request.getfixturevalue(name)
    hyps = order_regular_hyperplanes(lie)
    cs = enumerate_chambers(lie.dim_a, hyps)
    assert cs.count == _grid_chamber_count(lie.dim_a, cs.hyperplanes)
    for ch in cs.chambers:
        assert cs.sign_vector(ch.representative) == ch.signs


def test_chamber_representatives_strict():
    cs = enumerate_chambers(2, [[1, 0], [0, 1], [1, 1], [1, -1]])
    assert cs.count == 8
    for ch in cs.chambers:
        assert all(dot(h, ch.representative) != 0 for h in cs.hyperplanes)


def test_zero_functional_rejected():
    with pytest.raises(ConeError):
        enumerate_chambers(2, [[0, 0]])


def test_cone_with_lineality_from_rays():
    lin = Subspace.from_spanning(2, [(1, -1)])
    c = Cone.from_rays(2, [(0, -1)], lin)
    assert c.lineality == lin
    assert c.contains((5, -5)) and c.contains((-5, 5))
    assert c.contains((0, -3)) and not c.contains((0, 3))


def _brute_force_rays(dim, ineqs):
    """Independent V-representation oracle: enumerate subsets of inequalities,
    solve them to equality, and keep the directions that satisfy everything
    and whose tight set cuts the space down to lineality + one ray."""
    from itertools import combinations

    from littleweyl.linalg import kernel, primitive

    lin_rows = kernel(ineqs, dim) if ineqs else Subspace.full(dim).basis_matrix
    lin = Subspace.from_spanning(dim, lin_rows)
    found = set()
    for k in range(len(ineqs) + 1):
        for subset in combinations(range(len(ineqs)), k):
            sol = kernel([ineqs[i] for i in subset], dim) if subset else Subspace.full(
                dim
            ).basis_matrix
            space = Subspace.from_spanning(dim, sol)
            if space.dim != lin.dim + 1:
                continue
            direction = next(
                r for r in space.basis_matrix if not lin.contains_vector(r)
            )
            for sign in (1, -1):
                v = tuple(sign * c for c in direction)
                if all(dot(vec(g), v) <= 0 for g in ineqs):
                    reduced = lin.reduce_vector(v)
                    if any(c != 0 for c in reduced):
                        found.add(primitive(reduced))
    return lin, found


def test_double_description_matches_brute_force():
    rng = random.Random(11)
    for trial in range(40):
        dim = rng.randint(2, 4)
        n = rng.randint(1, 5)
        ineqs = []
        for _ in range(n):
            g = tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim))
            if any(g):
                ineqs.append(g)
        if not ineqs:
            continue
        cone = Cone.from_inequalities(dim, ineqs)
        lin, rays = _brute_force_rays(dim, ineqs)
        assert cone.lineality == lin, (trial, ineqs)
        assert set(cone.rays) == rays, (trial, ineqs)
        # the minimal stored system is equivalent to the input system
        for _ in range(20):
            x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim))
            assert cone.contains(x) == all(dot(vec(g), x) <= 0 for g in ineqs)
