import functools
import random
from fractions import Fraction
from itertools import product

import pytest
from conftest import dual, enumerate_chambers, full_space, order_regular_hyperplanes, replace
from hypothesis import example, given, settings
from hypothesis import strategies as st

from littleweyl.cones import (
    Chamber,
    Cone,
    ConeError,
    orbit_chambers,
    traverse_chambers,
)
from littleweyl.lie import build_from_cartan, cartan_matrix_of_type, inverse_perm
from littleweyl.linalg import (
    Subspace,
    dot,
    integer_echelon,
    integer_rank,
    integer_reduce,
    mat_vec,
    primitive_ints,
    primitive_signed,
    vec,
)
from littleweyl.spherical import order_regular_chambers


def _contains_strictly(cone, x):
    """Membership in the topological interior of a full-dimensional cone."""
    return cone.contains(x) and all(dot(g, x) != 0 for g in cone.inequalities)


def test_single_inequality_rank_one():
    c = Cone.from_inequalities(1, [[2]])
    assert c.rays == ((Fraction(-1),),)
    assert c.lineality.dim == 0


def test_empty_inequalities_whole_space():
    c = Cone.from_inequalities(2, [])
    assert c.rays == () and c.lineality.dim == 2
    assert c.edge().dim == 2
    assert c == full_space(2)


def test_negative_quadrant():
    c = Cone.from_inequalities(2, [[1, 0], [0, 1]])
    assert c.rays == (vec((-1, 0)), vec((0, -1)))
    assert c.contains((-1, -2)) and not c.contains((1, 0))
    assert _contains_strictly(c, (-1, -2)) and not _contains_strictly(c, (-1, 0))


def test_membership_checks_its_input():
    """A wrong-length point raises ConeError, also on the full space, which
    has no inequality to evaluate; a float entry raises TypeError."""
    for cone in (full_space(2), Cone.from_inequalities(2, [(1, 1)])):
        with pytest.raises(ConeError, match="length 2"):
            cone.contains((1, 2, 3))
        with pytest.raises(TypeError, match="int or Fraction"):
            cone.contains((0.5, -1))


def test_repr_prints_the_fraction_view():
    """Reports print cones in their check details, as Fraction tuples."""
    assert repr(Cone.from_inequalities(2, [(1, 0), (0, 1)])) == (
        "Cone(ambient_dim=2, "
        "inequalities=((Fraction(0, 1), Fraction(1, 1)), (Fraction(1, 1), Fraction(0, 1))), "
        "rays=((Fraction(-1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(-1, 1))), "
        "lineality=Subspace(ambient_dim=2, basis_matrix=()))"
    )


def test_dual_examples():
    assert dual(full_space(2)).rays == () and dual(full_space(2)).dim == 0
    half = Cone.from_inequalities(1, [[1]])
    assert dual(half).rays == ((Fraction(-1),),)  # functionals nonpositive on the half-line
    quad = Cone.from_inequalities(2, [[1, 0], [0, 1]])
    dq = dual(quad)
    assert dq.rays == (vec((-1, 0)), vec((0, -1)))


def test_double_dual_is_identity_random():
    rng = random.Random(4)
    for _ in range(20):
        dim = rng.randint(1, 3)
        n = rng.randint(0, 4)
        ineqs = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(n)]
        ineqs = [g for g in ineqs if any(g)]
        c = Cone.from_inequalities(dim, ineqs)
        assert dual(dual(c)) == c


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
    c = full_space(2)
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
    facets = c.facets
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


def test_relative_interior_point():
    c = Cone.from_inequalities(2, [[1, 0], [0, 1]])
    p = c.relative_interior_point()
    assert _contains_strictly(c, p)
    w = c.walls()[0]
    q = w.relative_interior_point()
    assert w.contains(q) and not _contains_strictly(c, q)


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


def test_chamber_of_looks_up_the_sign_vector():
    cs = enumerate_chambers(2, [[1, 0], [0, 1], [1, 1], [1, -1]])
    for ch in cs.chambers:
        assert cs.chamber_of(ch.representative) is ch
        assert cs.chamber_of([Fraction(c, 3) for c in ch.representative]) is ch
    with pytest.raises(ConeError, match="lies on a hyperplane"):
        cs.chamber_of((1, 1))
    part = replace(cs, chambers=cs.chambers[:1])
    with pytest.raises(ConeError, match="outside the enumerated chambers"):
        part.chamber_of(cs.chambers[1].representative)


def test_chamber_of_reads_the_point_as_contains_does():
    """A point of the wrong length is a ConeError naming the length, on the
    chamber table as on a cone, not a bare ValueError from dot."""
    cs = enumerate_chambers(2, [[1, 0], [0, 1]])
    for read in (cs.chamber_of, full_space(2).contains):
        with pytest.raises(ConeError, match="expected vectors of length 2"):
            read((1,))


@pytest.mark.parametrize(
    "cartan_type,center",
    [("A2", 0), ("B2", 0), ("G2", 0), ("A3", 0), ("B3", 0), ("C3", 0), ("A2", 1)],
)
def test_weyl_orbit_chambers_equal_the_full_traversal(cartan_type, center):
    """One traversal of the chambers in one Weyl chamber, moved by W, gives
    the chambers of the traversal that crosses every wall: the same sign
    vectors, and the representatives read off the base chambers' cones."""
    lie = build_from_cartan(cartan_matrix_of_type(cartan_type), abelian_center_dim=center)
    want = enumerate_chambers(lie.dim_a, order_regular_hyperplanes(lie))
    got = order_regular_chambers(lie)
    assert got.hyperplanes == want.hyperplanes
    assert [ch.signs for ch in got.chambers] == [ch.signs for ch in want.chambers]
    assert [ch.representative for ch in got.chambers] == [
        ch.representative for ch in want.chambers
    ]


@pytest.mark.parametrize(
    "cartan_type,center",
    [("A1", 0), ("A2", 0), ("B2", 0), ("G2", 0), ("A3", 0), ("A1xA1", 0), ("A2", 1), ("A1", 2)],
)
def test_one_pass_table_agrees_with_the_root_functionals(cartan_type, center):
    """Old against new: the arrangement read off one pass over the root
    weights is the sorted set of the hyperplanes of the functionals alpha -
    beta, and for every ordered pair (k, l) of distinct roots pairs[k, l] =
    (j, e) means alpha_k - alpha_l is a positive multiple of e h_j; ends[j]
    is a pair along h_j itself."""
    lie = build_from_cartan(cartan_matrix_of_type(cartan_type), abelian_center_dim=center)
    table = order_regular_chambers(lie)
    assert table.hyperplanes == tuple(sorted(order_regular_hyperplanes(lie)))
    funcs = [lie.root_functional(r) for r in lie.roots()]
    assert len(table.pairs) == len(funcs) * (len(funcs) - 1)
    for (k, l), (j, e) in table.pairs.items():
        diff = tuple(a - b for a, b in zip(funcs[k], funcs[l]))
        assert primitive_ints(diff) == tuple(e * c for c in table.hyperplanes[j])
    assert [table.pairs[kl] for kl in table.ends] == [(j, 1) for j in range(len(table.ends))]


def signed_permutation(hyperplanes, fwd):
    """The action of the matrix on sign vectors, read off the matrix: the
    signed permutation h_j o m = eps_j h_pi(j) of the hyperplanes, so that
    the image of a chamber has the signs eps_j signs[pi(j)].  The oracle for
    the root-pair action."""
    index = {h: j for j, h in enumerate(hyperplanes)}
    pairs = []
    for h in hyperplanes:
        g = primitive_ints([dot(h, col) for col in zip(*fwd)])
        j = index.get(g)
        pairs.append((1, j) if j is not None else (-1, index[tuple(-c for c in g)]))
    return lambda signs: tuple(e * signs[j] for e, j in pairs)


def _matrix_orbit_chambers(hyperplanes, cones, maps):
    """The W-orbit as it ran before W moved sign vectors by its root
    permutation, kept as a reference: per (element, chamber), the sorted
    primitive images of the chamber's rays, summed with the least weights
    t^k at which the sum, pulled back through the inverse, is strictly
    inside the chamber; the signs come from the matrix."""
    lin = next(iter(cones.values())).lineality.rows if cones else ()
    out = []
    for fwd, back in maps:
        act = signed_permutation(hyperplanes, fwd)
        lin_echelon = integer_echelon(mat_vec(fwd, l) for l in lin)
        for signs, cone in cones.items():
            rays = sorted(
                {
                    primitive_ints(integer_reduce(mat_vec(fwd, r), lin_echelon))
                    for r in cone.rays
                }
            )
            t = 1
            while True:
                t += 1
                p = tuple(
                    sum(t**k * r[i] for k, r in enumerate(rays)) for i in range(len(fwd))
                )
                if all(dot(g, mat_vec(back, p)) < 0 for g in cone.facets):
                    break
            out.append(Chamber(act(signs), p))
    return tuple(sorted(out, key=lambda c: c.signs))


_ACTION_TYPES = [
    ("A1", 0),
    ("A1", 1),
    ("A2", 0),
    ("B2", 0),
    ("G2", 0),
    ("A3", 0),
    ("B3", 0),
    ("C3", 0),
    ("A4", 0),
    ("D4", 0),
    ("A2", 1),
    ("A3", 1),
    ("G2", 1),
    ("B2", 2),
]


@pytest.mark.parametrize("cartan_type,center", _ACTION_TYPES)
def test_root_pair_action_equals_the_matrix_signed_permutation(cartan_type, center):
    """Every element of W moves sign vectors by the table lookups of its
    root permutation as its matrix on a moves them.  Applied to the signed
    indices 1..n, an action shows its whole signed permutation."""
    lie = build_from_cartan(cartan_matrix_of_type(cartan_type), abelian_center_dim=center)
    table = order_regular_chambers(lie)
    probe = tuple(range(1, len(table.hyperplanes) + 1))
    for w in lie.weyl_group.values():
        want = signed_permutation(table.hyperplanes, w.matrix)(probe)
        assert table.sign_action(w.perm)(probe) == want


@pytest.mark.parametrize("cartan_type,center", _ACTION_TYPES)
def test_orbit_equals_the_matrix_orbit(cartan_type, center):
    """Old against new: the orbit that moves each distinct ray once per
    element, with the root-pair signs and the memoized weights, gives the
    chambers of the per-(element, chamber) orbit on matrices."""
    lie = build_from_cartan(cartan_matrix_of_type(cartan_type), abelian_center_dim=center)
    table = order_regular_chambers(lie)
    mirrors = {primitive_signed(lie.root_functional(r)) for r in lie.positive_roots}
    fixed = [j for j, h in enumerate(table.hyperplanes) if h in mirrors]
    base = traverse_chambers(lie.dim_a, table.hyperplanes, fixed)
    weyl = lie.weyl_group
    maps = [(w.matrix, weyl[inverse_perm(w.perm)].matrix) for w in weyl.values()]
    moves = [(table.sign_action(w.perm), *m) for w, m in zip(weyl.values(), maps)]
    want = _matrix_orbit_chambers(table.hyperplanes, base, maps)
    assert orbit_chambers(base, moves) == want
    assert table.chambers == want


@functools.cache
def _table(cartan_type):
    return order_regular_chambers(build_from_cartan(cartan_matrix_of_type(cartan_type)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["A2", "B2", "G2", "A3"]), st.data())
def test_table_operations_equal_the_tuple_reading(cartan_type, data):
    """The cell, match, shared-sign and side operations of the chamber table
    against the plain reading of its sign tuples, on random hyperplane
    subsets and sign choices."""
    table = _table(cartan_type)
    chambers, n = table.chambers, len(table.hyperplanes)
    cut = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))

    keys = [tuple(ch.signs[j] for j in cut) for ch in chambers]
    cell_keys = list(dict.fromkeys(keys))
    firsts, cells = table.cells(cut)
    assert cells == tuple(cell_keys.index(k) for k in keys)
    assert firsts == tuple(chambers[keys.index(k)].representative for k in cell_keys)

    fixed = [(j, data.draw(st.sampled_from([-1, 1]))) for j in cut]
    want = [ch.signs for ch in chambers if all(ch.signs[j] == s for j, s in fixed)]
    assert table.with_signs(fixed) == want

    chosen = data.draw(st.lists(st.sampled_from(chambers), min_size=1, max_size=5))
    shared = [(j, chosen[0].signs[j]) for j in range(n)]
    want = [(j, s) for j, s in shared if all(ch.signs[j] == s for ch in chosen)]
    assert table.shared_signs(chosen) == want

    j = data.draw(st.integers(0, n - 1))
    scale = data.draw(st.sampled_from([-3, -1, 1, 2]))
    g = tuple(scale * c for c in table.hyperplanes[j])
    side_j, s = table.side(g)
    assert side_j == j
    assert [ch.signs[j] == s for ch in chambers] == [
        dot(g, ch.representative) < 0 for ch in chambers
    ]
    # no alpha - beta has an entry 101 times another
    assert table.side(tuple(101**k for k in range(len(g)))) is None


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

    from littleweyl.linalg import kernel

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
                        found.add(primitive_ints(reduced))
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


_ENTRIES = st.sampled_from(
    [0, 0, 1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)]
)


@st.composite
def _rational_systems(draw):
    """Inequality systems in dimension 1-4 with rational entries, plus
    duplicates, positive rescalings, redundant sums and equality pairs."""
    dim = draw(st.integers(1, 4))
    row = st.lists(_ENTRIES, min_size=dim, max_size=dim)
    ineqs = draw(st.lists(row, min_size=1, max_size=4))
    pick = st.integers(0, len(ineqs) - 1)
    for i, c in draw(
        st.lists(st.tuples(pick, st.sampled_from([1, 2, Fraction(1, 3)])), max_size=2)
    ):
        ineqs.append([c * x for x in ineqs[i]])
    for i, j in draw(st.lists(st.tuples(pick, pick), max_size=1)):
        ineqs.append([x + y for x, y in zip(ineqs[i], ineqs[j])])
    for i in draw(st.lists(pick, max_size=1)):
        ineqs.append([-x for x in ineqs[i]])
    order = draw(st.permutations(range(len(ineqs))))
    return dim, [tuple(Fraction(x) for x in ineqs[i]) for i in order]


@settings(max_examples=150, deadline=None)
@given(_rational_systems(), st.data())
def test_double_description_matches_brute_force_on_rational_systems(system, data):
    dim, ineqs = system
    cone = Cone.from_inequalities(dim, ineqs)
    lin, rays = _brute_force_rays(dim, ineqs)
    assert cone.lineality == lin
    assert set(cone.rays) == rays
    assert list(cone.rays) == sorted(cone.rays)
    assert all(g == primitive_ints(g) for g in cone.inequalities)
    point = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    for x in data.draw(st.lists(point, min_size=1, max_size=10)):
        x = vec(x)
        assert cone.contains(x) == all(dot(g, x) <= 0 for g in ineqs)


# ---------------------------------------------------------------------------
# Old-vs-new oracle: the double description that kept a ray by the rank of
# its tight set, and the facet test that took a rank per inequality
# ---------------------------------------------------------------------------


def _reference_dd(inequalities, dim):
    """Extreme rays (primitive, reduced modulo the lineality, sorted) and the
    lineality echelon form of {x : g(x) <= 0}.  Every positive/negative pair
    is combined, and a ray is kept when its tight system cuts the cone down
    to the lineality plus one ray."""

    def combine(a, x, b, y):
        return tuple(a * xi + b * yi for xi, yi in zip(x, y))

    lin = [tuple(int(j == i) for j in range(dim)) for i in range(dim)]
    echelon = integer_echelon(lin)
    rays, processed = [], []
    for g in inequalities:
        g_lin = [dot(g, l) for l in lin]
        split = next((i for i, x in enumerate(g_lin) if x), None)
        if split is not None:
            l0, gl0 = lin[split], g_lin[split]
            if gl0 < 0:
                l0, gl0 = tuple(-c for c in l0), -gl0
            lin = [
                primitive_ints(combine(gl0, l, -gl, l0))
                for i, (l, gl) in enumerate(zip(lin, g_lin))
                if i != split
            ]
            rays = [combine(gl0, r, -dot(g, r), l0) for r in rays]
            rays.append(tuple(-c for c in l0))
            echelon = integer_echelon(lin)
        else:
            neg = [(dot(g, r), r) for r in rays if dot(g, r) < 0]
            zero = [r for r in rays if dot(g, r) == 0]
            pos = [(dot(g, r), r) for r in rays if dot(g, r) > 0]
            combos = [combine(gp, rn, -gn, rp) for gp, rp in pos for gn, rn in neg]
            rays = [r for _, r in neg] + zero + combos
        processed.append(g)
        target = dim - len(echelon) - 1
        seen = {}
        for r in rays:
            r = primitive_ints(integer_reduce(r, echelon))
            if any(r):
                seen[r] = None
        rays = [
            r
            for r in seen
            if integer_rank([h for h in processed if dot(h, r) == 0]) == target
        ]
    return sorted(rays), echelon


def _reference_is_facet(g, rays, lin, cone_dim):
    return integer_rank([r for r in rays if dot(g, r) == 0] + lin) == cone_dim - 1


def _reference_cone(dim, gammas):
    """(inequalities, rays, lineality rows) of {x : g(x) <= 0} as integer
    vectors: the facets plus +-pairs spanning the annihilator."""
    gams = [primitive_ints(g) for g in gammas]
    rays, echelon = _reference_dd(gams, dim)
    lin = [row for _, row in echelon]
    span = integer_echelon(rays + lin)
    ineqs = {}
    if len(span) < dim:
        for g in Subspace.from_echelon(dim, span).annihilator():
            ineqs[g] = ineqs[tuple(-c for c in g)] = None
    for g in gams:
        if _reference_is_facet(g, rays, lin, len(span)):
            ineqs[g] = None
    return sorted(ineqs), rays, lin


def _reference_from_rays(dim, gens, lin):
    gens = [primitive_ints(r) for r in gens]
    for l in lin:
        gens += [l, tuple(-c for c in l)]
    polar_rays, polar_lin = _reference_dd(gens, dim)
    ineqs = list(polar_rays)
    for _, l in polar_lin:
        ineqs += [l, tuple(-c for c in l)]
    return _reference_cone(dim, ineqs)


def _reference_facets(cone):
    ineqs, rays, lin = cone
    cone_dim = integer_rank(rays + lin)
    return [g for g in ineqs if _reference_is_facet(g, rays, lin, cone_dim)]


def _reference_walls(dim, cone):
    ineqs, rays, lin = cone
    cone_dim = integer_rank(rays + lin)
    if cone_dim == dim - 1:
        return [cone]
    if cone_dim < dim:
        return []
    walls = [
        _reference_cone(dim, ineqs + [g, tuple(-c for c in g)])
        for g in _reference_facets(cone)
    ]
    return sorted(walls, key=lambda c: c[1])


def _integer_view(cone):
    return (
        [primitive_ints(g) for g in cone.inequalities],
        [primitive_ints(r) for r in cone.rays],
        cone.lineality,
    )


def _same_cone(dim, got, want):
    """The stored description, the facets and the walls agree with the
    reference."""

    def reference_view(cone):
        ineqs, rays, lin = cone
        return ineqs, rays, Subspace.from_spanning(dim, lin)

    assert _integer_view(got) == reference_view(want)
    assert got.facets == _reference_facets(want)
    assert [_integer_view(w) for w in got.walls()] == [
        reference_view(w) for w in _reference_walls(dim, want)
    ]


@st.composite
def _integer_systems(draw):
    """Integer inequality systems in dimension 1-5 with repeated, negated and
    positively scaled rows; some cut out only a lineality (every row comes
    with its negative) or the cone {0} (every unit vector does)."""
    dim = draw(st.integers(1, 5))
    row = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    ineqs = draw(st.lists(row, max_size=8))
    if ineqs:
        pick = st.integers(0, len(ineqs) - 1)
        for i, c in draw(st.lists(st.tuples(pick, st.sampled_from([1, 2, 3, -1])), max_size=3)):
            ineqs.append([c * x for x in ineqs[i]])
    shape = draw(st.sampled_from(["cone", "lineality", "zero"]))
    if shape == "lineality":
        ineqs += [[-x for x in g] for g in ineqs]
    elif shape == "zero":
        ineqs += [[s * int(j == i) for j in range(dim)] for i in range(dim) for s in (1, -1)]
    order = draw(st.permutations(range(len(ineqs))))
    return dim, [tuple(ineqs[i]) for i in order]


@settings(max_examples=200, deadline=None)
@given(_integer_systems(), st.lists(st.integers(0, 7), max_size=3))
# a pyramid over a square cut through two opposite edges: the diagonal pair
# of rays on either side of the cut is not adjacent
@example((3, [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1), (1, 1, 0)]), [])
def test_cones_match_the_rank_based_double_description(system, lin_picks):
    dim, ineqs = system
    _same_cone(dim, Cone.from_inequalities(dim, ineqs), _reference_cone(dim, ineqs))
    lin = Subspace.from_spanning(dim, [ineqs[i] for i in lin_picks if i < len(ineqs)])
    _same_cone(
        dim,
        Cone.from_rays(dim, ineqs, lin),
        _reference_from_rays(dim, ineqs, list(lin.rows)),
    )
