import itertools
from fractions import Fraction

import pytest
from conftest import LEVI_PAIRS, chamber_cone, enumerate_chambers, replace, walls_of

from littleweyl import spherical, weyl
from littleweyl.catalog import list_entries, load
from littleweyl.cones import Cone
from littleweyl.lie import build_from_cartan, cartan_matrix_of_type
from littleweyl.linalg import Subspace, identity, mat_mul, mat_vec, primitive_signed, vec
from littleweyl.spherical import (
    ContractViolation,
    analyze,
    boundary_degeneration,
    chamber_limits,
    compression_cone,
    compression_cone_of_point,
    order_regular_chambers,
    translate,
)
from littleweyl.serialize import word_entry_from_json
from littleweyl.weyl import (
    QuotientSpace,
    coxeter_type_label,
    induced_form,
    limit_coset,
    limits_agree_with_walls,
    little_weyl_group,
    spherical_roots,
    wall_reflection,
    weyl_from_limits,
)


def span(dim, *rows):
    return Subspace.from_spanning(dim, rows)


def _analysis(name):
    lie, bp, _ = load(name)
    return analyze(lie, bp.h_z)


# ---------------------------------------------------------------------------
# wall reflections
# ---------------------------------------------------------------------------


def test_wall_reflection_so2(a1, sl2_subalgebras):
    an = analyze(a1, sl2_subalgebras["so2"])
    wall = walls_of(compression_cone(an))[0]
    gen = wall_reflection(an, wall)
    assert gen.witness == ("root", (2,))  # the weight is twice the root
    assert gen.element.matrix == ((Fraction(-1),),)


def test_wall_reflection_orthogonal_pair(a1xa1, twisted_diagonal):
    an = analyze(a1xa1, twisted_diagonal)
    wall = walls_of(compression_cone(an))[0]
    gen = wall_reflection(an, wall)
    kind, beta, gamma, witness = gen.witness
    assert kind == "pair"
    assert beta == (1, 0) and gamma == (0, 1)
    # the three conditions: beta simple, beta orthogonal to gamma, and the
    # coroot span meets a_h
    assert sum(beta) == 1
    assert sum(
        a1xa1.symmetrizer[i] * a1xa1.cartan_matrix[i][j] * beta[i] * gamma[j]
        for i in range(2)
        for j in range(2)
    ) == 0
    assert witness == vec((1, -1))
    assert an.a_h.contains_vector(witness)
    # acts as -1 on a/a_h and fixes the wall
    assert gen.matrix_on_quotient == ((Fraction(-1),),)


def test_wall_reflections_so3(a2, so3_subalgebra):
    an = analyze(a2, so3_subalgebra)
    cone = compression_cone(an)
    gens = [wall_reflection(an, w) for w in walls_of(cone)]
    weights = sorted(g.weight.coords for g in gens)
    assert weights == [(0, 2), (2, 0)]
    for g in gens:
        # reflections in the simple roots alpha_2 and alpha_1
        root = tuple(c // 2 for c in g.weight.coords)
        cor = a2.coroot(root)
        f = a2.root_functional(root)
        for e in identity(2):
            expect = tuple(
                x - sum(a * b for a, b in zip(f, e)) * c for x, c in zip(e, cor)
            )
            assert mat_vec(g.element.matrix, e) == expect


def test_wall_reflection_rejects_a_hyperplane_that_is_not_a_wall(a2, so3_subalgebra):
    an = analyze(a2, so3_subalgebra)
    hyperplane = Cone.from_inequalities(2, [(1, 1), (-1, -1)])  # x1 + x2 = 0
    assert hyperplane not in walls_of(compression_cone(an))
    with pytest.raises(ContractViolation, match="no indecomposable weight cuts out the wall"):
        wall_reflection(an, hyperplane)


# ---------------------------------------------------------------------------
# the group
# ---------------------------------------------------------------------------


def test_group_orders_and_types(a1, a1xa1, a2, sl2_subalgebras, twisted_diagonal, so3_subalgebra, a2_nbar):
    cases = [
        (a1, sl2_subalgebras["nbar"], 1, "trivial"),
        (a1, sl2_subalgebras["so2"], 2, "A1"),
        (a1, sl2_subalgebras["so11"], 2, "A1"),
        (a1xa1, twisted_diagonal, 2, "A1"),
        (a2, so3_subalgebra, 6, "A2"),
        (a2, a2_nbar, 1, "trivial"),
    ]
    for lie, h, order, label in cases:
        g = little_weyl_group(analyze(lie, h))
        assert g.order == order
        assert g.type_label == label


def test_group_axioms_so3(a2, so3_subalgebra):
    g = little_weyl_group(analyze(a2, so3_subalgebra))
    elems = set(g.elements)
    for m1 in elems:
        for m2 in elems:
            assert mat_mul(m1, m2) in elems
    ident = identity(g.quotient.dim)
    for m in elems:
        assert any(mat_mul(m, m2) == ident for m2 in elems)


def test_elements_are_isometries(a2, so3_subalgebra):
    an = analyze(a2, so3_subalgebra)
    g = little_weyl_group(an)
    form = induced_form(a2, g.quotient)
    for m in g.elements:
        mt = tuple(zip(*m))
        assert mat_mul(mat_mul(mt, form), m) == form


def test_edge_stability_group_case(a1xa1, twisted_diagonal):
    an = analyze(a1xa1, twisted_diagonal)
    g = little_weyl_group(an)
    edge = compression_cone(an).edge()
    for m in g.elements:
        moved = [
            g.quotient.lift(mat_vec(m, g.quotient.project(r)))
            for r in edge.basis_matrix
        ]
        assert Subspace.from_spanning(2, moved + list(an.a_h.basis_matrix)).contains(
            edge
        )


def test_coxeter_orders(a2, so3_subalgebra):
    g = little_weyl_group(analyze(a2, so3_subalgebra))
    assert g.coxeter_orders == ((1, 3), (3, 1))
    assert all(m in (1, 2, 3, 4, 6) for row in g.coxeter_orders for m in row)


def test_coset_labels_so3(a2, so3_subalgebra):
    g = little_weyl_group(analyze(a2, so3_subalgebra))
    assert sorted(g.coset_labels) == ["e", "s1", "s1*s2", "s1*s2*s1", "s2", "s2*s1"]


# ---------------------------------------------------------------------------
# the group from limits
# ---------------------------------------------------------------------------


def _chamber_cosets(an):
    """Each order-regular chamber's signs -> the label of its limit's coset."""
    limits, cells = chamber_limits(an, an.h_z)
    chambers = order_regular_chambers(an.lie).chambers
    return {
        ch.signs: limit_coset(an, limits[cell]).label
        for ch, cell in zip(chambers, cells, strict=True)
    }


def test_limit_cosets_nbar(a1, sl2_subalgebras):
    an = analyze(a1, sl2_subalgebras["nbar"])
    assert [c.label for c in weyl_from_limits(an)] == ["e"]
    assert all(label == "e" for label in _chamber_cosets(an).values())


def test_limit_cosets_so2(a1, sl2_subalgebras):
    an = analyze(a1, sl2_subalgebras["so2"])
    assert sorted(c.label for c in weyl_from_limits(an)) == ["e", "s1"]
    per_chamber = _chamber_cosets(an)
    assert per_chamber[(-1,)] == "e" and per_chamber[(1,)] == "s1"


def test_limit_cosets_twisted_diagonal(a1xa1, twisted_diagonal):
    cosets = weyl_from_limits(analyze(a1xa1, twisted_diagonal))
    assert sorted(c.label for c in cosets) == ["e", "s1*s2"]


def test_agreement_everywhere(
    a1, a1xa1, a2, sl2_subalgebras, twisted_diagonal, so3_subalgebra, a2_nbar
):
    cases = [
        (a1, sl2_subalgebras["nbar"]),
        (a1, sl2_subalgebras["so2"]),
        (a1, sl2_subalgebras["so11"]),
        (a1xa1, twisted_diagonal),
        (a2, so3_subalgebra),
        (a2, a2_nbar),
    ]
    for lie, h in cases:
        an = analyze(lie, h)
        assert limits_agree_with_walls(an)


def test_degeneration_wall_groups_have_order_two(a2, so3_subalgebra):
    an = analyze(a2, so3_subalgebra)
    group = little_weyl_group(an)
    cone = compression_cone(an)
    for wall, gen in zip(walls_of(cone), group.generators):
        deg = boundary_degeneration(an, wall)
        sub = little_weyl_group(analyze(a2, deg.h_zf))
        assert sub.order == 2
        nontrivial = [m for m in sub.elements if m != identity(sub.quotient.dim)]
        assert nontrivial == [gen.matrix_on_quotient]


# ---------------------------------------------------------------------------
# spherical roots
# ---------------------------------------------------------------------------


def test_spherical_roots_trivial(a1, sl2_subalgebras):
    an = analyze(a1, sl2_subalgebras["nbar"])
    sr = spherical_roots(an)
    assert sr.roots == ()


def test_spherical_roots_so2_primitive(a1, sl2_subalgebras):
    an = analyze(a1, sl2_subalgebras["so2"])
    sr = spherical_roots(an)
    # S_z is {2 alpha} but the primitive lattice elements are +-alpha
    assert sr.roots == ((-1,), (1,))
    assert sr.lattice_basis == ((1,),)


def test_spherical_roots_group_case(a1xa1, twisted_diagonal):
    an = analyze(a1xa1, twisted_diagonal)
    sr = spherical_roots(an)
    assert sr.roots == ((-1, -1), (1, 1))
    assert sr.lattice_basis in (((1, 1),), ((-1, -1),))


def test_spherical_roots_so3_full_a2(a2, so3_subalgebra):
    an = analyze(a2, so3_subalgebra)
    sr = spherical_roots(an)
    assert set(sr.roots) == {
        (1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)
    }
    for r in sr.roots:
        assert tuple(-x for x in r) in sr.roots


def test_coxeter_type_labels():
    assert coxeter_type_label(()) == "trivial"
    assert coxeter_type_label(((1,),)) == "A1"
    assert coxeter_type_label(((1, 2), (2, 1))) == "A1 x A1"
    assert coxeter_type_label(((1, 3), (3, 1))) == "A2"
    assert coxeter_type_label(((1, 4), (4, 1))) == "B2"
    assert coxeter_type_label(((1, 6), (6, 1))) == "G2"
    assert (
        coxeter_type_label(((1, 3, 2), (3, 1, 3), (2, 3, 1))) == "A3"
    )


def _coxeter_orders(cartan_type, order=None):
    """Coxeter orders m_ij of a Cartan type, nodes optionally permuted."""
    a = cartan_matrix_of_type(cartan_type)
    n = len(a)
    order = order or list(range(n))
    m = {0: 2, 1: 3, 2: 4, 3: 6}
    return tuple(
        tuple(1 if i == j else m[a[i][j] * a[j][i]] for j in order) for i in order
    )


@pytest.mark.parametrize(
    "cartan_type, order, label",
    [
        ("A4", None, "A4"),
        ("A4", [2, 0, 3, 1], "A4"),
        ("B4", None, "B4"),
        ("B4", [3, 1, 0, 2], "B4"),
        ("C4", None, "B4"),
        ("D4", None, "D4"),
        ("D4", [1, 3, 0, 2], "D4"),
        ("F4", None, "F4"),
        ("F4", [2, 0, 3, 1], "F4"),
        ("B3", None, "B3"),
        ("A2xB2", None, "A2 x B2"),
        ("A1xD4", None, "A1 x D4"),
    ],
)
def test_coxeter_type_labels_up_to_rank_four(cartan_type, order, label):
    assert coxeter_type_label(_coxeter_orders(cartan_type, order)) == label


@pytest.mark.parametrize(
    "orders",
    [
        _coxeter_orders("A5"),
        _coxeter_orders("D5"),
        ((1, 3, 2), (3, 1, 5), (2, 5, 1)),  # H3
        ((1, 3, 3), (3, 1, 3), (3, 3, 1)),  # triangle
        ((1, 3, 2, 2), (3, 1, 3, 2), (2, 3, 1, 5), (2, 2, 5, 1)),  # H4
        ((1, 3, 2, 3), (3, 1, 3, 2), (2, 3, 1, 3), (3, 2, 3, 1)),  # square
    ],
)
def test_coxeter_type_label_raises_on_unsupported_diagrams(orders):
    with pytest.raises(ContractViolation):
        coxeter_type_label(orders)


def test_quotient_space_roundtrip(a1xa1, twisted_diagonal):
    an = analyze(a1xa1, twisted_diagonal)
    q = QuotientSpace.of(an.a_h)
    assert q.dim == 1
    v = (Fraction(3), Fraction(1))
    assert q.project(q.lift(q.project(v))) == q.project(v)
    # projecting a_h gives zero
    assert q.project(an.a_h.basis_matrix[0]) == (Fraction(0),)


def test_quotient_matrices_stay_ints_when_a_h_is_zero():
    """The quotient lifts and projects without converting: with a_h = 0 no
    division runs, so the elements' matrices on a/a_h hold ints."""
    an = _analysis("A2_so3")
    group = little_weyl_group(an)
    assert an.a_h.dim == 0 and group.order == 6
    entries = [x for m in group.elements for row in m for x in row]
    assert entries and all(type(x) is int for x in entries)


def _facet_arrangement_tiling(quot, maps, cone):
    """The tiling check as it ran before it read the order-regular chamber
    table, kept as a reference: the translates by the matrices on a are
    built from the images of the rays and the lineality, every chamber of
    the arrangement of all their facet hyperplanes must lie in exactly one
    of them, and a dense sample of a/a_h, lifted to a, must be covered."""
    d = cone.ambient_dim
    translates = [
        Cone.from_rays(d, [mat_vec(m, r) for r in cone.rays], cone.lineality.transform(m))
        for m in maps
    ]
    facets = [g for c in translates for g in c.facets]
    representatives = (
        [ch.representative for ch in enumerate_chambers(d, facets).chambers]
        if facets
        else [(0,) * d]
    )
    counts = [sum(c.contains(p) for c in translates) for p in representatives]
    if max(counts) > 1:
        raise ContractViolation("two cone translates share interior")
    if min(counts) == 0:
        raise ContractViolation("cone translates do not cover a/a_h")
    for point in itertools.product(range(-2, 3), repeat=quot.dim):
        p = quot.lift(point)
        if any(point) and not any(c.contains(p) for c in translates):
            raise ContractViolation("cone translates miss a sample point")


def _tiling_inputs(an):
    """The chamber table, the realizers' root permutations and the
    compression cone, as little_weyl_group checks them."""
    group = little_weyl_group(an)
    perms = [w.element.perm for w in group.realizers]
    return group, order_regular_chambers(an.lie), perms, compression_cone(an)


def _riemannian_analysis(cartan_type):
    lie = build_from_cartan(cartan_matrix_of_type(cartan_type))
    h = span(
        lie.dim,
        *(
            tuple({lie.e_index(p): 1, lie.f_index(p): -1}.get(k, 0) for k in range(lie.dim))
            for p in range(lie.num_pos)
        ),
    )
    return analyze(lie, h)


_TILING_SPACES = (
    [f"catalog/{e.name}" for e in list_entries()]
    + [f"levi/{name}" for name in LEVI_PAIRS]
    + ["so/A3", "so/B3", "so/C3"]
)


def _tiling_space(key, levi_pairs):
    kind, name = key.split("/")
    if kind == "catalog":
        return _analysis(name)
    if kind == "levi":
        return analyze(*levi_pairs[name])
    return _riemannian_analysis(name)


@pytest.mark.parametrize("key", _TILING_SPACES)
def test_tiling_agrees_with_the_facet_arrangement_check(key, levi_pairs):
    """Old against new: the chamber-table check and the facet-arrangement
    check with its grid sample both accept the realizers, and both reject a
    duplicated and a dropped realizer."""
    group, chambers, perms, cone = _tiling_inputs(_tiling_space(key, levi_pairs))
    maps = [w.element.matrix for w in group.realizers]
    weyl._verify_tiling(chambers, perms, cone)
    _facet_arrangement_tiling(group.quotient, maps, cone)
    for message, mutate in [
        ("share interior", lambda xs: xs + xs[-1:]),
        ("do not cover", lambda xs: xs[:-1]),
    ]:
        with pytest.raises(ContractViolation, match=message):
            weyl._verify_tiling(chambers, mutate(perms), cone)
        with pytest.raises(ContractViolation, match=message):
            _facet_arrangement_tiling(group.quotient, mutate(maps), cone)


@pytest.mark.parametrize("key", _TILING_SPACES + ["so/A1", "so/A2", "so/B2", "so/G2"])
def test_tiling_selects_by_signs_the_chambers_the_cone_contains(key, levi_pairs):
    """Old against new: the chambers that the tiling check selects by their
    signs on the cone's facet hyperplanes are the chambers whose
    representative the cone contains, the scan the check ran before."""
    _, chambers, _, cone = _tiling_inputs(_tiling_space(key, levi_pairs))
    want = [ch.signs for ch in chambers.chambers if cone.contains(ch.representative)]
    assert weyl._chambers_in_cone(chambers, cone) == want


def _hull_of_passing_chambers(an, h_z):
    """The chamber sweep as it ran before it read the table's sign vectors,
    kept as a reference: the cone that the closed chambers with a passing
    limit generate."""
    lie = an.lie
    targets = [an.h_empty.scale_coordinates(s) for s in lie.m_sign_characters("coroot")]
    limits, cells = chamber_limits(an, h_z)
    table = order_regular_chambers(lie)
    rays, lin = [], []
    for ch, cell in zip(table.chambers, cells):
        if limits[cell] in targets:
            cone = chamber_cone(table, ch)
            rays.extend(cone.rays)
            lin.extend(cone.lineality.rows)
    return Cone.from_rays(lie.dim_a, rays, Subspace.from_spanning(lie.dim_a, lin))


_WITNESSES = [e.name for e in list_entries() if "non_adapted_witness" in e.space["claims"]]


@pytest.mark.parametrize("key", _TILING_SPACES + [f"witness/{name}" for name in _WITNESSES])
def test_chamber_sweep_equals_the_hull_of_the_passing_chambers(key, levi_pairs):
    """Old against new: the cone read off the passing chambers' sign vectors
    is the cone their closed chambers generate, at the base points and at
    the catalog's non-adapted witness points."""
    kind, name = key.split("/")
    if kind == "witness":
        an = _analysis(name)
        wit = load(name)[2]["non_adapted_witness"]
        h_z = translate(an.lie, an.h_z, [word_entry_from_json(w, "w") for w in wit["word"]]).h_z
    else:
        an = _tiling_space(key, levi_pairs)
        h_z = an.h_z
    got = compression_cone_of_point(an, h_z)
    want = _hull_of_passing_chambers(an, h_z)
    assert (got.inequalities, got.rays, got.lineality) == (
        want.inequalities,
        want.rays,
        want.lineality,
    )


def test_chamber_sweep_rejects_passing_chambers_that_fill_no_convex_cone(monkeypatch):
    """Two opposite chambers agree on no hyperplane, so the signs cut out all
    of a, which holds more chambers than the two that pass."""
    an = _analysis("A2_so3")
    table = order_regular_chambers(an.lie)
    first = table.chambers[0].signs
    pair = (first, tuple(-s for s in first))

    def two_opposite_chambers(analysis, e):
        cells = tuple(0 if ch.signs in pair else 1 for ch in table.chambers)
        return (analysis.h_empty, Subspace.from_spanning(analysis.lie.dim, [])), cells

    monkeypatch.setattr(spherical, "chamber_limits", two_opposite_chambers)
    with pytest.raises(
        ContractViolation, match=f"do not fill a convex cone: 2 pass, {table.count} filled$"
    ):
        compression_cone_of_point(an, an.h_z)


def test_chamber_sweep_with_no_passing_chamber_is_the_zero_cone(monkeypatch):
    an = _analysis("A2_so3")
    cells = (0,) * order_regular_chambers(an.lie).count

    def no_passing_chamber(analysis, e):
        return (Subspace.from_spanning(analysis.lie.dim, []),), cells

    monkeypatch.setattr(spherical, "chamber_limits", no_passing_chamber)
    cone = compression_cone_of_point(an, an.h_z)
    assert cone.dim == 0 and cone.lineality.dim == 0


@pytest.mark.parametrize("name", ["A1_nbar", "A1_so2", "A1xA1_diag_w0", "A2_so3"])
def test_tiling_rejects_an_overlap_and_a_gap(name):
    """The messages count the images, the distinct ones, the table's
    chambers and the group elements: each translate holds k chambers."""
    _, chambers, perms, cone = _tiling_inputs(_analysis(name))
    weyl._verify_tiling(chambers, perms, cone)
    n, k = len(perms), chambers.count // len(perms)
    with pytest.raises(
        ContractViolation,
        match=f"share interior: {(n + 1) * k} images, {n * k} distinct, "
        f"{n * k} chambers, group order {n + 1}$",
    ):
        weyl._verify_tiling(chambers, perms + perms[-1:], cone)
    with pytest.raises(
        ContractViolation,
        match=f"do not cover a/a_h: {(n - 1) * k} images, {(n - 1) * k} distinct, "
        f"{n * k} chambers, group order {n - 1}$",
    ):
        weyl._verify_tiling(chambers, perms[:-1], cone)


@pytest.mark.parametrize("name", ["A1xA1_diag_w0", "A2_so3", "A2_nbar"])
def test_tiling_rejects_a_facet_outside_the_chamber_table(name):
    """A cone cut by a hyperplane that is no alpha - beta is no union of
    chambers, and the check says so before it counts any."""
    _, chambers, perms, cone = _tiling_inputs(_analysis(name))
    d = cone.ambient_dim
    g = next(
        g
        for g in itertools.product(range(-3, 4), repeat=d)
        if any(g)
        and primitive_signed(g) not in chambers.hyperplanes
        and g in cone.intersect(Cone.from_inequalities(d, [g])).facets
    )
    cut = cone.intersect(Cone.from_inequalities(d, [g]))
    with pytest.raises(ContractViolation, match="not an order-regular hyperplane"):
        weyl._verify_tiling(chambers, perms, cut)


def test_limit_matching_two_cosets_is_a_contract_violation(monkeypatch):
    an = _analysis("A2_so3")
    original = weyl._conjugate_table

    def with_a_second_coset(analysis, m_lattice):
        targets = original(analysis, m_lattice)
        for cosets in targets.values():
            key, coset = next(
                (k, c) for k, c in weyl._normalizer(analysis) if k not in cosets
            )
            cosets[key] = coset
        return targets

    monkeypatch.setattr(weyl, "_conjugate_table", with_a_second_coset)
    with pytest.raises(ContractViolation, match="more than one coset"):
        weyl_from_limits(an)


def test_closure_is_bounded_by_the_order_of_w():
    # |W_Z| <= |W|: on a copy of A2 whose Weyl group lists 5 of its 6
    # elements, the closure of the wall reflections of A2/so3 (order 6)
    # exceeds the bound
    a2, bp, _ = load("A2_so3")
    lie = replace(a2)
    object.__setattr__(lie, "weyl_group", dict(list(a2.weyl_group.items())[:5]))
    an = analyze(lie, bp.h_z)
    with pytest.raises(ContractViolation, match="closure exceeds the bound"):
        little_weyl_group(an)
