"""End-to-end runs outside the built-in catalog: a non-simply-laced algebra
and an algebra with an abelian center."""

from littleweyl.cones import Cone
from littleweyl.lie import build_from_cartan, cartan_matrix_of_type
from littleweyl.linalg import Subspace
from littleweyl.spherical import analyze, compression_cone, is_admissible
from littleweyl.verify import structural_invariants
from littleweyl.weyl import (
    limits_agree_with_walls,
    little_weyl_group,
    spherical_roots,
)


def test_b2_riemannian_full_weyl_group(b2):
    rows = []
    for p in range(4):
        row = [0] * 10
        row[b2.e_index(p)] = 1
        row[b2.f_index(p)] = -1
        rows.append(row)
    h = Subspace.from_spanning(10, rows)
    an = analyze(b2, h)
    assert [s.coords for s in an.s_z] == [(0, 2), (2, 0), (2, 2), (2, 4)]
    assert [s.coords for s in an.indecomposables] == [(0, 2), (2, 0)]
    cone = compression_cone(an)
    neg = Cone.from_inequalities(
        2, [b2.root_functional((1, 0)), b2.root_functional((0, 1))]
    )
    assert cone == neg
    group = little_weyl_group(an)
    assert group.order == 8 and group.type_label == "B2"
    assert group.coxeter_orders == ((1, 4), (4, 1))
    assert limits_agree_with_walls(an)
    sr = spherical_roots(an)
    assert set(sr.roots) == set(b2.roots())
    assert is_admissible(an)
    results = structural_invariants(an)
    assert all(r.ok for r in results), [r for r in results if not r.ok]


def test_center_threads_through_the_pipeline():
    lie = build_from_cartan(cartan_matrix_of_type("A1"), abelian_center_dim=1)
    h = Subspace.from_spanning(4, [(0, 0, 1, -1)])  # e - f; coords h, z, e, f
    an = analyze(lie, h)
    cone = compression_cone(an)
    # a half-plane: the center line is the lineality and the edge
    assert cone.lineality == Subspace.from_spanning(2, [(0, 1)])
    assert cone.edge().dim == 1
    assert cone.rays == ((-1, 0),)
    group = little_weyl_group(an)
    assert group.order == 2
    assert limits_agree_with_walls(an)
    sr = spherical_roots(an)
    assert sr.roots == ((-1,), (1,))
    results = structural_invariants(an)
    assert all(r.ok for r in results), [r for r in results if not r.ok]
