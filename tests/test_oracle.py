"""Root systems and Weyl group orders against sympy.liealgebras, and the
closed forms of the Riemannian pairs g/so at rank <= 3.

The chamber table counts on #chambers = |W| x #chambers in one Weyl chamber,
so |W| and the root system are checked against a source independent of the
code that builds them.

Only sympy's simple roots, root counts and group orders are read.  Its
``cartan_matrix`` mixes conventions (B and C are transposed against G2) and
fails on A1, and its ``all_roots`` for G2 holds two vectors off the root
plane, so the Cartan matrix and the roots are derived here from the simple
roots with Euclidean inner products and reflections.

sympy's F4 ``simple_roots`` are wrong: alpha_3 = e_4 is orthogonal to
alpha_2 = e_2 - e_3, so they span A2 x A2.  Its F4 ``all_roots`` are the 48
roots of F4, so for F4 the simple roots are read off them instead.
"""

from itertools import permutations

import pytest
import sympy
from conftest import space_json
from sympy.liealgebras.root_system import RootSystem
from sympy.liealgebras.weyl_group import WeylGroup

from littleweyl.lie import build_from_cartan, cartan_matrix_of_type
from littleweyl.linalg import primitive_ints
from littleweyl.serialize import space_from_json
from littleweyl.spherical import analyze, compression_cone
from littleweyl.weyl import limits_agree_with_walls, little_weyl_group

TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2"]


def _sympy_simple_roots(cartan_type: str) -> list[list[sympy.Rational]]:
    if cartan_type == "F4":
        return _indecomposable_roots(RootSystem("F4").all_roots().values())
    simple = RootSystem(cartan_type).simple_roots()
    return [[sympy.Rational(x) for x in simple[i]] for i in sorted(simple)]


def _indecomposable_roots(roots) -> list[list[sympy.Rational]]:
    """The simple roots of a root system: the roots positive on a functional
    vanishing on none of them that are not a sum of two such roots."""
    roots = [tuple(sympy.Rational(x) for x in r) for r in roots]
    functional = (8, 4, 2, 1)  # nonzero on every F4 root
    assert all(_ip(r, functional) != 0 for r in roots)
    pos = [r for r in roots if _ip(r, functional) > 0]
    sums = {tuple(x + y for x, y in zip(a, b)) for a in pos for b in pos}
    return [list(r) for r in pos if r not in sums]


def _ip(a, b):
    return sum(x * y for x, y in zip(a, b))


def _reflection_closure(simple):
    """The roots: the orbit of the simple roots under the simple reflections."""
    roots = {tuple(a) for a in simple}
    frontier = list(roots)
    while frontier:
        new = []
        for v in frontier:
            for a in simple:
                c = 2 * _ip(v, a) / _ip(a, a)
                w = tuple(x - c * y for x, y in zip(v, a))
                if w not in roots:
                    roots.add(w)
                    new.append(w)
        frontier = new
    return roots


@pytest.mark.parametrize("cartan_type", TYPES)
def test_root_system_and_weyl_order_match_sympy(cartan_type):
    lie = build_from_cartan(cartan_matrix_of_type(cartan_type))
    simple = _sympy_simple_roots(cartan_type)
    n = len(simple)
    # a_ij = <alpha_j, alpha_i^vee>, up to a relabelling of the simple roots
    cartan = [[2 * _ip(a, b) / _ip(a, a) for b in simple] for a in simple]
    ours = [[sympy.Integer(x) for x in row] for row in lie.cartan_matrix]
    labels = [
        perm
        for perm in permutations(range(n))
        if all(ours[i][j] == cartan[perm[i]][perm[j]] for i in range(n) for j in range(n))
    ]
    assert labels, f"no relabelling of sympy's {cartan_type} matches {lie.cartan_matrix}"
    perm = labels[0]
    embedded = {
        tuple(sum(c * simple[perm[i]][k] for i, c in enumerate(root)) for k in range(len(simple[0])))
        for root in lie.roots()
    }
    assert len(lie.roots()) == 2 * lie.num_pos == len(RootSystem(cartan_type).all_roots())
    assert embedded == _reflection_closure(simple)
    assert len(lie.weyl_group) == int(WeylGroup(cartan_type).group_order())


# Closed forms of the Riemannian pairs g/so(g), g split of rank <= 3: the
# subalgebra is the span of the e_p - f_p, as bench/make_inputs.py writes it.
# Then S_z is twice each positive root, the indecomposables are twice the
# simple roots, the compression cone is the antidominant Weyl chamber, a_h
# is 0 and the little Weyl group is all of W, whose Coxeter type labels B_n
# and C_n alike.
SO_TYPES = ["A1", "A2", "B2", "G2", "A3", "B3", "C3"]


@pytest.mark.parametrize("cartan_type", SO_TYPES)
def test_riemannian_pairs_match_their_closed_forms(cartan_type):
    lie, bp, _ = space_from_json(space_json(cartan_type))
    an = analyze(lie, bp.h_z)
    n_pos = len(RootSystem(cartan_type).all_roots()) // 2
    twice = sorted(tuple(2 * c for c in root) for root in lie.positive_roots)
    assert len(twice) == n_pos
    assert sorted(s.coords for s in an.s_z) == twice
    simple = [tuple(int(i == j) for j in range(lie.rank)) for i in range(lie.rank)]
    assert sorted(s.coords for s in an.indecomposables) == sorted(
        tuple(2 * c for c in root) for root in simple
    )
    cone = compression_cone(an)
    assert sorted(cone.facets) == sorted(primitive_ints(lie.root_functional(r)) for r in simple)
    assert an.a_h.dim == 0
    group = little_weyl_group(an)
    assert group.order == int(WeylGroup(cartan_type).group_order())
    assert limits_agree_with_walls(an)
    assert group.type_label == cartan_type.replace("C", "B")
