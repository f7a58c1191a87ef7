"""Root systems and Weyl group orders against sympy.liealgebras.

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
from sympy.liealgebras.root_system import RootSystem
from sympy.liealgebras.weyl_group import WeylGroup

from littleweyl.lie import build_from_cartan, cartan_matrix_of_type

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
