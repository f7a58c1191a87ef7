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

import math
from itertools import permutations, product

import pytest
import sympy
from conftest import space_json
from sympy.liealgebras.root_system import RootSystem
from sympy.liealgebras.weyl_group import WeylGroup

from littleweyl import lie as lie_module
from littleweyl.lie import build_from_cartan, cartan_matrix_of_type
from littleweyl.linalg import Subspace, primitive_ints
from littleweyl.serialize import space_from_json
from littleweyl.spherical import analyze, compression_cone, is_admissible
from littleweyl.weyl import limits_agree_with_walls, little_weyl_group, spherical_roots

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


@pytest.mark.parametrize("cartan_type, center", [("F4", 0), ("F4", 1), ("E6", 0), ("E7", 0)])
def test_exceptional_algebras_pass_the_certificate(cartan_type, center):
    # built uncached, so that validate runs here; E8 (about 0.6 CPU s) is
    # left out, and CI's stdlib-only job builds it
    key = (tuple(map(tuple, cartan_matrix_of_type(cartan_type))), center)
    lie = lie_module._build_cached.__wrapped__(key)
    num_roots = len(RootSystem(cartan_type).all_roots())  # 48, 72, 126
    rank = int(cartan_type[1:])
    assert lie.num_pos == num_roots // 2
    assert lie.dim == rank + center + num_roots


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


# Closed forms of every split symmetric pair g/h_chi, g split of rank <= 3 and
# g = sl(5) at chi = 1 (Knop, Kroetz, Sayag, Schlichtkrull, Selecta Math.
# 2015): h_chi = span(e_a - chi(a) f_a : a in Phi+), chi(a) = prod chi_i^a_i,
# is the fixed algebra of the Chevalley involution twisted by a sign
# character.  Then S_z = 2 Phi+, the indecomposables are 2 Delta, the cone
# is the antidominant chamber {alpha_i <= 0}, a_h = 0, W_Z = W, the spherical
# roots are Phi, and the point is admissible.  Phi+, |Phi| and |W| are read
# from sympy: its simple roots are matched to ours by the Cartan matrix they
# give, since sympy's B_n and C_n Cartan matrices are the transposes of
# cartan_matrix_of_type's.
SYMMETRIC_PAIRS = [
    (t, chi)
    for t in ["A1", "A2", "B2", "G2", "A3", "B3", "C3"]
    for chi in product((1, -1), repeat=int(t[1]))
] + [("A4", (1, 1, 1, 1))]


def _sympy_match(cartan) -> tuple[str, list, tuple[int, ...]]:
    """The sympy type, its simple roots and the relabelling perm (our simple
    root i is sympy's perm[i]) whose a_ij = <alpha_j, alpha_i^vee> is cartan."""
    n = len(cartan)
    names = [f"{s}{n}" for s, least in (("A", 1), ("B", 2), ("C", 3), ("D", 4)) if n >= least]
    for name in names + ["G2"] * (n == 2):
        simple = _sympy_simple_roots(name)
        theirs = [[2 * _ip(a, b) / _ip(a, a) for b in simple] for a in simple]
        for perm in permutations(range(n)):
            if all(cartan[i][j] == theirs[perm[i]][perm[j]] for i in range(n) for j in range(n)):
                return name, simple, perm
    raise AssertionError(f"no sympy type has the Cartan matrix {cartan}")


def _sympy_positive_roots(simple, perm) -> list[tuple[int, ...]]:
    """Phi+ in our simple-root coordinates, from the reflection closure of
    sympy's simple roots."""
    gram = sympy.Matrix([[_ip(a, b) for b in simple] for a in simple])
    out = []
    for root in _reflection_closure(simple):
        c = gram.solve(sympy.Matrix([_ip(root, a) for a in simple]))
        coords = tuple(int(c[perm[i]]) for i in range(len(simple)))
        assert all(c[perm[i]] == coords[i] for i in range(len(simple)))
        if min(coords) >= 0:
            out.append(coords)
    return out


@pytest.mark.parametrize(
    "cartan_type, chi",
    SYMMETRIC_PAIRS,
    ids=[f"{t}-{''.join('+' if c > 0 else '-' for c in chi)}" for t, chi in SYMMETRIC_PAIRS],
)
def test_split_symmetric_pairs_match_their_closed_forms(cartan_type, chi):
    cartan = cartan_matrix_of_type(cartan_type)
    name, simple, perm = _sympy_match(cartan)
    positive = _sympy_positive_roots(simple, perm)
    n_roots = len(RootSystem(name).all_roots())
    assert 2 * len(positive) == n_roots
    lie = build_from_cartan(cartan)
    rows = []
    for p, root in enumerate(lie.positive_roots):
        row = [0] * lie.dim
        row[lie.e_index(p)] = 1
        row[lie.f_index(p)] = -math.prod(c**k for c, k in zip(chi, root))
        rows.append(row)
    an = analyze(lie, Subspace.from_spanning(lie.dim, rows))
    assert sorted(s.coords for s in an.s_z) == sorted(tuple(2 * c for c in r) for r in positive)
    assert sorted(s.coords for s in an.indecomposables) == sorted(
        tuple(2 * int(i == j) for j in range(lie.rank)) for i in range(lie.rank)
    )
    # alpha_i(h_j) = <alpha_i, alpha_j^vee> = a_ji
    functionals = [[cartan[j][i] for j in range(lie.rank)] for i in range(lie.rank)]
    cone = compression_cone(an)
    assert sorted(cone.facets) == sorted(primitive_ints(f) for f in functionals)
    assert an.a_h.dim == 0
    group = little_weyl_group(an)
    assert group.order == int(WeylGroup(name).group_order())
    assert is_admissible(an) and limits_agree_with_walls(an)
    assert len(spherical_roots(an).roots) == n_roots
    assert group.type_label == cartan_type.replace("C", "B")
