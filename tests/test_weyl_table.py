"""The Weyl group table of an algebra against the construction it replaced.

The reference below is the earlier code, kept as an oracle: W as the closure
of products of the simple reflections' matrices (conftest.reflection_on_a),
root images through inverse matrices, and per analysis the normalizer test,
the cosets of the Levi Weyl group W(Sigma_0) as sets of matrices, the coset
labels and the table of twisted conjugates of h_empty, over the sign
scalings of every sum of lattice generators (conftest.sign_scalings).
The little Weyl group is the closure of the wall reflections' matrices on
a/a_h, with Coxeter orders from matrix powers, and its action on the lattice
of spherical weights goes through the inverse matrices on a/a_h.
"""

from math import lcm

import pytest
from conftest import mat_inverse, reflection_on_a, replace, sign_scalings

from littleweyl import lie as lie_mod
from littleweyl import weyl
from littleweyl.catalog import get_entry, list_entries
from littleweyl.lie import build_from_cartan, cartan_matrix_of_type
from littleweyl.linalg import (
    Subspace,
    combination,
    dot,
    identity,
    integer_kernel,
    kernel,
    mat_mul,
    mat_vec,
    primitive_ints,
    rank,
    solve,
    vec_add,
    vec_scale,
)
from littleweyl.spherical import analyze, compression_cone, is_admissible
from littleweyl.verify import structural_invariants, verify_space, weyl_invariants
from littleweyl.weyl import (
    QuotientSpace,
    coxeter_type_label,
    little_weyl_group,
    spherical_roots,
    weyl_from_limits,
)

# ---------------------------------------------------------------------------
# reference
# ---------------------------------------------------------------------------


def _closure(gens, ident):
    """Breadth-first matrix closure: (word, element) pairs in discovery order."""
    seen = {ident}
    level = [((), ident)]
    out = [((), ident)]
    while level:
        nxt = []
        for word, m in level:
            for i, g in enumerate(gens):
                m2 = mat_mul(m, g)
                if m2 not in seen:
                    seen.add(m2)
                    nxt.append((word + (i,), m2))
        out += nxt
        level = nxt
    return out


def _simple(lie, i):
    return tuple(int(j == i) for j in range(lie.rank))


def ref_weyl_group(lie):
    gens = [reflection_on_a(lie, _simple(lie, i)) for i in range(lie.rank)]
    return _closure(gens, identity(lie.dim_a))


def ref_root_images(lie, elements):
    """m -> {root: w(root)}, where w(root) is the functional root o m^-1."""
    fn_to_root = {lie.root_functional(r): r for r in lie.roots()}
    images = {}
    for _, m in elements:
        minv = mat_inverse(m)
        images[m] = {
            r: fn_to_root[
                tuple(
                    sum(f * minv[i][j] for i, f in enumerate(lie.root_functional(r)))
                    for j in range(lie.dim_a)
                )
            ]
            for r in lie.roots()
        }
    return images


class RefAmbient:
    def __init__(self, analysis):
        lie = analysis.lie
        self.analysis = analysis
        self.elements = ref_weyl_group(lie)
        self.images = ref_root_images(lie, self.elements)
        levi_gens = [reflection_on_a(lie, lie.positive_roots[p]) for p in analysis.sigma0]
        self.levi = frozenset(m for _, m in _closure(levi_gens, identity(lie.dim_a)))
        self.words = {m: w for w, m in self.elements}

    def in_normalizer(self, m):
        an = self.analysis
        if an.a_h.transform(m) != an.a_h:
            return False
        roots = {an.lie.positive_roots[p] for p in an.sigma0}
        roots |= {tuple(-x for x in r) for r in roots}
        return {self.images[m][r] for r in roots} == roots

    def coset_key(self, m):
        return frozenset(mat_mul(m, u) for u in self.levi)

    def coset_label(self, m):
        best = min((self.words[x] for x in self.coset_key(m)), key=lambda w: (len(w), w))
        return "e" if not best else "*".join(f"s{i + 1}" for i in best)

    def normalizer(self):
        return [(w, m) for w, m in self.elements if self.in_normalizer(m)]

    def coset_labels(self, quot, elements):
        out = []
        for m in elements:
            wm = next(wm for _, wm in self.normalizer() if quot.matrix_of(wm) == m)
            out.append(self.coset_label(wm))
        return tuple(out)

    def twisted_conjugates(self, m_lattice):
        lie, an = self.analysis.lie, self.analysis
        scalings = sign_scalings(lie, m_lattice)
        targets = {}
        for word, m in self.normalizer():
            conj = an.h_empty.image(lie.weyl_lift(word).apply)
            for factors in scalings:
                producers = targets.setdefault(conj.scale_coordinates(factors), [])
                if m not in producers:
                    producers.append(m)
        return targets


def _matrix_order(m, ident):
    p, k = m, 1
    while p != ident:
        p, k = mat_mul(p, m), k + 1
        assert k <= 13
    return k


def ref_little_weyl_group(an, ref):
    """Elements, coset labels and Coxeter orders of the closure of the wall
    reflections' matrices on a/a_h."""
    quot = QuotientSpace.of(an.a_h)
    gens = [g.matrix_on_quotient for g in little_weyl_group(an).generators]
    ident = identity(quot.dim)
    elements = tuple(
        sorted((m for _, m in _closure(gens, ident)), key=lambda m: (m != ident, m))
    )
    orders = tuple(tuple(_matrix_order(mat_mul(a, b), ident) for b in gens) for a in gens)
    return elements, ref.coset_labels(quot, elements), orders


def ref_spherical_roots(an, elements):
    """The lattice basis and the roots, with lambda -> lambda o m^-1 read
    through the inverse matrix m^-1 on a/a_h, lifted to a."""
    lie = an.lie
    quot = QuotientSpace.of(an.a_h)
    edge_quot = QuotientSpace.of(compression_cone(an).edge())
    units = [_simple(lie, i) for i in range(lie.rank)]
    simple = [lie.root_functional(u) for u in units]
    rows = []
    for b in edge_quot.subspace.basis_matrix:
        row = [dot(f, b) for f in simple]
        denom = lcm(*(x.denominator for x in row))
        rows.append([int(x * denom) for x in row])
    lam = [tuple(b) for b in (integer_kernel(rows, lie.rank) if rows else units)]
    lam_rows = [tuple(b[i] for b in lam) for i in range(lie.rank)]
    sys_rows = tuple(zip(*simple))

    def on_lattice(m):
        minv = mat_inverse(m)
        cols = []
        for b in lam:
            f = lie.root_functional(b)
            mu = [dot(f, quot.lift(mat_vec(minv, quot.project(e)))) for e in identity(lie.dim_a)]
            cols.append(solve(lam_rows, solve(sys_rows, mu, lie.rank), len(lam)))
        return tuple(zip(*cols))

    def on_edge_quotient(m):
        cols = [
            edge_quot.project(quot.lift(mat_vec(m, quot.project(edge_quot.lift(e)))))
            for e in identity(edge_quot.dim)
        ]
        return tuple(zip(*cols))

    roots, reflections = set(), []
    for m in elements:
        me = on_edge_quotient(m)
        if rank([vec_add(r, vec_scale(-1, e)) for r, e in zip(me, identity(edge_quot.dim))]) != 1:
            continue
        reflections.append(m)
        s = on_lattice(m)
        (line,) = kernel([vec_add(r, e) for r, e in zip(s, identity(len(lam)))], len(lam))
        root = tuple(int(x) for x in combination(primitive_ints(line), lam, lie.rank))
        roots |= {root, tuple(-x for x in root)}
    assert {m for _, m in _closure(reflections, identity(quot.dim))} == set(elements)
    return tuple(lam), tuple(sorted(roots))


# ---------------------------------------------------------------------------
# the table of an algebra
# ---------------------------------------------------------------------------

ALGEBRAS = [
    ("A1", 0), ("A2", 0), ("A3", 0), ("A4", 0), ("B2", 0), ("B3", 0),
    ("C3", 0), ("D4", 0), ("G2", 0), ("A1xA1", 0), ("A2", 1),
    ("B4", 0), ("C4", 0), ("F4", 0), ("A1", 2),
]


@pytest.mark.parametrize("cartan_type, center", ALGEBRAS)
def test_table_matches_the_matrix_closure(cartan_type, center):
    lie = build_from_cartan(cartan_matrix_of_type(cartan_type), center)
    ref = ref_weyl_group(lie)
    table = list(lie.weyl_group.values())
    assert [(w.word, w.matrix) for w in table] == ref
    images = ref_root_images(lie, ref)
    roots = lie.roots()
    for w in table:
        assert lie.weyl_group[w.perm] is w
        assert {r: roots[w.perm[k]] for k, r in enumerate(roots)} == images[w.matrix]


# ---------------------------------------------------------------------------
# per-analysis data
# ---------------------------------------------------------------------------


def _catalog_analysis(name):
    entry = get_entry(name)
    return analyze(entry.lie(), entry.base_point().h_z)


def _check_analysis_data(an):
    ref = RefAmbient(an)
    quot = QuotientSpace.of(an.a_h)
    table = an.lie.weyl_group
    normalizer = weyl._normalizer(an)
    assert [(c.element.word, c.element.matrix) for _, c in normalizer] == ref.normalizer()
    for key, coset in normalizer:
        m = coset.element.matrix
        assert frozenset(table[p].matrix for p in key) == ref.coset_key(m)
        assert coset.label == ref.coset_label(m)
        assert coset.matrix_on_quotient == quot.matrix_of(m)
    group = little_weyl_group(an)
    elements, labels, orders = ref_little_weyl_group(an, ref)
    assert group.elements == elements
    assert group.coset_labels == labels
    assert group.coxeter_orders == orders
    assert group.type_label == coxeter_type_label(orders)
    roots = spherical_roots(an)
    assert (roots.lattice_basis, roots.roots) == ref_spherical_roots(an, elements)
    for lattice in ("coroot", "coweight"):
        want = ref.twisted_conjugates(lattice)
        got = weyl._conjugate_table(an, lattice)
        assert got.keys() == want.keys()
        for target, producers in want.items():
            firsts = {}
            for m in producers:
                firsts.setdefault(ref.coset_key(m), m)
            assert [
                (frozenset(table[p].matrix for p in key), c.element.matrix)
                for key, c in got[target].items()
            ] == list(firsts.items())
    return ref


@pytest.mark.parametrize("name", [e.name for e in list_entries()])
def test_analysis_data_matches_the_reference_on_the_catalog(name):
    _check_analysis_data(_catalog_analysis(name))


@pytest.mark.parametrize("name, levi_order", [
    ("A2_levi1", 2), ("B2_levi2", 2), ("G2_levi1", 2), ("A3_levi13", 4),
])
def test_levi_pairs_match_the_reference(levi_pairs, name, levi_order):
    lie, h = levi_pairs[name]
    an = analyze(lie, h)
    assert is_admissible(an)
    ref = _check_analysis_data(an)
    assert len(ref.levi) == levi_order
    results = verify_space(lie, an, seed=1)
    assert results and all(r.ok for r in results), [r for r in results if not r.ok]


@pytest.mark.parametrize(
    "cartan_type, center",
    [("A3", 0), ("B3", 0), ("C3", 0), ("A2", 1)],
    ids=["A3", "B3", "C3", "A2_center1"],
)
def test_riemannian_pairs_match_the_reference(cartan_type, center):
    lie = build_from_cartan(cartan_matrix_of_type(cartan_type), center)
    h = Subspace.from_spanning(
        lie.dim,
        [
            tuple({lie.e_index(p): 1, lie.f_index(p): -1}.get(k, 0) for k in range(lie.dim))
            for p in range(lie.num_pos)
        ],
    )
    _check_analysis_data(analyze(lie, h))


# ---------------------------------------------------------------------------
# work count
# ---------------------------------------------------------------------------


def test_weyl_group_is_enumerated_once_per_algebra(monkeypatch):
    """One closure over W for an analysis, its groups, its limit cosets on
    both lattices and the analyses of its boundary degenerations."""
    entry = get_entry("A2_so3")
    lie = replace(entry.lie())  # the same algebra, no table yet
    calls = []
    original = lie_mod.group_closure

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(lie_mod, "group_closure", recording)
    an = analyze(lie, entry.base_point().h_z)
    little_weyl_group(an)
    weyl_from_limits(an, "coroot")
    weyl_from_limits(an, "coweight")
    assert all(r.ok for r in structural_invariants(an))
    checks = weyl_invariants(an)  # groups of the wall degenerations too
    assert all(r.ok for r in checks)
    assert len(calls) == 1
