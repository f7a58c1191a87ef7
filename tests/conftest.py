import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from littleweyl.cones import Chamber, ChamberSet, Cone, ConeError, traverse_chambers
from littleweyl.lie import LieAlgebraError, build_from_cartan, cartan_matrix_of_type
from littleweyl.linalg import (
    Mat,
    Subspace,
    _rref_of_echelon,
    combination,
    dot,
    identity,
    integer_echelon,
    mat_mul,
    primitive_ints,
    primitive_signed,
    solve,
)
from littleweyl.spherical import NotAdaptedError, analyze
from littleweyl.verify import CheckResult, check_claims


@pytest.fixture(scope="session")
def a1():
    return build_from_cartan(cartan_matrix_of_type("A1"))


@pytest.fixture(scope="session")
def a2():
    return build_from_cartan(cartan_matrix_of_type("A2"))


@pytest.fixture(scope="session")
def b2():
    return build_from_cartan(cartan_matrix_of_type("B2"))


@pytest.fixture(scope="session")
def a1xa1():
    return build_from_cartan(cartan_matrix_of_type("A1xA1"))


def span(dim, *rows):
    return Subspace.from_spanning(dim, [tuple(Fraction(x) for x in r) for r in rows])


def rref(rows) -> tuple[Mat, tuple[int, ...]]:
    """Oracle: the reduced row echelon form, (nonzero rows, pivot columns),
    of the rows scaled to primitive integer vectors (which keeps the row
    space) and reduced by integer_echelon."""
    return _rref_of_echelon(integer_echelon(primitive_ints(r) for r in rows))


def mat_inverse(m) -> Mat:
    """Oracle: the inverse of a square rational matrix, read off the rref of
    [m | 1]; raises ValueError on singular input."""
    n = len(m)
    aug = [list(row) + list(identity(n)[i]) for i, row in enumerate(m)]
    red, pivots = rref(aug)
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(red[i][n:]) for i in range(n))


def root_index(lie, root) -> int:
    """The index of a positive root in lie.positive_roots."""
    return lie.positive_roots.index(tuple(root))


def dense_ad(lie, x) -> Mat:
    """ad x as a dense matrix read off the structure constants: column j is
    [x, x_j], summed over [x_i, x_j] = c x_k and [x_j, x_i] = -c x_k for the
    entries c x_k of bracket_table[i][j], i < j."""
    a = [[0] * lie.dim for _ in range(lie.dim)]
    for i, row in enumerate(lie.bracket_table):
        for j in range(i + 1, lie.dim):
            for k, c in row[j].items():
                a[k][j] += x[i] * c
                a[k][i] -= x[j] * c
    return tuple(map(tuple, a))


def dense_exp_ad(lie, x) -> Mat:
    """Oracle: exp(ad x) as the finite sum of the matrix powers of ad x
    divided by k!; raises LieAlgebraError unless (ad x)^dim = 0, that is
    unless x is ad-nilpotent."""
    a = dense_ad(lie, x)
    out = term = identity(lie.dim)
    for k in range(1, lie.dim + 1):
        term = tuple(tuple(Fraction(c, k) for c in row) for row in mat_mul(term, a))
        if not any(any(row) for row in term):
            return out
        out = tuple(tuple(o + t for o, t in zip(r, s)) for r, s in zip(out, term))
    raise LieAlgebraError("dense exp_ad requires an ad-nilpotent argument")


def reflection_on_a(lie, root) -> Mat:
    """Oracle: the reflection X -> X - root(X) coroot of a as a matrix, whose
    products built W's matrices before they were read off the root
    permutations."""
    f = lie.root_functional(root)
    cor = lie.coroot(root)
    return tuple(
        tuple(int(r == k) - cor[r] * f[k] for k in range(lie.dim_a)) for r in range(lie.dim_a)
    )


def sign_scalings(lie, lattice):
    """Oracle: the distinct +-1 scalings of g by the sign characters, in
    descending order, built as before they were read off the weights and the
    root coordinates: the lattice generators (the simple coroots, or the
    fundamental coweights by solve), each sum t of distinct generators, and
    (-1)^{beta(t)} on each basis vector of weight beta."""
    units = identity(lie.dim_a)
    simple = [u[: lie.rank] for u in units[: lie.rank]]
    if lattice == "coroot":
        gens = [lie.coroot(u) for u in simple]
    else:
        rows = [lie.root_functional(u) for u in simple] + list(units[lie.rank :])
        gens = [solve(rows, units[i], lie.dim_a) for i in range(lie.rank)]
    out = set()
    for mask in range(1 << lie.rank):
        t = combination([(mask >> i) & 1 for i in range(lie.rank)], gens, lie.dim_a)
        values = [dot(w, t) for w in lie.weights]
        assert all(Fraction(k).denominator == 1 for k in values)
        out.add(tuple(-1 if int(k) % 2 else 1 for k in values))
    return tuple(sorted(out, reverse=True))


def full_space(dim) -> Cone:
    """The cone a itself: no inequality."""
    return Cone.from_inequalities(dim, [])


def dual(cone) -> Cone:
    """{lambda : lambda(x) >= 0 for all x in the cone}, spanned by the
    negated inequalities."""
    return Cone.from_rays(cone.ambient_dim, [tuple(-c for c in g) for g in cone.inequalities])


def order_regular_hyperplanes(lie):
    """Functionals alpha - beta over distinct root pairs, deduplicated: the
    arrangement as the library derived it from lie.root_functional before
    the chamber table read it off one pass over the root weights."""
    roots = lie.roots()
    out = {}
    for i, a in enumerate(roots):
        fa = lie.root_functional(a)
        for b in roots[i + 1 :]:
            fb = lie.root_functional(b)
            diff = tuple(p - q for p, q in zip(fa, fb))
            if any(c != 0 for c in diff):
                out[primitive_signed(diff)] = None
    return list(out)


def arrangement(functionals):
    """The hyperplanes of a central arrangement: its functionals made primitive
    integer vectors with a positive leading entry, deduplicated and sorted."""
    hyps = {}
    for f in functionals:
        h = primitive_signed(f)
        if not any(h):
            raise ConeError("zero functional does not define a hyperplane")
        hyps[h] = None
    if not hyps:
        raise ConeError("an arrangement needs at least one hyperplane")
    return tuple(sorted(hyps))


def enumerate_chambers(dim, functionals):
    """Oracle: all chambers of a central arrangement by the wall-flipping
    traversal that crosses every wall, with no root-pair table.  For a central
    arrangement the chamber adjacency graph is connected, so the traversal is
    exhaustive."""
    hyperplanes = arrangement(functionals)
    cones = traverse_chambers(dim, hyperplanes, ())
    chambers = tuple(Chamber(s, cone.relative_interior_point()) for s, cone in cones.items())
    return ChamberSet(hyperplanes, chambers, (), {})


def check_entry(entry):
    """The catalog entry's claims checked on its analysis, as ``verify`` runs
    them: analyze, or keep the NotAdaptedError, then check_claims."""
    try:
        bp = entry.base_point()
    except Exception as err:  # noqa: BLE001
        return [CheckResult(f"{entry.name}.base_point", False, str(err))]
    try:
        an = analyze(entry.lie(), bp.h_z)
    except NotAdaptedError as err:
        an = err
    return check_claims(an, entry.expected, entry.name)


def space_json(cartan_type):
    """The g/so space file of the benchmark inputs (bench/make_inputs.py)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "make_inputs.py"
    spec = importlib.util.spec_from_file_location("make_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.space_json(cartan_type)


def replace(record, **changes):
    """A copy of a record: its class called again on every field of
    ``_fields``, with ``changes`` applied.  A copy of an algebra or an
    analysis starts with no stages."""
    return type(record)(**{name: getattr(record, name) for name in record._fields} | changes)


def fresh_stages(monkeypatch, *owners):
    """Empty stages on each algebra or analysis for the rest of the test, so
    that its chamber table and oracle suite are built again."""
    for owner in owners:
        monkeypatch.setitem(vars(owner), "_stages", {})


# the triple space sl2^3 / diag sl2 at an adapted point that is not admissible
TRIPLE_SPACE = {
    "schema_version": 1,
    "lie_algebra": {"cartan_type": "A1xA1xA1"},
    # h1+h2+h3, e1+e2+e3, f1+f2+f3 in the basis order h1..h3, e1..e3, f1..f3
    "subalgebra": [
        ["1", "1", "1", "0", "0", "0", "0", "0", "0"],
        ["0", "0", "0", "1", "1", "1", "0", "0", "0"],
        ["0", "0", "0", "0", "0", "0", "1", "1", "1"],
    ],
    "base_point_word": [
        {"kind": "weyl", "word": [0, 1]},
        {"kind": "nilpotent", "vector": ["0", "0", "0", "0", "2", "1", "0", "0", "0"]},
    ],
}


def chamber_cone(table, chamber):
    """The closed cone of a chamber of the table, cut out by its signed
    hyperplanes: signs[j] * h_j >= 0 for every j."""
    dim = len(table.hyperplanes[0])
    return Cone.from_inequalities(
        dim, [tuple(-s * c for c in h) for s, h in zip(chamber.signs, table.hyperplanes)]
    )


@pytest.fixture(scope="session")
def sl2_subalgebras(a1):
    """Named 1-dim subalgebras of sl2 in (h, e, f) coordinates."""
    return {
        "nbar": span(3, (0, 0, 1)),
        "so2": span(3, (0, 1, -1)),
        "so11": span(3, (0, 1, 1)),
        "a": span(3, (1, 0, 0)),
        "n": span(3, (0, 1, 0)),
    }


@pytest.fixture(scope="session")
def twisted_diagonal(a1xa1):
    # basis h1, h2, e1, e2, f1, f2; rows are (e,-f), (h,-h), (f,-e)
    return span(6, (0, 0, 1, 0, 0, -1), (1, -1, 0, 0, 0, 0), (0, 0, 0, 1, -1, 0))


@pytest.fixture(scope="session")
def so3_subalgebra(a2):
    rows = []
    for p in range(3):
        row = [0] * 8
        row[a2.e_index(p)] = 1
        row[a2.f_index(p)] = -1
        rows.append(tuple(row))
    return span(8, *rows)


@pytest.fixture(scope="session")
def a2_nbar(a2):
    return Subspace.from_coordinates(8, [a2.f_index(p) for p in range(3)])


# h = l_S,nc + nbar_Q for a set S of simple roots (0-based): e_b, f_b and the
# coroot of b for every positive root b in the span of S, and f_b for every
# other positive root b.  Their Levi groups W(Sigma_0) have orders 2, 2, 2, 4.
LEVI_PAIRS = {
    "A2_levi1": ("A2", (0,)),
    "B2_levi2": ("B2", (1,)),
    "G2_levi1": ("G2", (0,)),
    "A3_levi13": ("A3", (0, 2)),
}


def levi_pair(cartan_type, levi):
    lie = build_from_cartan(cartan_matrix_of_type(cartan_type))
    rows = []
    for p, beta in enumerate(lie.positive_roots):
        if all(c == 0 for i, c in enumerate(beta) if i not in levi):
            rows.append(Subspace.from_coordinates(lie.dim, [lie.e_index(p)]).basis_matrix[0])
            rows.append(lie.a_vector_to_g(lie.coroot(beta)))
        rows.append(Subspace.from_coordinates(lie.dim, [lie.f_index(p)]).basis_matrix[0])
    return lie, Subspace.from_spanning(lie.dim, rows)


@pytest.fixture(scope="session")
def levi_pairs():
    """name -> (lie, h) for every entry of LEVI_PAIRS."""
    return {name: levi_pair(*spec) for name, spec in LEVI_PAIRS.items()}
