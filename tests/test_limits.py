import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from operator import sub

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import chamber_cone, dense_exp_ad, order_regular_hyperplanes, root_index

from littleweyl import limits
from littleweyl.cones import Cone
from littleweyl.lie import ContractViolation, build_from_cartan, cartan_matrix_of_type
from littleweyl.limits import (
    FlowReport,
    filtration_degenerate,
    float_flow_oracle,
    graded_direction,
    is_order_regular,
    limit_subspace,
)
from littleweyl.linalg import Subspace, dot, identity, primitive_signed, vec
from littleweyl.spherical import chamber_cell_limits, order_regular_chambers
from littleweyl.verify import limit_oracle_suite, random_order_regular, random_subspace

H, E, F = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def span(dim, *rows):
    return Subspace.from_spanning(dim, rows)


def test_graded_direction_partitions_basis(a1):
    gd = graded_direction(a1, (1,))
    assert gd.eigenvalues == (Fraction(-2), Fraction(0), Fraction(2))
    assert sorted(i for idx in gd.eigenspace_indices for i in idx) == [0, 1, 2]
    half = graded_direction(a1, (Fraction(-1, 3),))
    assert half.eigenvalues == (Fraction(-2, 3), Fraction(0), Fraction(2, 3))
    assert half.eigenspace_indices == tuple(reversed(gd.eigenspace_indices))


def test_eigenline_is_fixed(a1):
    e = span(3, F)
    for x in ((1,), (-3,), (Fraction(1, 2),)):
        assert limit_subspace(a1, e, x) == e


def test_equal_weight_line_is_fixed_but_not_a_stable(a2):
    # alpha_1(X) = alpha_2(X) for X = coroot sum; the line e1 + e2 is then an
    # eigenline, so the limit is the line itself although it is not a-stable
    x = tuple(a + b for a, b in zip(a2.coroot((1, 0)), a2.coroot((0, 1))))
    f1 = a2.root_functional((1, 0))
    f2 = a2.root_functional((0, 1))
    assert sum(a * b for a, b in zip(f1, x)) == sum(a * b for a, b in zip(f2, x)) != 0
    rows = [[0] * 8]
    rows[0][a2.e_index(0)] = 1
    rows[0][a2.e_index(1)] = 1
    e = span(8, tuple(rows[0]))
    assert limit_subspace(a2, e, x) == e
    h1 = identity(8)[0]
    assert not e.contains_vector(a2.bracket(h1, e.basis_matrix[0]))


def test_sl2_generic_line_limits_to_top_weight(a1):
    e = span(3, (0, 1, 1))  # e + f
    lim = limit_subspace(a1, e, (1,))
    assert lim == span(3, E)
    report = float_flow_oracle(a1, e, (1,), t_max=20.0)
    assert report.converged and report.distance < 1e-8


def test_order_regular(a1, a2):
    assert is_order_regular(a1, (1,))
    assert not is_order_regular(a1, (0,))
    x = tuple(a + b for a, b in zip(a2.coroot((1, 0)), a2.coroot((0, 1))))
    assert not is_order_regular(a2, x)  # alpha_1 and alpha_2 agree there


def test_float_flow_trivial_cases(a1):
    e = span(3, F)
    assert float_flow_oracle(a1, e, (1,)).distance < 1e-12
    r = float_flow_oracle(a1, e, (0,))
    assert r.distance < 1e-12  # zero direction flows by the identity


def test_float_flow_flags_small_gaps(a2):
    x = tuple(a + b for a, b in zip(a2.coroot((1, 0)), a2.coroot((0, 1))))
    rows = [[0] * 8]
    rows[0][a2.e_index(0)] = 1
    rows[0][a2.e_index(1)] = 1
    r = float_flow_oracle(a2, span(8, tuple(rows[0])), x, tol=1e-9)
    assert r.converged  # equal eigenvalues merge into one level
    x2 = tuple(
        a + Fraction(1, 10**9) * b
        for a, b in zip(vec(x), vec(a2.coroot((1, 0))))
    )
    r2 = float_flow_oracle(a2, span(8, tuple(rows[0])), x2, tol=1e-3)
    assert not r2.converged


def test_dimension_preserved_random(a2):
    rng = random.Random(5)
    for _ in range(25):
        e = random_subspace(a2, rng, rng.randint(1, 4))
        x = random_order_regular(a2, rng)
        assert limit_subspace(a2, e, x).dim == e.dim


_DROPPED_PART = """
from littleweyl.lie import build_from_cartan, cartan_matrix_of_type
from littleweyl.limits import _limit_of_parts, _pivot_parts, graded_direction
from littleweyl.linalg import Subspace

lie = build_from_cartan(cartan_matrix_of_type("A2"))
e = Subspace.from_coordinates(lie.dim, [2, 5])
parts = _pivot_parts(lie, e, graded_direction(lie, (1, 2)))
_limit_of_parts(lie, e, parts[:-1])
"""


def test_a_limit_that_loses_a_dimension_is_a_contract_violation():
    with pytest.raises(ContractViolation, match="dim E = 2, limit dim 1"):
        exec(_DROPPED_PART, {})
    # and under python -O, which strips assert statements
    src = os.path.dirname(os.path.dirname(limits.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _DROPPED_PART], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 1
    assert "littleweyl.lie.ContractViolation: limit changed the dimension" in out.stderr


def test_subalgebra_closure(a2, so3_subalgebra):
    rng = random.Random(9)
    for _ in range(10):
        x = random_order_regular(a2, rng)
        lim = limit_subspace(a2, so3_subalgebra, x)
        assert a2.is_subalgebra(lim)


def test_a_stability_for_order_regular(a2):
    rng = random.Random(13)
    basis = identity(8)
    for _ in range(10):
        e = random_subspace(a2, rng, 3)
        x = random_order_regular(a2, rng)
        lim = limit_subspace(a2, e, x)
        for k in range(a2.dim_a):
            for b in lim.basis_matrix:
                assert lim.contains_vector(a2.bracket(basis[k], b))


def test_chamber_constancy_including_boundary(a2):
    rng = random.Random(17)
    chambers = order_regular_chambers(a2)
    for _ in range(6):
        e = random_subspace(a2, rng, 2)
        x = random_order_regular(a2, rng)
        ch = chambers.chamber_of(x)
        # same chamber, same limit
        assert limit_subspace(a2, e, x) == limit_subspace(a2, e, ch.representative)
        # X in the closure of the chamber, Y inside: (E_X)_Y = E_Y
        cone = chamber_cone(chambers, ch)
        for facet in cone.facets:
            face = cone.intersect(Cone.from_inequalities(2, [facet, tuple(-c for c in facet)]))
            x_bd = face.relative_interior_point()
            lim_bd = limit_subspace(a2, e, x_bd)
            assert limit_subspace(a2, lim_bd, x) == limit_subspace(a2, e, x)


def test_conjugation_compatibility(a2):
    # exp(tX) exp(n) exp(-tX) converges when n has nonpositive X-weights;
    # the limit is exp of the weight-zero part of n
    rng = random.Random(21)
    for _ in range(6):
        x = random_order_regular(a2, rng)
        e = random_subspace(a2, rng, 2)
        neg = [
            p
            for p in range(a2.num_pos)
            if sum(
                a * b
                for a, b in zip(a2.root_functional(a2.positive_roots[p]), x)
            )
            < 0
        ]
        if not neg:
            continue
        n = [Fraction(0)] * 8
        n[a2.e_index(neg[0])] = Fraction(rng.randint(1, 2))
        n = tuple(n)
        moved = e.transform(dense_exp_ad(a2, n))
        # all chosen weights are strictly negative, so the conjugation limit is e
        assert limit_subspace(a2, moved, x) == limit_subspace(a2, e, x)
    # weight-zero part survives: X = (2, 1) kills alpha_2 and nothing else,
    # so for n with components at alpha_2 (weight 0) and -alpha_1-alpha_2
    # (weight -3) the conjugates converge to exp of the alpha_2 part
    x = (Fraction(2), Fraction(1))
    assert sum(a * b for a, b in zip(a2.root_functional((0, 1)), x)) == 0
    p2 = root_index(a2, (0, 1))
    p12 = root_index(a2, (1, 1))
    n = [Fraction(0)] * 8
    n[a2.e_index(p2)] = Fraction(1)
    n[a2.f_index(p12)] = Fraction(1)
    n = tuple(n)
    n0 = [Fraction(0)] * 8
    n0[a2.e_index(p2)] = Fraction(1)
    n0 = tuple(n0)
    e = a2.nbar_subspace().add(a2.a_subspace())
    lhs = limit_subspace(a2, e.transform(dense_exp_ad(a2, n)), x)
    rhs = limit_subspace(a2, e, x).transform(dense_exp_ad(a2, n0))
    assert lhs == rhs


@pytest.mark.parametrize(
    "cartan_type, center",
    [("A1", 0), ("A2", 0), ("B2", 0), ("G2", 0), ("A1xA1", 0), ("A2", 1)],
)
def test_is_order_regular_reads_the_root_functionals(cartan_type, center):
    lie = build_from_cartan(cartan_matrix_of_type(cartan_type), center)
    rng = random.Random(3)
    answers = set()
    for _ in range(200):
        x = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(lie.dim_a))
        values = [dot(lie.root_functional(r), x) for r in lie.roots()]
        want = len(set(values)) == len(values)
        assert is_order_regular(lie, x) is want
        answers.add(want)
    assert answers == {True, False}


def test_random_order_regular_finds_a_point_on_f4():
    # no point of [-6, 6]^4 is order-regular for F4; the box grows after
    # the first 10 000 draws
    f4 = build_from_cartan(cartan_matrix_of_type("F4"))
    x = random_order_regular(f4, random.Random(1))
    assert is_order_regular(f4, x)
    assert max(abs(c) for c in x) > 6


@pytest.mark.parametrize("cartan_type", ["A2", "B2"])
def test_random_order_regular_keeps_its_stream(cartan_type):
    lie = build_from_cartan(cartan_matrix_of_type(cartan_type))
    rng = random.Random(1)
    draws = [random_order_regular(lie, rng) for _ in range(5)]
    assert draws == [vec(x) for x in [(-4, 3), (-5, -2), (-5, 1), (6, 1), (1, 4)]]
    assert rng.random() == 0.37961522332372777


def test_float_flow_takes_a_fractional_last_step(a2):
    """t_max = 2.5 flows two unit steps and one half step; the frame and the
    distance are those of a loop that computes every step's scale."""
    rng = random.Random(5)
    e = random_subspace(a2, rng, 2)
    x = random_order_regular(a2, rng)
    got = float_flow_oracle(a2, e, x, t_max=2.5)
    gd = graded_direction(a2, x)
    lam = [0.0] * a2.dim
    for value, idx in zip(gd.eigenvalues, gd.eigenspace_indices):
        for k in idx:
            lam[k] = float(value)
    top = max(lam)
    frame = limits._orthonormal_rows([[float(c) for c in row] for row in e.basis_matrix])
    t = 0.0
    while t < 2.5:
        dt = min(1.0, 2.5 - t)
        scale = [math.exp((lj - top) * dt) for lj in lam]
        frame = limits._orthonormal_rows([[c * s for c, s in zip(row, scale)] for row in frame])
        t += dt
    exact = limit_subspace(a2, e, x)
    target = limits._orthonormal_rows([[float(c) for c in row] for row in exact.basis_matrix])
    distance = math.hypot(*(c for row in frame for c in limits._reject(row, target)))
    assert got.frame == tuple(map(tuple, frame))
    assert got.distance == distance
    assert distance > 1e-6  # not yet converged, so the last step shows


def test_order_regular_hyperplane_count(a2):
    hyps = order_regular_chambers(a2).hyperplanes
    assert len(set(hyps)) == 6  # three roots, their sums/differences, dedup


def test_oracle_suite_rank_two(a2):
    results = limit_oracle_suite(a2, count=30, seed=1)
    assert all(r.ok for r in results), [r for r in results if not r.ok]


def _reference_levels(lie, e, x):
    """Per ascending ad(X) level i: E cap V_{<= lambda_i} (by intersecting with
    the coordinate subspace of levels <= i), the level's indices, and
    dim V_{<= lambda_i}."""
    allowed = []
    for idx in graded_direction(lie, x).eigenspace_indices:
        allowed += idx
        yield e.intersect(Subspace.from_coordinates(lie.dim, allowed)), idx, len(allowed)


def _reference_limit(lie, e, x):
    """The level-by-level formula sum_i p_i(E cap V_{<= lambda_i})."""
    rows = []
    for meet, idx, _ in _reference_levels(lie, e, x):
        rows += [
            tuple(c if k in idx else 0 for k, c in enumerate(row)) for row in meet.basis_matrix
        ]
    return Subspace.from_spanning(lie.dim, rows)


def _reference_degenerate(lie, e, x):
    """dim(E cap V_{<= lambda_i}) above its generic value at some proper step."""
    if e.dim <= 1:
        return False
    steps = list(_reference_levels(lie, e, x))[:-1]
    return any(meet.dim > max(0, e.dim - (lie.dim - below)) for meet, _, below in steps)


@st.composite
def _limit_instances(draw):
    """(lie, E, X) on A2, B2, G2 or A3: E spanned by 1-6 sparse integer rows,
    X order-regular, arbitrary, zero, or on a hyperplane alpha - beta = 0."""
    lie = build_from_cartan(cartan_matrix_of_type(draw(st.sampled_from(["A2", "B2", "G2", "A3"]))))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2])
    rows = draw(
        st.lists(st.lists(entry, min_size=lie.dim, max_size=lie.dim), min_size=1, max_size=6)
    )
    e = Subspace.from_spanning(lie.dim, rows)
    free = st.lists(st.integers(-3, 3), min_size=lie.dim_a, max_size=lie.dim_a)
    kind = draw(st.sampled_from(["order_regular", "arbitrary", "zero", "wall"]))
    if kind == "order_regular":
        x = random_order_regular(lie, random.Random(draw(st.integers(0, 10**6))))
    elif kind == "zero":
        x = (0,) * lie.dim_a
    else:
        x = tuple(draw(free))
        if kind == "wall":
            h = draw(st.sampled_from(order_regular_hyperplanes(lie)))
            hh = sum(c * c for c in h)
            hx = sum(c * d for c, d in zip(h, x))
            x = tuple(hh * d - hx * c for c, d in zip(h, x))
    return lie, e, vec(x)


@settings(max_examples=150, deadline=None)
@given(_limit_instances())
def test_limit_and_filtration_test_match_the_level_by_level_formula(instance):
    lie, e, x = instance
    assert limit_subspace(lie, e, x) == _reference_limit(lie, e, x)
    assert filtration_degenerate(lie, e, x) == _reference_degenerate(lie, e, x)


@st.composite
def _sparse_subspaces(draw):
    """(lie, E) on A2, B2, G2 or A3 with a center of dimension 0, 1 or 2: E
    spanned by 1-4 rows with 1-3 nonzero coordinates each, so that its
    echelon form splits into several blocks."""
    cartan_type = draw(st.sampled_from(["A2", "B2", "G2", "A3"]))
    lie = build_from_cartan(cartan_matrix_of_type(cartan_type), draw(st.sampled_from([0, 1, 2])))
    entry = st.tuples(st.integers(0, lie.dim - 1), st.sampled_from([1, -1, 2, -3]))
    rows = []
    for support in draw(st.lists(st.lists(entry, min_size=1, max_size=3), min_size=1, max_size=4)):
        row = [0] * lie.dim
        for k, c in support:
            row[k] = c
        rows.append(row)
    return lie, Subspace.from_spanning(lie.dim, rows)


@settings(max_examples=40, deadline=None)
@given(_sparse_subspaces())
def test_block_cell_limits_equal_the_limit_of_every_chamber(instance):
    lie, e = instance
    chambers = order_regular_chambers(lie)
    limits, cells = chamber_cell_limits(lie, e)
    assert len(cells) == chambers.count and sorted(set(cells)) == list(range(len(limits)))
    assert [limits[c] for c in cells] == [
        limit_subspace(lie, e, ch.representative) for ch in chambers.chambers
    ]
    assert cells == _primitive_signed_cells(lie, e, chambers)


def _primitive_signed_cells(lie, e, chambers):
    """Old against new: the cell of each chamber, with the cut found as
    before the pair table, by making each block pair's nonzero weight
    difference primitive and looking it up among the hyperplanes."""
    blocks = []
    for row in e.rows:
        block = {k for k, c in enumerate(row) if c != 0}
        for other in [b for b in blocks if b & block]:
            block |= other
            blocks.remove(other)
        blocks.append(block)
    index = {h: j for j, h in enumerate(chambers.hyperplanes)}
    cut = set()
    for block in blocks:
        for k, l in combinations(sorted(block), 2):
            diff = tuple(map(sub, lie.weights[k], lie.weights[l]))
            if any(diff):
                cut.add(index[primitive_signed(diff)])
    cell_of = {}
    return tuple(
        cell_of.setdefault(tuple(ch.signs[j] for j in sorted(cut)), len(cell_of))
        for ch in chambers.chambers
    )


def _numpy_flow_reference(lie, e, x, t_max=40.0, tol=1e-9):
    """The float flow as numpy QR and an SVD of the principal-angle cosines,
    kept as the reference for the standard-library flow.  Its distance
    sqrt(sum(1 - sigma^2)) cannot resolve angles below about 1.5e-8."""
    if e.dim == 0:
        return FlowReport(0.0, float("inf"), True, "", ())
    lam = np.array([float(dot(w, vec(x))) for w in lie.weights])
    distinct = sorted(set(lam))
    gap = min((b - a for a, b in zip(distinct, distinct[1:])), default=float("inf"))
    frame = np.array([[float(c) for c in row] for row in e.basis_matrix])
    q, _ = np.linalg.qr(frame.T)
    frame = q.T
    t = 0.0
    while t < t_max:
        dt = min(1.0, t_max - t)
        frame = frame * np.exp(lam * dt)[None, :]
        q, _ = np.linalg.qr(frame.T)
        frame = q.T
        t += dt
    exact = limit_subspace(lie, e, x)
    target = np.array([[float(c) for c in row] for row in exact.basis_matrix])
    q2, _ = np.linalg.qr(target.T)
    sigma = np.clip(np.linalg.svd(frame @ q2, compute_uv=False), -1.0, 1.0)
    distance = float(np.sqrt(max(0.0, np.sum(1.0 - sigma**2))))
    reason = ""
    if gap != float("inf") and gap < tol:
        reason = "eigenvalue gap below tolerance"
    elif filtration_degenerate(lie, e, x):
        reason = "filtration-degenerate input; the limit is unstable"
    return FlowReport(distance, float(gap), reason == "", reason, tuple(map(tuple, frame)))


def _residual(frame, other):
    """sqrt(sum |r - P r|^2) over the rows r of frame, P the projection onto
    the row span of the orthonormal frame other."""
    q = np.array(other)
    rows = np.array(frame)
    return float(np.linalg.norm(rows - rows @ q.T @ q))


_FLOW_ALGEBRAS = {
    name: build_from_cartan(cartan_matrix_of_type(name)) for name in ["A2", "B2", "G2", "A3"]
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_FLOW_ALGEBRAS)), st.integers(0, 10**6))
def test_float_flow_matches_the_numpy_reference(name, seed):
    lie = _FLOW_ALGEBRAS[name]
    rng = random.Random(seed)
    e = random_subspace(lie, rng, rng.randint(1, 3))
    x = random_order_regular(lie, rng)
    new = float_flow_oracle(lie, e, x)
    ref = _numpy_flow_reference(lie, e, x)
    assert (new.converged, new.reason) == (ref.converged, ref.reason)
    assert new.eigenvalue_gap == ref.eigenvalue_gap
    if new.converged:
        assert new.distance < 1e-6 and ref.distance < 1e-6
        assert _residual(new.frame, ref.frame) < 1e-9
        assert _residual(ref.frame, new.frame) < 1e-9


def test_float_flow_resolves_tiny_angles(a1):
    # E = span(e + 1e-10 f) unflowed: its angle to the limit span(e) is
    # atan(1e-10); sqrt(1 - cos^2) rounds it to 0 or to about 1.5e-8
    e = span(3, (0, 1, Fraction(1, 10**10)))
    r = float_flow_oracle(a1, e, (1,), t_max=0.0)
    assert math.isclose(r.distance, 1e-10, rel_tol=1e-2)
    # flowed to t: the f part shrinks by exp(-4t) against the e part
    r = float_flow_oracle(a1, span(3, (0, 1, 1)), (1,), t_max=5.0)
    assert math.isclose(r.distance, math.exp(-20.0), rel_tol=1e-6)


def test_float_flow_reports_a_row_that_cancels_to_zero(a1):
    # exp(-1600) underflows: the f row of the frame scales to zero, and the
    # frame loses rank in the re-orthonormalization
    for rows in [(F,), (E, F), (H, F)]:
        r = float_flow_oracle(a1, span(3, *rows), (400,))
        assert not r.converged
        assert r.reason == "a frame row cancelled to zero in the flow"
        assert r.frame == ()
    assert float_flow_oracle(a1, span(3, E), (400,)).converged
