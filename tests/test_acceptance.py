"""Acceptance criteria, one test per criterion.

Every criterion prints a single PASS line with its runtime; tolerances and
time budgets are fixed here and match the stated requirements:

  1. horospherical reproduction (exact, < 1 s)
  2. little Weyl groups of the four nontrivial entries (exact, < 5 s each)
  3. wall group equals limit group + tiling, whole catalog (exact, < 30 s)
  4. limit oracle, >= 200 instances in rank <= 2 (1e-6 at t = 40, < 60 s)
  5. structural invariant suite, whole catalog (exact, < 30 s)
  6. crystallographic checks (exact, < 5 s)
  7. admissibility pipeline with the unipotent fallback (< 30 s)

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import time
from fractions import Fraction

import pytest
from conftest import dense_exp_ad, full_space

from littleweyl.catalog import get_entry, list_entries
from littleweyl.cones import Cone
from littleweyl.lie import build_from_cartan, cartan_matrix_of_type
from littleweyl.limits import float_flow_oracle, limit_subspace
from littleweyl.linalg import identity
from littleweyl.serialize import word_entry_from_json
from littleweyl.spherical import (
    WordEntry,
    analyze,
    compression_cone,
    compression_cone_of_point,
    find_admissible,
    half_space_candidate,
    is_adapted,
    is_admissible,
    order_regular_chambers,
    translate,
)
from littleweyl.verify import (
    random_order_regular,
    random_subspace,
    structural_invariants,
)
from littleweyl.weyl import (
    limits_agree_with_walls,
    little_weyl_group,
    spherical_roots,
)

import random


@pytest.fixture(scope="module", autouse=True)
def warm_algebras():
    # one-time construction and validation of the ambient algebras
    for name in ("A1", "A1xA1", "A2", "B2"):
        build_from_cartan(cartan_matrix_of_type(name))


def _finish(number: int, label: str, t0: float, budget: float):
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s / {budget:.0f}s): {label}")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_horospherical_reproduction():
    t0 = time.monotonic()
    for name in ("A1_nbar", "A2_nbar"):
        entry = get_entry(name)
        lie = entry.lie()
        an = analyze(lie, entry.base_point().h_z)
        cone = compression_cone(an)
        assert cone == full_space(lie.dim_a)  # C = a, exactly
        group = little_weyl_group(an)
        assert group.order == 1
        sr = spherical_roots(an)
        assert sr.roots == ()
        # the unipotent translate is not adapted and its cone is a half-space
        wit = entry.expected["non_adapted_witness"]
        word = [word_entry_from_json(w, "w") for w in wit["word"]]
        moved = translate(lie, an.h_z, word)
        assert not is_adapted(lie, moved.h_z)
        got = compression_cone_of_point(an, moved.h_z)
        want = Cone.from_inequalities(
            lie.dim_a,
            [lie.root_functional(tuple(1 if j == 0 else 0 for j in range(lie.rank)))],
        )
        assert got == want
        assert cone.contains_cone(got) and got != cone
    _finish(1, "horospherical spaces reproduce exactly", t0, 1.0)


@pytest.mark.parametrize(
    "name,order,label,budget",
    [
        ("A1_so2", 2, "A1", 5.0),
        ("A1_so11", 2, "A1", 5.0),
        ("A1xA1_diag_w0", 2, "A1", 5.0),
        ("A2_so3", 6, "A2", 5.0),
    ],
)
def test_criterion_2_little_weyl_groups(name, order, label, budget):
    t0 = time.monotonic()
    entry = get_entry(name)
    an = analyze(entry.lie(), entry.base_point().h_z)
    group = little_weyl_group(an)
    assert group.order == order
    assert group.type_label == label
    if name == "A1xA1_diag_w0":
        pair = [g for g in group.generators if g.witness[0] == "pair"]
        assert len(pair) == 1
        kind, beta, gamma, witness = pair[0].witness
        assert witness == (Fraction(1), Fraction(-1))  # (h, -h)
        assert an.a_h.contains_vector(witness)
    _finish(2, f"{name}: |W| = {order}, type {label}", t0, budget)


def test_criterion_3_main_theorem_agreement():
    t0 = time.monotonic()
    for entry in list_entries():
        an = analyze(entry.lie(), entry.base_point().h_z)
        res = find_admissible(an, max_iters=10, seed=0)
        little_weyl_group(res.analysis)  # verifies tiling + disjointness
        assert limits_agree_with_walls(res.analysis), entry.name
    _finish(3, "limit cosets = wall group and the cone tiles a/a_h, all entries", t0, 30.0)


def test_criterion_4_limit_oracle_two_hundred():
    t0 = time.monotonic()
    rng = random.Random(2024)
    algebras = [
        build_from_cartan(cartan_matrix_of_type(n))
        for n in ("A1", "A1xA1", "A2", "B2")
    ]
    chambers = {lie.cartan_matrix: order_regular_chambers(lie) for lie in algebras}
    converged = 0
    total = 0
    while converged < 200:
        lie = algebras[total % len(algebras)]
        total += 1
        e = random_subspace(lie, rng, rng.randint(1, 3))
        x = random_order_regular(lie, rng)
        lim = limit_subspace(lie, e, x)
        # exact invariants on every instance
        assert lim.dim == e.dim
        for k in range(lie.dim_a):
            unit = identity(lie.dim)[k]
            for b in lim.basis_matrix:
                assert lim.contains_vector(lie.bracket(unit, b))
        ch = chambers[lie.cartan_matrix].chamber_of(x)
        assert limit_subspace(lie, e, ch.representative) == lim
        report = float_flow_oracle(lie, e, x, t_max=40.0)
        if report.converged:
            converged += 1
            assert report.distance < 1e-6, (total, report.distance)
        assert total < 400, "too many degenerate instances"
    # subalgebra closure on bracket-closed inputs
    for lie in algebras:
        nbar_a = lie.nbar_subspace().add(lie.a_subspace())
        for _ in range(5):
            n = [Fraction(0)] * lie.dim
            for p in range(lie.num_pos):
                n[lie.f_index(p)] = Fraction(rng.randint(-2, 2))
            moved = nbar_a.transform(dense_exp_ad(lie, tuple(n)))
            x = random_order_regular(lie, rng)
            assert lie.is_subalgebra(limit_subspace(lie, moved, x))
    _finish(
        4,
        f"{converged} converged oracle instances agree at 1e-6 ({total} drawn)",
        t0,
        60.0,
    )


def test_criterion_5_structural_suite():
    t0 = time.monotonic()
    for entry in list_entries():
        an = analyze(entry.lie(), entry.base_point().h_z)
        results = structural_invariants(an)
        failures = [r for r in results if not r.ok]
        assert not failures, (entry.name, failures)
    _finish(5, "structural identities exact on the whole catalog", t0, 30.0)


def test_criterion_6_crystallographic():
    t0 = time.monotonic()
    for entry in list_entries():
        an = analyze(entry.lie(), entry.base_point().h_z)
        group = little_weyl_group(an)
        for row in group.coxeter_orders:
            for m in row:
                assert m in (1, 2, 3, 4, 6)
        # spherical_roots raises if the lattice is not preserved or the
        # reflections fail to generate the group
        sr = spherical_roots(an)
        for r in sr.roots:
            assert tuple(-x for x in r) in sr.roots
    _finish(6, "orders in {1,2,3,4,6}, lattice preserved, W(Sigma_Z) = W", t0, 5.0)


def test_criterion_7_admissibility_pipeline():
    t0 = time.monotonic()
    for entry in list_entries():
        an = analyze(entry.lie(), entry.base_point().h_z)
        res = find_admissible(an, max_iters=10, seed=0)
        assert res.attempts <= 10, entry.name
        assert is_admissible(res.analysis), entry.name
    # the explicit unipotent family succeeds on the half-space entry
    entry = get_entry("A1xA1_diag_w0")
    lie = entry.lie()
    an = analyze(lie, entry.base_point().h_z)
    success_t = None
    for t in range(1, 9):
        n = half_space_candidate(an, t)
        bp = translate(lie, an.h_z, [WordEntry.exp(n)])
        cand = analyze(lie, bp.h_z)
        if is_admissible(cand):
            success_t = t
            break
    assert success_t is not None and success_t <= 8
    _finish(7, f"admissible points found everywhere; family succeeds at t = {success_t}", t0, 30.0)
