"""The check runner of verify: each structural, Weyl, admissible-search and
limit oracle check is one row, named once, whose exception or failure fails
that row alone."""

import pytest
from conftest import fresh_stages

from littleweyl import verify
from littleweyl.catalog import get_entry
from littleweyl.cones import ChamberSet, Cone
from littleweyl.limits import FlowReport
from littleweyl.spherical import analyze, cone_faces
from littleweyl.verify import CheckResult, structural_invariants, verify_space, weyl_invariants

STRUCTURAL_ROWS = [
    "brion_symmetry",
    "tperp_defining_property",
    "negative_chamber_in_cone",
    "cone_stable_under_a_h",
    "edge_equals_normalizer",
    "face_suite",
    "q_cap_h_equals_levi_cap_h",
    "phi_image_bound",
    "degeneration_cone_is_sum",
    "translate_suite",
    "cone_matches_chamber_sweep",
    "phi_degeneration",
]
WEYL_ROWS = [
    "wall_group_closure_and_tiling",
    "crystallographic_orders",
    "degeneration_wall_groups",
    "limits_agree_with_walls",
    "spherical_root_symmetry",
]

ORACLE_ROWS = [
    "limit_dimension",
    "limit_a_stability",
    "limit_chamber_constancy",
    "limit_float_flow_agreement",
    "limit_subalgebra_closure",
]


def _analysis():
    entry = get_entry("A2_so3")
    an = analyze(entry.lie(), entry.base_point().h_z)
    cone_faces(an)  # the cone and its faces are computed before any check runs
    return an


def _raise(*args, **kwargs):
    raise RuntimeError("injected fault")


def test_rows_come_out_in_order_and_pass():
    an = _analysis()
    rows = structural_invariants(an) + weyl_invariants(an)
    assert [r.name for r in rows] == STRUCTURAL_ROWS + WEYL_ROWS
    assert all(r.ok for r in rows), [r for r in rows if not r.ok]
    names = [r.name for r in verify_space(an.lie, an, seed=1)]
    rows = ["adapted", *STRUCTURAL_ROWS, *WEYL_ROWS, "admissible_point_found"]
    assert names[names.index("adapted") :][: len(rows)] == rows


@pytest.mark.parametrize(
    "owner, attr, suite, rows, row",
    [
        (verify, "normalizer_in_a", structural_invariants, STRUCTURAL_ROWS, "edge_equals_normalizer"),
        (Cone, "contains_cone", structural_invariants, STRUCTURAL_ROWS, "negative_chamber_in_cone"),
        (verify, "spherical_roots", weyl_invariants, WEYL_ROWS, "spherical_root_symmetry"),
    ],
)
def test_a_check_that_raises_fails_its_own_row(monkeypatch, owner, attr, suite, rows, row):
    an = _analysis()
    monkeypatch.setattr(owner, attr, _raise)
    out = suite(an)
    assert [r.name for r in out] == rows
    failed = out[rows.index(row)]
    assert not failed.ok and failed.detail == "RuntimeError: injected fault"


def test_a_failed_wall_group_ends_the_weyl_rows(monkeypatch):
    an = _analysis()
    monkeypatch.setattr(verify, "little_weyl_group", _raise)
    [row] = weyl_invariants(an)
    assert row == verify.CheckResult(
        "wall_group_closure_and_tiling", False, "RuntimeError: injected fault"
    )


def test_a_failed_admissible_search_fails_its_own_row(monkeypatch):
    an = _analysis()
    monkeypatch.setattr(verify, "find_admissible", _raise)
    rows = verify_space(an.lie, an, seed=1)
    [row] = [r for r in rows if r.name == "admissible_point_found"]
    assert not row.ok and row.detail == "RuntimeError: injected fault"
    assert rows[-1].name == "limit_subalgebra_closure"


def test_a_flow_that_disagrees_fails_only_the_flow_row(monkeypatch):
    """The suite is a stage of the algebra, so its stages are emptied first."""
    lie = get_entry("A2_so3").lie()
    fresh_stages(monkeypatch, lie)
    far = FlowReport(distance=1.0, eigenvalue_gap=1.0, converged=True, reason="", frame=())
    monkeypatch.setattr(verify, "float_flow_oracle", lambda *args, **kwargs: far)
    rows = verify.limit_oracle_suite(lie, 25, 1)
    assert [r.name for r in rows] == ORACLE_ROWS
    assert [r for r in rows if not r.ok] == [
        CheckResult("limit_float_flow_agreement", False, "instance 0: distance 1.0")
    ]


def test_a_chamber_lookup_that_raises_fails_only_the_constancy_row(monkeypatch):
    an = _analysis()
    fresh_stages(monkeypatch, an.lie)
    monkeypatch.setattr(ChamberSet, "chamber_of", _raise)
    rows = verify_space(an.lie, an, seed=1)
    assert [r.name for r in rows[-5:]] == ORACLE_ROWS
    assert [r for r in rows if not r.ok] == [
        CheckResult("limit_chamber_constancy", False, "RuntimeError: injected fault")
    ]
