import pytest
from conftest import check_entry, replace

from littleweyl.catalog import (
    expected_results,
    get_entry,
    list_entries,
)


EXPECTED_NAMES = {
    "A1_nbar",
    "A1_so2",
    "A1_so11",
    "A1xA1_diag_w0",
    "A2_so3",
    "A2_nbar",
}


def test_entry_listing():
    names = {e.name for e in list_entries()}
    assert EXPECTED_NAMES <= names
    assert len(list_entries()) >= 6


def test_expected_results_records():
    rec = expected_results("A1_nbar")
    assert rec["cone_ineqs"] == [] and rec["w_order"] == 1 and rec["sigma_z"] == []
    rec = expected_results("A1_so2")
    assert rec["cone_ineqs"] == [[1]]
    assert rec["w_order"] == 2
    assert rec["sigma_z"] == [[-1], [1]]
    rec = expected_results("A1xA1_diag_w0")
    assert rec["a_h_dim"] == 1
    assert rec["w_order"] == 2
    assert rec["pair_witness"] == [1, -1]
    assert rec["sigma_z"] == [[-1, -1], [1, 1]]
    with pytest.raises(KeyError):
        expected_results("no_such_space")


def test_base_points_are_subalgebras():
    for e in list_entries():
        lie = e.lie()
        assert lie.is_subalgebra(e.base_point().h_z)


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_pipeline_reproduces_expected(name):
    results = check_entry(get_entry(name))
    assert results, "no checks ran"
    failures = [r for r in results if not r.ok]
    assert not failures, failures


def test_non_adapted_witness_present():
    rec = expected_results("A1_nbar")
    assert "non_adapted_witness" in rec
    rec = expected_results("A2_nbar")
    assert "non_adapted_witness" in rec


def test_tampered_record_fails():
    entry = get_entry("A1_so2")
    bad = replace(entry, expected={**entry.expected, "w_order": 3})
    results = check_entry(bad)
    failing = [r for r in results if not r.ok]
    assert any(r.name.endswith("w_order") for r in failing)
    assert any("got 2 want 3" in r.detail for r in failing)
