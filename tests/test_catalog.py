import hashlib
import json

import pytest
from conftest import catalog_space, check_entry, replace

from littleweyl import catalog
from littleweyl.catalog import (
    CatalogEntry,
    expected_results,
    get_entry,
    list_entries,
    load,
)
from littleweyl.cli import main


EXPECTED_NAMES = {
    "A1_nbar",
    "A1_so2",
    "A1_so11",
    "A1xA1_diag_w0",
    "A2_so3",
    "A2_nbar",
}

# sha256 (first 16 hex digits) of each file that `catalog --export` writes
EXPORT_DIGESTS = {
    "A1_nbar.json": "2065448b31b297e8",
    "A1_so11.json": "86cefe9f2cbc3c75",
    "A1_so2.json": "80a7d3f680dbad04",
    "A1xA1_diag_w0.json": "852806bc2f22e047",
    "A2_nbar.json": "10af774836e70bfe",
    "A2_so3.json": "d705b6377a31a64c",
}


def test_entry_listing():
    names = {e.name for e in list_entries()}
    assert EXPECTED_NAMES <= names
    assert len(list_entries()) >= 6


def test_an_entry_is_a_name_a_description_and_a_space():
    assert CatalogEntry._fields == ("name", "description", "space")


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
        lie, bp, _ = load(e.name)
        assert lie.is_subalgebra(bp.h_z)


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
    space = {**entry.space, "claims": {**entry.space["claims"], "w_order": 3}}
    results = check_entry(replace(entry, space=space))
    failing = [r for r in results if not r.ok]
    assert any(r.name.endswith("w_order") for r in failing)
    assert any("got 2 want 3" in r.detail for r in failing)


def test_a_claim_of_the_wrong_shape_is_refused_as_in_a_file(tmp_path, capsys, monkeypatch):
    """A built-in entry's claims pass the shape check that a file's pass."""
    space = catalog_space("A1_so2")
    space["claims"]["w_order"] = "2"
    path = tmp_path / "A1_so2.json"
    path.write_text(json.dumps(space))
    monkeypatch.setattr(catalog, "_ENTRIES", (replace(get_entry("A1_so2"), space=space),))
    assert main(["verify", "A1_so2"]) == 1
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: claims.w_order must be a nonnegative integer\n" * 2


def test_exported_files_are_unchanged(tmp_path, capsys):
    assert main(["catalog", "--export", str(tmp_path)]) == 0
    got = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        for path in tmp_path.iterdir()
    }
    assert got == EXPORT_DIGESTS
