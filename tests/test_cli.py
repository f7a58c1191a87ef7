import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from conftest import TRIPLE_SPACE, catalog_space
from hypothesis import given, settings
from hypothesis import strategies as st

import littleweyl
from littleweyl import serialize, spherical, verify, weyl
from littleweyl.catalog import list_entries
from littleweyl.cli import main
from littleweyl.lie import build_from_cartan, cartan_matrix_of_type
from littleweyl.serialize import dumps_canonical


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_so2_json(capsys):
    code, out, _ = run(capsys, "analyze", "A1_so2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["weyl"]["order"] == 2
    assert report["weyl"]["type"] == "A1"
    assert report["weyl"]["agreement"] is True
    assert report["schema_version"] == 1
    assert report["verification"]["all_ok"] is True
    assert any(
        c["name"] == "brion_symmetry" for c in report["verification"]["checks"]
    )


def test_analyze_nbar_human(capsys):
    code, out, _ = run(capsys, "analyze", "A1_nbar")
    assert code == 0
    assert "compression cone: all of a" in out
    assert "little Weyl group: trivial" in out


def test_analyze_not_adapted_exit_2(tmp_path, capsys):
    space = {
        "schema_version": 1,
        "lie_algebra": {"cartan_type": "A1", "center_dim": 0},
        "subalgebra": [["1", "0", "0"]],
        "base_point_word": [],
    }
    path = tmp_path / "h_a.json"
    path.write_text(json.dumps(space))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "no open P-orbit" in err


def test_non_nilpotent_word_entry_exit_1(tmp_path, capsys):
    space = {
        "schema_version": 1,
        "lie_algebra": {"cartan_type": "A1", "center_dim": 0},
        "subalgebra": [["0", "1", "-1"]],
        "base_point_word": [{"kind": "nilpotent", "vector": ["1", "0", "0"]}],
    }
    path = tmp_path / "exp_h.json"
    path.write_text(json.dumps(space))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "ad-nilpotent" in err


def test_parse_error_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "error" in err


def test_bad_subalgebra_rows_exit_1(tmp_path, capsys):
    space = {
        "schema_version": 1,
        "lie_algebra": {"cartan_type": "A1", "center_dim": 0},
        "subalgebra": [["1", "0"]],
        "base_point_word": [],
    }
    path = tmp_path / "short.json"
    path.write_text(json.dumps(space))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "length" in err


def test_row_lengths_are_checked_before_the_algebra_is_built(tmp_path, capsys, monkeypatch):
    """The length of a subalgebra row is read off the Cartan matrix and the
    center: a center_dim with short rows ends before any build (a center of
    2 000 used to build the 2 008-dimensional algebra first; such a center is
    now refused by its bound, so the largest one allowed stands in)."""

    def no_build(*args):
        raise AssertionError("build_from_cartan ran before the row lengths were checked")

    monkeypatch.setattr(serialize, "build_from_cartan", no_build)
    space = {
        "schema_version": 1,
        "lie_algebra": {"cartan_type": "A2", "center_dim": 16},
        "subalgebra": [["0"] * 8],
        "base_point_word": [],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(space))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "error: subalgebra[0] has length 8, expected 24" in err


def test_center_dim_is_bounded_before_the_algebra_is_built(tmp_path, capsys, monkeypatch):
    """A center of 17 with rows of the matching length ends at load: the
    center enlarges a, where the double descriptions run."""

    def no_build(*args):
        raise AssertionError("build_from_cartan ran before center_dim was checked")

    monkeypatch.setattr(serialize, "build_from_cartan", no_build)
    dim = 8 + 17
    space = {
        "schema_version": 1,
        "lie_algebra": {"cartan_type": "A2", "center_dim": 17},
        "subalgebra": [["0"] * (dim - 1) + ["1"]],
        "base_point_word": [],
    }
    path = tmp_path / "center.json"
    path.write_text(json.dumps(space))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1 and out == ""
    assert err == "error: lie_algebra.center_dim 17 is not supported (the supported range is center_dim <= 16)\n"


# a JSON integer literal too long for int(), written into the file text
# in place of this string
_BIG_INT = "<5000-digit integer>"


def _write_space(path, data) -> None:
    path.write_text(json.dumps(data).replace(json.dumps(_BIG_INT), "7" * 5000))


@pytest.mark.parametrize(
    "value, message",
    [
        ("1e1000000", "not a rational number at subalgebra[0][1]: '1e1000000'"),
        (_BIG_INT, "Exceeds the limit (4300 digits) for integer string conversion"),
        pytest.param(
            "1" * 3000 + "." + "1" * 3000,
            "number too long to print at subalgebra[0][1]",
            id="<6000-digit decimal>",
        ),
        pytest.param(
            "1" * 5000,
            "number too long to print at subalgebra[0][1]",
            id="<5000-digit integer string>",
        ),
        pytest.param(
            "1/" + "1" * 5000,
            "number too long to print at subalgebra[0][1]",
            id="<5000-digit denominator>",
        ),
        pytest.param(
            "x" * 5000,
            "not a rational number at subalgebra[0][1]: 'xxxxxxxx",
            id="<5000-letter string>",
        ),
    ],
)
def test_oversized_numbers_end_in_an_error_line(value, message, tmp_path, capsys):
    """An exponent string that Fraction would expand to a million digits, an
    integer literal that json cannot convert, and a decimal whose numerator
    has 6000 digits are space-file errors: each once ended in a ValueError
    traceback.  A well-formed number too long to print is named as such, and
    no error line echoes a long value whole."""
    data = catalog_space("A1_so2")
    data["subalgebra"][0][1] = value
    path = tmp_path / "big.json"
    _write_space(path, data)
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1 and len(err.replace(str(path), "")) < 200


def _json_paths(node, prefix=()):
    """Every position in a JSON document, as a tuple of keys and indices."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _json_paths(value, (*prefix, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _json_paths(value, (*prefix, i))


_CATALOG_SPACES = {e.name: e.space for e in list_entries()}
_MUTATIONS = [
    None, True, 0, 1, -1, 2, 17, 2000, 1.5, "", "x", "0", "1/2", "1/0", "1.5", "-3",
    "1e1000000", _BIG_INT, "A1", "A5", "G2", [], {}, [[]], [0, 1], [1, "e"],
    {"kind": "weyl", "word": [0]}, {"kind": "spin"},
]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_CATALOG_SPACES)), st.data())
def test_mutated_space_files_end_in_a_documented_exit(name, data):
    """A catalog space file with one or two fields replaced from a fixed pool
    ends in a documented exit code, never in an exception out of main, and
    exit 1 says why on an error: line."""
    space = json.loads(json.dumps(_CATALOG_SPACES[name]))
    paths = list(_json_paths(space))[1:]
    for path in data.draw(st.lists(st.sampled_from(paths), min_size=1, max_size=2, unique=True)):
        node = space
        try:
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(_MUTATIONS)))
        except (KeyError, IndexError, TypeError):
            pass  # the first mutation replaced a parent of this path
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "space.json"
        _write_space(path, space)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", str(path)])
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert err.getvalue().startswith("error:")


@pytest.mark.parametrize(
    "field, value",
    [
        ("coset_labels", [1, "e"]),
        ("cone_ineqs", [None]),
        ("s_z", [[2, 0, 1]]),
        ("w_order", "6"),
        ("admissible", 1),
        ("pair_witness", [1]),
        ("non_adapted_witness", {"word": [], "cone_ineqs": [[1]]}),
        ("non_adapted_witness", {"word": [{"kind": "spin"}], "cone_ineqs": []}),
    ],
)
def test_malformed_claims_end_in_an_error_line(field, value, tmp_path, capsys):
    """A claims field that verify reads, with the wrong type or shape, is a
    space-file error naming the field, not a traceback.  The first two are
    the crashes a fuzzed A2_so3 file found: an int among the coset labels
    could not be sorted, and a null inequality had no length."""
    data = catalog_space("A2_so3")
    data["claims"][field] = value
    path = tmp_path / "claims.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 1
    assert err.startswith("error:") and field in err


def test_unknown_claims_fields_are_ignored(tmp_path, capsys):
    data = catalog_space("A2_so3")
    data["claims"]["remark"] = [None, 1, "e"]
    path = tmp_path / "claims.json"
    path.write_text(json.dumps(data))
    code, _, _ = run(capsys, "verify", str(path))
    assert code == 0


def test_limit_nbar_direction_one(capsys):
    code, out, _ = run(capsys, "limit", "A1_nbar", "--direction", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["limit"] == [["0", "0", "1"]]
    assert data["coset"] == "e"


def test_limit_so2_direction_one(capsys):
    code, out, _ = run(capsys, "limit", "A1_so2", "--direction", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["limit"] == [["0", "1", "0"]]
    assert data["coset"] == "s1"
    assert data["dim_limit_cap_a"] == 0


def test_limit_zero_direction_fixes_h(capsys):
    code, out, _ = run(capsys, "limit", "A1_so2", "--direction", "0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["limit"] == [["0", "1", "-1"]]


def test_limit_malformed_vector(capsys):
    code, _, err = run(capsys, "limit", "A1_so2", "--direction", "x")
    assert code == 1


def test_degenerate_lists_and_computes(capsys):
    code, out, _ = run(capsys, "degenerate", "A1_so2", "--json")
    assert code == 0
    faces = json.loads(out)["faces"]
    assert len(faces) == 2
    code, out, _ = run(capsys, "degenerate", "A1_so2", "--face", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["h_zF"] == [["0", "0", "1"]]  # span(f) at the full face


def test_admissible_reports_strategy(capsys):
    code, out, _ = run(capsys, "admissible", "A1xA1_diag_w0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["admissible"] is True
    assert data["strategy"] == "self"


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "--all")
    assert code == 0
    assert "0 failed" in out
    assert "FAIL" not in out


def test_verify_single_space(capsys):
    code, out, _ = run(capsys, "verify", "A1_so2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["failed"] == 0 and data["passed"] > 0


def test_verify_space_file_claims(tmp_path, capsys):
    code, _, _ = run(capsys, "catalog", "--export", str(tmp_path))
    assert code == 0
    path = tmp_path / "A1_so2.json"
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and "0 failed" in out
    # tampering the claims block makes verification fail with a diff
    data = json.loads(path.read_text())
    data["claims"]["w_order"] = 5
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1
    assert "FAIL" in out and "got 2 want 5" in out


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in ("A1_nbar", "A2_so3"):
        assert name in out


def test_catalog_export_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "catalog", "--export", str(tmp_path))
    assert code == 0
    path = tmp_path / "A1_so2.json"
    assert path.exists()
    code, out, _ = run(capsys, "analyze", str(path), "--json")
    assert code == 0
    assert json.loads(out)["weyl"]["order"] == 2


@pytest.mark.parametrize("target", ["file", "file/sub"])
def test_catalog_export_to_a_file_path_exits_1(tmp_path, target):
    # makedirs once ended in a FileExistsError or NotADirectoryError traceback
    (tmp_path / "file").write_text("")
    path = tmp_path / target
    src = str(Path(littleweyl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-m", "littleweyl", "catalog", "--export", str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 1 and out.stdout == "" and "Traceback" not in out.stderr
    assert out.stderr.startswith(f"error: cannot export to {path}: ")
    assert len(out.stderr.splitlines()) == 1


def test_a_deeply_nested_space_file_exits_1(tmp_path):
    # json's decoder once ended in a RecursionError traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    src = str(Path(littleweyl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-m", "littleweyl", "analyze", str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 1 and out.stdout == "" and "Traceback" not in out.stderr
    assert out.stderr == f"error: {path}: nested too deeply to parse\n"


def test_json_reports_are_deterministic(capsys):
    _, out1, _ = run(capsys, "admissible", "A2_so3", "--json", "--seed", "3")
    _, out2, _ = run(capsys, "admissible", "A2_so3", "--json", "--seed", "3")
    assert out1 == out2


def test_report_round_trips(capsys):
    _, out, _ = run(capsys, "analyze", "A1xA1_diag_w0", "--json")
    report = json.loads(out)
    assert json.loads(json.dumps(report)) == report
    # every rational field is a string of the form p or p/q
    for row in report["space"]["h_z"]:
        for cell in row:
            assert isinstance(cell, str)
            num = cell.split("/")
            assert all(part.lstrip("-").isdigit() for part in num)


def test_m_lattice_flag(capsys):
    code, _, _ = run(capsys, "analyze", "A1_so2", "--m-lattice", "coweight", "--json")
    assert code == 0


def test_verify_passes_the_m_lattice_on(monkeypatch, capsys):
    """The lattice reaches the Weyl invariants and every limit-coset read,
    the catalog claims' limit_coset_labels check and the agreement of the
    limits with the walls included."""
    seen, limit_lattices = [], []
    original = verify.weyl_invariants
    original_limits = verify.weyl_from_limits

    def recording(analysis, m_lattice="coroot"):
        seen.append(m_lattice)
        return original(analysis, m_lattice)

    def recording_limits(analysis, m_lattice="coroot"):
        limit_lattices.append(m_lattice)
        return original_limits(analysis, m_lattice)

    monkeypatch.setattr(verify, "weyl_invariants", recording)
    monkeypatch.setattr(verify, "weyl_from_limits", recording_limits)
    monkeypatch.setattr(weyl, "weyl_from_limits", recording_limits)
    code, out, _ = run(capsys, "verify", "A1_so2", "--m-lattice", "coweight", "--json")
    assert code == 0 and json.loads(out)["failed"] == 0
    assert seen == ["coweight"]
    assert limit_lattices == ["coweight"] * 3


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "A1_so2", "--bogus"],
        ["analyze", "A1_so2", "--m-lattice", "root"],
        ["degenerate", "A1_so2", "--face", "x"],
        [],
        # flags a subcommand does not read are not offered
        ["analyze", "A1_so2", "--seed", "3"],
        ["limit", "A1_so2", "--direction", "1", "--max-iters", "3"],
        ["degenerate", "A1_so2", "--m-lattice", "coweight"],
        ["admissible", "A1_so2", "--m-lattice", "coweight"],
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: littleweyl") and "error:" in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: littleweyl analyze")


# nbar = span(f_1, f_2, f_3) in sl3, and span(f) in gl2 = sl2 + center
A2_NBAR = [["0"] * (5 + k) + ["1"] + ["0"] * (2 - k) for k in range(3)]
GL2_NBAR = [["0", "0", "1", "0"]]


@pytest.mark.parametrize(
    "lie_algebra, rows, word",
    [
        # each of these once ran, or ended in a traceback
        ({"cartan_matrix": [[2.5, -1], [-1, 2]]}, A2_NBAR, []),  # truncated to A2
        ({"cartan_matrix": [[2, "a"], [-1, 2]]}, A2_NBAR, []),
        ({"cartan_matrix": "A2"}, A2_NBAR, []),
        ({"cartan_type": 2}, A2_NBAR, []),
        ({"cartan_type": "A1", "center_dim": True}, GL2_NBAR, []),  # read as 1
        ({"cartan_type": "A2"}, A2_NBAR, [{"kind": "weyl", "word": [True]}]),
        (
            {"cartan_type": "A1"},
            [["0", "0", "1"]],
            [{"kind": "torus", "coweight": [True], "scale": "2"}],
        ),
        ({"cartan_type": "A2"}, A2_NBAR, 5),
    ],
)
def test_malformed_space_file_exit_1(tmp_path, capsys, lie_algebra, rows, word):
    space = {
        "schema_version": 1,
        "lie_algebra": lie_algebra,
        "subalgebra": rows,
        "base_point_word": word,
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert err.startswith("error:") and out == ""


def _riemannian_space(cartan_type: str) -> dict:
    """The g/so space file: h spanned by e_p - f_p over the positive roots."""
    lie = build_from_cartan(cartan_matrix_of_type(cartan_type))
    rows = []
    for p in range(lie.num_pos):
        row = ["0"] * lie.dim
        row[lie.e_index(p)], row[lie.f_index(p)] = "1", "-1"
        rows.append(row)
    return {
        "schema_version": 1,
        "lie_algebra": {"cartan_type": cartan_type, "center_dim": 0},
        "subalgebra": rows,
        "base_point_word": [],
    }


def test_a3_chamber_rows_are_the_chamber_table_joined_with_the_cell_caps(tmp_path, capsys):
    """analyze and admissible write one row per order-regular chamber: its
    signs and representative, and the dimension of limit cap a of its block
    cell, which passes when it equals dim a_h."""
    space = _riemannian_space("A3")
    lie, bp, _ = serialize.space_from_json(space)
    an = spherical.analyze(lie, bp.h_z)
    limits, cells = spherical.chamber_limits(an, an.h_z)
    caps = [lim.intersect(lie.a_subspace()).dim for lim in limits]
    want = [
        {
            "signs": list(ch.signs),
            "representative": serialize.vec_to_json(ch.representative),
            "dim_limit_cap_a": caps[cell],
            "ok": caps[cell] == an.a_h.dim,
        }
        for ch, cell in zip(spherical.order_regular_chambers(lie).chambers, cells, strict=True)
    ]
    assert len(want) == 240 and all(row["ok"] for row in want)
    path = tmp_path / "A3_so.json"
    path.write_text(dumps_canonical(space))
    code, out, _ = run(capsys, "analyze", str(path), "--json")
    assert code == 0 and json.loads(out)["admissibility"]["chambers"] == want
    code, out, _ = run(capsys, "admissible", str(path), "--json")
    assert code == 0 and json.loads(out)["chambers"] == want


@pytest.mark.parametrize(
    "command,lie_algebra",
    [
        ("analyze", {"cartan_type": "A5"}),
        ("admissible", {"cartan_type": "A5"}),
        ("verify", {"cartan_matrix": [list(r) for r in cartan_matrix_of_type("A5")]}),
    ],
)
def test_rank_5_space_file_exits_1_at_load(tmp_path, capsys, command, lie_algebra):
    # A5 g/so once ran for 80 s and then exited 3 at coxeter_type_label
    space = dict(_riemannian_space("A5"), lie_algebra=lie_algebra)
    path = tmp_path / "A5_so.json"
    path.write_text(dumps_canonical(space))
    start = time.monotonic()
    code, out, err = run(capsys, command, str(path))
    assert time.monotonic() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error:") and "rank 5 is not supported" in err
    assert "rank <= 4" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["analyze", "verify"])
@pytest.mark.parametrize(
    "cartan_type,message",
    [
        ("A99999999999", "rank 99999999999 is not supported"),
        ("A4xA99999999999", "rank 100000000003 is not supported"),
        ("x".join(["A1"] * 10**5), "rank 100000 is not supported"),
        ("E5xA99999999999", "unknown Cartan type 'E5'"),
        ("A" + "9" * 5000, "Exceeds the limit (4300 digits)"),
    ],
    ids=["A99999999999", "A4xA99999999999", "A1x100000", "E5xA99999999999", "A<5000 digits>"],
)
def test_named_type_is_refused_before_its_matrix_is_built(
    tmp_path, capsys, command, cartan_type, message
):
    # the rank was once checked on the built Cartan matrix: A99999999999
    # ended in a MemoryError traceback, and A20000 built its 20000 x 20000
    # matrix before it was refused
    space = {"lie_algebra": {"cartan_type": cartan_type}, "subalgebra": [["1"]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(space))
    start = time.monotonic()
    code, out, err = run(capsys, command, str(path))
    assert time.monotonic() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [("analyze",), ("admissible",), ("verify",), ("limit", "--direction=1"), ("degenerate",)],
)
def test_rank_0_space_file_exits_1_at_load(tmp_path, capsys, argv):
    # analyze, admissible and verify once ended in a ConeError traceback
    # from the chamber table, whose arrangement has no hyperplane at rank 0
    space = {"lie_algebra": {"cartan_matrix": [], "center_dim": 1}, "subalgebra": [["1"]]}
    path = tmp_path / "rank0.json"
    path.write_text(json.dumps(space))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "rank 0 is not supported" in err
    assert "1 <= rank <= 4" in err and len(err.strip().splitlines()) == 1


def test_cli_import_loads_no_third_party_module():
    # a fresh interpreter, so that modules the tests import do not count
    src = str(Path(littleweyl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, littleweyl.cli; print(sorted({'numpy', 'sympy'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "[]"


def test_analyze_non_admissible_point_exit_1(tmp_path, capsys):
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(TRIPLE_SPACE))
    code, out, err = run(capsys, "analyze", str(path), "--json")
    assert code == 1 and out == ""
    assert err == (
        "error: the base point is not admissible (24/48 chambers pass); "
        "`littleweyl admissible` searches its orbit for one that is\n"
    )


def test_failed_admissible_search_exit_3(tmp_path, capsys):
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(TRIPLE_SPACE))
    code, out, err = run(capsys, "admissible", str(path), "--max-iters", "1")
    assert code == 3 and out == ""
    assert err.startswith("internal contract violated: no admissible point found")


@pytest.mark.parametrize("iters", ["0", "-3"])
def test_admissible_max_iters_below_one_is_a_usage_error(tmp_path, capsys, iters):
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(TRIPLE_SPACE))
    with pytest.raises(SystemExit) as exit_info:
        main(["admissible", str(path), f"--max-iters={iters}"])
    assert exit_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: littleweyl admissible")
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [
        f"littleweyl admissible: error: argument --max-iters: must be at least 1, not {iters}"
    ]


def test_verify_claims_not_an_object_exit_1(tmp_path, capsys):
    space = {
        "schema_version": 1,
        "lie_algebra": {"cartan_type": "A2"},
        "subalgebra": A2_NBAR,
        "claims": "adapted",
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "claims" in err


def test_verify_claims_at_a_non_admissible_point_exit_1(tmp_path, capsys):
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(dict(TRIPLE_SPACE, claims={"w_order": 8, "coset_labels": ["e"]})))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "limit_coset_labels  [got none: the point is not admissible want ['e']]" in out
    assert "limits_agree_with_walls  [ValueError: weyl_from_limits requires" in out
