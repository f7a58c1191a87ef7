"""Byte-identity of the JSON reports.

Each case runs one CLI subcommand (or ``build_report``) and compares the
sha256 digest of its stdout, together with its exit code, with the digest
recorded before the Weyl group table of each algebra replaced the closures
run per analysis.  The digests of ``analyze`` on the Riemannian pairs A3 and
B3 g/so were recorded before subspaces were stored as integer echelon rows,
and the digest of ``verify --all`` before the Lie data were stored as ints,
and the digests of ``admissible`` on the Riemannian pairs A3, B3 and C3 g/so
before the W-image chambers stopped building their cones.  The digest of
``analyze`` on C3 g/so was recorded before the little Weyl group was closed on
root permutations, and the digest of ``analyze`` on A4 g/so before the
double description kept its rays by zero-set adjacency, and the digests of
``analyze`` on A2 and B2 g/so with an abelian center before the bracket
table became the one store of the structure constants.  A refactor that
keeps results must keep every digest.
"""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest
from conftest import TRIPLE_SPACE, space_json

from littleweyl import catalog
from littleweyl.cli import build_report, main
from littleweyl.lie import build_from_cartan, cartan_matrix_of_type
from littleweyl.linalg import Subspace
from littleweyl.serialize import dumps_canonical, space_to_json
from littleweyl.spherical import BasePoint

ENTRIES = [e.name for e in catalog.list_entries()]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cli(*argv) -> tuple[str, str]:
    """'exit code:digest' of one CLI run, and its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return f"{code}:{_digest(out.getvalue())}", out.getvalue()


def entry_outputs(name: str) -> dict[str, str]:
    """'exit code:digest' of every pinned report of one catalog entry."""
    dim_a = catalog.get_entry(name).lie().dim_a
    direction = ",".join(str(-(k + 1)) for k in range(dim_a))
    out = {
        f"analyze/{lat}": _cli("analyze", name, "--json", "--m-lattice", lat)[0]
        for lat in ("coroot", "coweight")
    }
    out["degenerate"], faces = _cli("degenerate", name, "--json")
    for i in range(len(json.loads(faces)["faces"])):
        out[f"degenerate/{i}"] = _cli("degenerate", name, "--json", "--face", str(i))[0]
    out["admissible"] = _cli("admissible", name, "--json")[0]
    out["limit"] = _cli("limit", name, "--json", f"--direction={direction}")[0]
    return out


def center_space_json(cartan_type: str, center_dim: int) -> dict:
    """The g/so space file of g with an abelian center: the subalgebra is
    spanned by the e_p - f_p, as in space_json."""
    lie = build_from_cartan(cartan_matrix_of_type(cartan_type), center_dim)
    rows = []
    for p in range(lie.num_pos):
        row = [0] * lie.dim
        row[lie.e_index(p)], row[lie.f_index(p)] = 1, -1
        rows.append(row)
    lie_desc = {"cartan_type": cartan_type, "center_dim": center_dim}
    return space_to_json(lie_desc, Subspace.from_spanning(lie.dim, rows), [])


def levi_report(lie, h) -> str:
    return _digest(dumps_canonical(build_report(lie, BasePoint((), h), "levi")))


ENTRY_DIGESTS = {
    "A1_nbar": {
        "analyze/coroot": "0:2b49c3d08341c876",
        "analyze/coweight": "0:2b49c3d08341c876",
        "degenerate": "0:fd99b6668d821a36",
        "degenerate/0": "0:caf99edce0eb7e49",
        "admissible": "0:936b0a59ff299107",
        "limit": "0:dc98647c3a8f7a6b",
    },
    "A1_so2": {
        "analyze/coroot": "0:31945b6d38b8e2ce",
        "analyze/coweight": "0:31945b6d38b8e2ce",
        "degenerate": "0:9b1944259f46c8a1",
        "degenerate/0": "0:87fd871634298863",
        "degenerate/1": "0:5b97edc4b1450d61",
        "admissible": "0:f40ebe4cf5d52b67",
        "limit": "0:dc98647c3a8f7a6b",
    },
    "A1_so11": {
        "analyze/coroot": "0:a468bccae5f88ff0",
        "analyze/coweight": "0:a468bccae5f88ff0",
        "degenerate": "0:9b1944259f46c8a1",
        "degenerate/0": "0:4b7366c740501856",
        "degenerate/1": "0:5b97edc4b1450d61",
        "admissible": "0:d68569601a1d6271",
        "limit": "0:dc98647c3a8f7a6b",
    },
    "A1xA1_diag_w0": {
        "analyze/coroot": "0:ebd8e5b91a6f9063",
        "analyze/coweight": "0:ebd8e5b91a6f9063",
        "degenerate": "0:f2f3e053d71df8d8",
        "degenerate/0": "0:1fa0410811623407",
        "degenerate/1": "0:6d69cb42ad9728b4",
        "admissible": "0:0df0c88fb8003beb",
        "limit": "0:547e339c0e6e6fb4",
    },
    "A2_so3": {
        "analyze/coroot": "0:07028314286e2da9",
        "analyze/coweight": "0:07028314286e2da9",
        "degenerate": "0:56fd38f20d562147",
        "degenerate/0": "0:f891ce37d258f454",
        "degenerate/1": "0:66ec5dc2c275ca6d",
        "degenerate/2": "0:3226674309cdb737",
        "degenerate/3": "0:028603cf771520fc",
        "admissible": "0:f63a42f29642f649",
        "limit": "0:dcd94d744048cf19",
    },
    "A2_nbar": {
        "analyze/coroot": "0:5e0fd961e03f0ac1",
        "analyze/coweight": "0:5e0fd961e03f0ac1",
        "degenerate": "0:1ea4914a9835811c",
        "degenerate/0": "0:45b81af023a47654",
        "admissible": "0:c6ee198d02fceeb9",
        "limit": "0:00dff6b2286850d6",
    },
}

# analyze --json on <type>_so.json, run from the file's directory so that the
# report's "source" field is the bare file name
RIEMANNIAN_DIGESTS = {
    "A3": "0:c27c00ea05da69b4",
    "B3": "0:97c157614b6f0466",
    "C3": "0:cbd1f7251ae71e56",
    "A4": "0:875b1728b49f9a74",
}

# analyze --json on <type>c<center>_so.json, g/so with an abelian center of
# g, run the same way: the center's weights, brackets and form enter every
# stage of the analysis
CENTER_DIGESTS = {
    ("A2", 1): "0:bf1d419fa31e0427",
    ("B2", 2): "0:557d6ac6fa95f872",
}

# admissible --json on <type>_so.json, run the same way
RIEMANNIAN_ADMISSIBLE_DIGESTS = {
    "A3": "0:33daa194076f16ed",
    "B3": "0:2f9e0867074d3766",
    "C3": "0:949b52dcf15d6e5d",
}

# verify --all --json --seed 1, with the float flow oracle's worst distance
# masked as bench/workloads.py masks it: its last bits come from the platform
VERIFY_DIGEST = "0:a1a880079e585480"
_FLOAT_DETAIL = re.compile(r"worst distance [-+0-9.eE]+")

# admissible --seed 1 --json on the triple space sl2^3 / diag sl2, the only
# input whose block cells come from three factors and no symmetric pair
TRIPLE_ADMISSIBLE_DIGEST = "0:cc3f9af7d7fc3c4f"

LEVI_DIGESTS = {
    "A2_levi1": "0b61913b59e6ed0e",
    "B2_levi2": "5e8bf71f30960481",
    "G2_levi1": "20e5634cf3c62e4c",
    "A3_levi13": "de56c4aacd1a21ae",
}


@pytest.mark.parametrize("name", ENTRIES)
def test_catalog_reports_are_unchanged(name):
    assert entry_outputs(name) == ENTRY_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(LEVI_DIGESTS))
def test_levi_pair_reports_are_unchanged(name, levi_pairs):
    assert levi_report(*levi_pairs[name]) == LEVI_DIGESTS[name]


def _riemannian_cli(command: str, cartan_type: str) -> str:
    """'exit code:digest' of one command on <type>_so.json, run from the
    file's directory (the caller's current directory)."""
    name = f"{cartan_type}_so.json"
    Path(name).write_text(dumps_canonical(space_json(cartan_type)))
    return _cli(command, name, "--json")[0]


@pytest.mark.parametrize("cartan_type", sorted(RIEMANNIAN_DIGESTS))
def test_riemannian_pair_reports_are_unchanged(cartan_type, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _riemannian_cli("analyze", cartan_type) == RIEMANNIAN_DIGESTS[cartan_type]


@pytest.mark.parametrize("cartan_type, center_dim", sorted(CENTER_DIGESTS))
def test_riemannian_pair_reports_with_a_center_are_unchanged(
    cartan_type, center_dim, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    name = f"{cartan_type}c{center_dim}_so.json"
    Path(name).write_text(dumps_canonical(center_space_json(cartan_type, center_dim)))
    assert _cli("analyze", name, "--json")[0] == CENTER_DIGESTS[cartan_type, center_dim]


@pytest.mark.parametrize("cartan_type", sorted(RIEMANNIAN_ADMISSIBLE_DIGESTS))
def test_riemannian_admissible_reports_are_unchanged(cartan_type, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    want = RIEMANNIAN_ADMISSIBLE_DIGESTS[cartan_type]
    assert _riemannian_cli("admissible", cartan_type) == want


def test_verify_report_is_unchanged():
    status, out = _cli("verify", "--all", "--json", "--seed", "1")
    masked = _FLOAT_DETAIL.sub("worst distance <float>", out)
    assert f"{status.split(':')[0]}:{_digest(masked)}" == VERIFY_DIGEST


def test_triple_space_admissible_report_is_unchanged(tmp_path):
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(TRIPLE_SPACE))
    status, out = _cli("admissible", str(path), "--seed", "1", "--json")
    report = json.loads(out)
    assert (report["strategy"], report["attempts"]) == ("phi-sample", 3)
    assert status == TRIPLE_ADMISSIBLE_DIGEST
