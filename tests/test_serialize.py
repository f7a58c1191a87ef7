import json
from fractions import Fraction

import pytest

from littleweyl.catalog import get_entry
from littleweyl.linalg import Subspace, vec
from littleweyl.serialize import (
    SpaceFileError,
    catalog_entry_to_space_json,
    frac_str,
    parse_frac,
    space_from_json,
    space_to_json,
    word_entry_from_json,
    word_entry_to_json,
)
from littleweyl.spherical import WordEntry, _word_entry_action, translate


def test_frac_round_trip():
    for x in (Fraction(3), Fraction(-1, 2), Fraction(0), Fraction(22, 7)):
        assert parse_frac(frac_str(x)) == x
    assert parse_frac(5) == Fraction(5)
    # exact decimal strings are accepted on input; output is always p/q
    assert parse_frac("1.5") == Fraction(3, 2)
    with pytest.raises(SpaceFileError):
        parse_frac("one half")
    with pytest.raises(SpaceFileError):
        parse_frac("1/0")
    with pytest.raises(SpaceFileError):
        parse_frac(1.5)


@pytest.mark.parametrize(
    "entry",
    [
        WordEntry.exp((0, 1, 0)),
        WordEntry.torus((Fraction(1, 2),), Fraction(2, 3)),
        WordEntry.weyl([0, 0]),
        WordEntry.sign((1,)),
    ],
)
def test_word_entry_round_trip(entry):
    data = word_entry_to_json(entry)
    back = word_entry_from_json(json.loads(json.dumps(data)), "w")
    assert back == entry


def test_sign_word_acts_by_signs(a1):
    # sign character at the coweight: e -> -e, f -> -f, a fixed
    act = _word_entry_action(a1, WordEntry.sign((Fraction(1, 2),)))
    assert act(vec((0, 1, 0))) == vec((0, -1, 0))
    assert act(vec((1, 0, 0))) == vec((1, 0, 0))


def test_weyl_word_translation(a1):
    bp = translate(
        a1, Subspace.from_spanning(3, [(0, 0, 1)]), [WordEntry.weyl([0])]
    )
    assert bp.h_z == Subspace.from_spanning(3, [(0, 1, 0)])  # Ad(n) f = -e


def test_space_round_trip(a1):
    h = Subspace.from_spanning(3, [(0, 1, -1)])
    data = space_to_json(
        {"cartan_type": "A1", "center_dim": 0},
        h,
        [WordEntry.torus((1,), Fraction(2))],
        claims={"w_order": 2},
    )
    lie, bp, claims = space_from_json(json.loads(json.dumps(data)))
    assert lie.dim == 3
    # the torus element moves the line e - f to 4e - f/4
    expected = translate(a1, h, [WordEntry.torus((1,), Fraction(2))]).h_z
    assert bp.h_z == expected and bp.h_z != h
    assert claims == {"w_order": 2}


def test_space_from_json_errors():
    with pytest.raises(SpaceFileError):
        space_from_json([])
    with pytest.raises(SpaceFileError):
        space_from_json({"schema_version": 99})
    base = {
        "schema_version": 1,
        "lie_algebra": {"cartan_type": "A1", "center_dim": 0},
        "subalgebra": [["0", "0", "1"]],
    }
    bad = dict(base)
    bad["lie_algebra"] = {"center_dim": 0}
    with pytest.raises(SpaceFileError):
        space_from_json(bad)
    bad = dict(base)
    bad["lie_algebra"] = {"cartan_type": "Z9", "center_dim": 0}
    with pytest.raises(SpaceFileError):
        space_from_json(bad)
    bad = dict(base)
    bad["subalgebra"] = []
    with pytest.raises(SpaceFileError):
        space_from_json(bad)
    bad = dict(base)
    bad["base_point_word"] = [{"kind": "mystery"}]
    with pytest.raises(SpaceFileError):
        space_from_json(bad)
    # non-subalgebra subspace is rejected at load time
    bad = dict(base)
    bad["subalgebra"] = [["0", "1", "0"], ["0", "0", "1"]]
    with pytest.raises(SpaceFileError):
        space_from_json(bad)


def test_catalog_export_schema():
    data = catalog_entry_to_space_json(get_entry("A1xA1_diag_w0"))
    assert data["schema_version"] == 1
    assert data["lie_algebra"] == {"cartan_type": "A1xA1", "center_dim": 0}
    assert data["claims"]["w_order"] == 2
    lie, bp, claims = space_from_json(json.loads(json.dumps(data)))
    assert bp.h_z.dim == 3
