import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from littleweyl.catalog import get_entry
from littleweyl.linalg import Subspace, vec
from littleweyl.serialize import (
    SpaceFileError,
    dumps_canonical,
    frac_str,
    parse_frac,
    space_from_json,
    space_to_json,
    word_entry_from_json,
    word_entry_to_json,
)
from littleweyl.spherical import WordEntry, _word_entry_action, translate
from littleweyl.verify import CheckResult


def test_frac_round_trip():
    for x in (Fraction(3), Fraction(-1, 2), Fraction(0), Fraction(22, 7)):
        assert parse_frac(frac_str(x)) == x
    # ints print as str does; bools as the ints they equal
    assert [frac_str(x) for x in (0, -7, 10**30, True, False)] == ["0", "-7", str(10**30), "1", "0"]
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
    data = get_entry("A1xA1_diag_w0").space
    assert data["schema_version"] == 1
    assert data["lie_algebra"] == {"cartan_type": "A1xA1", "center_dim": 0}
    assert data["claims"]["w_order"] == 2
    assert json.loads(dumps_canonical(data)) == data
    lie, bp, claims = space_from_json(json.loads(json.dumps(data)))
    assert bp.h_z.dim == 3


_CHARS = st.sampled_from('ab "\\/\x00\x1f\x7f\n\t\u00e9\u2028\u4e2d\U0001f600')
_TEXT = st.text(_CHARS, max_size=8) | st.text(max_size=4)
_INTS = st.integers() | st.integers(min_value=-(10**40), max_value=10**40)
_LEAVES = st.none() | st.booleans() | _INTS | _TEXT
_JSON = st.recursive(
    _LEAVES
    | st.lists(_INTS | st.booleans())
    | st.lists(_TEXT)
    | st.builds(tuple, st.lists(_INTS)),
    lambda inner: st.lists(inner)
    | st.builds(tuple, st.lists(inner))
    | st.dictionaries(_TEXT, inner),
    max_leaves=15,
)


@given(_JSON)
def test_dumps_canonical_writes_what_json_dumps_writes(value):
    """The encoder's own layout is json.dumps's, byte for byte: ints
    negative and long, bools alone and mixed into int lists, None, strings
    with non-ASCII and control characters, quotes and backslashes, empty
    lists and dicts, tuples, and nesting."""
    assert dumps_canonical(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [1.5, [1, 2.0], {"a": {"b": float("nan")}}, {1: "x"}, {None: 0}])
def test_dumps_canonical_refuses_floats_and_non_str_keys(value):
    with pytest.raises(TypeError):
        dumps_canonical(value)


@pytest.mark.parametrize(
    "value",
    [
        CheckResult("lie_jacobi", True),
        [CheckResult("lie_jacobi", True, "")],
        {"checks": (CheckResult("lie_jacobi", False, "detail"),)},
    ],
)
def test_dumps_canonical_refuses_a_record(value):
    """A record is a tuple subclass; written as a list it would leak into a
    report without an error."""
    with pytest.raises(TypeError, match="CheckResult is not JSON serializable"):
        dumps_canonical(value)
