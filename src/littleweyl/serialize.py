"""JSON schemas for spaces, cones and analysis reports.

All rationals travel as "p/q" strings (or "p" for integers) so that no
consumer ever sees a float; reports round-trip losslessly.  The space
description schema, version 1:

    {
      "schema_version": 1,
      "lie_algebra": {"cartan_type": "A2", "center_dim": 0}
                     or {"cartan_matrix": [[2,-1],[-1,2]], "center_dim": 0},
      "subalgebra": [["0","0","1"], ...],          # rows in basis coordinates
      "base_point_word": [
          {"kind": "nilpotent", "vector": [...]},
          {"kind": "torus", "coweight": [...], "scale": "p/q"},
          {"kind": "weyl", "word": [0, 1]},
          {"kind": "sign", "t": [...]}
      ],
      "claims": { ... optional expected-results block ... }
    }
"""

from __future__ import annotations

import json
import re
import reprlib
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Sequence

from .cones import Cone
from .lie import (
    LieAlgebraData,
    LieAlgebraError,
    build_from_cartan,
    cartan_matrix_of_type,
    cartan_type_blocks,
    positive_roots_of,
    validate_cartan_matrix,
)
from .linalg import Subspace, Vec
from .spherical import BasePoint, WordEntry, translate

SCHEMA_VERSION = 1
# The largest semisimple rank a space file may have: coxeter_type_label names
# the diagrams of at most four nodes, and on A5 the chamber table alone does
# not finish within minutes.
MAX_RANK = 4
# The largest abelian center a space file may have: the center enlarges a,
# where the double descriptions run; on A2 g/so analyze takes 0.4 s with a
# center of 16 and 11 s with 64.
MAX_CENTER_DIM = 16


class SpaceFileError(ValueError):
    pass


def frac_str(x: int | Fraction) -> str:
    if type(x) is int:
        return str(x)
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _fraction(s) -> Fraction | None:
    """Fraction(s) for an int or a "p/q" or decimal string, else None.
    Exponent forms such as "1e9" are refused: Fraction would expand them to
    integers too long to print.  JSON true and false load as bool, not int."""
    try:
        if type(s) is int or isinstance(s, str) and "e" not in s.lower():
            return Fraction(s)
    except (ValueError, ZeroDivisionError):
        pass
    return None


def parse_frac(s, where: str = "") -> Fraction:
    """An int, or a "p/q" or decimal string (_fraction).

    A number that frac_str cannot print back, with more digits than Python's
    int-to-str limit (4300 by default), is refused as too long to print.  So
    is a string that Fraction refuses only for its length: one it reads once
    each run of digits is cut to one digit, 0 for a zero run and 1 otherwise.
    Any other value is echoed through reprlib, which cuts a long repr."""
    at = where or "input"
    x = _fraction(s)
    if x is None and isinstance(s, str):
        short = re.sub(r"\d+", lambda run: "1" if run.group().strip("0") else "0", s)
        if _fraction(short) is not None:
            raise SpaceFileError(f"number too long to print at {at}")
    if x is None:
        raise SpaceFileError(f"not a rational number at {at}: {reprlib.repr(s)}")
    try:
        frac_str(x)
    except ValueError:
        raise SpaceFileError(f"number too long to print at {at}") from None
    return x


def vec_to_json(v: Sequence) -> list[str]:
    return [frac_str(x) for x in v]


def vec_from_json(data, where: str = "") -> Vec:
    if not isinstance(data, list):
        raise SpaceFileError(f"expected a list of rationals at {where}")
    return tuple(parse_frac(x, f"{where}[{i}]") for i, x in enumerate(data))


def subspace_to_json(s: Subspace) -> list[list[str]]:
    return [vec_to_json(r) for r in s.basis_matrix]


def cone_to_json(c: Cone) -> dict:
    return {
        "inequalities": [vec_to_json(g) for g in c.inequalities],
        "rays": [vec_to_json(r) for r in c.rays],
        "lineality": subspace_to_json(c.lineality),
    }


def word_entry_to_json(e: WordEntry) -> dict:
    if e.kind == "nilpotent":
        return {"kind": "nilpotent", "vector": vec_to_json(e.nilpotent)}
    if e.kind == "torus":
        return {
            "kind": "torus",
            "coweight": vec_to_json(e.coweight),
            "scale": frac_str(e.scale),
        }
    if e.kind == "sign":
        return {"kind": "sign", "t": vec_to_json(e.coweight)}
    if e.kind == "weyl":
        return {"kind": "weyl", "word": list(e.weyl_word)}
    raise ValueError(f"unknown word entry kind {e.kind!r}")


def word_entry_from_json(data, where: str) -> WordEntry:
    if not isinstance(data, dict) or "kind" not in data:
        raise SpaceFileError(f"word entry at {where} must be an object with a 'kind'")
    kind = data["kind"]
    if kind == "nilpotent":
        return WordEntry.exp(vec_from_json(data.get("vector"), f"{where}.vector"))
    if kind == "torus":
        return WordEntry.torus(
            vec_from_json(data.get("coweight"), f"{where}.coweight"),
            parse_frac(data.get("scale"), f"{where}.scale"),
        )
    if kind == "sign":
        return WordEntry.sign(vec_from_json(data.get("t"), f"{where}.t"))
    if kind == "weyl":
        word = data.get("word")
        if not isinstance(word, list) or not all(type(i) is int for i in word):
            raise SpaceFileError(f"weyl word at {where} must be a list of integers")
        return WordEntry.weyl(word)
    raise SpaceFileError(f"unknown word entry kind {kind!r} at {where}")


def _cartan_from_json(data, where: str = "lie_algebra") -> tuple[list[list[int]], int]:
    """The Cartan matrix and center dimension of a lie_algebra block, checked
    before anything is built."""
    if not isinstance(data, dict):
        raise SpaceFileError(f"{where} must be an object")
    center = data.get("center_dim", 0)
    if type(center) is not int or center < 0:
        raise SpaceFileError(f"{where}.center_dim must be a nonnegative integer")
    if center > MAX_CENTER_DIM:
        raise SpaceFileError(
            f"{where}.center_dim {center} is not supported "
            f"(the supported range is center_dim <= {MAX_CENTER_DIM})"
        )

    def check_rank(rank: int) -> None:
        if not 1 <= rank <= MAX_RANK:
            raise SpaceFileError(
                f"{where}: rank {rank} is not supported "
                f"(the supported range is 1 <= rank <= {MAX_RANK})"
            )

    try:
        if "cartan_type" in data:
            # the rank is read off the name before the matrix is built
            check_rank(sum(r for _, r in cartan_type_blocks(data["cartan_type"])))
            matrix = cartan_matrix_of_type(data["cartan_type"])
        elif "cartan_matrix" in data:
            matrix = data["cartan_matrix"]
            if isinstance(matrix, list):
                check_rank(len(matrix))
        else:
            raise SpaceFileError(
                f"{where} needs either 'cartan_type' or 'cartan_matrix'"
            )
        if not isinstance(matrix, list) or not all(
            isinstance(row, list) and all(type(x) is int for x in row) for row in matrix
        ):
            raise LieAlgebraError("Cartan matrix must be a list of rows of integers")
        validate_cartan_matrix(matrix)
    except LieAlgebraError as err:
        raise SpaceFileError(f"{where}: {err}") from err
    return matrix, center


def space_to_json(
    lie_desc: dict, subalgebra: Subspace, word: Sequence[WordEntry], claims: dict | None = None
) -> dict:
    out = {
        "schema_version": SCHEMA_VERSION,
        "lie_algebra": lie_desc,
        "subalgebra": subspace_to_json(subalgebra),
        "base_point_word": [word_entry_to_json(e) for e in word],
    }
    if claims:
        out["claims"] = claims
    return out


def space_from_json(data) -> tuple[LieAlgebraData, BasePoint, dict]:
    """Parse a space description; returns (lie, base point, claims)."""
    if not isinstance(data, dict):
        raise SpaceFileError("space description must be a JSON object")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SpaceFileError(f"unsupported schema_version {version}")
    matrix, center = _cartan_from_json(data.get("lie_algebra"))
    # the dimension of g, read off the root system before the algebra is built
    dim = len(matrix) + center + 2 * len(positive_roots_of(matrix))
    rows = data.get("subalgebra")
    if not isinstance(rows, list) or not rows:
        raise SpaceFileError("subalgebra must be a nonempty list of rows")
    parsed = []
    for i, row in enumerate(rows):
        v = vec_from_json(row, f"subalgebra[{i}]")
        if len(v) != dim:
            raise SpaceFileError(f"subalgebra[{i}] has length {len(v)}, expected {dim}")
        parsed.append(v)
    try:
        lie = build_from_cartan(matrix, center)
    except LieAlgebraError as err:
        raise SpaceFileError(f"lie_algebra: {err}") from err
    h = Subspace.from_spanning(lie.dim, parsed)
    entries = data.get("base_point_word", [])
    if not isinstance(entries, list):
        raise SpaceFileError("base_point_word must be a list of word entries")
    word = [word_entry_from_json(e, f"base_point_word[{i}]") for i, e in enumerate(entries)]
    try:
        bp = translate(lie, h, word)
    except LieAlgebraError as err:
        raise SpaceFileError(str(err)) from err
    claims = data.get("claims") or {}
    if not isinstance(claims, dict):
        raise SpaceFileError("claims must be an object")
    _check_claims(claims, lie)
    return lie, bp, claims


def _check_claims(claims: dict, lie: LieAlgebraData) -> None:
    """SpaceFileError naming the first field that verify.check_claims reads
    and that has the wrong type or shape; unknown fields are not looked at."""

    def ints(v, *lengths) -> bool:
        return isinstance(v, list) and len(v) in lengths and all(type(x) is int for x in v)

    def rows(v, *lengths) -> bool:
        return isinstance(v, list) and all(ints(r, *lengths) for r in v)

    rank, dim_a = lie.rank, lie.dim_a
    roots = (f"a list of integer lists of length {rank}", lambda v: rows(v, rank))
    ineqs = "a list of integer lists of length " + " or ".join(map(str, sorted({rank, dim_a})))
    count = ("a nonnegative integer", lambda v: type(v) is int and v >= 0)
    flag = ("true or false", lambda v: type(v) is bool)
    shapes = {
        "adapted": flag,
        "admissible": flag,
        "s_z": roots,
        "indecomposables": roots,
        "sigma_z": roots,
        "cone_ineqs": (ineqs, lambda v: rows(v, rank, dim_a)),
        "a_h_dim": count,
        "a_e_dim": count,
        "w_order": count,
        "coxeter_type": ("a string", lambda v: isinstance(v, str)),
        "coset_labels": (
            "a list of strings",
            lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
        ),
        "pair_witness": (f"an integer list of length {dim_a}", lambda v: ints(v, dim_a)),
        "non_adapted_witness": (
            f"an object with a 'word' list and 'cone_ineqs', {ineqs}",
            lambda v: isinstance(v, dict)
            and isinstance(v.get("word"), list)
            and rows(v.get("cone_ineqs"), rank, dim_a),
        ),
    }
    for name, (shape, ok) in shapes.items():
        if name in claims and not ok(claims[name]):
            raise SpaceFileError(f"claims.{name} must be {shape}")
    witness = claims.get("non_adapted_witness", {})
    for i, e in enumerate(witness.get("word", [])):
        word_entry_from_json(e, f"claims.non_adapted_witness.word[{i}]")


def load_space_file(path: str) -> tuple[LieAlgebraData, BasePoint, dict]:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as err:
        raise SpaceFileError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    except ValueError as err:  # e.g. an integer literal too long to convert
        raise SpaceFileError(f"{path}: {err}") from err
    except OSError as err:
        raise SpaceFileError(str(err)) from err
    return space_from_json(data)


def catalog_entry_to_space_json(entry) -> dict:
    lie_desc = {"cartan_type": entry.cartan_type, "center_dim": entry.center_dim}
    lie = entry.lie()
    h = Subspace.from_spanning(lie.dim, entry.subalgebra)
    return space_to_json(lie_desc, h, entry.base_point_word, claims=dict(entry.expected))


def dumps_canonical(data) -> str:
    """The report as json.dumps(data, sort_keys=True, indent=2) + "\n" writes
    it, for data made of dicts with str keys, lists, tuples, str, int, bool
    and None.  json.dumps runs its pure-Python encoder whenever it indents;
    this one writes a list of ints or of strs with one join.  A float, a
    non-str key or a record (a tuple subclass such as CheckResult) is a
    TypeError: no report holds any of them."""
    return _encode(data, "\n") + "\n"


def _encode(x, indent: str) -> str:
    """x as json.dumps writes it at the nesting whose line break and
    indentation is ``indent``; bool is tested before int."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    inner = indent + "  "
    if isinstance(x, dict):
        if not x:
            return "{}"
        if not all(isinstance(k, str) for k in x):
            raise TypeError("report keys must be str")
        body = (f"{encode_basestring_ascii(k)}: {_encode(v, inner)}" for k, v in sorted(x.items()))
        return "{" + inner + ("," + inner).join(body) + indent + "}"
    if type(x) is list or type(x) is tuple:
        if not x:
            return "[]"
        if all(type(v) is int for v in x):
            body = map(int.__repr__, x)
        elif all(type(v) is str for v in x):
            body = map(encode_basestring_ascii, x)
        else:
            body = (_encode(v, inner) for v in x)
        return "[" + inner + ("," + inner).join(body) + indent + "]"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
