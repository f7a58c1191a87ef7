"""Built-in example spaces with hand-verified expected invariants.

Each entry is a space description, the dict that a space file holds (see
serialize), and loads through the same parser: its claims are the expected
results.  Every claim below was derived by hand in the Chevalley basis and is
reproduced mechanically by the verification pipeline (float-flow limits over
all order-regular chambers plus exhaustive Weyl coset matching); the entries
double as the regression and acceptance corpus.

Basis order per algebra: h_1..h_r, then e-vectors, then f-vectors, positive
roots sorted by height then lexicographically.  For A2 the positive roots are
(1,0), (0,1), (1,1); for A1xA1 they are (1,0), (0,1).
"""

from __future__ import annotations

from typing import NamedTuple

from .lie import LieAlgebraData
from .serialize import space_from_json
from .spherical import BasePoint


class CatalogEntry(NamedTuple):
    name: str
    description: str
    space: dict


_ENTRIES = (
    # ----- A1, h = span(f): the full horospherical subalgebra ---------------
    # dim 3, basis h, e, f.  T = 0, S_z empty, cone = a, trivial group.
    CatalogEntry(
        "A1_nbar",
        "sl(2,R) over the opposite horospherical subalgebra span(f)",
        {
            "schema_version": 1,
            "lie_algebra": {"cartan_type": "A1", "center_dim": 0},
            "subalgebra": [["0", "0", "1"]],
            "base_point_word": [],
            "claims": {
                "adapted": True,
                "s_z": [],
                "indecomposables": [],
                "cone_ineqs": [],
                "a_h_dim": 0,
                "a_e_dim": 1,
                "w_order": 1,
                "coxeter_type": "trivial",
                "sigma_z": [],
                "admissible": True,
                "coset_labels": ["e"],
                "non_adapted_witness": {
                    "word": [{"kind": "nilpotent", "vector": [0, 1, 0]}],
                    "cone_ineqs": [[1]],  # alpha <= 0, half of a
                },
            },
        },
    ),
    # ----- A1, h = so(2) = span(e - f) ---------------------------------------
    # T(f) = -e, so S_z = {2 alpha}; cone = negative chamber; order-2 group.
    CatalogEntry(
        "A1_so2",
        "sl(2,R) over so(2) = span(e - f), the Riemannian form",
        {
            "schema_version": 1,
            "lie_algebra": {"cartan_type": "A1", "center_dim": 0},
            "subalgebra": [["0", "1", "-1"]],
            "base_point_word": [],
            "claims": {
                "adapted": True,
                "s_z": [[2]],
                "indecomposables": [[2]],
                "cone_ineqs": [[1]],
                "a_h_dim": 0,
                "a_e_dim": 0,
                "w_order": 2,
                "coxeter_type": "A1",
                "sigma_z": [[-1], [1]],
                "admissible": True,
                "coset_labels": ["e", "s1"],
            },
        },
    ),
    # ----- A1, h = so(1,1)-type line span(e + f) ------------------------------
    # Fixed line of the transpose involution; same invariants as so(2).
    CatalogEntry(
        "A1_so11",
        "sl(2,R) over so(1,1)-type line span(e + f)",
        {
            "schema_version": 1,
            "lie_algebra": {"cartan_type": "A1", "center_dim": 0},
            "subalgebra": [["0", "1", "1"]],
            "base_point_word": [],
            "claims": {
                "adapted": True,
                "s_z": [[2]],
                "indecomposables": [[2]],
                "cone_ineqs": [[1]],
                "a_h_dim": 0,
                "a_e_dim": 0,
                "w_order": 2,
                "coxeter_type": "A1",
                "sigma_z": [[-1], [1]],
                "admissible": True,
                "coset_labels": ["e", "s1"],
            },
        },
    ),
    # ----- A1 x A1, twisted diagonal (the group case) -------------------------
    # Diagonal twisted by the long Weyl element in the second factor so the
    # base point lies in the open cell: span((e,-f), (h,-h), (f,-e)).
    # S_z = {(alpha, alpha)}, cone = half-space, a_h = R(h,-h).
    CatalogEntry(
        "A1xA1_diag_w0",
        "sl(2,R) as a spherical space of sl(2,R) x sl(2,R), twisted diagonal",
        {
            "schema_version": 1,
            "lie_algebra": {"cartan_type": "A1xA1", "center_dim": 0},
            "subalgebra": [
                ["1", "-1", "0", "0", "0", "0"],
                ["0", "0", "1", "0", "0", "-1"],
                ["0", "0", "0", "1", "-1", "0"],
            ],
            "base_point_word": [],
            "claims": {
                "adapted": True,
                "s_z": [[1, 1]],
                "indecomposables": [[1, 1]],
                "cone_ineqs": [[2, 2]],
                "a_h_dim": 1,
                "a_e_dim": 1,
                "w_order": 2,
                "coxeter_type": "A1",
                "sigma_z": [[-1, -1], [1, 1]],
                "admissible": True,
                "coset_labels": ["e", "s1*s2"],
                "pair_witness": [1, -1],  # (h, -h) in span(beta_vee, gamma_vee) cap a_h
            },
        },
    ),
    # ----- A2, h = so(3) -------------------------------------------------------
    # span(e_i - f_i); T(f_i) = -e_i, S_z = {2a1, 2a2, 2a1+2a2}, cone = closed
    # negative chamber, full A2 little Weyl group.
    CatalogEntry(
        "A2_so3",
        "sl(3,R) over so(3), the Riemannian symmetric form",
        {
            "schema_version": 1,
            "lie_algebra": {"cartan_type": "A2", "center_dim": 0},
            "subalgebra": [
                ["0", "0", "1", "0", "0", "-1", "0", "0"],
                ["0", "0", "0", "1", "0", "0", "-1", "0"],
                ["0", "0", "0", "0", "1", "0", "0", "-1"],
            ],
            "base_point_word": [],
            "claims": {
                "adapted": True,
                "s_z": [[0, 2], [2, 0], [2, 2]],
                "indecomposables": [[0, 2], [2, 0]],
                "cone_ineqs": [[2, -1], [-1, 2]],
                "a_h_dim": 0,
                "a_e_dim": 0,
                "w_order": 6,
                "coxeter_type": "A2",
                "sigma_z": [[-1, -1], [-1, 0], [0, -1], [0, 1], [1, 0], [1, 1]],
                "admissible": True,
                "coset_labels": ["e", "s1", "s1*s2", "s1*s2*s1", "s2", "s2*s1"],
            },
        },
    ),
    # ----- A2, h = nbar ---------------------------------------------------------
    CatalogEntry(
        "A2_nbar",
        "sl(3,R) over the opposite horospherical subalgebra span(f1, f2, f12)",
        {
            "schema_version": 1,
            "lie_algebra": {"cartan_type": "A2", "center_dim": 0},
            "subalgebra": [
                ["0", "0", "0", "0", "0", "1", "0", "0"],
                ["0", "0", "0", "0", "0", "0", "1", "0"],
                ["0", "0", "0", "0", "0", "0", "0", "1"],
            ],
            "base_point_word": [],
            "claims": {
                "adapted": True,
                "s_z": [],
                "indecomposables": [],
                "cone_ineqs": [],
                "a_h_dim": 0,
                "a_e_dim": 2,
                "w_order": 1,
                "coxeter_type": "trivial",
                "sigma_z": [],
                "admissible": True,
                "coset_labels": ["e"],
                "non_adapted_witness": {
                    "word": [{"kind": "nilpotent", "vector": [0, 0, 1, 0, 0, 0, 0, 0]}],
                    "cone_ineqs": [[2, -1]],  # alpha_1 <= 0
                },
            },
        },
    ),
)


def list_entries() -> list[CatalogEntry]:
    return list(_ENTRIES)


def get_entry(name: str) -> CatalogEntry:
    for e in _ENTRIES:
        if e.name == name:
            return e
    raise KeyError(f"unknown catalog entry {name!r}")


def load(name: str) -> tuple[LieAlgebraData, BasePoint, dict]:
    """The entry's (lie, base point, claims), parsed as a space file is."""
    return space_from_json(get_entry(name).space)


def expected_results(name: str) -> dict:
    return dict(get_entry(name).space["claims"])
