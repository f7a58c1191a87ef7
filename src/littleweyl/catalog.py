"""Built-in example spaces with hand-verified expected invariants.

Every expected number below was derived by hand in the Chevalley basis and is
reproduced mechanically by the verification pipeline (float-flow limits over
all order-regular chambers plus exhaustive Weyl coset matching); the entries
double as the regression and acceptance corpus.

Basis order per algebra: h_1..h_r, then e-vectors, then f-vectors, positive
roots sorted by height then lexicographically.  For A2 the positive roots are
(1,0), (0,1), (1,1); for A1xA1 they are (1,0), (0,1).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .lie import LieAlgebraData, build_from_cartan, cartan_matrix_of_type
from .linalg import Subspace
from .spherical import BasePoint, WordEntry, translate


class CatalogEntry(NamedTuple):
    name: str
    description: str
    cartan_type: str
    center_dim: int
    subalgebra: tuple[tuple[Fraction, ...], ...]
    base_point_word: tuple[WordEntry, ...]
    quasi_affine_note: str
    expected: dict

    def lie(self) -> LieAlgebraData:
        return build_from_cartan(cartan_matrix_of_type(self.cartan_type), self.center_dim)

    def base_point(self) -> BasePoint:
        lie = self.lie()
        h = Subspace.from_spanning(lie.dim, self.subalgebra)
        return translate(lie, h, self.base_point_word)


def _rows(dim: int, entries: Sequence[dict[int, int]]) -> tuple[tuple[Fraction, ...], ...]:
    out = []
    for ent in entries:
        row = [Fraction(0)] * dim
        for k, v in ent.items():
            row[k] = Fraction(v)
        out.append(tuple(row))
    return tuple(out)


def _entries() -> list[CatalogEntry]:
    out = []

    # ----- A1, h = span(f): the full horospherical subalgebra ---------------
    # dim 3, basis h, e, f.  T = 0, S_z empty, cone = a, trivial group.
    out.append(
        CatalogEntry(
            name="A1_nbar",
            description="sl(2,R) over the opposite horospherical subalgebra span(f)",
            cartan_type="A1",
            center_dim=0,
            subalgebra=_rows(3, [{2: 1}]),
            base_point_word=(),
            quasi_affine_note="quotient by a maximal unipotent; quasi-affine (recorded, not verified)",
            expected={
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
        )
    )

    # ----- A1, h = so(2) = span(e - f) ---------------------------------------
    # T(f) = -e, so S_z = {2 alpha}; cone = negative chamber; order-2 group.
    out.append(
        CatalogEntry(
            name="A1_so2",
            description="sl(2,R) over so(2) = span(e - f), the Riemannian form",
            cartan_type="A1",
            center_dim=0,
            subalgebra=_rows(3, [{1: 1, 2: -1}]),
            base_point_word=(),
            quasi_affine_note="reductive H; affine (recorded, not verified)",
            expected={
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
        )
    )

    # ----- A1, h = so(1,1)-type line span(e + f) ------------------------------
    # Fixed line of the transpose involution; same invariants as so(2).
    out.append(
        CatalogEntry(
            name="A1_so11",
            description="sl(2,R) over so(1,1)-type line span(e + f)",
            cartan_type="A1",
            center_dim=0,
            subalgebra=_rows(3, [{1: 1, 2: 1}]),
            base_point_word=(),
            quasi_affine_note="symmetric pair; affine (recorded, not verified)",
            expected={
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
        )
    )

    # ----- A1 x A1, twisted diagonal (the group case) -------------------------
    # Diagonal twisted by the long Weyl element in the second factor so the
    # base point lies in the open cell: span((e,-f), (h,-h), (f,-e)).
    # S_z = {(alpha, alpha)}, cone = half-space, a_h = R(h,-h).
    out.append(
        CatalogEntry(
            name="A1xA1_diag_w0",
            description="sl(2,R) as a spherical space of sl(2,R) x sl(2,R), twisted diagonal",
            cartan_type="A1xA1",
            center_dim=0,
            subalgebra=_rows(
                6, [{2: 1, 5: -1}, {0: 1, 1: -1}, {3: -1, 4: 1}]
            ),
            base_point_word=(),
            quasi_affine_note="group case; affine (recorded, not verified)",
            expected={
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
        )
    )

    # ----- A2, h = so(3) -------------------------------------------------------
    # span(e_i - f_i); T(f_i) = -e_i, S_z = {2a1, 2a2, 2a1+2a2}, cone = closed
    # negative chamber, full A2 little Weyl group.
    out.append(
        CatalogEntry(
            name="A2_so3",
            description="sl(3,R) over so(3), the Riemannian symmetric form",
            cartan_type="A2",
            center_dim=0,
            subalgebra=_rows(
                8, [{2: 1, 5: -1}, {3: 1, 6: -1}, {4: 1, 7: -1}]
            ),
            base_point_word=(),
            quasi_affine_note="Riemannian symmetric; affine (recorded, not verified)",
            expected={
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
        )
    )

    # ----- A2, h = nbar ---------------------------------------------------------
    out.append(
        CatalogEntry(
            name="A2_nbar",
            description="sl(3,R) over the opposite horospherical subalgebra span(f1, f2, f12)",
            cartan_type="A2",
            center_dim=0,
            subalgebra=_rows(8, [{5: 1}, {6: 1}, {7: 1}]),
            base_point_word=(),
            quasi_affine_note="quotient by a maximal unipotent; quasi-affine (recorded, not verified)",
            expected={
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
        )
    )
    return out


_CACHE: list[CatalogEntry] | None = None


def list_entries() -> list[CatalogEntry]:
    global _CACHE
    if _CACHE is None:
        _CACHE = _entries()
    return list(_CACHE)


def get_entry(name: str) -> CatalogEntry:
    for e in list_entries():
        if e.name == name:
            return e
    raise KeyError(f"unknown catalog entry {name!r}")


def expected_results(name: str) -> dict:
    return dict(get_entry(name).expected)
