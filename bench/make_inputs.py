"""Write the benchmark's Riemannian space files ``bench/inputs/<type>_so.json``.

Each file describes the pair g/so for a split simple Lie algebra g of the
given Cartan type: the subalgebra is the span of e_p - f_p over all positive
roots p (the fixed points of the Chevalley involution), and the base-point
word is empty.  The files are built with the public API only, so running

    PYTHONPATH=src python3 bench/make_inputs.py

from the repository root regenerates them byte for byte.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction

TYPES = ("A1", "A2", "B2", "G2", "A3")
INPUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs")


def space_json(cartan_type: str) -> dict:
    from littleweyl import Subspace, build_from_cartan, cartan_matrix_of_type
    from littleweyl.serialize import space_to_json

    lie = build_from_cartan(cartan_matrix_of_type(cartan_type))
    rows = []
    for p in range(lie.num_pos):
        row = [Fraction(0)] * lie.dim
        row[lie.e_index(p)] = Fraction(1)
        row[lie.f_index(p)] = Fraction(-1)
        rows.append(row)
    lie_desc = {"cartan_type": cartan_type, "center_dim": 0}
    return space_to_json(lie_desc, Subspace.from_spanning(lie.dim, rows), [])


def input_path(cartan_type: str) -> str:
    return os.path.join(INPUT_DIR, f"{cartan_type}_so.json")


def main() -> int:
    from littleweyl.serialize import dumps_canonical

    os.makedirs(INPUT_DIR, exist_ok=True)
    for t in TYPES:
        with open(input_path(t), "w") as fh:
            fh.write(dumps_canonical(space_json(t)))
        print(f"wrote {input_path(t)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
