"""Limits of subspaces in the Grassmannian along one-parameter subgroups of A.

For X in a the operator ad(X) is diagonal in the Chevalley basis, with the
root values as eigenvalues.  The limit of Ad(exp(tX))E for t -> infinity is
the filtered intersection

    E_X = sum over eigenvalues lambda_i of p_i( E cap V_{<= lambda_i} ),

with V_{<= lambda_i} the sum of the eigenspaces up to lambda_i and p_i the
projection onto the i-th one.  It is read off one row reduction of E on its
coordinates in descending eigenvalue order.  The echelon rows with pivot
level <= i span E cap V_{<= lambda_i}, and p_i kills those with pivot level
below i, so p_i( E cap V_{<= lambda_i} ) is spanned by the level-i parts of
the rows with pivot level i, and the sum by the pivot-level parts of all
rows.  The same echelon form gives the filtration test.  A floating-point
flow with re-orthonormalization serves as an independent numerical check; it
runs on plain floats and the math module.  The chamber table of the
order-regular arrangement, on whose chambers the limit is constant, is a
stage of the algebra in spherical.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from .lie import ContractViolation, LieAlgebraData
from .linalg import (
    IntVec,
    Subspace,
    Vec,
    dot,
    integer_echelon,
    vec,
)


class GradedDirection(NamedTuple):
    """Eigenvalue data of ad(X) for X in a: the eigenvalues in ascending order
    (the levels) and the basis indices of each eigenspace.  The eigenspaces
    are coordinate subspaces, so reversing the levels orders the coordinates
    for the echelon form behind limit_subspace."""

    x: Vec
    eigenvalues: tuple[Fraction, ...]
    eigenspace_indices: tuple[tuple[int, ...], ...]

    @property
    def levels(self) -> int:
        return len(self.eigenvalues)


def _integral_multiple(x: Vec) -> tuple[int, list[int]]:
    """(den, den * x) for the least positive den that makes den * x integral."""
    den = math.lcm(*(c.denominator for c in x))
    return den, [c.numerator * (den // c.denominator) for c in x]


def graded_direction(lie: LieAlgebraData, x: Sequence) -> GradedDirection:
    x = vec(x)
    if len(x) != lie.dim_a:
        raise ValueError("direction must be an a-vector")
    # the integer weights paired with den * x, an integer vector
    den, x_int = _integral_multiple(x)
    buckets: dict[int, list[int]] = {}
    for k, w in enumerate(lie.weights):
        buckets.setdefault(dot(w, x_int), []).append(k)
    values = sorted(buckets)
    eigenvalues = tuple(Fraction(v, den) for v in values)
    indices = tuple(tuple(buckets[v]) for v in values)
    return GradedDirection(x, eigenvalues, indices)


# (pivot level, part at that level) per echelon row of E; see _pivot_parts
PivotParts = list[tuple[int, IntVec]]


def _pivot_parts(lie: LieAlgebraData, e: Subspace, gd: GradedDirection) -> PivotParts:
    """Row-reduce E's integer rows once on their coordinates in descending
    eigenvalue order.

    Returns, per echelon row, its pivot level and its part at that level (in
    the original coordinates).  The rows with pivot level <= i span
    E cap V_{<= lambda_i}, and each row is zero on every level above its
    pivot.
    """
    order = [k for idx in reversed(gd.eigenspace_indices) for k in idx]
    level = [0] * lie.dim
    for i, idx in enumerate(gd.eigenspace_indices):
        for k in idx:
            level[k] = i
    out = []
    for p, row in integer_echelon([row[k] for k in order] for row in e.rows):
        lvl = level[order[p]]
        part = [0] * lie.dim
        for c, k in enumerate(order):
            if level[k] == lvl:
                part[k] = row[c]
        out.append((lvl, tuple(part)))
    return out


def _limit_of_parts(lie: LieAlgebraData, e: Subspace, parts: PivotParts) -> Subspace:
    out = Subspace.from_spanning(lie.dim, [part for _, part in parts])
    if out.dim != e.dim:
        raise ContractViolation(f"limit changed the dimension: dim E = {e.dim}, limit dim {out.dim}")
    return out


def limit_subspace(lie: LieAlgebraData, e: Subspace, x: Sequence) -> Subspace:
    """lim_{t->oo} Ad(exp(tX)) E in the Grassmannian, exactly."""
    return _limit_of_parts(lie, e, _pivot_parts(lie, e, graded_direction(lie, x)))


def is_order_regular(lie: LieAlgebraData, x: Sequence) -> bool:
    """alpha(X) != beta(X) for all distinct roots alpha, beta.  The root
    functionals are the weights of the root vectors, lie.weights[dim_a:],
    paired here with the integral multiple den * X."""
    _, x_int = _integral_multiple(vec(x))
    values = [dot(w, x_int) for w in lie.weights[lie.dim_a :]]
    return len(set(values)) == len(values)


class FlowReport(NamedTuple):
    distance: float
    eigenvalue_gap: float
    converged: bool
    reason: str
    frame: tuple[tuple[float, ...], ...]


def filtration_degenerate(lie: LieAlgebraData, e: Subspace, x: Sequence) -> bool:
    """True when E meets the ad(X) eigenvalue filtration non-generically.

    At such E the flowed frame needs an exact cancellation between rows to
    keep the limit, and any rounding of that cancellation gets amplified
    toward the generic limit instead.  A single row is never affected: the
    flow only rescales its coordinates, so the zero pattern survives exactly.
    The test counts, per level, the echelon rows of E that lie in the
    filtration step up to that level.
    """
    gd = graded_direction(lie, x)
    return _meets_non_generically(lie, e, gd, _pivot_parts(lie, e, gd))


def _meets_non_generically(
    lie: LieAlgebraData, e: Subspace, gd: GradedDirection, parts: PivotParts
) -> bool:
    """The filtration test of filtration_degenerate on E's pivot parts."""
    if e.dim <= 1:
        return False
    pivot_levels = [lvl for lvl, _ in parts]
    above = lie.dim
    for i in range(gd.levels - 1):
        above -= len(gd.eigenspace_indices[i])
        meet = sum(1 for lvl in pivot_levels if lvl <= i)
        if meet > max(0, e.dim - above):
            return True
    return False


def _reject(row: list[float], basis: list[list[float]]) -> list[float]:
    """row minus its projection on the orthonormal rows of basis, by one
    modified Gram-Schmidt pass."""
    for q in basis:
        c = sum(map(mul, row, q))
        row = [a - c * b for a, b in zip(row, q)]
    return row


def _orthonormal_rows(rows: Sequence[Sequence[float]]) -> list[list[float]] | None:
    """Orthonormal rows whose first k span what the first k of rows span, by
    Gram-Schmidt run twice ("twice is enough": the second pass removes what
    rounding left of the first).  None when a row cancels to zero, so the
    rows lost rank."""
    out: list[list[float]] = []
    for row in rows:
        r = _reject(_reject(list(row), out), out)
        norm = math.hypot(*r)
        if norm == 0.0:
            return None
        out.append([a / norm for a in r])
    return out


def float_flow_oracle(
    lie: LieAlgebraData,
    e: Subspace,
    x: Sequence,
    t_max: float = 40.0,
    tol: float = 1e-9,
) -> FlowReport:
    """Flow an orthonormal frame of E under Ad(exp(tX)) numerically.

    Each unit time step scales coordinate j by exp((lambda_j - lambda_max) dt),
    which moves the span as exp(lambda_j dt) does and never overflows, and
    re-orthonormalizes the frame.  The distance to the exact limit is the
    projection residual sqrt(sum over frame rows r of |r - P r|^2), with P the
    orthogonal projection onto the limit (the square root of the sum of the
    squared sines of the principal angles, Bjorck-Golub 1973); it resolves
    angles down to the rounding of the frame, about 1e-16.  The report is
    flagged as not converged when two distinct ad(X) eigenvalues are closer
    than tol, when E meets the filtration non-generically so that the limit
    is unstable under perturbations of the frame, or when a frame row
    cancels to zero in the flow (its coordinates underflow).
    """
    if e.dim == 0:
        return FlowReport(0.0, float("inf"), True, "", ())
    # one graded direction and one echelon form serve the exact limit and
    # the filtration test
    gd = graded_direction(lie, x)
    parts = _pivot_parts(lie, e, gd)
    lam = [0.0] * lie.dim
    for value, idx in zip(gd.eigenvalues, gd.eigenspace_indices):
        for k in idx:
            lam[k] = float(value)
    distinct = sorted(set(lam))
    gap = min(
        (b - a for a, b in zip(distinct, distinct[1:])), default=float("inf")
    )
    top = distinct[-1]
    frame = _orthonormal_rows([[float(c) for c in row] for row in e.basis_matrix])
    unit = [math.exp(lj - top) for lj in lam]
    t = 0.0
    while frame is not None and t < t_max:
        dt = min(1.0, t_max - t)
        scale = unit if dt == 1.0 else [math.exp((lj - top) * dt) for lj in lam]
        frame = _orthonormal_rows([[c * s for c, s in zip(row, scale)] for row in frame])
        t += dt
    if frame is None:
        return FlowReport(
            float("inf"), gap, False, "a frame row cancelled to zero in the flow", ()
        )
    exact = _limit_of_parts(lie, e, parts)
    target = _orthonormal_rows([[float(c) for c in row] for row in exact.basis_matrix])
    distance = math.hypot(*(c for row in frame for c in _reject(row, target)))
    reason = ""
    if gap < tol:
        reason = "eigenvalue gap below tolerance"
    elif _meets_non_generically(lie, e, gd, parts):
        reason = "filtration-degenerate input; the limit is unstable"
    return FlowReport(distance, gap, reason == "", reason, tuple(map(tuple, frame)))
