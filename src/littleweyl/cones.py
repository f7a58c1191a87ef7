"""Exact rational polyhedral cones and hyperplane arrangement chambers.

Cones are stored closed, as {X : g(X) <= 0 for all g in inequalities}, with a
double description kept consistent: primitive integer extreme rays modulo the
lineality space, and the lineality space itself in canonical echelon form.
Strict membership is a separate predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import (
    Mat,
    Subspace,
    Vec,
    dot,
    mat_vec,
    primitive,
    primitive_signed,
    rank,
    vec,
    vec_add,
    vec_scale,
    zero_vec,
)


class ConeError(ValueError):
    pass


def _dd(inequalities: Sequence[Vec], dim: int) -> tuple[list[Vec], Subspace]:
    """Double description of {x : g(x) <= 0}: extreme rays and lineality."""
    lin: list[Vec] = [
        tuple(Fraction(1 if j == i else 0) for j in range(dim)) for i in range(dim)
    ]
    rays: list[Vec] = []
    processed: list[Vec] = []

    def reduce_mod_lin(r: Vec) -> Vec:
        red = Subspace.from_spanning(dim, lin).reduce_vector(r) if lin else r
        if all(c == 0 for c in red):
            return zero_vec(dim)
        return primitive(red)

    for g in inequalities:
        g = vec(g)
        split = next((l for l in lin if dot(g, l) != 0), None)
        if split is not None:
            l0 = split if dot(g, split) > 0 else vec_scale(-1, split)
            gl0 = dot(g, l0)
            lin = [
                vec_sub_scaled(l, dot(g, l) / gl0, l0) for l in lin if l is not split
            ]
            rays = [vec_sub_scaled(r, dot(g, r) / gl0, l0) for r in rays]
            rays.append(vec_scale(-1, l0))
        else:
            neg = [r for r in rays if dot(g, r) < 0]
            zero = [r for r in rays if dot(g, r) == 0]
            pos = [r for r in rays if dot(g, r) > 0]
            combos = []
            for rp in pos:
                for rn in neg:
                    combos.append(
                        vec_add(vec_scale(dot(g, rp), rn), vec_scale(-dot(g, rn), rp))
                    )
            rays = neg + zero + combos
        processed.append(g)
        # canonicalize and keep extreme rays only
        lin_dim = len(lin)
        seen: dict[Vec, None] = {}
        kept: list[Vec] = []
        for r in rays:
            r = reduce_mod_lin(r)
            if all(c == 0 for c in r) or r in seen:
                continue
            seen[r] = None
            kept.append(r)
        rays = [
            r
            for r in kept
            if _is_extreme(r, processed, lin, lin_dim, dim)
        ]
    lin_sub = Subspace.from_spanning(dim, lin)
    rays = sorted(rays)
    return rays, lin_sub


def vec_sub_scaled(a: Vec, c: Fraction, b: Vec) -> Vec:
    return tuple(x - c * y for x, y in zip(a, b))


def _is_extreme(
    r: Vec, processed: Sequence[Vec], lin: Sequence[Vec], lin_dim: int, dim: int
) -> bool:
    tight = [g for g in processed if dot(g, r) == 0]
    # r is extreme iff the tight system cuts the cone down to lin + one ray
    return rank(tight) == dim - lin_dim - 1


@dataclass(frozen=True)
class Cone:
    """Closed rational polyhedral cone with a double description."""

    ambient_dim: int
    inequalities: tuple[Vec, ...]  # minimal description, {x : g(x) <= 0}
    rays: tuple[Vec, ...]  # primitive, reduced mod lineality, sorted
    lineality: Subspace

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_inequalities(dim: int, gammas: Iterable[Sequence]) -> "Cone":
        gams = [vec(g) for g in gammas]
        rays, lin = _dd(gams, dim)
        ineqs = _minimal_inequalities(gams, rays, lin, dim)
        return Cone(dim, ineqs, tuple(rays), lin)

    @staticmethod
    def from_rays(dim: int, rays: Iterable[Sequence], lineality: Subspace | None = None) -> "Cone":
        gens = [vec(r) for r in rays]
        if lineality is not None:
            for l in lineality.basis_matrix:
                gens.append(l)
                gens.append(vec_scale(-1, l))
        # polar cone {g : g(r) <= 0 for all generators}, described by its rays
        polar_rays, polar_lin = _dd(gens, dim)
        ineqs = list(polar_rays)
        for l in polar_lin.basis_matrix:
            ineqs.append(l)
            ineqs.append(vec_scale(-1, l))
        return Cone.from_inequalities(dim, ineqs)

    @staticmethod
    def full_space(dim: int) -> "Cone":
        return Cone.from_inequalities(dim, [])

    # -- basic structure -------------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimension of the cone as a set."""
        return rank(list(self.rays) + list(self.lineality.basis_matrix))

    def contains(self, x: Sequence) -> bool:
        x = vec(x)
        return all(dot(g, x) <= 0 for g in self.inequalities)

    def contains_strictly(self, x: Sequence) -> bool:
        """Membership in the topological interior (requires a full-dim cone)."""
        x = vec(x)
        return all(dot(g, x) < 0 for g in self.inequalities)

    def contains_cone(self, other: "Cone") -> bool:
        return all(self.contains(r) for r in other.rays) and all(
            self.contains(l) and self.contains(vec_scale(-1, l))
            for l in other.lineality.basis_matrix
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cone)
            and self.ambient_dim == other.ambient_dim
            and self.rays == other.rays
            and self.lineality == other.lineality
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.rays, self.lineality.basis_matrix))

    # -- operations -------------------------------------------------------------

    def dual(self) -> "Cone":
        """{lambda : lambda(x) >= 0 for all x in the cone}."""
        return Cone.from_rays(
            self.ambient_dim, [vec_scale(-1, g) for g in self.inequalities]
        )

    def intersect(self, other: "Cone") -> "Cone":
        return Cone.from_inequalities(
            self.ambient_dim, list(self.inequalities) + list(other.inequalities)
        )

    def edge(self) -> Subspace:
        """The maximal subspace contained in the cone."""
        return self.lineality

    def faces(self) -> list["Cone"]:
        """All faces, via subsets of the minimal facet inequalities."""
        facets = self._facet_inequalities()
        out: dict[Cone, None] = {}
        for mask in range(1 << len(facets)):
            extra = []
            for i, g in enumerate(facets):
                if (mask >> i) & 1:
                    extra.append(g)
                    extra.append(vec_scale(-1, g))
            face = Cone.from_inequalities(
                self.ambient_dim, list(self.inequalities) + extra
            )
            out[face] = None
        return sorted(out, key=lambda c: (c.dim, c.rays))

    def walls(self) -> list["Cone"]:
        """Faces whose span has codimension one in the ambient space.

        A full-dimensional cone has one per facet inequality, a cone spanning
        a hyperplane has itself, and a smaller cone has none.
        """
        cone_dim = self.dim
        if cone_dim == self.ambient_dim - 1:
            return [self]
        if cone_dim < self.ambient_dim:
            return []
        walls = [
            Cone.from_inequalities(
                self.ambient_dim, list(self.inequalities) + [g, vec_scale(-1, g)]
            )
            for g in self._facet_inequalities()
        ]
        return sorted(walls, key=lambda c: c.rays)

    def span(self) -> Subspace:
        return Subspace.from_spanning(
            self.ambient_dim, list(self.rays) + list(self.lineality.basis_matrix)
        )

    def transform(self, m: Mat) -> "Cone":
        """Image under an invertible linear map."""
        return Cone.from_rays(
            self.ambient_dim,
            [mat_vec(m, r) for r in self.rays],
            self.lineality.transform(m),
        )

    def relative_interior_point(self) -> Vec:
        """A rational point in the relative interior, deterministically."""
        if not self.rays:
            return zero_vec(self.ambient_dim)
        strict = [
            g
            for g in self.inequalities
            if any(dot(g, r) != 0 for r in self.rays)
        ]
        t = 1
        while True:
            t += 1
            p = zero_vec(self.ambient_dim)
            for k, r in enumerate(self.rays):
                p = vec_add(p, vec_scale(Fraction(t) ** k, r))
            if all(dot(g, p) < 0 for g in strict):
                return p
            if t > 4 * (len(self.rays) + 1) * (len(strict) + 1):
                raise ConeError("no relative interior point found")

    def _facet_inequalities(self) -> list[Vec]:
        cone_dim = self.dim
        out = []
        for g in self.inequalities:
            tight = [r for r in self.rays if dot(g, r) == 0] + list(
                self.lineality.basis_matrix
            )
            if rank(tight) == cone_dim - 1:
                out.append(g)
        return out


def _minimal_inequalities(
    gams: Sequence[Vec], rays: Sequence[Vec], lin: Subspace, dim: int
) -> tuple[Vec, ...]:
    """Facet inequalities plus +-pairs spanning the annihilator of the cone."""
    cone_dim = rank(list(rays) + list(lin.basis_matrix))
    span = Subspace.from_spanning(dim, list(rays) + list(lin.basis_matrix))
    ineqs: dict[Vec, None] = {}
    for g in span.annihilator():
        g = primitive(g)
        ineqs[g] = None
        ineqs[vec_scale(-1, g)] = None
    for g in gams:
        tight = [r for r in rays if dot(g, r) == 0] + list(lin.basis_matrix)
        if rank(tight) == cone_dim - 1 and all(dot(g, r) <= 0 for r in rays):
            ineqs[primitive(g)] = None
    return tuple(sorted(ineqs))


# ---------------------------------------------------------------------------
# Hyperplane arrangements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Chamber:
    signs: tuple[int, ...]
    representative: Vec
    cone: Cone


@dataclass(frozen=True)
class ChamberSet:
    hyperplanes: tuple[Vec, ...]
    chambers: tuple[Chamber, ...]

    @property
    def count(self) -> int:
        return len(self.chambers)

    def sign_vector(self, x: Sequence) -> tuple[int, ...]:
        x = vec(x)
        return tuple(_sign(dot(h, x)) for h in self.hyperplanes)

    def chamber_of(self, x: Sequence) -> Chamber:
        s = self.sign_vector(x)
        if 0 in s:
            raise ConeError("point lies on a hyperplane of the arrangement")
        for ch in self.chambers:
            if ch.signs == s:
                return ch
        raise ConeError("point is outside the enumerated chambers")


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def enumerate_chambers(dim: int, functionals: Iterable[Sequence]) -> ChamberSet:
    """All chambers of a central arrangement by wall-flipping traversal.

    Starts from one generic seed chamber and crosses every facet of every
    discovered chamber; for a central arrangement the chamber adjacency graph
    is connected, so the traversal is exhaustive.
    """
    hyps: dict[Vec, None] = {}
    for f in functionals:
        f = vec(f)
        if all(c == 0 for c in f):
            raise ConeError("zero functional does not define a hyperplane")
        hyps[primitive_signed(f)] = None
    hyperplanes = tuple(sorted(hyps))
    if not hyperplanes:
        raise ConeError("an arrangement needs at least one hyperplane")

    seed = _generic_point(dim, hyperplanes)
    seed_signs = tuple(_sign(dot(h, seed)) for h in hyperplanes)

    def build(signs: tuple[int, ...]) -> Chamber:
        cone = Cone.from_inequalities(
            dim, [vec_scale(-s, h) for s, h in zip(signs, hyperplanes)]
        )
        return Chamber(signs, cone.relative_interior_point(), cone)

    first = build(seed_signs)
    visited: dict[tuple[int, ...], Chamber] = {seed_signs: first}
    frontier = [first]
    while frontier:
        nxt = []
        for ch in sorted(frontier, key=lambda c: c.signs):
            for g in ch.cone._facet_inequalities():
                pg = primitive_signed(g)
                i = hyperplanes.index(pg)
                flipped = tuple(
                    -s if j == i else s for j, s in enumerate(ch.signs)
                )
                if flipped not in visited:
                    nb = build(flipped)
                    visited[flipped] = nb
                    nxt.append(nb)
        frontier = nxt
    chambers = tuple(sorted(visited.values(), key=lambda c: c.signs))
    return ChamberSet(hyperplanes, chambers)


def _generic_point(dim: int, functionals: Sequence[Vec]) -> Vec:
    t = 1
    while True:
        p = tuple(Fraction(t) ** k for k in range(dim))
        if all(dot(h, p) != 0 for h in functionals):
            return p
        t += 1
        if t > dim * len(functionals) + 2:
            raise ConeError("failed to find a generic point")
