"""Exact rational polyhedral cones and hyperplane arrangement chambers.

Cones are stored closed, as {X : g(X) <= 0 for all g in inequalities}, with a
double description kept consistent: primitive integer extreme rays modulo the
lineality space, and the lineality space itself in canonical echelon form.
Strict membership is a separate predicate.

Inequalities and generators are half-spaces and rays, which a positive
rescaling does not change, so a cone stores them as primitive integer
vectors, and the double description and the facet tests run on those and
take no rank: they compare zero sets.  ``fraction_view`` is the Fraction form
that reports print.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import itemgetter, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .lie import inverse_perm
from .linalg import (
    Frozen,
    IntEchelon,
    Subspace,
    dot,
    integer_echelon,
    integer_rank,
    integer_reduce,
    mat_vec,
    primitive_ints,
    primitive_signed,
)

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]
# how a map of a moves chambers: the signs of the image of the chamber with
# the given signs
SignAction = Callable[[tuple[int, ...]], tuple[int, ...]]


class ConeError(ValueError):
    pass


def _dd(inequalities: Sequence[IntVec], dim: int) -> tuple[list[IntVec], IntEchelon]:
    """Double description of {x : g(x) <= 0}: extreme rays and lineality.

    Each ray carries its zero set, the bitmask of the processed inequalities
    that vanish on it.  Rays on either side of an inequality are combined
    only when adjacent, when no third ray vanishes wherever both do (Motzkin
    et al. 1953; Fukuda and Prodon 1996), so every ray kept is extreme.  The
    rays are primitive, reduced modulo the lineality and sorted; the
    lineality is returned as its integer echelon form.
    """
    lin: list[IntVec] = [tuple(int(j == i) for j in range(dim)) for i in range(dim)]
    echelon = integer_echelon(lin)
    rays: dict[IntVec, int] = {}  # ray -> zero set
    for k, g in enumerate(inequalities):
        bit = 1 << k
        g_lin = [dot(g, l) for l in lin]
        split = next((i for i, x in enumerate(g_lin) if x), None)
        if split is not None:
            l0, gl0 = lin[split], g_lin[split]
            if gl0 < 0:
                l0, gl0 = _neg(l0), -gl0
            # x -> gl0·x - g(x)·l0: a positive multiple of the projection of x
            # along l0 onto the hyperplane g = 0; processed inequalities vanish
            # on l0
            lin = [
                primitive_ints(_combine(gl0, l, -gl, l0))
                for i, (l, gl) in enumerate(zip(lin, g_lin))
                if i != split
            ]
            echelon = integer_echelon(lin)
            new = [(_combine(gl0, r, -dot(g, r), l0), z | bit) for r, z in rays.items()]
            new.append((_neg(l0), bit - 1))
        else:
            new, neg, pos = [], [], []
            for r, z in rays.items():
                gr = dot(g, r)
                if gr < 0:
                    neg.append((gr, r, z))
                    new.append((r, z))
                elif gr == 0:
                    new.append((r, z | bit))
                else:
                    pos.append((gr, r, z))
            for gp, rp, zp in pos:
                for gn, rn, zn in neg:
                    common = zp & zn
                    if sum(z & common == common for z in rays.values()) == 2:
                        new.append((_combine(gp, rn, -gn, rp), common | bit))
        rays = {primitive_ints(integer_reduce(r, echelon)): z for r, z in new}
    return sorted(rays), echelon


def _combine(a: int, x: IntVec, b: int, y: IntVec) -> IntVec:
    return tuple(a * xi + b * yi for xi, yi in zip(x, y))


def _neg(x: IntVec) -> IntVec:
    return tuple(-c for c in x)


def fraction_view(rows: Iterable[Sequence[int]]) -> tuple[tuple[Fraction, ...], ...]:
    """The rows as Fraction tuples, the form in which reports print cones."""
    return tuple(tuple(Fraction(c) for c in row) for row in rows)


def _int_rows(dim: int, rows: Iterable[Sequence]) -> list[IntVec]:
    out = [primitive_ints(r) for r in rows]
    if any(len(r) != dim for r in out):
        raise ConeError(f"expected vectors of length {dim}")
    return out


class Cone(Frozen):
    """Closed rational polyhedral cone with a double description."""

    ambient_dim: int
    inequalities: tuple[IntVec, ...]  # minimal, {x : g(x) <= 0}, primitive, sorted
    rays: tuple[IntVec, ...]  # primitive, reduced mod lineality, sorted
    lineality: Subspace

    def _key(self) -> tuple:
        # the rays and the lineality determine the inequalities
        return self.ambient_dim, self.rays, self.lineality

    def __repr__(self) -> str:
        # the Fraction view, which reports print in their check details
        return (
            f"Cone(ambient_dim={self.ambient_dim!r}, "
            f"inequalities={fraction_view(self.inequalities)!r}, "
            f"rays={fraction_view(self.rays)!r}, lineality={self.lineality!r})"
        )

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_inequalities(dim: int, gammas: Iterable[Sequence]) -> "Cone":
        gams = _int_rows(dim, gammas)
        rays, lin = _dd(gams, dim)
        ineqs = _minimal_inequalities(gams, rays, lin, dim)
        return Cone(dim, tuple(ineqs), tuple(rays), Subspace.from_echelon(dim, lin))

    @staticmethod
    def from_rays(dim: int, rays: Iterable[Sequence], lineality: Subspace | None = None) -> "Cone":
        gens = _int_rows(dim, rays)
        if lineality is not None:
            for l in _int_rows(dim, lineality.rows):
                gens.append(l)
                gens.append(_neg(l))
        # polar cone {g : g(r) <= 0 for all generators}, described by its rays
        polar_rays, polar_lin = _dd(gens, dim)
        ineqs = list(polar_rays)
        for _, l in polar_lin:
            ineqs.append(l)
            ineqs.append(_neg(l))
        return Cone.from_inequalities(dim, ineqs)

    # -- basic structure -------------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimension of the cone as a set."""
        return integer_rank(self.rays + self.lineality.rows)

    def contains(self, x: Sequence) -> bool:
        """Membership, read on the integer inequalities and the primitive
        integer vector of x: a positive rescaling of x keeps every sign."""
        (x,) = _int_rows(self.ambient_dim, [x])
        return all(dot(g, x) <= 0 for g in self.inequalities)

    def contains_cone(self, other: "Cone") -> bool:
        return all(self.contains(r) for r in other.rays) and all(
            dot(g, l) == 0 for g in self.inequalities for l in other.lineality.rows
        )

    # -- operations -------------------------------------------------------------

    def intersect(self, other: "Cone") -> "Cone":
        return Cone.from_inequalities(
            self.ambient_dim, self.inequalities + other.inequalities
        )

    def edge(self) -> Subspace:
        """The maximal subspace contained in the cone."""
        return self.lineality

    def faces(self) -> list["Cone"]:
        """All faces, via subsets of the minimal facet inequalities."""
        out: dict[Cone, None] = {}
        for mask in range(1 << len(self.facets)):
            extra = []
            for i, g in enumerate(self.facets):
                if (mask >> i) & 1:
                    extra.append(g)
                    extra.append(_neg(g))
            face = Cone.from_inequalities(self.ambient_dim, [*self.inequalities, *extra])
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
            Cone.from_inequalities(self.ambient_dim, [*self.inequalities, g, _neg(g)])
            for g in self.facets
        ]
        return sorted(walls, key=lambda c: c.rays)

    def span(self) -> Subspace:
        return Subspace.from_echelon(
            self.ambient_dim, integer_echelon(self.rays + self.lineality.rows)
        )

    def relative_interior_point(self) -> IntVec:
        """An integer point in the relative interior, deterministically."""
        t = _least_weight(_facet_values(self.facets, self.rays))
        return _weighted_sum(self.ambient_dim, self.rays, t)

    @cached_property
    def facets(self) -> list[IntVec]:
        """The facets: the stored inequalities but the +-pairs spanning the
        annihilator, which vanish on every ray."""
        return [g for g in self.inequalities if any(dot(g, r) for r in self.rays)]


def _facet_values(strict: Sequence[IntVec], rays: Sequence[IntVec]) -> list[list[int]]:
    """The values of each functional in ``strict`` on the rays."""
    return [[dot(g, r) for r in rays] for g in strict]


def _least_weight(vals: Sequence[Sequence[int]]) -> int:
    """The least t = 2, 3, ... at which sum_k t^k row[k] < 0 for every row of
    ``vals``, the values of some strict functionals on some rays
    (_facet_values).  By linearity the point sum_k t^k rays[k]
    (_weighted_sum) then makes every functional negative; the search reads
    the values alone and forms no point."""
    t = 1
    while True:
        t += 1
        for row in vals:
            acc = 0
            for v in reversed(row):
                acc = acc * t + v
            if acc >= 0:
                break
        else:
            return t
        if t > 4 * (len(vals[0]) + 1) * (len(vals) + 1):
            raise ConeError("no relative interior point found")


def _weighted_sum(dim: int, rays: Sequence[IntVec], t: int) -> IntVec:
    """sum_k t^k rays[k]; the zero vector when there are no rays."""
    if not rays:
        return (0,) * dim
    weights = [t**k for k in range(len(rays))]
    return tuple(sum(map(mul, weights, col)) for col in zip(*rays))


def _minimal_inequalities(
    gams: Sequence[IntVec], rays: list[IntVec], lin: IntEchelon, dim: int
) -> list[IntVec]:
    """Facet inequalities plus +-pairs spanning the annihilator of the cone.

    A facet is a maximal proper face: g is one when the set of rays on which
    it vanishes is not all of them and lies in no larger such set.
    """
    span = integer_echelon(rays + [row for _, row in lin])
    ineqs: dict[IntVec, None] = {}
    if len(span) < dim:
        for g in Subspace.from_echelon(dim, span).annihilator():
            ineqs[g] = None
            ineqs[_neg(g)] = None
    every_ray = (1 << len(rays)) - 1
    zero_sets = {g: sum(1 << i for i, r in enumerate(rays) if not dot(g, r)) for g in gams}
    proper = {z for z in zero_sets.values() if z != every_ray}
    for g, z in zero_sets.items():
        if z in proper and not any(y != z and y & z == z for y in proper):
            ineqs[g] = None
    return sorted(ineqs)


# ---------------------------------------------------------------------------
# Hyperplane arrangements
# ---------------------------------------------------------------------------


class Chamber(NamedTuple):
    """A chamber of an arrangement: its signs on the hyperplanes and a
    deterministic integer interior point."""

    signs: tuple[int, ...]
    representative: IntVec


class ChamberSet(Frozen):
    """The chambers of a central arrangement, sorted by sign vector, and the
    one reader of those signs: other modules select, group and move
    chambers through the methods below.  The hyperplanes h_j are primitive,
    with a positive leading entry, and sorted.  In the order-regular table
    (spherical.order_regular_chambers) h_j is, up to a positive factor,
    alpha_k - alpha_l for (k, l) = ends[j], indices of lie.roots(), and
    ``pairs`` maps every ordered pair (k, l) of distinct indices to (j, e)
    with alpha_k - alpha_l a positive multiple of e h_j.  Equality and
    hashing read the hyperplanes and chambers alone."""

    hyperplanes: tuple[IntVec, ...]
    chambers: tuple[Chamber, ...]
    ends: tuple[tuple[int, int], ...]
    pairs: dict[tuple[int, int], tuple[int, int]]

    def _key(self) -> tuple:
        return self.hyperplanes, self.chambers

    @property
    def count(self) -> int:
        return len(self.chambers)

    @cached_property
    def _by_signs(self) -> dict[tuple[int, ...], Chamber]:
        return {ch.signs: ch for ch in self.chambers}

    def sign_vector(self, x: Sequence) -> tuple[int, ...]:
        (x,) = _int_rows(len(self.hyperplanes[0]), [x])
        return tuple(_sign(dot(h, x)) for h in self.hyperplanes)

    def chamber_of(self, x: Sequence) -> Chamber:
        s = self.sign_vector(x)
        if 0 in s:
            raise ConeError("point lies on a hyperplane of the arrangement")
        ch = self._by_signs.get(s)
        if ch is None:
            raise ConeError("point is outside the enumerated chambers")
        return ch

    def sign_action(self, perm: Sequence[int]) -> SignAction:
        """How the element of W with this root permutation moves chambers."""
        return pair_sign_action(self.ends, self.pairs, perm)

    def cells(self, cut: Iterable[int]) -> tuple[tuple[IntVec, ...], tuple[int, ...]]:
        """The cells of chambers with the same signs on the hyperplanes at the
        indices ``cut``, numbered in table order: the representative of
        each cell's first chamber, and the cell of each chamber."""
        cut = tuple(cut)
        cell_of: dict[tuple[int, ...], int] = {}
        firsts, cells = [], []
        for ch in self.chambers:
            cell = cell_of.setdefault(tuple(ch.signs[j] for j in cut), len(firsts))
            if cell == len(firsts):
                firsts.append(ch.representative)
            cells.append(cell)
        return tuple(firsts), tuple(cells)

    def with_signs(self, fixed: Sequence[tuple[int, int]]) -> list[tuple[int, ...]]:
        """The sign vectors of the chambers with sign s on h_j for every
        (j, s) in ``fixed``."""
        return [ch.signs for ch in self.chambers if all(ch.signs[j] == s for j, s in fixed)]

    def shared_signs(self, chambers: Iterable[Chamber]) -> list[tuple[int, int]]:
        """(j, s) for every h_j on which the given chambers all have sign s."""
        columns = zip(*(ch.signs for ch in chambers))
        return [(j, col[0]) for j, col in enumerate(columns) if len(set(col)) == 1]

    def side(self, g: Sequence[int]) -> tuple[int, int] | None:
        """(j, s) with h_j the hyperplane of the integer functional g and s
        the sign on h_j of the chambers where g < 0 (g is a multiple of h_j
        of the sign of its leading entry); None when h_j is not in the table."""
        h = primitive_signed(g)
        if h not in self.hyperplanes:
            return None
        return self.hyperplanes.index(h), -_sign(next(filter(None, g)))

    def rows(self) -> Iterator[tuple[list[int], IntVec]]:
        """Each chamber's sign list and representative, as a report prints."""
        return ((list(ch.signs), ch.representative) for ch in self.chambers)


def pair_sign_action(ends, pairs, perm: Sequence[int]) -> SignAction:
    """How the element w of W with this root permutation moves the sign
    vectors of a table with these ends and pairs (ChamberSet): the signs of
    w(C) for the chamber C with the given signs.

    A root alpha composed with w is w^-1 alpha, so h_j o w is a positive
    multiple of w^-1 alpha_k - w^-1 alpha_l for (k, l) = ends[j], that is of
    eps_j h_pi(j) for (pi(j), eps_j) the pairs entry of the image pair, and
    w(C) has the signs eps_j signs[pi(j)].  Read by table lookups and applied
    at C level; with one hyperplane (rank 1) itemgetter would return a scalar.
    """
    inv = inverse_perm(perm)
    moved = [pairs[inv[k], inv[l]] for k, l in ends]
    pi = [j for j, _ in moved]
    eps = tuple(e for _, e in moved)
    get = itemgetter(*pi) if len(pi) > 1 else lambda signs: (signs[pi[0]],)
    return lambda signs: tuple(map(mul, eps, get(signs)))


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def traverse_chambers(
    dim: int, hyperplanes: Sequence[IntVec], fixed: Iterable[int]
) -> dict[tuple[int, ...], Cone]:
    """The cones of the chambers reachable from the seed chamber without
    crossing the hyperplanes at the ``fixed`` indices, keyed by sign vector
    in sorted order.  The hyperplanes are those of a ChamberSet.

    With nothing fixed these are all chambers of the arrangement.  Otherwise
    they are the chambers inside the region of the fixed hyperplanes that
    holds the seed: the region is convex, so its chambers are connected
    through the walls that are not fixed.
    """
    seed = _generic_point(dim, hyperplanes)
    seed_signs = tuple(_sign(dot(h, seed)) for h in hyperplanes)
    index = {h: i for i, h in enumerate(hyperplanes)}
    fixed = set(fixed)

    def build(signs: tuple[int, ...]) -> Cone:
        return Cone.from_inequalities(
            dim, [tuple(-s * c for c in h) for s, h in zip(signs, hyperplanes)]
        )

    visited = {seed_signs: build(seed_signs)}
    frontier = [seed_signs]
    while frontier:
        nxt = []
        for signs in sorted(frontier):
            for g in visited[signs].facets:
                i = index.get(g)
                if i is None:
                    i = index[_neg(g)]
                if i in fixed:
                    continue
                flipped = tuple(-s if j == i else s for j, s in enumerate(signs))
                if flipped not in visited:
                    visited[flipped] = build(flipped)
                    nxt.append(flipped)
        frontier = nxt
    return dict(sorted(visited.items()))


def orbit_chambers(
    cones: dict[tuple[int, ...], Cone],
    moves: Iterable[tuple[SignAction, IntMat, IntMat]],
) -> tuple[Chamber, ...]:
    """The images of the chambers with the given cones (traverse_chambers)
    under the moves, sorted by sign vector.

    Each move is a map m of a given as its action on sign vectors, its
    integer matrix and the integer matrix of m^-1, so nothing is inverted
    here.  The chambers of a central arrangement share their lineality, the
    common kernel of its hyperplanes.  The representative of an image
    chamber is the relative_interior_point of the image cone, read without
    building it: the sorted primitive images of the chamber's rays, reduced
    modulo the image lineality, summed with the weights t^k.  Each distinct
    ray of the base chambers is moved once per map, and pulled back through
    m^-1; t is the least weight at which the pulled-back sum is strictly
    inside the base chamber (_least_weight on the facet values), and it is
    kept per base chamber and tuple of pulled-back rays.
    """
    lin = next(iter(cones.values())).lineality.rows if cones else ()
    ray_ids: dict[IntVec, int] = {}
    members = [
        tuple(ray_ids.setdefault(r, len(ray_ids)) for r in cone.rays) for cone in cones.values()
    ]
    base = list(zip(cones, members, (cone.facets for cone in cones.values())))
    weights: dict[tuple, int] = {}
    out = []
    for act, fwd, back in moves:
        lin_echelon = integer_echelon(mat_vec(fwd, l) for l in lin)
        images = [primitive_ints(integer_reduce(mat_vec(fwd, r), lin_echelon)) for r in ray_ids]
        pulled = [mat_vec(back, x) for x in images]
        for i, (signs, ids, facets) in enumerate(base):
            ids = sorted(ids, key=images.__getitem__)
            key = (i, *(pulled[k] for k in ids))
            t = weights.get(key)
            if t is None:
                t = weights[key] = _least_weight(_facet_values(facets, key[1:]))
            out.append(Chamber(act(signs), _weighted_sum(len(fwd), [images[k] for k in ids], t)))
    return tuple(sorted(out, key=lambda c: c.signs))


def _generic_point(dim: int, functionals: Sequence[IntVec]) -> IntVec:
    t = 1
    while True:
        p = tuple(t**k for k in range(dim))
        if all(dot(h, p) != 0 for h in functionals):
            return p
        t += 1
        if t > dim * len(functionals) + 2:
            raise ConeError("failed to find a generic point")
