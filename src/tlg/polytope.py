"""Exact lattice polytope geometry in low dimensions.

Convex hulls are computed incrementally in integer arithmetic, in one pass
that yields the vertices and the facets together. Rational input points are
first scaled by their common denominator, so the hull only ever works over
Z: the fraction-free echelon of `intlinalg`, reduced by gcd, gives the
affine rank, the equations of the affine span and the facets of the
starting simplex; every later facet combines a plane the new point sees
with one it lies strictly inside, divided by a gcd, and a point is a
vertex when the facets through it meet in it alone.

Every polytope is stored as one H-form: the equations of its affine span
next to its facets. A lower-dimensional polytope is hulled through its
projection onto the pivot coordinates of the echelon, which is injective on
the span, and keeps the facets of that projection; each equation solves for
one of the other coordinates. Membership and lattice point enumeration read
the H-form alone, in every dimension. Polytopes may have integer or
rational vertex coordinates; only the normalized volume needs integer
vertices. The polar dual runs no hull: polarity turns the facets into its
vertices and the vertices into its facets. Each polytope keeps the vertex
indices on each facet, as its hull found them or transposed by polarity,
and the volume, the edges and the Minkowski facet polygons read them.

Facets are stored as pairs (n, h) with n a primitive integer inner normal,
meaning the halfspace <n, x> >= -h, and equations as triples (f, a, b)
meaning <a, x> = b. Heights and right-hand sides are integers for lattice
polytopes and rationals otherwise. Facets and vertices are kept sorted so
that identical polytopes always print identically.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import itemgetter, mul, sub
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from .intlinalg import (_IntEchelon, _denominator, det_bareiss,
                        kernel_lattice_chart)
from .laurent import Coeff, LaurentPoly, _norm

Point = Tuple[object, ...]  # entries are int or Fraction
Facet = Tuple[Tuple[int, ...], object]
Equation = Tuple[int, Tuple[int, ...], object]


class PolytopeError(Exception):
    """Base class for polytope failures."""


class EmptyPolytope(PolytopeError):
    """No points were supplied."""


class ZeroPolynomial(PolytopeError):
    """The zero polynomial has no Newton polytope."""


class NotFullDimensional(PolytopeError):
    """The operation needs a polytope of full ambient dimension."""


class OriginNotInterior(PolytopeError):
    """Dual and reflexivity require the origin strictly inside."""


class DimensionTooLarge(PolytopeError):
    """The equivalence search is limited to ambient dimension <= 4."""


class DimensionMismatch(PolytopeError):
    """Operands live in different ambient dimensions."""


class NotLatticePolytope(PolytopeError, ValueError):
    """The operation needs integer vertices."""


def _coordinate(x) -> Coeff:
    if type(x) is bool:  # an int to Fraction and isinstance, but no number
        raise TypeError(f"a coordinate must be a number, got {x!r}")
    return _norm(x if isinstance(x, Fraction) else Fraction(x))


def json_point(p, where: str) -> list:
    """The JSON point p as a list of int and Fraction coordinates: a
    coordinate is an integer or a rational string, and anything else, a
    float or a bool included, is a TypeError that names where."""
    if type(p) is not list or any(type(x) not in (int, str) for x in p):
        raise TypeError(f"{where}: coordinates must be integers or "
                        f"rational strings, got {p!r}")
    return [Fraction(x) if type(x) is str else x for x in p]


def _norm_point(p: Sequence) -> Point:
    return tuple(x if type(x) is int else _coordinate(x) for x in p)


def _dot(a: Sequence, b: Sequence):
    return sum(map(mul, a, b))


def _sub(a: Sequence, b: Sequence) -> Tuple:
    return tuple(x - y for x, y in zip(a, b))


def _affine_basis(pts: Sequence[Sequence[int]]) -> Tuple[List[int], _IntEchelon]:
    """Indices of pts[0] and of each later point that raised the affine rank,
    with the echelon of their differences from pts[0]."""
    base = pts[0]
    d = len(base)
    ech = _IntEchelon()
    simplex = [0]
    for i in range(1, len(pts)):
        if len(simplex) == d + 1:
            break
        if ech.add(_sub(pts[i], base)):
            simplex.append(i)
    return simplex, ech


def _oriented_plane(ech: _IntEchelon, base: Sequence[int], ref: Sequence[int]
                    ) -> Tuple[Tuple[int, ...], int]:
    """Primitive inner normal (n, h) of the hyperplane through base spanned
    by the rows of ech, with the centroid of the d+1 points summing to ref
    strictly on the inner side: <n, ref> + (d+1) h > 0."""
    n = ech.kernel_vector(len(base))
    h = -_dot(n, base)
    side = _dot(n, ref) + (len(base) + 1) * h
    if side < 0:
        return tuple(-x for x in n), -h
    if side == 0:
        raise ValueError("reference point lies on the hyperplane")
    return n, h


class _Facet:
    __slots__ = ("normal", "height", "incidents")

    def __init__(self, normal, height, incidents: Set[int]):
        self.normal = normal
        self.height = height
        self.incidents = incidents


def _full_hull(pts: List[Tuple[int, ...]], simplex: List[int]
               ) -> Tuple[List[Tuple[Facet, Set[int]]], Set[int]]:
    """Facets, each with the indices of the points on it, and vertex
    indices of integer points of full affine rank d >= 2.

    Incremental insertion from the starting simplex: each new point either
    lies inside the current hull (possibly on facet hyperplanes, which then
    absorb it) or sees a set of facets. Seen facets are replaced by facets
    spanned by each horizon ridge together with the new point.

    Incident sets are kept complete for every processed point, so the
    incidents common to a visible facet F and a surviving facet G are
    exactly the processed points of the face F ∩ G. That face is a ridge
    exactly when no third current facet's incidents contain the common set.
    A face of dimension k lies in at least d - k facets, so a face of
    dimension <= d - 3, or the empty face, lies in a third facet. A ridge
    lies in exactly two, and a facet holding the ridge's points holds their
    hull. So the incidence sets alone decide a ridge, with no elimination.
    The old hull meets a new facet exactly in its ridge, so the ridge's
    incidents plus the new point are the new facet's.

    The new plane comes from the pencil of the two facet planes, with no
    elimination either. Let v_F < 0 and v_G be the values of the new point
    p on F and G. Every hyperplane through the ridge F ∩ G is a
    combination of the planes (n_F, h_F) and (n_G, h_G), and the one
    through p is v_G (n_F, h_F) - v_F (n_G, h_G). Only survivors with
    v_G > 0 are paired: for v_G = 0 this is G's own plane, which holds p.
    For v_G > 0 it is no surviving plane, whose facet would be a third
    holder of the ridge, so every pencil is a new facet. Its normal is not
    zero (F and G are not parallel, as they share a ridge), and divided by
    its gcd it is primitive; the height stays an integer because the plane
    holds the integer point p. Both weights are > 0, so every point of the
    old hull keeps a value >= 0 and the normal already points inward.

    The reference point is the sum of the simplex vertices, (d+1) times
    their centroid, so it stays integral and strictly inside the starting
    simplex; it orients the simplex facets only.
    """
    d = len(pts[0])
    ref = tuple(sum(col) for col in zip(*[pts[i] for i in simplex]))
    facets: List[_Facet] = []
    for omit in simplex:
        subset = [i for i in simplex if i != omit]
        ech = _IntEchelon()
        for i in subset[1:]:
            ech.add(_sub(pts[i], pts[subset[0]]))
        n, h = _oriented_plane(ech, pts[subset[0]], ref)
        facets.append(_Facet(n, h, set(subset)))

    in_simplex = set(simplex)
    for i, p in enumerate(pts):
        if i in in_simplex:
            continue
        values = [sum(map(mul, f.normal, p)) + f.height for f in facets]
        visible = [(f, v) for f, v in zip(facets, values) if v < 0]
        for f, v in zip(facets, values):
            if v == 0:
                f.incidents.add(i)
        if not visible:
            continue
        leaning = [(f, v) for f, v in zip(facets, values) if v > 0]
        new_facets: Dict[Facet, Set[int]] = {}
        held = [f.incidents for f in facets]
        for F, vF in visible:
            for G, vG in leaning:
                common = F.incidents & G.incidents
                if len(common) < d - 1 or sum(
                        map(common.issubset, held)) > 2:
                    continue
                n = [vG * a - vF * b for a, b in zip(F.normal, G.normal)]
                g = math.gcd(*n)
                key = (tuple(x // g for x in n),
                       (vG * F.height - vF * G.height) // g)
                new_facets.setdefault(key, {i}).update(common)
        facets = [f for f, v in zip(facets, values) if v >= 0] + [
            _Facet(n, h, inc) for (n, h), inc in new_facets.items()]

    # the facets through a point meet in its smallest face, whose points
    # they all hold; a point is a vertex when that face is the point alone
    meet: Dict[int, Set[int]] = {}
    for f in facets:
        for i in f.incidents:
            if i in meet:
                meet[i] &= f.incidents
            else:
                meet[i] = set(f.incidents)
    vertices = {i for i, face in meet.items() if len(face) == 1}
    return [((f.normal, f.height), f.incidents) for f in facets], vertices


def _hull(pts: List[Tuple[int, ...]]
          ) -> Tuple[int, List[Equation], List[Facet], List[Set[int]], Set[int]]:
    """(affine dimension, span equations, facets, the indices of the
    points on each facet, vertex indices) of distinct integer points.

    The equations come from the kernel of the echelon of the differences
    from pts[0], one (f, a, b) meaning <a, x> = b per non-pivot column f:
    a is zero at every other non-pivot column, so the equation solves for
    x_f from the pivot coordinates. The projection onto the pivot
    coordinates is injective on the affine span, so a lower-dimensional
    set keeps the vertices and the facets of its projection, the normals
    padded with zeros at the non-pivot columns, which keeps their order and
    the points on each. Facets come sorted.
    """
    simplex, ech = _affine_basis(pts)
    rank, d = len(simplex) - 1, len(pts[0])
    if rank == d == 1:
        lo = min(range(len(pts)), key=lambda i: pts[i][0])
        hi = max(range(len(pts)), key=lambda i: pts[i][0])
        return (1, [], [((-1,), pts[hi][0]), ((1,), -pts[lo][0])],
                [{hi}, {lo}], {lo, hi})
    if rank == d > 1:
        held, vertices = _full_hull(pts, simplex)
        facets, incidences = zip(*sorted(held))
        return d, [], list(facets), list(incidences), vertices
    free = [j for j in range(d) if j not in ech.pivots]
    equations = [(f, tuple(a), _dot(a, pts[0]))
                 for f, a in zip(free, ech.kernel_basis(d))]
    if rank == 0:
        return 0, equations, [], [], {0}
    cols = sorted(ech.pivots)
    _, _, facets, incidences, vertices = _hull(
        [tuple(p[j] for j in cols) for p in pts])
    # n + (0,) holds a zero at index rank for the non-pivot columns
    pad = itemgetter(*(cols.index(j) if j in cols else rank for j in range(d)))
    return (rank, equations, [(pad(n + (0,)), h) for n, h in facets],
            incidences, vertices)


class Polytope:
    """Convex hull of a finite point set, exact and immutable."""

    __slots__ = ("ambient_dim", "dim", "vertices", "_equations", "_facets",
                 "_incidences")

    def __init__(self, points: Iterable[Sequence]):
        pts = sorted({_norm_point(p) for p in points})
        if not pts:
            raise EmptyPolytope("need at least one point")
        dims = {len(p) for p in pts}
        if len(dims) != 1:
            raise DimensionMismatch(f"mixed point lengths {sorted(dims)}")
        self.ambient_dim = dims.pop()
        den = _denominator(pts)
        ipts = pts if den == 1 else [tuple(int(x * den) for x in p) for p in pts]
        self.dim, equations, facets, incidences, vidx = _hull(ipts)
        order = sorted(vidx)
        self.vertices: Tuple[Point, ...] = tuple(pts[i] for i in order)
        index = dict(zip(order, itertools.count())).__getitem__
        # the vertex indices on each facet, in facet order
        self._incidences = tuple(frozenset(map(index, on & vidx))
                                 for on in incidences)
        if den != 1:
            # dividing every height by the same den > 0 keeps the order
            equations = [(f, a, _norm(Fraction(b, den))) for f, a, b in equations]
            facets = [(n, _norm(Fraction(h, den))) for n, h in facets]
        self._equations: Tuple[Equation, ...] = tuple(equations)
        self._facets: Tuple[Facet, ...] = tuple(facets)

    @classmethod
    def _full(cls, vertices: List[Point], facets: List[Facet],
              through: Sequence[Iterable[int]]) -> "Polytope":
        """The full-dimensional polytope with these vertices and facets,
        through[j] the indices of the facets through vertices[j], known to
        be right, with no hull: all are kept sorted, as __init__ keeps
        them, and the incidences are kept per facet."""
        p = cls.__new__(cls)
        p.ambient_dim = p.dim = len(vertices[0])
        order = sorted(range(len(vertices)), key=vertices.__getitem__)
        on: List[List[int]] = [[] for _ in facets]
        for k, j in enumerate(order):
            for i in through[j]:
                on[i].append(k)
        p.vertices = tuple(map(vertices.__getitem__, order))
        p._equations = ()
        p._facets, p._incidences = zip(*sorted(zip(facets, map(frozenset, on))))
        return p

    @property
    def facets(self) -> Tuple[Facet, ...]:
        if self._equations:
            raise NotFullDimensional(
                f"dim {self.dim} < ambient {self.ambient_dim}: no facet description")
        return self._facets

    def is_full_dimensional(self) -> bool:
        return not self._equations

    def is_lattice(self) -> bool:
        return all(isinstance(x, int) for v in self.vertices for x in v)

    def contains(self, point: Sequence) -> bool:
        p = _norm_point(point)
        if len(p) != self.ambient_dim:
            raise DimensionMismatch("point has wrong length")
        return (all(_dot(a, p) == b for _, a, b in self._equations)
                and all(_dot(n, p) + h >= 0 for n, h in self._facets))

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        def enc(x):
            return x if isinstance(x, int) else str(x)
        return {"dim": self.ambient_dim,
                "vertices": [[enc(x) for x in v] for v in self.vertices]}

    @classmethod
    def from_json_dict(cls, data) -> "Polytope":
        """{"dim": n, "vertices": points}, each point read by `json_point`."""
        p = cls(json_point(v, f"vertices[{i}]")
                for i, v in enumerate(data["vertices"]))
        if p.ambient_dim != data["dim"]:
            raise DimensionMismatch(
                f"declared dim {data['dim']} but points live in {p.ambient_dim}")
        return p

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polytope):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self.vertices == other.vertices)

    def __hash__(self):
        return hash((self.ambient_dim, self.vertices))

    def __repr__(self) -> str:
        return f"Polytope(dim {self.dim} in Z^{self.ambient_dim}, {len(self.vertices)} vertices)"


def newton_polytope(f: LaurentPoly) -> Polytope:
    """Convex hull of the exponents of f, built on first use and kept on f.

    For an f that carries factors, f = prod of L_i^m_i (`series.factored`
    checked them), Ostrowski's theorem gives Newton(f) = sum of
    m_i Newton(L_i), the hull of the sums of m_i e_i with each e_i an
    exponent of L_i, and that hull is built when there are fewer sums than
    exponents of f: 84 in place of 149 for the G(3,6) model G36-2111. The
    coefficients at its vertices never cancel: a vertex of a Minkowski sum
    is the sum of one vertex of each summand in one way only, so the
    coefficient of f there is a product of nonzero coefficients.
    """
    if f._newton is None:
        if f.is_zero():
            raise ZeroPolynomial("zero polynomial has no Newton polytope")
        points = f.exponents()
        if f.factors:
            sums = {(0,) * len(f.variables)}
            for L, m in f.factors:
                sums = {tuple(a + m * b for a, b in zip(s, e))
                        for s in sums for e in L.exponents()}
                # adding a summand never shrinks the set of sums
                if len(sums) >= len(f):
                    break
            else:
                points = sums
        f._newton = Polytope(points)
    return f._newton


def dual(p: Polytope) -> Polytope:
    """Polar dual {y : <y, x> >= -1 on p}; rational when p is not reflexive.

    Polarity swaps facets and vertices, so no hull is run. The facet
    <n, x> >= -h of p is the vertex n/h of the dual, and the vertex
    v = w/den of p, with den > 0 its least denominator, is the facet
    <w/g, y> >= -den/g, with g = gcd(w) making the normal primitive.
    Polarity keeps incidence: the dual's vertex of a facet of p lies on
    the dual's facets of the vertices of p on that facet.
    """
    if not p.is_full_dimensional():
        raise NotFullDimensional("dual needs a full-dimensional polytope")
    if any(h <= 0 for _, h in p.facets):
        raise OriginNotInterior("origin is not strictly inside")
    # only the point of Z^0 has no facets, and it is its own dual
    if not p.facets:
        return p
    facets = []
    for v in p.vertices:
        den = _denominator((v,))
        w = [int(x * den) for x in v]
        g = math.gcd(*w)
        facets.append((tuple(x // g for x in w), _norm(Fraction(den, g))))
    return Polytope._full(
        [_norm_point([Fraction(x) / h for x in n]) for n, h in p.facets],
        facets, p._incidences)


def is_reflexive(p: Polytope) -> bool:
    """True when every facet has lattice distance one from the origin."""
    if not p.is_full_dimensional():
        raise NotFullDimensional("reflexivity needs a full-dimensional polytope")
    heights = [h for _, h in p.facets]
    if any(h <= 0 for h in heights):
        raise OriginNotInterior("origin is not strictly inside")
    return all(h == 1 for h in heights)


def lattice_points(p: Polytope, region: str = "all") -> List[Tuple[int, ...]]:
    """Integer points of p, sorted: region is all, boundary or interior.

    Boundary and interior are taken relative to the affine span, so a
    segment has two boundary points no matter the ambient dimension. The
    walk runs over the box of the pivot coordinates, which are all the
    coordinates of a full-dimensional p, and solves every other coordinate
    from its span equation, dropping the points where it is no integer;
    so integer and rational vertices take the same path. The walk sets
    one pivot coordinate at a time, in a range the facets bound as
    `series._prune` bounds a row: given the coordinates already set, with
    the later ones anywhere in their box. The last one is bounded exactly,
    so every point reached lies in p.
    """
    if region not in ("all", "boundary", "interior"):
        raise ValueError(f"unknown region {region!r}")
    equations, facets = p._equations, p._facets
    free = {f for f, _, _ in equations}
    box = [(0,) if j in free
           else range(math.ceil(min(col)), math.floor(max(col)) + 1)
           for j, col in enumerate(zip(*p.vertices))]
    pivots = [j for j in range(len(box)) if j not in free]
    # reach[i][k]: the most facet k gains from the pivots after the i-th
    # over their box, so the facets bound each pivot given the ones before
    reach = [[sum(max(n[j] * box[j].start, n[j] * (box[j].stop - 1))
                  for j in pivots[i + 1:]) for n, _ in facets]
             for i in range(len(pivots))]
    x = [0] * len(box)
    out = []

    def walk(i: int, vals: List) -> None:
        """Every point with the pivots before the i-th as set in x; vals
        holds each facet's value with the later pivots at 0."""
        if i == len(pivots):
            y = list(x)
            for f, a, b in equations:
                # y_f is 0 here, and a is 0 at every other equation's column
                y[f], r = divmod(b - _dot(a, y), a[f])
                if r:
                    return
            if region == "all" or (region == "boundary") == (0 in vals):
                out.append(tuple(y))
            return
        j = pivots[i]
        lo, hi = box[j].start, box[j].stop - 1
        for (n, _), v, r in zip(facets, vals, reach[i]):
            # n_j * x_j + v + r >= 0
            if n[j] > 0:
                lo = max(lo, -((v + r) // n[j]))
            elif n[j] < 0:
                hi = min(hi, (v + r) // -n[j])
            elif v + r < 0:
                return
        for xj in range(lo, hi + 1):
            x[j] = xj
            walk(i + 1, [v + n[j] * xj for (n, _), v in zip(facets, vals)])

    walk(0, [h for _, h in facets])
    return sorted(out)


def normalized_volume(p: Polytope) -> int:
    """n! times the euclidean volume, an integer for lattice polytopes."""
    if not p.is_full_dimensional():
        raise NotFullDimensional("normalized volume needs full dimension")
    if not p.is_lattice():
        raise NotLatticePolytope("normalized volume requires integer vertices")
    return _nvol(p)


def _nvol(p: Polytope) -> int:
    """Normalized volume from the vertex-facet incidences p keeps.

    A face F is the set of its vertex indices; its facets are the maximal
    sets F ∩ G over the facets G of p not containing F. A facet of a
    k-face has at least k vertices, so the sets F ∩ G with fewer are
    dropped before the maximality test, which is quadratic in the sets
    left. Pulling F from its smallest vertex v cones v over the facets of
    F that miss v, each pulled in turn, down to faces of dimension k with
    k + 1 vertices. The cones triangulate p, and the volume is the sum of
    their |det| in ambient coordinates. A lattice simplex has |det| >= 1,
    so there are at most as many simplices as the volume.
    """
    verts, facets = p.vertices, p._incidences
    below: Dict[frozenset, List[frozenset]] = {}
    total = 0
    stack = [(frozenset(range(len(verts))), p.ambient_dim, ())]
    while stack:
        face, k, apexes = stack.pop()
        if len(face) == k + 1:
            v0, *rest = (verts[i] for i in apexes + tuple(face))
            total += abs(det_bareiss([_sub(v, v0) for v in rest]))
            continue
        if face not in below:
            meets = {e for e in (face & g for g in facets if not face <= g)
                     if len(e) >= k}
            below[face] = [e for e in meets if not any(e < m for m in meets)]
        apex = min(face)
        stack.extend((e, k - 1, apexes + (apex,))
                     for e in below[face] if apex not in e)
    return total


def lattice_chart(points_on_plane: Sequence[Point], normal: Sequence[int]
                  ) -> Tuple[Point, List[List[int]], List[Tuple[int, ...]]]:
    """Lattice-preserving coordinates on the hyperplane <normal, x> = c.

    Returns (base point, kernel lattice basis, projected points). The base
    point is the lexicographically smallest input point, and the basis and
    its integer coordinate rows come from the column steps of one Smith
    form of the normal (`kernel_lattice_chart`), so two calls with the
    same normal and point set give identical output. A point p projects to
    the dot products of the coordinate rows with p - base, which lifts
    back to base + sum(c_k * basis_k); the point must lie on the plane
    through base with integral p - base.
    """
    basis, coords = kernel_lattice_chart(normal)
    p0 = min(points_on_plane)
    out = []
    for p in points_on_plane:
        diff = tuple(map(sub, p, p0))
        c = [sum(map(mul, row, diff)) for row in coords]
        if _dot(normal, diff) != 0 or any(x.denominator != 1 for x in c):
            raise PolytopeError(
                f"point {p} is not a lattice point of the hyperplane through "
                f"{p0} with normal {tuple(normal)}")
        out.append(tuple(map(int, c)))
    return p0, basis, out


def edges(p: Polytope) -> List[Tuple[Point, Point]]:
    """Vertex pairs spanning the one-dimensional faces of a full-dimensional p.

    Two vertices are joined exactly when the smallest face holding both, the
    meet of the facets through them (p itself if there is none), has no
    other vertex.
    """
    if not p.is_full_dimensional():
        raise NotFullDimensional("edge enumeration needs full dimension")
    verts, facets = p.vertices, p._incidences
    every = frozenset(range(len(verts)))
    return [(verts[a], verts[b])
            for a, b in itertools.combinations(range(len(verts)), 2)
            if every.intersection(*(f for f in facets if a in f and b in f))
            == {a, b}]
