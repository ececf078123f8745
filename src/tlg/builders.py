"""Builders of Laurent superpotential models on lattice polytopes.

Two families live here: binomial coefficient placement on reflexive
polytopes, and Minkowski-type polynomials with their per-facet
certificates, which `catalog verify` checks on every entry flagged
Minkowski. The weighted complete intersection models are in `tlg.wci`
and the del Pezzo chains in `tlg.delpezzo`, so a process that runs only
`catalog verify` compiles neither.

Every polygon edge walk reads `polytope.polygon_edges`, the edges of the
already hulled polygon, and every edge rule that puts 1 at the ends and
C(n, k) at the k-th lattice point is `_edge_binomials`. Products of edge
and facet polynomials are `LaurentPoly` products.

A Minkowski certificate, searched or supplied, is checked on edge steps by
`_check_facet_decomposition`: the summands' edge lengths per primitive
step and their first vertices must add up to the facet's, with no hull of
the Minkowski sum, and their lattice is read from the steps of segments
alone, with no Smith form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, gcd, prod
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .laurent import LaurentPoly
from .polytope import (Polytope, PolytopeError, _sub, edges, is_reflexive,
                       lattice_chart, lattice_points, newton_polytope,
                       polygon_edges)


class InteriorFacetPoint(ValueError):
    """A facet carries a lattice point away from every edge."""


class BadCertificate(ValueError):
    """A Minkowski certificate does not match the polytope it claims to cover."""


# ---------------------------------------------------------------------------
# binomial coefficients on a reflexive polytope


def _default_names(d: int) -> Tuple[str, ...]:
    if d <= 3:
        return ("x", "y", "z")[:d]
    return tuple(f"x{i}" for i in range(1, d + 1))


def _edge_binomials(pairs) -> Dict[Tuple[int, ...], int]:
    """1 at both ends and C(n, k) at the k-th lattice point of each lattice
    segment (v, w) of lattice length n."""
    terms: Dict[Tuple[int, ...], int] = {}
    for v, w in pairs:
        dv = tuple(b - a for a, b in zip(v, w))
        n = gcd(*dv)
        for k in range(n + 1):
            terms[tuple(a + k * x // n for a, x in zip(v, dv))] = comb(n, k)
    return terms


def binomial_principle(p: Polytope) -> LaurentPoly:
    """Vertex coefficients 1, edge coefficients C(n, i), nothing else.

    The polytope must be reflexive with every non-origin lattice point on
    an edge; an edge of lattice length n carries C(n, i) at its i-th point.
    """
    if not is_reflexive(p):
        raise ValueError("binomial coefficient placement needs a reflexive polytope")
    terms = _edge_binomials(edges(p))
    for pt in lattice_points(p):
        if any(pt) and pt not in terms:
            raise InteriorFacetPoint(f"lattice point {pt} lies on no edge")
    return LaurentPoly(_default_names(p.ambient_dim), terms)


# ---------------------------------------------------------------------------
# Minkowski polynomials


def _cross(u: Sequence[int], v: Sequence[int]) -> int:
    return u[0] * v[1] - u[1] * v[0]


def is_An_polygon(q: Polytope) -> Optional[int]:
    """n when q is an A-type polygon: a unit segment gives 0, a plane
    triangle of height one over an edge of length n gives n, anything else
    None.

    Height one means edge lengths (1, 1, n) and twice the area n; a taller
    triangle with those edge lengths has interior lattice points.
    """
    if not q.is_lattice():
        return None
    if q.dim == 1:
        return 0 if gcd(*_sub(q.vertices[-1], q.vertices[0])) == 1 else None
    if q.ambient_dim != 2 or q.dim != 2 or len(q.vertices) != 3:
        return None
    a, b, c = q.vertices
    sides = (_sub(b, a), _sub(c, a), _sub(c, b))
    lens = sorted(gcd(*d) for d in sides)
    if lens[:2] == [1, 1] and abs(_cross(*sides[:2])) == lens[2]:
        return lens[2]
    return None


def a_type_polynomial(q: Polytope, variables: Sequence[str] = ("x", "y")
                      ) -> LaurentPoly:
    """Binomial placement on a single A-type polygon: 1 at the apex and
    the endpoints, C(n, k) along the long edge."""
    if is_An_polygon(q) is None:
        raise BadCertificate(f"summand {q!r} is not an A-type polygon")
    return LaurentPoly(tuple(variables),
                       _edge_binomials(itertools.combinations(q.vertices, 2)))


@dataclass(frozen=True)
class FacetDecomposition:
    """A-type summands of one facet, written in that facet's chart."""

    normal: Tuple[int, ...]
    summands: Tuple[Polytope, ...]


@dataclass(frozen=True)
class MinkowskiCertificate:
    """Per-facet admissible decompositions witnessing Minkowski type."""

    facets: Tuple[FacetDecomposition, ...]

    def to_json_dict(self) -> dict:
        return {"facets": [{"normal": list(fd.normal),
                            "summands": [s.to_json_dict() for s in fd.summands]}
                           for fd in self.facets]}

    @classmethod
    def from_json_dict(cls, data) -> "MinkowskiCertificate":
        """The certificate of to_json_dict; a missing key, a normal that is
        not a list of integers or a summand that is no polytope of its
        declared dimension, such as one with a bad coordinate, is a
        BadCertificate naming the facet and summand at fault."""
        def field(obj, key, where):
            if not isinstance(obj, dict) or key not in obj:
                raise BadCertificate(f"{where}missing key {key!r}")
            return obj[key]

        facets = []
        for i, fd in enumerate(field(data, "facets", "")):
            normal = field(fd, "normal", f"facet {i}: ")
            if type(normal) is not list or \
                    any(type(x) is not int for x in normal):
                raise BadCertificate(
                    f"facet {i}: normal must be a list of integers, "
                    f"got {normal!r}")
            summands = []
            for j, s in enumerate(field(fd, "summands", f"facet {i}: ")):
                where = f"facet {i}, summand {j}: "
                for key in ("vertices", "dim"):
                    field(s, key, where)
                try:
                    summands.append(Polytope.from_json_dict(s))
                except (PolytopeError, TypeError, ValueError,
                        ZeroDivisionError) as exc:
                    raise BadCertificate(f"{where}{exc}") from exc
            facets.append(FacetDecomposition(tuple(normal), tuple(summands)))
        return cls(tuple(facets))


def _facet_chart_points(points: Sequence[Tuple[int, ...]], normal, height):
    """The points on the facet <normal, x> = -height, its chart base and
    basis, and the points in that chart."""
    pts = [q for q in points
           if sum(a * b for a, b in zip(normal, q)) + height == 0]
    base, basis, proj = lattice_chart(pts, normal)
    return pts, base, basis, proj


def _check_facet_decomposition(facet_budget: Dict[Tuple[int, int], int],
                               facet_first: Tuple[int, ...],
                               summands: Sequence[Polytope]) -> None:
    """Raise BadCertificate unless the summands, lattice segments and
    polygons in Z^2, sum admissibly to the facet, the lattice polygon with
    edge length facet_budget[step] per primitive step and first vertex
    facet_first.

    A convex polygon is fixed by its first vertex and its edge length per
    primitive step, and a Minkowski sum adds both up: a segment has an edge
    each way along its step. The lattice points of a lattice polygon
    generate Z^2, so the summands' lattice falls short of the facet's only
    when all are segments and their primitive steps do not span Z^2, that
    is when the gcd of their pairwise crosses is not 1.
    """
    budget: Dict[Tuple[int, int], int] = {}
    steps: List[Tuple[int, int]] = []
    for s in summands:
        if s.ambient_dim != 2 or s.dim == 0 or not s.is_lattice():
            raise BadCertificate(f"summand {s!r} is not an A-type polygon")
        if s.dim == 2:
            edges_of_s = [(step, n) for _, step, n in polygon_edges(s)]
        else:
            diff = _sub(s.vertices[1], s.vertices[0])
            n = gcd(*diff)
            step = (diff[0] // n, diff[1] // n)
            steps.append(step)
            edges_of_s = [(step, n), ((-step[0], -step[1]), n)]
        for step, n in edges_of_s:
            budget[step] = budget.get(step, 0) + n
    first = tuple(map(sum, zip(*(s.vertices[0] for s in summands))))
    if budget != facet_budget or first != facet_first:
        raise BadCertificate("summands do not add up to the facet")
    if len(steps) == len(summands) and gcd(
            *(_cross(u, v) for u, v in itertools.combinations(steps, 2))) != 1:
        raise BadCertificate("summand lattices do not generate the facet lattice")


def _facet_product(summands: Sequence[Polytope]) -> LaurentPoly:
    return prod(map(a_type_polynomial, summands),
                start=LaurentPoly.constant(1, ("x", "y")))


def minkowski_polynomial(p: Polytope, cert: MinkowskiCertificate) -> LaurentPoly:
    """Assemble the Laurent polynomial whose facet restrictions are the
    certified products of A-type binomial polynomials."""
    if p.ambient_dim != 3 or not is_reflexive(p):
        raise ValueError("Minkowski polynomials live on reflexive 3-polytopes")
    by_normal = {fd.normal: fd.summands for fd in cert.facets}
    if len(by_normal) != len(cert.facets) or \
            set(by_normal) != {n for n, _ in p.facets}:
        raise BadCertificate("certificate facets do not match the polytope")
    names = _default_names(3)
    terms: Dict[Tuple[int, ...], int] = {}
    points = lattice_points(p)
    for normal, height in p.facets:
        summands = by_normal[normal]
        pts, base, basis, proj = _facet_chart_points(points, normal, height)
        facet = Polytope(proj)
        budget = {step: n for _, step, n in polygon_edges(facet)}
        _check_facet_decomposition(budget, facet.vertices[0], summands)
        for e, c in _facet_product(summands).terms():
            ambient = tuple(base[j] + sum(ck * basis[k][j] for k, ck in enumerate(e))
                            for j in range(3))
            if terms.setdefault(ambient, c) != c:
                raise BadCertificate(
                    f"facets disagree on the coefficient at {ambient}")
    return LaurentPoly(names, terms)


def _candidate_summands(budget: Dict[Tuple[int, int], int]
                        ) -> List[Tuple[Polytope, Dict[Tuple[int, int], int]]]:
    """A-type polygons whose edges fit the direction budget, with their
    per-direction consumption."""
    cands: List[Tuple[Polytope, Dict[Tuple[int, int], int]]] = []
    seen: Set[Tuple] = set()
    for b in budget:
        for n in range(1, budget[b] + 1):
            for d2 in budget:
                d3 = (-n * b[0] - d2[0], -n * b[1] - d2[1])
                if d3 not in budget:
                    continue
                if _cross(b, d2) != 1:
                    continue
                tri = Polytope([(0, 0), (n * b[0], n * b[1]),
                                (n * b[0] + d2[0], n * b[1] + d2[1])])
                v0 = tri.vertices[0]
                key = tuple(tuple(a - b0 for a, b0 in zip(v, v0))
                            for v in tri.vertices)
                if key in seen:
                    continue
                seen.add(key)
                cons = {b: n}
                cons[d2] = cons.get(d2, 0) + 1
                cons[d3] = cons.get(d3, 0) + 1
                cands.append((tri, cons))
    for d in budget:
        nd = (-d[0], -d[1])
        if d < nd or nd not in budget:
            continue
        seg = Polytope([(0, 0), d])
        cands.append((seg, {d: 1, nd: 1}))
    return cands


def _decompose_facet(proj: Sequence[Tuple[int, int]], target: LaurentPoly,
                     max_summands: int) -> Optional[Tuple[Polytope, ...]]:
    facet = Polytope(proj)
    budget = {step: n for _, step, n in polygon_edges(facet)}
    cands = _candidate_summands(budget)

    def verify(chosen: List[Polytope]) -> Optional[Tuple[Polytope, ...]]:
        # the lexicographically first vertex of a Minkowski sum is the sum
        # of the summands' first vertices; the shift lines it up with the
        # facet's
        lows = [sum(col) for col in zip(*(s.vertices[0] for s in chosen))]
        shift = tuple(a - b for a, b in zip(facet.vertices[0], lows))
        first = Polytope([tuple(a + s for a, s in zip(v, shift))
                          for v in chosen[0].vertices])
        summands = (first,) + tuple(chosen[1:])
        try:
            _check_facet_decomposition(budget, facet.vertices[0], summands)
        except BadCertificate:
            return None
        if _facet_product(summands) != target:
            return None
        return summands

    def rec(start: int, remaining: Dict[Tuple[int, int], int],
            chosen: List[Polytope]) -> Optional[Tuple[Polytope, ...]]:
        if all(v == 0 for v in remaining.values()):
            if chosen:
                return verify(chosen)
            return None
        if len(chosen) == max_summands:
            return None
        for idx in range(start, len(cands)):
            shape, cons = cands[idx]
            if any(remaining.get(d, 0) < c for d, c in cons.items()):
                continue
            nxt = dict(remaining)
            for d, c in cons.items():
                nxt[d] -= c
            chosen.append(shape)
            got = rec(idx, nxt, chosen)
            chosen.pop()
            if got is not None:
                return got
        return None

    return rec(0, dict(budget), [])


def check_minkowski(f: LaurentPoly,
                    max_summands: int = 4) -> Optional[MinkowskiCertificate]:
    """Search per-facet admissible A-type decompositions matching f.

    None means no certificate was found within the bounded search (at most
    max_summands per facet); it is not a proof that none exists. A bound
    below 1 is a ValueError.
    """
    if max_summands < 1:
        raise ValueError(f"max_summands must be at least 1, got {max_summands}")
    p = newton_polytope(f)
    if p.ambient_dim != 3 or not is_reflexive(p):
        raise ValueError("Minkowski check needs a reflexive Newton 3-polytope")
    found: List[FacetDecomposition] = []
    points = lattice_points(p)
    for normal, height in p.facets:
        pts, base, basis, proj = _facet_chart_points(points, normal, height)
        target = LaurentPoly(("x", "y"), {q: f.coefficient(c)
                                          for q, c in zip(proj, pts)})
        dec = _decompose_facet(proj, target, max_summands)
        if dec is None:
            return None
        found.append(FacetDecomposition(normal, dec))
    return MinkowskiCertificate(tuple(found))
