"""The Minkowski certificate search that `catalog verify` runs.

An entry flagged Minkowski is checked by `check_minkowski`, which
searches each facet of the Newton 3-polytope for a decomposition into
A-type summands, unit segments and triangles of height one over an edge,
whose binomial polynomials multiply out to the facet's terms. A
certificate supplied from outside, its JSON reader and the polynomial it
builds are in `tlg.minkowski`, with binomial placement on reflexive
polytopes, the weighted complete intersection models in `tlg.wci` and
the del Pezzo chains in `tlg.delpezzo`, so a process that runs only
`catalog verify` compiles none of them.

Every facet polygon's edges are read off the Newton polytope's ridges,
in the order of `delpezzo.polygon_edges`, and every edge rule that puts 1
at the ends and C(n, k) at the k-th lattice point is `_edge_binomials`.
Products of edge and facet polynomials are `LaurentPoly` products.

Neither the certificate search nor its check builds a hull or walks
lattice points: each facet polygon is read off the Newton polytope's
hull and charted by its normal's kernel lattice, in int
(`_facet_polygons`), and an A-type summand is its lattice data, its
sorted vertices and its edges as (primitive step, lattice length)
counterclockwise from the first vertex, written out per candidate once
per facet or read off a supplied summand's vertices
(`minkowski._a_type_edges`). `_check_facet_decomposition` checks a
certificate on edge steps: the summands' edge lengths per primitive step
and first vertices add up to the facet's, and their lattice is read from
the steps of segments alone.
"""

from __future__ import annotations

import itertools
from math import comb, gcd, prod
from operator import mul, sub
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .intlinalg import kernel_lattice_chart
from .laurent import LaurentPoly
from .polytope import Polytope, _dot, _sub, is_reflexive, newton_polytope


class BadCertificate(ValueError):
    """A Minkowski certificate does not match the polytope it claims to cover."""


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


def _cross(u: Sequence[int], v: Sequence[int]) -> int:
    return u[0] * v[1] - u[1] * v[0]


Summand = Tuple[Tuple[int, int], ...]
Edges = Tuple[Tuple[Tuple[int, int], int], ...]


def _a_type_terms(s: Summand) -> Dict[Tuple[int, ...], int]:
    return _edge_binomials(itertools.combinations(s, 2))


class FacetDecomposition(NamedTuple):
    """A-type summands of one facet, written in that facet's chart.

    Each summand is the sorted vertex tuple of a unit segment or an A-type
    triangle in Z^2, with no `Polytope` built for it.
    """

    normal: Tuple[int, ...]
    summands: Tuple[Summand, ...]


class MinkowskiCertificate(NamedTuple):
    """Per-facet admissible decompositions witnessing Minkowski type."""

    facets: Tuple[FacetDecomposition, ...]

    def to_json_dict(self) -> dict:
        return {"facets": [{"normal": list(fd.normal),
                            "summands": [{"dim": 2,
                                          "vertices": [list(v) for v in s]}
                                         for s in fd.summands]}
                           for fd in self.facets]}


def _check_facet_decomposition(facet_budget: Dict[Tuple[int, int], int],
                               facet_first: Tuple[int, ...],
                               summands: Sequence[Tuple[Tuple[int, int], Edges]]
                               ) -> None:
    """Raise BadCertificate unless the summands, lattice segments and
    polygons in Z^2 given as (first vertex, edges), sum admissibly to the
    facet, the lattice polygon with edge length facet_budget[step] per
    primitive step and first vertex facet_first.

    A convex polygon is fixed by its first vertex and its edge length per
    primitive step, and a Minkowski sum adds both up: a segment has an edge
    each way along its step. The lattice points of a lattice polygon
    generate Z^2, so the summands' lattice falls short of the facet's only
    when all are segments and their primitive steps do not span Z^2, that
    is when the gcd of their pairwise crosses is not 1.
    """
    budget: Dict[Tuple[int, int], int] = {}
    for _, edges_of_s in summands:
        for step, n in edges_of_s:
            budget[step] = budget.get(step, 0) + n
    first = tuple(map(sum, zip(*(v for v, _ in summands))))
    if budget != facet_budget or first != facet_first:
        raise BadCertificate("summands do not add up to the facet")
    steps = [e[0][0] for _, e in summands if len(e) == 2]
    if len(steps) == len(summands) and gcd(
            *(_cross(u, v) for u, v in itertools.combinations(steps, 2))) != 1:
        raise BadCertificate("summand lattices do not generate the facet lattice")


def _facet_polygons(p: Polytope, points: Sequence[Tuple[int, ...]]):
    """Per facet of the lattice 3-polytope p: its normal, the chart base
    and basis, the chart coordinates of the points on it by point, and the
    facet polygon's first vertex and edge length per primitive step in the
    order of `delpezzo.polygon_edges`, read off the ridges of p.

    points are integer points holding p's vertices, so the chart base, the
    smallest point on the facet, is a vertex; the basis spans the normal's
    kernel lattice, and q - base has the products of the chart's integer
    rows with it as coordinates. A facet m sharing exactly two vertices
    with it is the side with chart inner normal u = (<m, b1>, <m, b2>)
    over its gcd and step (u2, -u1), from the end with the smaller
    <step, .> to the other. The sides are walked from the smallest chart
    vertex.
    """
    verts = p.vertices
    for (normal, height), on in zip(p.facets, p._incidences):
        pts = [q for q in points if _dot(normal, q) + height == 0]
        basis, rows = kernel_lattice_chart(normal)
        base = min(pts)
        chart = {q: tuple(sum(map(mul, row, map(sub, q, base)))
                          for row in rows) for q in pts}
        b1, b2 = basis
        after = {}
        for (m, _), other in zip(p.facets, p._incidences):
            ridge = on & other
            if len(ridge) == 2:
                u1, u2 = _dot(m, b1), _dot(m, b2)
                g = gcd(u1, u2)
                step = (u2 // g, -u1 // g)
                start, end = (chart[verts[i]] for i in ridge)
                d1, d2 = end[0] - start[0], end[1] - start[1]
                if step[0] * d1 + step[1] * d2 < 0:
                    start, end = end, start
                after[start] = step, gcd(d1, d2), end
        first = v = min(chart[verts[i]] for i in on)
        budget = {}
        for _ in after:
            step, budget[step], v = after[v]
        yield normal, base, basis, chart, first, budget


def _candidate_summands(budget: Dict[Tuple[int, int], int]
                        ) -> List[Tuple[Summand, Edges, LaurentPoly]]:
    """A-type polygons whose edges fit the direction budget, as (sorted
    vertices, edges counterclockwise from the first vertex, polynomial);
    an edge's length is the candidate's consumption of its step.

    A triangle is the edge (b, n) from the origin, then the steps d2 and
    d3 = -(n b + d2), counterclockwise since cross(b, d2) = 1; one is kept
    per translation class. A segment along d is (d, 1) and (-d, 1).
    """
    names = ("x", "y")
    cands = []
    seen: Set[Summand] = set()
    for b in budget:
        for n in range(1, budget[b] + 1):
            for d2 in budget:
                d3 = (-n * b[0] - d2[0], -n * b[1] - d2[1])
                if d3 not in budget or _cross(b, d2) != 1:
                    continue
                corners = ((0, 0), (n * b[0], n * b[1]),
                           (n * b[0] + d2[0], n * b[1] + d2[1]))
                verts = tuple(sorted(corners))
                key = tuple(_sub(v, verts[0]) for v in verts)
                if key in seen:
                    continue
                seen.add(key)
                sides = ((b, n), (d2, 1), (d3, 1))
                i = corners.index(verts[0])
                cands.append((verts, sides[i:] + sides[:i],
                              LaurentPoly(names, _a_type_terms(verts))))
    for d in budget:
        nd = (-d[0], -d[1])
        if d < nd or nd not in budget:
            continue
        seg = ((0, 0), d)
        cands.append((seg, ((d, 1), (nd, 1)),
                      LaurentPoly(names, _a_type_terms(seg))))
    return cands


def _decompose_facet(facet_first: Tuple[int, int],
                     budget: Dict[Tuple[int, int], int], target: LaurentPoly,
                     max_summands: int) -> Optional[Tuple[Summand, ...]]:
    cands = _candidate_summands(budget)

    def verify(chosen) -> Optional[Tuple[Summand, ...]]:
        # the lexicographically first vertex of a Minkowski sum is the sum
        # of the summands' first vertices; the shift lines it up with the
        # facet's
        lows = [sum(col) for col in zip(*(vs[0] for vs, _, _ in chosen))]
        sx, sy = (a - b for a, b in zip(facet_first, lows))
        first = tuple((x + sx, y + sy) for x, y in chosen[0][0])
        edged = [(first[0], chosen[0][1])] + [(vs[0], e)
                                              for vs, e, _ in chosen[1:]]
        try:
            _check_facet_decomposition(budget, facet_first, edged)
        except BadCertificate:
            return None
        product = prod((poly for _, _, poly in chosen),
                       start=LaurentPoly.monomial(("x", "y"), (sx, sy)))
        if product != target:
            return None
        return (first,) + tuple(vs for vs, _, _ in chosen[1:])

    def rec(start: int, remaining: Dict[Tuple[int, int], int],
            chosen: list) -> Optional[Tuple[Summand, ...]]:
        if all(v == 0 for v in remaining.values()):
            if chosen:
                return verify(chosen)
            return None
        if len(chosen) == max_summands:
            return None
        for idx in range(start, len(cands)):
            cand = cands[idx]
            # a candidate consumes the length of each of its edges
            if any(remaining[d] < n for d, n in cand[1]):
                continue
            nxt = dict(remaining)
            for d, n in cand[1]:
                nxt[d] -= n
            chosen.append(cand)
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
    that is no int, or below 1, is a ValueError.
    """
    if type(max_summands) is not int or max_summands < 1:
        raise ValueError(f"max_summands must be an int >= 1, got {max_summands!r}")
    p = newton_polytope(f)
    if p.ambient_dim != 3 or not is_reflexive(p):
        raise ValueError("Minkowski check needs a reflexive Newton 3-polytope")
    found: List[FacetDecomposition] = []
    # facets with the same polygon, budget order and terms in their charts
    # share one search; the budget's order fixes the candidates' order and
    # so which certificate is found first
    searched: Dict[tuple, Optional[Tuple[Summand, ...]]] = {}
    for normal, _, _, chart, first, budget in _facet_polygons(
            p, tuple(f.exponents())):
        target = LaurentPoly(("x", "y"), {q: f.coefficient(c)
                                          for c, q in chart.items()})
        key = (first, tuple(budget.items()), target)
        if key not in searched:
            searched[key] = _decompose_facet(first, budget, target,
                                             max_summands)
        dec = searched[key]
        if dec is None:
            return None
        found.append(FacetDecomposition(normal, dec))
    return MinkowskiCertificate(tuple(found))
