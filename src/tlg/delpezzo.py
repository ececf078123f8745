"""Divisor-decorated del Pezzo chains.

A chain starts from a base polygon (P2 or one of two quadric polygons)
whose boundary lattice points carry markings, exponent vectors over the
chain's parameters, and attaches one lattice point per step: the new
point's marking is the product of its two boundary neighbours' markings
and a fresh parameter. Toric mode reads the model off the markings;
surface mode rewrites each boundary edge by the marking product rule.
Every boundary walk reads `polygon_edges` of the hulled polygon, which
lives here beside its only callers.
`build delpezzo` is the only command that builds one, and it imports this
module inside the command.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from typing import Dict, List, Tuple

from .laurent import LaurentPoly
from .polytope import NotFullDimensional, Point, Polytope, _dot, _sub


class PointInsideHull(ValueError):
    """A build step tried to add a point the polygon already contains."""


class BadBase(ValueError):
    """Unknown starting polygon for a del Pezzo chain."""


class EdgesDisagree(ValueError):
    """Two boundary edges of a surface-mode model give one term different
    coefficients."""


def _base_markings(base: str, nparams: int) -> Dict[Tuple[int, int], Tuple[int, ...]]:
    """Initial boundary markings as exponent vectors over the parameters."""
    def e(*idx):
        v = [0] * nparams
        for i in idx:
            v[i] += 1
        return tuple(v)

    if base == "P2":
        return {(1, 0): e(), (0, 1): e(), (-1, -1): e(0)}
    if base == "quadric_square":
        return {(1, 0): e(), (-1, 0): e(0), (0, 1): e(), (0, -1): e(1)}
    if base == "quadric_F2":
        return {(0, 1): e(), (-1, -1): e(0), (0, -1): e(1), (1, -1): e()}
    raise BadBase(f"unknown base {base!r}")


_BASE_PARAM_COUNT = {"P2": 1, "quadric_square": 2, "quadric_F2": 2}


@dataclass(frozen=True)
class DelPezzoScript:
    """A starting polygon, points to attach, and parameter names to spend.

    The base consumes the first one (P2) or two (quadrics) parameters; each
    step consumes the next one.
    """

    base: str
    steps: Tuple[Tuple[int, int], ...] = ()
    params: Tuple[str, ...] = ()


def polygon_edges(p: Polytope) -> List[Tuple[Point, Tuple[int, int], int]]:
    """Edges of a lattice polygon as (start, primitive step, lattice length).

    They run counterclockwise from p.vertices[0] and are read from the
    facets and the two vertices the polygon keeps on each: the inner
    normal (a, b) is the edge with step (b, -a), which runs from the
    vertex with the smaller <step, .> to the other. The k-th lattice point
    of an edge is start + k * step for 0 <= k <= length, so the lengths
    add up to the number of boundary lattice points.
    """
    if p.ambient_dim != 2 or not p.is_full_dimensional() or not p.is_lattice():
        raise NotFullDimensional(
            "edge walk needs a full-dimensional lattice polygon")
    after: Dict[Point, Tuple[Tuple[int, int], int, Point]] = {}
    for ((a, b), _), on in zip(p.facets, p._incidences):
        step = (b, -a)
        start, end = sorted((p.vertices[i] for i in on),
                            key=lambda v: _dot(step, v))
        after[start] = step, gcd(*_sub(end, start)), end
    out = []
    v = p.vertices[0]
    for _ in after:
        step, n, end = after[v]
        out.append((v, step, n))
        v = end
    return out


def _boundary_cycle(p) -> List[Tuple[int, int]]:
    """Boundary lattice points of p (or of the hull of p), counterclockwise."""
    if not isinstance(p, Polytope):
        p = Polytope(p)
    return [(v[0] + k * s[0], v[1] + k * s[1])
            for v, s, n in polygon_edges(p) for k in range(n)]


def del_pezzo_model(script: DelPezzoScript, mode: str = "toric") -> LaurentPoly:
    """Divisor-decorated model built by attaching vertices to a base polygon.

    Attaching K multiplies a fresh parameter by the markings of the two
    boundary lattice points next to K. Toric mode returns the markings as
    they stand; surface mode rewrites each boundary edge K_0..K_r so the
    coefficient at K_i is the s^i coefficient of
    m_{K_0} prod_j (1 + (m_{K_j}/m_{K_j-1}) s).
    """
    if mode not in ("toric", "surface"):
        raise ValueError(f"unknown mode {mode!r}")
    if script.base not in _BASE_PARAM_COUNT:
        raise BadBase(f"unknown base {script.base!r}")
    steps = [tuple(k) for k in script.steps]
    if any(type(x) is not int for k in steps for x in k):
        raise TypeError(
            f"step points must have integer coordinates, got {script.steps!r}")
    if any(len(k) != 2 for k in steps):
        raise ValueError(f"step points must be pairs, got {script.steps!r}")
    nbase = _BASE_PARAM_COUNT[script.base]
    need = nbase + len(script.steps)
    params = tuple(script.params)
    if len(params) != need:
        raise ValueError(f"base {script.base} with {len(script.steps)} steps "
                         f"needs {need} parameters, got {len(params)}")
    np_ = len(params)
    markings = _base_markings(script.base, np_)

    for s_idx, k_pt in enumerate(steps):
        # k lies outside the old hull exactly when it is a new vertex
        poly = Polytope([*markings, k_pt])
        if k_pt in markings or k_pt not in poly.vertices:
            raise PointInsideHull(f"step point {k_pt} is already inside")
        cycle = _boundary_cycle(poly)
        pos = cycle.index(k_pt)
        left = cycle[pos - 1]
        right = cycle[(pos + 1) % len(cycle)]
        for nb in (left, right):
            if nb not in markings:
                raise ValueError(
                    f"step {s_idx}: boundary neighbor {nb} carries no marking")
        exp = tuple(a + b for a, b in zip(markings[left], markings[right]))
        exp = tuple(a + (1 if i == nbase + s_idx else 0) for i, a in enumerate(exp))
        markings[k_pt] = exp

    final = Polytope(markings)
    if not all(h > 0 for _, h in final.facets):
        raise ValueError("origin must end up strictly inside the polygon")
    boundary = _boundary_cycle(final)
    missing = sorted(set(boundary) - set(markings))
    if missing:
        raise ValueError(f"boundary points {missing} never received markings")
    swallowed = sorted(set(markings) - set(boundary))
    if swallowed:
        raise ValueError(f"marked points {swallowed} fell inside the polygon")

    names = ("x", "y") + params
    if mode == "toric":
        terms = {(pt[0], pt[1]) + e: 1 for pt, e in markings.items()}
        return LaurentPoly(names, terms)

    # surface mode: rework every edge by the marking product rule, as a
    # polynomial in s over the parameters
    svars = ("s",) + params
    one = LaurentPoly.constant(1, svars)
    terms: Dict[Tuple[int, ...], int] = {}
    for v, step, n in polygon_edges(final):
        marks = [markings[(v[0] + k * step[0], v[1] + k * step[1])]
                 for k in range(n + 1)]
        edge = prod((one + LaurentPoly.monomial(svars, (1,) + _sub(b, a))
                     for a, b in zip(marks, marks[1:])),
                    start=LaurentPoly.monomial(svars, (0,) + marks[0]))
        for (k, *e), c in edge.terms():
            key = (v[0] + k * step[0], v[1] + k * step[1], *e)
            if terms.setdefault(key, c) != c:
                raise EdgesDisagree(
                    f"edges disagree on the coefficient at {key}")
    return LaurentPoly(names, terms)
