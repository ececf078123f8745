"""Elementary mutations of Laurent polynomials and of their Newton polytopes.

A mutation rewrites one variable as itself times a power of a factor
polynomial in the other variables and clears denominators; the polytope
counterpart moves every integer-height slice by a multiple of the factor's
Newton polytope, using a Minkowski sum for positive multiples and an exact
Minkowski difference for negative ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Sequence, Tuple, Union

from .intlinalg import kernel_lattice_chart, mat_vec
from .laurent import LaurentPoly, divide_exact
from .polytope import (DimensionTooLarge, NotFullDimensional, Polytope,
                       PolytopeError, _dot, ccw_vertices, edges)


class PivotInFactor(ValueError):
    """The mutation factor involves the pivot variable."""


class SliceNotDivisible(ValueError):
    """A slice cannot absorb the required multiple of the factor polytope."""


ExponentRule = Union[Mapping[int, int], Callable[[int], int], None]


def _rule_power(rule: ExponentRule, k: int) -> int:
    if rule is None:
        return -k
    if callable(rule):
        return int(rule(k))
    if k in rule:
        return int(rule[k])
    raise ValueError(f"exponent rule gives no power for slice {k}")


def elementary_mutation(f: LaurentPoly, pivot: str, factor: LaurentPoly,
                        exponent_rule: ExponentRule = None) -> LaurentPoly:
    """Substitute pivot -> pivot * factor^(rule) slice by slice and clear.

    The default rule multiplies the slice of pivot-exponent k by
    factor^(-k), which is the substitution pivot -> pivot / factor. With
    p_k the power of slice f_k and M = max(0, -min p_k), the result is the
    one exact division

        sum_k f_k * factor^(p_k + M)  /  factor^M,

    so the denominator grows with the largest negative power, not with
    their sum. A NotLaurent escape means the supplied witness is invalid,
    not that the polynomials are mutationally inequivalent.
    """
    if pivot not in f.variables:
        raise ValueError(f"pivot {pivot!r} is not a variable of f")
    aligned_f, aligned_factor = f._aligned(factor)
    vs = aligned_f.variables
    idx = vs.index(pivot)
    if any(e[idx] != 0 for e, _ in aligned_factor.terms()):
        raise PivotInFactor(f"factor involves the pivot {pivot!r}")
    if aligned_factor.is_zero():
        raise ValueError("factor must be nonzero")

    slices: Dict[int, Dict[Tuple[int, ...], object]] = {}
    for e, c in aligned_f.terms():
        slices.setdefault(e[idx], {})[e] = c
    powers = {k: _rule_power(exponent_rule, k) for k in sorted(slices)}
    shift = max(0, -min(powers.values(), default=0))
    total = LaurentPoly.zero(vs)
    for k, p in powers.items():
        total = total + LaurentPoly(vs, slices[k]) * aligned_factor ** (p + shift)
    return divide_exact(total, aligned_factor ** shift)


@dataclass(frozen=True)
class MutationData:
    """Slice direction, factor polytope inside its kernel hyperplane, and
    an optional height-to-power rule (default: height k gets power -k)."""

    direction: Tuple[int, ...]
    factor: Polytope
    exponent_rule: ExponentRule = None


def _slice_points(p: Polytope, w: Sequence[int], k: int) -> List[Tuple[Fraction, ...]]:
    """Vertices of the height-k slice: polytope vertices on the plane plus
    edge crossings."""
    out = []
    for v in p.vertices:
        if _dot(w, v) == k:
            out.append(tuple(Fraction(x) for x in v))
    for a, b in edges(p):
        ha, hb = _dot(w, a), _dot(w, b)
        if (ha - k) * (hb - k) < 0:
            t = Fraction(k - ha, hb - ha)
            out.append(tuple(Fraction(x) + t * (y - x) for x, y in zip(a, b)))
    return sorted(set(out))


def _chart(points, base, w, coords):
    """Coordinates of points on the plane <w, x> = <w, base> in the chart
    whose coordinate rows are coords."""
    out = []
    for p in points:
        diff = [x - b for x, b in zip(p, base)]
        if _dot(w, diff) != 0:
            raise PolytopeError(f"point {p} left the plane <{w}, x> = "
                                f"{_dot(w, base)}")
        out.append(tuple(mat_vec(coords, diff)))
    return out


def _clip_polygon(subject: List[Tuple[Fraction, Fraction]],
                  a, b) -> List[Tuple[Fraction, Fraction]]:
    """Keep the part of a convex region left of the directed line a->b.

    The subject is a ccw cycle; a one- or two-point subject is treated as
    a point or segment.
    """
    def side(p):
        return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])

    if len(subject) <= 2:
        kept = [p for p in subject if side(p) >= 0]
        if len(subject) == 2:
            sa, sb = side(subject[0]), side(subject[1])
            if (sa > 0 and sb < 0) or (sa < 0 and sb > 0):
                t = Fraction(sa, sa - sb)
                cut = tuple(c + t * (x - c)
                            for c, x in zip(subject[0], subject[1]))
                if cut not in kept:
                    kept.append(cut)
        return kept
    out: List[Tuple[Fraction, Fraction]] = []
    n = len(subject)
    for i in range(n):
        cur, nxt = subject[i], subject[(i + 1) % n]
        sc, sn = side(cur), side(nxt)
        if sc >= 0:
            out.append(cur)
        if (sc > 0 and sn < 0) or (sc < 0 and sn > 0):
            t = Fraction(sc, sc - sn)
            out.append(tuple(c + t * (x - c) for c, x in zip(cur, nxt)))
    dedup: List[Tuple[Fraction, Fraction]] = []
    for p in out:
        if p not in dedup:
            dedup.append(p)
    return dedup


def _polygon_intersection(subject_ccw, clip_ccw):
    out = list(subject_ccw)
    n = len(clip_ccw)
    for i in range(n):
        if not out:
            return []
        out = _clip_polygon(out, clip_ccw[i], clip_ccw[(i + 1) % n])
    return out


def _scale_points(points, m: int):
    return [tuple(m * x for x in p) for p in points]


def _sum_points(ps, qs):
    return sorted(set(tuple(a + b for a, b in zip(p, q)) for p in ps for q in qs))


def _hull_points(points):
    return sorted(set(ccw_vertices(points))) if points else []


def _minkowski_difference_2d(chart, scaled, k):
    """{x : x + F subset Q} for planar convex point sets, exact Fractions."""
    q_hull = ccw_vertices(chart)
    f_hull = _hull_points(scaled)
    if len(q_hull) >= 3:
        d = list(q_hull)
        for g in f_hull:
            translated = [tuple(x - gg for x, gg in zip(p, g)) for p in q_hull]
            d = _polygon_intersection(d, translated)
            if not d:
                raise SliceNotDivisible(f"slice at height {k} cannot be divided")
        return d
    if len(q_hull) == 1:
        if len(f_hull) != 1:
            raise SliceNotDivisible(f"slice at height {k} cannot be divided")
        return [tuple(q - f for q, f in zip(q_hull[0], f_hull[0]))]
    # segment slice: the factor must be a point or a parallel segment
    base_q, end_q = q_hull[0], q_hull[-1]
    u = tuple(b - a for a, b in zip(base_q, end_q))
    g0 = f_hull[0]
    offsets = []
    for g in f_hull:
        d = tuple(b - a for a, b in zip(g0, g))
        if d[0] * u[1] != d[1] * u[0]:
            raise SliceNotDivisible(f"slice at height {k} cannot be divided")
        offsets.append(Fraction(d[0], u[0]) if u[0] else Fraction(d[1], u[1]))
    s_lo = Fraction(0) - min(offsets)
    s_hi = Fraction(1) - max(offsets)
    if s_lo > s_hi:
        raise SliceNotDivisible(f"slice at height {k} cannot be divided")
    start = tuple(b - g for b, g in zip(base_q, g0))
    return [tuple(x + s_lo * ui for x, ui in zip(start, u)),
            tuple(x + s_hi * ui for x, ui in zip(start, u))]


def polytope_mutation_effect(p: Polytope, data: MutationData) -> Polytope:
    """Mutate a full-dimensional lattice polytope slice by slice.

    The height-k slice (heights measured along data.direction) is shifted
    by power(k) copies of the factor polytope: Minkowski sum for positive
    powers, exact Minkowski difference for negative ones. The difference
    is verified by adding the factor back; a mismatch raises
    SliceNotDivisible.
    """
    if not p.is_full_dimensional():
        raise NotFullDimensional("mutation needs a full-dimensional polytope")
    if p.ambient_dim > 3:
        raise DimensionTooLarge("polytope mutation implemented through dimension 3")
    w = tuple(int(x) for x in data.direction)
    if all(x == 0 for x in w):
        raise ValueError("direction must be nonzero")
    for v in data.factor.vertices:
        if _dot(w, v) != 0:
            raise ValueError("factor polytope must lie in the kernel of the direction")
    if not p.is_lattice():
        raise ValueError("mutation needs a lattice polytope")

    basis, coords = kernel_lattice_chart(w)
    heights = [_dot(w, v) for v in p.vertices]
    ww = _dot(w, w)
    f_chart = _chart(data.factor.vertices, (0,) * len(w), w, coords)
    collected: List[Tuple[Fraction, ...]] = []
    for k in range(math.ceil(min(heights)), math.floor(max(heights)) + 1):
        pts = _slice_points(p, w, k)
        if not pts:
            continue
        base = tuple(Fraction(k * wi, ww) for wi in w)
        chart = _chart(pts, base, w, coords)
        power = _rule_power(data.exponent_rule, k)
        if power == 0:
            moved = chart
        elif power > 0:
            moved = _sum_points(chart, _scale_points(f_chart, power))
        else:
            scaled = _scale_points(f_chart, -power)
            if len(chart[0]) == 1:
                qlo = min(c[0] for c in chart)
                qhi = max(c[0] for c in chart)
                flo = min(s[0] for s in scaled)
                fhi = max(s[0] for s in scaled)
                lo, hi = qlo - flo, qhi - fhi
                if lo > hi:
                    raise SliceNotDivisible(f"slice at height {k} cannot be divided")
                moved = [(lo,), (hi,)]
            else:
                moved = _minkowski_difference_2d(chart, scaled, k)
                back = _sum_points(moved, scaled)
                if _hull_points(back) != _hull_points(chart):
                    raise SliceNotDivisible(
                        f"slice at height {k} is not an exact multiple away")
        for c in moved:
            collected.append(tuple(base[j] + sum(ci * basis[i][j]
                                                 for i, ci in enumerate(c))
                                   for j in range(len(w))))
    return Polytope(collected)
