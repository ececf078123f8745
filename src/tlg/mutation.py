"""Elementary mutations of Laurent polynomials and of their Newton polytopes.

A mutation rewrites one variable as itself times a power of a factor
polynomial in the other variables and clears denominators. The polytope
counterpart (Akhtar-Coates-Galkin-Kasprzyk, arXiv:1212.1785), in any
dimension, moves every integer-height slice by a multiple of the factor's
Newton polytope F: a Minkowski sum for positive multiples and an exact
Minkowski difference for negative ones, which is the slice in facet form
with each facet height raised by the minimum of its normal over F.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Set, Tuple, Union

from .intlinalg import _echelon, kernel_lattice_chart, mat_vec
from .laurent import LaurentPoly, divide_exact
from .polytope import NotFullDimensional, Polytope, _dot


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


def _sum_points(ps, qs):
    return {tuple(a + b for a, b in zip(p, q)) for p in ps for q in qs}


def _vertices(rows, dim: int) -> Set[Tuple[Fraction, ...]]:
    """Vertices of the bounded integer system <a, c> + b >= 0 over (a, b)
    in rows: the feasible points where dim independent inequalities are
    tight, each dim-subset solved by one echelon of [A | -b]. A point or a
    segment comes out the same way."""
    out = set()
    for subset in itertools.combinations(rows, dim):
        ech = _echelon(list(a) + [-b] for a, b in subset)
        if sorted(ech.pivots) != list(range(dim)):
            continue
        den = math.lcm(*(row[piv] for row, piv in zip(ech.rows, ech.pivots)))
        c = [0] * dim
        for row, piv in zip(ech.rows, ech.pivots):
            c[piv] = row[dim] * (den // row[piv])
        if all(_dot(a, c) + b * den >= 0 for a, b in rows):
            out.add(tuple(Fraction(x, den) for x in c))
    return out


def polytope_mutation_effect(p: Polytope, data: MutationData) -> Polytope:
    """Mutate a full-dimensional lattice polytope of any dimension slice
    by slice.

    The height-k slice P_k (heights measured along data.direction) is
    shifted by m = |power(k)| copies of the factor polytope F: a Minkowski
    sum for positive powers, an exact Minkowski difference for negative
    ones. In the chart of the kernel lattice of the direction, with base
    k w / <w, w>, P_k is the system <n B, c> + <n, base> + h >= 0 over the
    facets (n, h) of p whose vertices bracket height k, and P_k - mF is
    the same system with each height raised by m min over q in F of
    <n, q>. The difference is verified by adding mF back; a mismatch
    raises SliceNotDivisible.
    """
    if not p.is_full_dimensional():
        raise NotFullDimensional("mutation needs a full-dimensional polytope")
    w = tuple(int(x) for x in data.direction)
    if all(x == 0 for x in w):
        raise ValueError("direction must be nonzero")
    for v in data.factor.vertices:
        if _dot(w, v) != 0:
            raise ValueError("factor polytope must lie in the kernel of the direction")
    if not p.is_lattice():
        raise ValueError("mutation needs a lattice polytope")

    basis, coords = kernel_lattice_chart(w)
    dim, ww = len(basis), _dot(w, w)
    f_chart = [mat_vec(coords, q) for q in data.factor.vertices]
    heights = {v: _dot(w, v) for v in p.vertices}
    # the facet (n, h) at height k, times ww to stay integral:
    # <ww n B, c> + k <n, w> + ww h >= 0
    facets = []
    for n, h in p.facets:
        on = [heights[v] for v in p.vertices if _dot(n, v) + h == 0]
        facets.append((min(on), max(on), [ww * _dot(n, b) for b in basis],
                       _dot(n, w), ww * h,
                       ww * min(_dot(n, q) for q in data.factor.vertices)))
    cols = [[b[j] for b in basis] for j in range(len(w))]
    collected: List[Tuple[Fraction, ...]] = []
    for k in range(min(heights.values()), max(heights.values()) + 1):
        rows = [(a, k * nw + hw, lift)
                for lo, hi, a, nw, hw, lift in facets if lo <= k <= hi]
        piece = _vertices([(a, b) for a, b, _ in rows], dim)
        power = _rule_power(data.exponent_rule, k)
        scaled = [[abs(power) * x for x in q] for q in f_chart]
        if power >= 0:
            moved = _sum_points(piece, scaled)
        else:
            moved = _vertices([(a, b - power * lift) for a, b, lift in rows],
                              dim)
            # moved + mF lies in P_k, so equals it iff it holds every vertex
            if not piece <= _sum_points(moved, scaled):
                raise SliceNotDivisible(
                    f"slice at height {k} is not an exact multiple away")
        base = [Fraction(k * wi, ww) for wi in w]
        collected.extend(tuple(x + _dot(c, col) for x, col in zip(base, cols))
                         for c in moved)
    return Polytope(collected)
