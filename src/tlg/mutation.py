"""Elementary mutations of Laurent polynomials and of their Newton polytopes.

A mutation rewrites one variable as itself times a power of a factor
polynomial in the other variables and clears denominators. The polytope
counterpart (Akhtar-Coates-Galkin-Kasprzyk, arXiv:1212.1785), in any
dimension, moves every integer-height slice by a multiple of the factor's
Newton polytope F: a Minkowski sum for positive multiples and an exact
Minkowski difference for negative ones. Everything stays in vertex form in
ambient coordinates: a slice's vertices are the polytope's vertices at that
height and the crossings of its edges, and the difference is read from the
candidates v - mq (v a slice vertex, q a vertex of F) whose translate of mF
stays inside the polytope.

Clearing the denominator of a mutated polynomial is one exact Laurent
division, `divide_exact`, which lives here, beside its only caller. A
power or a direction that is not an int, a bool included, is a
TypeError, as a non-integer exponent is in `tlg.laurent`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Mapping, Tuple, Union

from .laurent import Coeff, Exponent, LaurentPoly, NotLaurent, _norm
from .polytope import (DimensionMismatch, NotFullDimensional, Polytope, _dot,
                       edges)


class PivotInFactor(ValueError):
    """The mutation factor involves the pivot variable."""


class SliceNotDivisible(ValueError):
    """A slice cannot absorb the required multiple of the factor polytope."""


# The power of each height k along the pivot: a mapping, a callable, or
# None for k -> -k. `elementary_mutation` asks it only at the pivot heights
# that have terms; `polytope_mutation_effect` asks it at every integer
# height from the polytope's lowest to its highest, and so checks a mapping
# for all of them first.
ExponentRule = Union[Mapping[int, int], Callable[[int], int], None]


def _rule_power(rule: ExponentRule, k: int) -> int:
    if rule is None:
        return -k
    if not callable(rule) and k not in rule:
        raise ValueError(f"exponent rule gives no power for slice {k}")
    power = rule(k) if callable(rule) else rule[k]
    if type(power) is not int:  # a bool too, which is no power
        raise TypeError(f"exponent rule gives the non-integer power "
                        f"{power!r} for slice {k}")
    return power


def _grlex_key(e: Exponent) -> Tuple[int, Exponent]:
    return (sum(e), e)


def _support_box(p: LaurentPoly) -> Tuple[Tuple[int, int], ...]:
    """Per-variable (min, max) exponent over the terms of a nonzero p."""
    return tuple((min(col), max(col)) for col in zip(*p.exponents()))


def divide_exact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """The Laurent polynomial num / den, computed exactly.

    Raises ZeroDivisionError when den is zero and NotLaurent when the
    quotient is not a Laurent polynomial. The general case runs term-by-term
    division in the graded lexicographic order; exponents of a true quotient
    are confined per coordinate to [min(num) - min(den), max(num) - max(den)],
    so any division step leaving that box proves the quotient does not
    exist.
    """
    num, den = num._aligned(den)
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    vs = num.variables
    if num.is_zero():
        return num
    if len(den) == 1:
        ((de, dc),) = den.terms()
        out = {tuple(x - y for x, y in zip(e, de)): _norm(Fraction(c, dc))
               for e, c in num.terms()}
        return LaurentPoly._raw(vs, out)

    box = tuple((nlo - dlo, nhi - dhi) for (nlo, nhi), (dlo, dhi)
                in zip(_support_box(num), _support_box(den)))
    for lo, hi in box:
        if lo > hi:
            raise NotLaurent("support of numerator too thin for the denominator")
    budget = 1
    for lo, hi in box:
        budget *= hi - lo + 1

    den_terms = dict(den.terms())
    dlead = max(den_terms, key=_grlex_key)
    dlc = den_terms[dlead]
    rem: Dict[Exponent, Coeff] = dict(num.terms())
    quo: Dict[Exponent, Coeff] = {}
    while rem:
        rlead = max(rem, key=_grlex_key)
        te = tuple(x - y for x, y in zip(rlead, dlead))
        if any(not (lo <= x <= hi) for x, (lo, hi) in zip(te, box)):
            raise NotLaurent("quotient support escapes its bounding box")
        if budget <= 0:
            raise NotLaurent("division does not terminate inside the bounding box")
        budget -= 1
        tc = _norm(Fraction(rem[rlead], dlc))
        quo[te] = tc
        for e, c in den_terms.items():
            key = tuple(x + y for x, y in zip(te, e))
            s = rem.get(key, 0) - tc * c
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    return LaurentPoly._raw(vs, quo)


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


def polytope_mutation_effect(p: Polytope, data: MutationData) -> Polytope:
    """Mutate a full-dimensional lattice polytope of any dimension by slices.

    The height-k slice P_k (heights measured along data.direction) is
    shifted by power(k) copies of the factor polytope F: a Minkowski sum
    for positive powers, an exact Minkowski difference for negative ones.
    The vertices of P_k are the vertices of p at height k and the points
    a + t (b - a), t = (k - h_a) / (h_b - h_a), where an edge (a, b) of p
    crosses height k. With m = -power(k) > 0, the candidates v - mq (v in
    P_k, q in F, both vertices) are kept when every facet (n, h) of p holds
    on their translate of mF: <n, c> + h + m min over F of <n, q> >= 0.
    The kept set lies in P_k - mF and, when P_k is divisible, holds each of
    its vertices; adding mF back verifies that, and a mismatch raises
    SliceNotDivisible.
    """
    if not p.is_full_dimensional():
        raise NotFullDimensional("mutation needs a full-dimensional polytope")
    w, f_verts = tuple(data.direction), data.factor.vertices
    if len(w) != p.ambient_dim or data.factor.ambient_dim != p.ambient_dim:
        raise DimensionMismatch(
            f"direction and factor must lie in Z^{p.ambient_dim}")
    if any(type(x) is not int for x in w):  # a bool too
        raise TypeError(f"direction {w} must be integers")
    if not any(w):
        raise ValueError(f"direction {w} must be a nonzero integer vector")
    if any(_dot(w, q) != 0 for q in f_verts):
        raise ValueError("factor polytope must lie in the kernel of the direction")
    if not p.is_lattice():
        raise ValueError("mutation needs a lattice polytope")

    heights = {v: _dot(w, v) for v in p.vertices}
    lo, hi = min(heights.values()), max(heights.values())
    rule = data.exponent_rule
    missing = [] if rule is None or callable(rule) else [
        k for k in range(lo, hi + 1) if k not in rule]
    if missing:
        raise ValueError(f"exponent rule gives no power for heights {missing}; "
                         f"the polytope needs every height from {lo} to {hi}")
    rising = [(a, b, heights[a], heights[b]) for e in edges(p)
              for a, b in [sorted(e, key=heights.get)]]
    lifts = [(n, h, min(_dot(n, q) for q in f_verts)) for n, h in p.facets]
    collected = []
    for k in range(lo, hi + 1):
        piece = {v for v, hv in heights.items() if hv == k} | {
            tuple(x + Fraction(k - ha, hb - ha) * (y - x) for x, y in zip(a, b))
            for a, b, ha, hb in rising if ha < k < hb}
        power = _rule_power(rule, k)
        # v + power q: the sum itself, or the difference's candidates
        moved = _sum_points(piece, [[power * x for x in q] for q in f_verts])
        if power < 0:
            moved = {c for c in moved if all(_dot(n, c) + h - power * lift >= 0
                                             for n, h, lift in lifts)}
            # moved + mF lies in P_k, so equals it iff it holds every vertex
            if not piece <= _sum_points(moved, [[-power * x for x in q]
                                                for q in f_verts]):
                raise SliceNotDivisible(
                    f"slice at height {k} is not an exact multiple away")
        collected.extend(moved)
    return Polytope(collected)
