"""Period coefficients of Laurent polynomials with parameters.

`phi_coefficients` takes the constant terms of the powers of f over some
of its variables, the period variables, and keeps the others as formal
parameters: each coefficient is a Laurent polynomial in them. It runs the
engine of `tlg.series` on the whole of f, with no split into blocks of
variables, so it is also the reference that `series.phi` is tested
against. The parameter digits sit above the period digits of a packed
key, so a pairing matches the period digits only and keys its sums by the
parameter digits.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from .laurent import LaurentPoly, UnknownVariable
from .polytope import Polytope, newton_polytope
from .series import (_chain, _check_order, _constant_term, _facets, _powers,
                     _radix)


def phi_coefficients(f: LaurentPoly, order: int,
                     period_vars: Optional[Iterable[str]] = None
                     ) -> List[LaurentPoly]:
    """Constant terms of f^0..f^(order-1) over the period variables.

    Each entry is a Laurent polynomial in the non-period variables, so
    formal parameters riding along in the coefficients are preserved.
    When f carries factors (`factored`), each power of f is built from the
    one before factor by factor.
    """
    _check_order(order)
    vs = f.variables
    period = tuple(period_vars) if period_vars is not None else vs
    if not period:
        raise ValueError("need at least one period variable")
    if len(set(period)) != len(period):
        raise UnknownVariable(f"duplicate period variables in {period}")
    for v in period:
        if v not in vs:
            raise UnknownVariable(f"{v!r} not among {vs}")
    rest = tuple(v for v in vs if v not in period)
    positions = [vs.index(v) for v in period + rest]

    def digits(p: dict) -> dict:
        """p with its exponents in the order of the digits, period first."""
        return {tuple(e[i] for i in positions): c for e, c in p.items()}

    n = order - 1
    terms = digits(f._terms)
    steps = _chain(terms, f.factors and [(digits(L._terms), m)
                                         for L, m in f.factors], len(vs))
    radix = _radix(terms, steps, n)
    # the parameter digits sit above the period digits: a key splits into
    # its period part low(key), in [-width/2, width/2], and its parameter
    # part key - low(key), a multiple of width
    width = radix ** len(period)
    mid = width // 2

    def low(key: int) -> int:
        return (key + mid) % width - mid

    def coefficient(a: dict, b: dict, targets) -> LaurentPoly:
        """The constant term over the period variables of a * b * sum of
        d x^s over (s, d) in targets."""
        if not rest:
            return LaurentPoly.constant(_constant_term(a, b, targets))
        by_low: dict = {}
        for k, c in b.items():
            by_low.setdefault(low(k), []).append((k - low(k), c))
        split = [(low(k), k - low(k), c) for k, c in a.items()]
        sums: dict = {}
        for s, d in targets:
            ls = low(s)
            for lk, high, c in split:
                for high2, c2 in by_low.get(-ls - lk, ()):
                    key = high + high2 + s - ls
                    sums[key] = sums.get(key, 0) + d * c * c2
        out = {}
        for key, c in sums.items():
            key //= width
            e = []
            for _ in rest:
                digit = (key + radix // 2) % radix - radix // 2
                e.append(digit)
                key = (key - digit) // radix
            out[tuple(e)] = c
        return LaurentPoly(rest, out)

    # Delta is the Newton polytope of f in the period variables, its
    # normals in the order of the digits
    if f.is_zero():
        facets = []
    elif rest:
        facets = _facets(Polytope({e[:len(period)] for e in terms}))
    else:
        facets = [(tuple(normal[i] for i in positions), h, peak)
                  for normal, h, peak in _facets(newton_polytope(f))]
    return [LaurentPoly.constant(1, rest)] + _powers(
        terms, steps, facets, radix, len(vs), n, coefficient)
