"""Period series of Laurent polynomials and closed-form I-series.

The period of f collects the constant terms of its powers. Powers are built
stage by stage; after extracting the constant term of f^j, terms that cannot
reach exponent zero within the remaining number of multiplications are
dropped. A term with exponent e can still contribute at stage j+r only if -e
is a sum of r exponents of f, hence lies in r times the Newton polytope of
f. Testing against a halfspace relaxation of the union of those dilations
never drops a contributing term, so pruning is exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from .laurent import Coeff, LaurentPoly, UnknownVariable
from .polytope import Polytope, newton_polytope

factorial = math.factorial
binomial = math.comb


class NonScalarConstantTerm(ValueError):
    """phi needs every variable of f to be a period variable."""


class NegativeAnticanonicalDegree(ValueError):
    """Every toric curve-class row must pair positively with -K."""


@dataclass(frozen=True)
class PowerSeries:
    """Truncated power series in t with exact rational coefficients."""

    coeffs: Tuple[Coeff, ...]
    warnings: Tuple[str, ...] = field(default=(), compare=False)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def coefficient(self, i: int) -> Coeff:
        return self.coeffs[i]

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return PowerSeries(self.coeffs[:order], self.warnings)

    def to_json_dict(self) -> dict:
        return {"order": self.order,
                "coeffs": [str(Fraction(c)) for c in self.coeffs]}

    @classmethod
    def from_json_dict(cls, data) -> "PowerSeries":
        coeffs = tuple(_parse_coeff(c) for c in data["coeffs"])
        if len(coeffs) != data["order"]:
            raise ValueError("declared order does not match coefficient count")
        return cls(coeffs)

    def __str__(self) -> str:
        parts = [str(c) for c in self.coeffs]
        return "[" + ", ".join(parts) + "]"


def _parse_coeff(c) -> Coeff:
    f = Fraction(c)
    return f.numerator if f.denominator == 1 else f


def _keep_predicate(f: LaurentPoly, positions: Sequence[int],
                    remaining_holder: list):
    """Pruning test for projected exponents, reading the stage budget from
    remaining_holder[0] so one closure serves every stage."""
    if list(positions) == list(range(len(f.variables))):
        poly = newton_polytope(f)
    else:
        poly = Polytope({tuple(e[i] for i in positions) for e in f.exponents()})
    facets = poly.facets if poly.dim == poly.ambient_dim else None
    if facets is not None:
        fl = [(n, h) for n, h in facets]

        def keep(e) -> bool:
            k = remaining_holder[0]
            ep = tuple(-e[i] for i in positions)
            for n, h in fl:
                bound = k * h if h > 0 else 0
                # point of some dilation r*N with r <= k: relaxed facet test
                if sum(a * b for a, b in zip(n, ep)) < -bound:
                    return False
            return True
        return keep

    cols = list(zip(*poly.vertices))
    los = [min(c) for c in cols]
    his = [max(c) for c in cols]

    def keep_box(e) -> bool:
        k = remaining_holder[0]
        for i, pos in enumerate(positions):
            x = -e[pos]
            if not (min(0, k * los[i]) <= x <= max(0, k * his[i])):
                return False
        return True
    return keep_box


def phi_coefficients(f: LaurentPoly, order: int,
                     period_vars: Optional[Iterable[str]] = None
                     ) -> List[LaurentPoly]:
    """Constant terms of f^0..f^(order-1) over the period variables.

    Each entry is a Laurent polynomial in the non-period variables, so
    formal parameters riding along in the coefficients are preserved.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
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
    one = LaurentPoly.constant(1, rest)
    if f.is_zero():
        return [one] + [LaurentPoly.zero(rest)] * (order - 1)

    positions = [vs.index(v) for v in period]
    remaining_holder = [order - 1]
    keep = _keep_predicate(f, positions, remaining_holder)

    out: List[LaurentPoly] = [one]
    g = LaurentPoly.constant(1, vs)
    for j in range(1, order):
        g = g * f
        out.append(g.constant_term(over=period))
        remaining_holder[0] = order - 1 - j
        g = g.filter_terms(keep)
    return out


def phi(f: LaurentPoly, order: int,
        period_vars: Optional[Iterable[str]] = None) -> PowerSeries:
    """Main period of f: coefficient i is the constant term of f^i."""
    vs = f.variables
    period = tuple(period_vars) if period_vars is not None else vs
    nonperiod = set(vs) - set(period)
    if nonperiod:
        for e in f.exponents():
            for i, v in enumerate(vs):
                if v in nonperiod and e[i]:
                    raise NonScalarConstantTerm(
                        f"variable {v!r} occurs in f but is not a period variable")
    polys = phi_coefficients(f, order, period)
    return PowerSeries(tuple(p.constant_term() for p in polys))


@dataclass(frozen=True)
class WciSpec:
    """Weighted complete intersection of the given degrees."""

    weights: Tuple[int, ...]
    degrees: Tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive")
        if any(d < 1 for d in self.degrees):
            raise ValueError("degrees must be positive")
        if self.index < 1:
            raise ValueError("not Fano: index must be at least 1")

    @property
    def index(self) -> int:
        return sum(self.weights) - sum(self.degrees)


def iseries_wci(spec: WciSpec, order: int) -> PowerSeries:
    """Anticanonically graded I-series of a weighted complete intersection.

    Supported on multiples of the index d0, with coefficient
    (d0 d)! prod_i (d_i d)! / prod_j (w_j d)! at t^(d0 d).
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    d0 = spec.index
    coeffs: List[Coeff] = [0] * order
    coeffs[0] = 1
    d = 1
    while d0 * d < order:
        num = factorial(d0 * d)
        for di in spec.degrees:
            num *= factorial(di * d)
        den = 1
        for w in spec.weights:
            den *= factorial(w * d)
        coeffs[d0 * d] = _parse_coeff(Fraction(num, den))
        d += 1
    return PowerSeries(tuple(coeffs))


@dataclass(frozen=True)
class GrassSpec:
    """Complete intersection of the given degrees in the Grassmannian G(k, n+k)."""

    k: int
    n: int
    degrees: Tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        if self.k < 2 or self.n < 2:
            raise ValueError("need k >= 2 and n >= 2")
        if any(d < 1 for d in self.degrees):
            raise ValueError("degrees must be positive")
        if self.index < 1:
            raise ValueError("not Fano: sum of degrees must stay below n+k")

    @property
    def index(self) -> int:
        return self.k + self.n - sum(self.degrees)


def iseries_grassmannian(spec: GrassSpec, order: int) -> PowerSeries:
    """I-series of a Grassmannian complete intersection.

    The degree-d coefficient sums over (k-1)x(n-1) integer arrays s with
    0 <= s_{i,j} <= d, padded by s_{k,j} = s_{i,n} = d, each array weighted
    by prod_i (d_i d)!/(d!)^(k+n) times binomials of vertically and
    horizontally adjacent entries.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    k, n = spec.k, spec.n
    d0 = spec.index
    coeffs: List[Coeff] = [0] * order
    coeffs[0] = 1
    d = 1
    while d0 * d < order:
        num = factorial(d0 * d)
        for di in spec.degrees:
            num *= factorial(di * d)
        scale = Fraction(num, factorial(d) ** (k + n))
        total = 0
        for arr in _monotone_arrays(k - 1, n - 1, d):
            prod = 1
            for i in range(k - 1):
                for j in range(n - 1):
                    below = arr[i + 1][j] if i + 1 < k - 1 else d
                    right = arr[i][j + 1] if j + 1 < n - 1 else d
                    prod *= binomial(below, arr[i][j]) * binomial(right, arr[i][j])
                    if prod == 0:
                        break
                if prod == 0:
                    break
            total += prod
        coeffs[d0 * d] = _parse_coeff(scale * total)
        d += 1
    return PowerSeries(tuple(coeffs))


def _monotone_arrays(rows: int, cols: int, d: int):
    """All rows x cols arrays over 0..d, yielded as tuples of row tuples."""
    if rows == 0 or cols == 0:
        yield tuple(tuple() for _ in range(rows))
        return
    cells = rows * cols
    for flat in itertools.product(range(d + 1), repeat=cells):
        yield tuple(flat[r * cols:(r + 1) * cols] for r in range(rows))


@dataclass(frozen=True)
class ToricCurveClassData:
    """Generators of effective curve classes paired against toric divisors.

    Each row s lists the intersection numbers of a generating class with
    every divisor; its sum kappa_s is the anticanonical degree. Optional
    parameter exponents attach a monomial in formal divisor parameters to
    each generator.
    """

    rows: Tuple[Tuple[int, ...], ...]
    param_vars: Tuple[str, ...] = ()
    param_exponents: Tuple[Tuple[int, ...], ...] = ()

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "param_vars", tuple(self.param_vars))
        object.__setattr__(self, "param_exponents",
                           tuple(tuple(int(x) for x in e) for e in self.param_exponents))
        if not rows:
            raise ValueError("need at least one curve class row")
        if len({len(r) for r in rows}) != 1:
            raise ValueError("rows must all have the same length")
        if any(sum(r) <= 0 for r in rows):
            raise NegativeAnticanonicalDegree(
                "every generator must have positive anticanonical degree")
        if self.param_exponents and len(self.param_exponents) != len(rows):
            raise ValueError("need one parameter exponent vector per row")
        for e in self.param_exponents:
            if len(e) != len(self.param_vars):
                raise ValueError("parameter exponent length must match param_vars")

    @property
    def kappa(self) -> Tuple[int, ...]:
        return tuple(sum(r) for r in self.rows)


def _toric_combinations(kappa: Sequence[int], bound: int):
    """Nonnegative multiplicity vectors m with sum(m_s kappa_s) <= bound."""
    out: List[Tuple[int, ...]] = []

    def rec(idx: int, left: int, acc: List[int]):
        if idx == len(kappa):
            out.append(tuple(acc))
            return
        m = 0
        while m * kappa[idx] <= left:
            acc.append(m)
            rec(idx + 1, left - m * kappa[idx], acc)
            acc.pop()
            m += 1
    rec(0, bound, [])
    return out


def iseries_toric_parametrized(data: ToricCurveClassData, order: int
                               ) -> List[LaurentPoly]:
    """I-series coefficients as monomials in the divisor parameters.

    Coefficient i is a Laurent polynomial in data.param_vars collecting all
    generator combinations of total anticanonical degree i.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    kappa = data.kappa
    vs = data.param_vars
    width = len(vs)
    terms: List[dict] = [dict() for _ in range(order)]
    for m in _toric_combinations(kappa, order - 1):
        deg = sum(mi * ki for mi, ki in zip(m, kappa))
        beta = [sum(m[s] * data.rows[s][j] for s in range(len(m)))
                for j in range(len(data.rows[0]))]
        num = factorial(deg)
        den = 1
        for x in beta:
            if x > 0:
                den *= factorial(x)
            elif x < 0:
                num *= factorial(-x)
        if data.param_exponents:
            exp = tuple(sum(m[s] * data.param_exponents[s][j] for s in range(len(m)))
                        for j in range(width))
        else:
            exp = (0,) * width
        bucket = terms[deg]
        bucket[exp] = bucket.get(exp, 0) + Fraction(num, den)
    return [LaurentPoly(vs, t) for t in terms]


def iseries_toric(data: ToricCurveClassData, order: int) -> PowerSeries:
    """Scalar I-series of toric data, all divisor parameters set to one."""
    polys = iseries_toric_parametrized(data, order)
    coeffs = tuple(_parse_coeff(Fraction(sum((c for _, c in p.terms()), start=Fraction(0))))
                   for p in polys)
    warnings = ()
    if any(k == 1 for k in data.kappa):
        warnings = ("a generator has anticanonical degree one; the linear "
                    "correction term for index-one models is not applied",)
    return PowerSeries(coeffs, warnings)


@dataclass(frozen=True)
class PeriodReport:
    """Outcome of comparing a period with a target series."""

    match: bool
    order: int
    first_mismatch: Optional[int] = None
    expected: Optional[str] = None
    found: Optional[str] = None

    def to_json_dict(self) -> dict:
        out = {"match": self.match, "order": self.order}
        if not self.match:
            out.update({"first_mismatch": self.first_mismatch,
                        "expected": self.expected, "found": self.found})
        return out


def verify_period(f: LaurentPoly, target: PowerSeries,
                  period_vars: Optional[Iterable[str]] = None) -> PeriodReport:
    """Exact comparison of the period of f against a target series."""
    if target.order < 2:
        raise ValueError("target must have order at least 2")
    mine = phi(f, target.order, period_vars)
    for i, (a, b) in enumerate(zip(mine.coeffs, target.coeffs)):
        if a != b:
            return PeriodReport(False, target.order, i, str(Fraction(b)),
                                str(Fraction(a)))
    return PeriodReport(True, target.order)
