"""Period series of Laurent polynomials and closed-form I-series.

The period of f collects the constant terms ct(f^j) for j = 0..N. They are
read off half powers with the identity

    ct(f^(a+b)) = sum over e of [f^a]_e * [f^b]_(-e),

as in Coates-Corti-Galkin-Kasprzyk (arXiv:1303.3288): with f^(a-1) and f^a
at hand, ct(f^(2a-1)) and ct(f^(2a)) are sparse dot products, so only
f^1..f^p, p = N//2, are built, two at a time. For odd N the last step L
of the chain below is folded into the last pairing: with g = f^p (f/L),
ct(f^(2p+1)) = sum over s of L_s * sum over k of [g]_k [f^p]_(-k-s). The
partial product g is what the chain makes on its way to f^(p+1), whose
last and largest step is never taken; for an unfactored f, L = f and g =
f^p.

Many models are products, f = prod of L_i^(m_i), the form of the
Givental/Hori-Vafa and Przyjalkowski models of complete intersections
(Przyjalkowski-Shramov, arXiv:1409.3729). `factored` checks such factors
once, on packed keys, and returns f carrying them (`LaurentPoly.factors`);
loading the catalog attaches them so. For an f that carries factors, f^a
is built from f^(a-1) one factor step at a time: the chain multiplies by
each L_i m_i times, with the monomial factors folded into the first step.
A step costs |partial product| * |L_i| instead of |f^(a-1)| * |f|: for
(x+y+z+1)^6/(xyz), six steps of 4 terms instead of one of 84. Only
f^(a-1), the partial product and the next one are held at a time; f^1
is f itself, packed once. An unfactored f is the one-step chain (f, 1).

Each finished power is pruned. Let Delta be the Newton polytope of f in
the period variables, with facets n.x + h >= 0 (for an f that carries
factors, `newton_polytope` hulls their sums). A term of f^a at e meets
only partners of degree b <= N - a: f^(a-1) or f^a in a pairing, f^p
and one more f in the fold, or, carried into f^(a+1), the partners of
that power. A partner's exponents lie in b Delta, so a term that
reaches a constant term has -e in b Delta, and when the origin lies in
Delta, b Delta lies in (N - a) Delta. So f^a keeps only the e in
-(N - a) Delta, those with n.e <= (N - a) h for every facet, and no
ct(f^j), j <= N, changes. Building f^(a+1) from the pruned f^a is exact on
-(N - a - 1) Delta, the part it keeps, because -(N - a - 1) Delta - Delta
= -(N - a) Delta. In the fold, Newton(f/L) + Newton(L) = Delta, so each
f^p exponent of a vanishing sum lies in -(p + 1) Delta = -(N - p) Delta.
When the origin lies outside Delta, every ct(f^j) with j >= 1 is 0, and
the pruned powers, still inside a Delta, keep every pairing at 0. When
Delta is not full-dimensional in the period variables nothing is pruned.
For even N the last power f^p meets only the two dot products, where a
term costs less than its test, so it is left whole.

All variables are packed into one int, pack(e) = sum of e_i R^i, the
period variables in the low digits and the parameters (variables that are
not period variables) above them. With balanced digits base R = 2K + 1,
pack is injective on exponents with every coordinate in [-K, K], and being
linear it turns -e and e + e' into -pack(e) and pack(e) + pack(e'). Every
exponent a pairing meets lies in N Delta, a sum of at most N exponents of
f; every exponent inside the chain, the fold's g included, is a sum of at
most p exponents of f and at most one exponent of each step. So
K = max(N |f|, p |f| + sum over the steps of |L|), with |g| the largest
|exponent| of g, covers both; for an unfactored f it is N |f|. Since pack
is a ring homomorphism the chain would be right even where keys
collided, but covering every partial product keeps one key per exponent
in every dict, so dict sizes are true term counts and the prune reads
true digits.
The prune works on the keys: it splits off the lowest period digit and
bounds it by an interval that depends on the other digits only, worked
out once per row. Coefficients are ints or Fractions. A pairing matches
the period digits only and keys its sums by the parameter digits, which
become the exponents of a Laurent polynomial in the parameters.

A chain step loops over the power once per term of the step, adding the
shifted power into the product; a term with coefficient 1, as in almost
every step of the catalog's factored models, skips its multiply. A dict
paired with itself, as in ct(f^(2a)) and, for an unfactored f, in every
pairing of the fold, looks up only its keys below half the target, since
the sum is symmetric under k -> target - k.

The closed forms the periods are checked against are I-series of complete
intersections X of nef divisors L_1..L_r in a toric variety Y with toric
divisors D_j: Givental's mirror theorem (alg-geom/9701016) in the form of
Coates-Corti-Galkin-Kasprzyk (arXiv:1303.3288). A curve class d adds

    (-K_X.d)! prod_i (L_i.d)! / prod_j (D_j.d)!,   -K_X = -K_Y - sum_i L_i,

at t^(-K_X.d), and a class with some D_j.d < 0 adds nothing: the k = 0
factor D_j of prod_{D_j.d < k <= 0} (D_j + k z) kills it. A weighted
complete intersection is the rank-one case, with one row of weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from operator import mul
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .laurent import (Coeff, LaurentPoly, UnknownVariable, VariableMismatch,
                      _coerce_coeff, _norm)
from .polytope import Polytope, newton_polytope


class NegativeAnticanonicalDegree(ValueError):
    """Every toric curve-class row must pair positively with -K_X."""


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

    def first_mismatch(self, other: "PowerSeries") -> Optional[int]:
        """The first index at which the two series differ, up to the
        lower of their orders; None when they agree there."""
        return next((i for i, (a, b) in
                     enumerate(zip(self.coeffs, other.coeffs)) if a != b),
                    None)

    def to_json_dict(self) -> dict:
        return {"order": self.order,
                "coeffs": [str(Fraction(c)) for c in self.coeffs]}

    @classmethod
    def from_json_dict(cls, data) -> "PowerSeries":
        """{"order": n, "coeffs": [n coefficients]}, the order defaulting to
        the number of coefficients; a malformed coefficient raises a
        ValueError that gives its index."""
        raw = data["coeffs"]
        if type(raw) is not list:
            raise ValueError(f"coeffs must be a list, got {raw!r}")
        coeffs = []
        for i, c in enumerate(raw):
            try:
                coeffs.append(_coerce_coeff(c))
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise ValueError(
                    f"coeffs[{i}]: bad coefficient {c!r}: {exc}") from None
        if len(coeffs) != data.get("order", len(coeffs)):
            raise ValueError("declared order does not match coefficient count")
        return cls(tuple(coeffs))

    def __str__(self) -> str:
        parts = [str(c) for c in self.coeffs]
        return "[" + ", ".join(parts) + "]"


def _pairing(a: dict, b: dict, target: int = 0):
    """Sum of a[k] * b[target - k] over the keys of the smaller dict.

    A dict paired with itself is symmetric under k -> target - k, so only
    the keys below target / 2 are looked up, their sum doubled, and the
    middle key, when target is even, added once."""
    if a is b:
        get = a.get
        total = 2 * sum(c * get(target - k, 0)
                        for k, c in a.items() if 2 * k < target)
        if target % 2:
            return total
        return total + get(target // 2, 0) ** 2
    if len(a) > len(b):
        a, b = b, a
    get = b.get
    return sum(c * get(target - k, 0) for k, c in a.items())


def _times(power: dict, factor: list) -> dict:
    """Packed product of a power with the (key, value) pairs of a factor.

    The loop runs once over the power per term of the factor: the first
    term fills the product, each later one adds into it, and a term with
    coefficient 1, as in almost every chain step, skips its multiply."""
    if not factor:
        return {}
    (s, d), *more = factor
    items = power.items()
    if d == 1:
        out = {k + s: c for k, c in items}
    else:
        out = {k + s: c * d for k, c in items}
    get = out.get
    for s, d in more:
        if d == 1:
            for k, c in items:
                key = k + s
                out[key] = get(key, 0) + c
        else:
            for k, c in items:
                key = k + s
                out[key] = get(key, 0) + c * d
    for key in [key for key, c in out.items() if not c]:
        del out[key]
    return out


def _prune(power: dict, facets, budget: int, radix: int, dims: int) -> dict:
    """The terms of a packed power whose period exponent e lies in
    -budget * Delta, that is n.e <= budget * h for every facet (n, h).

    A key splits into its lowest digit d0 and its row, key - d0. The
    facets bound d0 to an interval that depends on the row's other period
    digits only, worked out once per row.
    """
    above = [(n[0], n[1:], budget * h) for n, h in facets if n[0] > 0]
    below = [(-n[0], n[1:], budget * h) for n, h in facets if n[0] < 0]
    level = [(n[1:], budget * h) for n, h in facets if not n[0]]
    half = radix // 2
    rows: dict = {}
    out = {}
    for key, c in power.items():
        d0 = (key + half) % radix - half
        base = key - d0
        allowed = rows.get(base)
        if allowed is None:
            rest, e = base // radix, []
            for _ in range(dims - 1):
                digit = (rest + half) % radix - half
                e.append(digit)
                rest = (rest - digit) // radix
            if any(sum(map(mul, n, e)) > b for n, b in level):
                allowed = range(0)
            else:
                allowed = range(
                    max([-((b - sum(map(mul, n, e))) // m)
                         for m, n, b in below], default=-half),
                    min([(b - sum(map(mul, n, e))) // m
                         for m, n, b in above], default=half) + 1)
            rows[base] = allowed
        if d0 in allowed:
            out[key] = c
    return out


def _reach(p: LaurentPoly) -> int:
    """The largest |exponent entry| of p, 0 for a constant or zero."""
    return max((abs(x) for e in p.exponents() for x in e), default=0)


def factored(f: LaurentPoly, factors: Iterable[Tuple[LaurentPoly, int]]
             ) -> LaurentPoly:
    """f carrying factors, one or more pairs (L, m) of a Laurent polynomial
    L in the variables of f and an int power m >= 1 whose product of L^m
    is f. A bad pair, or a list that does not multiply out to f, raises a
    ValueError; f itself is left as it is.

    The product is taken once, on packed keys, each L packed once and
    multiplied in m times, with no Laurent arithmetic. Every partial
    product, and f, has each exponent entry within K = max(|f|, sum of
    m |L|), so the radix 2K + 1 keeps one key per exponent and the
    comparison is exact.
    """
    pairs = tuple(factors)
    if not pairs:
        raise ValueError("need at least one factor")
    for L, m in pairs:
        if not isinstance(L, LaurentPoly) or L.variables != f.variables:
            raise VariableMismatch(
                f"factor {L!r} is not a Laurent polynomial in {f.variables}")
        if type(m) is not int or m < 1:  # a bool is no power
            raise ValueError(f"factor power must be an int >= 1, got {m!r}")
    radix = 2 * max(_reach(f), sum(m * _reach(L) for L, m in pairs)) + 1
    weights = [radix ** d for d in range(len(f.variables))]

    def pack(p: LaurentPoly) -> list:
        return [(sum(map(mul, e, weights)), c) for e, c in p.terms()]

    product = {0: 1}
    for L, m in pairs:
        step = pack(L)
        for _ in range(m):
            product = _times(product, step)
    if product != dict(pack(f)):
        raise ValueError("the factors do not multiply out to f")
    out = LaurentPoly._raw(f.variables, f._terms)
    out.factors = pairs
    return out


def _check_order(order) -> None:
    """Refuse an order that is not an int >= 1, bool included."""
    if type(order) is not int:
        raise ValueError(f"order must be an int >= 1, got {order!r}")
    if order < 1:
        raise ValueError("order must be at least 1")


def _chain(f: LaurentPoly) -> List[LaurentPoly]:
    """The steps whose product takes f^(a-1) to f^a.

    A factor L with power m is m steps of L, and f with no factors is the
    one step f; the one-term factors (monomials and constants) are folded
    into the first longer step.
    """
    steps: List[LaurentPoly] = []
    monomial = None
    for L, m in f.factors or ((f, 1),):
        if len(L) == 1:
            monomial = L ** m if monomial is None else monomial * L ** m
        else:
            steps.extend([L] * m)
    if monomial is not None:
        steps[:1] = [monomial * steps[0] if steps else monomial]
    return steps or [LaurentPoly.constant(1, f.variables)]


def _period_facets(f: LaurentPoly, positions: Sequence[int], dims: int):
    """(n, h, peak) for each facet n.x + h >= 0 of the Newton polytope
    Delta of f in the period variables, n in the order of the period digits
    and peak the largest n.v over Delta; empty when f is zero or Delta is not
    full-dimensional there, and then nothing is pruned."""
    if f.is_zero():
        return []
    if dims == len(positions):
        delta = newton_polytope(f)
    else:
        delta = Polytope({tuple(e[i] for i in positions[:dims])
                          for e in f.exponents()})
        positions = range(dims)
    if not delta.is_full_dimensional():
        return []
    return [(tuple(n[i] for i in positions), h,
             max(sum(map(mul, n, v)) for v in delta.vertices))
            for n, h in delta.facets]


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
    steps = _chain(f)

    n = order - 1
    half = n // 2
    top = _reach(f)
    radix = 2 * max(n * top, half * top + sum(map(_reach, steps))) + 1
    weights = [radix ** d for d in range(len(positions))]

    def pack(p: LaurentPoly) -> list:
        return [(sum(e[i] * w for i, w in zip(positions, weights)), c)
                for e, c in p.terms()]

    packed = pack(f)
    steps = [pack(step) for step in steps]

    def partial(power: dict) -> dict:
        """power times every step but the last."""
        for step in steps[:-1]:
            power = _times(power, step)
        return power

    facets = _period_facets(f, positions, len(period))
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
            return LaurentPoly.constant(
                sum(d * _pairing(a, b, -s) for s, d in targets))
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
        terms = {}
        for key, c in sums.items():
            key //= width
            digits = []
            for _ in rest:
                digit = (key + radix // 2) % radix - radix // 2
                digits.append(digit)
                key = (key - digit) // radix
            terms[tuple(digits)] = c
        return LaurentPoly(rest, terms)

    out: List[LaurentPoly] = [LaurentPoly.constant(1, rest)]
    cur = {0: 1}
    for a in range(1, half + 1):
        # f^1 is the packed f, with no chain
        prev, cur = cur, _times(partial(cur), steps[-1]) if a > 1 \
            else dict(packed)
        # f^a lies in a Delta, which the facet n.x + h >= 0 of
        # -(n - a) Delta cuts only when a * peak > (n - a) * h
        cuts = [(normal, h) for normal, h, peak in facets
                if a * peak > (n - a) * h] if a < half or n % 2 else ()
        if cuts:
            cur = _prune(cur, cuts, n - a, radix, len(period))
        out.append(coefficient(cur, prev, [(0, 1)]))
        out.append(coefficient(cur, cur, [(0, 1)]))
    if n % 2:
        # f^(2p+1) = f^p * (f / L) * L * f^p, with L the last step
        out.append(coefficient(partial(cur), cur, steps[-1]))
    return out


def phi(f: LaurentPoly, order: int) -> PowerSeries:
    """Main period of f: coefficient i is the constant term of f^i; the
    factors f carries give the same series faster (`phi_coefficients`)."""
    polys = phi_coefficients(f, order)
    return PowerSeries(tuple(p.constant_term() for p in polys))


def _ints(xs, what: str) -> Tuple[int, ...]:
    """xs as a tuple, refusing an entry that is no int, bool included,
    where int() would read 1.5 or True as 1."""
    xs = tuple(xs)
    if any(type(x) is not int for x in xs):
        raise TypeError(f"{what} must be integers, got {xs!r}")
    return xs


@dataclass(frozen=True)
class WciSpec:
    """Weighted complete intersection of the given degrees."""

    weights: Tuple[int, ...]
    degrees: Tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "weights", _ints(self.weights, "weights"))
        object.__setattr__(self, "degrees", _ints(self.degrees, "degrees"))
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive")
        if any(d < 1 for d in self.degrees):
            raise ValueError("degrees must be positive")
        if self.index < 1:
            raise ValueError("not Fano: index must be at least 1")

    @property
    def index(self) -> int:
        return sum(self.weights) - sum(self.degrees)

    def toric_data(self) -> "ToricCurveClassData":
        """Rank-one curve-class data: one row of weights, degree vectors (d,)."""
        return ToricCurveClassData((self.weights,),
                                   tuple((d,) for d in self.degrees))


@dataclass(frozen=True)
class GrassSpec:
    """Complete intersection of the given degrees in the Grassmannian G(k, n+k)."""

    k: int
    n: int
    degrees: Tuple[int, ...] = ()

    def __post_init__(self):
        _ints((self.k, self.n), "k and n")
        object.__setattr__(self, "degrees", _ints(self.degrees, "degrees"))
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

    This is the Batyrev-Ciocan-Fontanine-Kim-van Straten I-series, in the
    form of Coates-Corti-Galkin-Kasprzyk (arXiv:1303.3288). The degree-d
    coefficient is prod_i (d_i d)!/(d!)^(k+n) times a sum over
    (k-1)x(n-1) integer arrays s, padded by s_{k,j} = s_{i,n} = d, of the
    product of C(below, s_{i,j}) * C(right, s_{i,j}) over
    every entry and its lower and right neighbours. A product is nonzero
    only when every entry is at most both neighbours, so only those arrays,
    the plane partitions in a (k-1)x(n-1)xd box, are summed.
    """
    _check_order(order)
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
        total = _plane_partition_sum(k - 1, n - 1, d)
        coeffs[d0 * d] = _norm(scale * total)
        d += 1
    return PowerSeries(tuple(coeffs))


def _plane_partition_sum(rows: int, cols: int, d: int) -> int:
    """Sum over rows x cols arrays with every entry at most its lower and
    right neighbours (padding d) of the product of C(below, s) *
    C(right, s). The bottom row is filled first, each row right to
    left; each cell takes 0..min(below, right), and the product so far is
    carried down the recursion."""
    grid = [[0] * cols for _ in range(rows)] + [[d] * cols]

    def fill(cell: int, prod: int) -> int:
        if cell < 0:
            return prod
        i, j = divmod(cell, cols)
        row = grid[i]
        below = grid[i + 1][j]
        right = row[j + 1] if j + 1 < cols else d
        total = 0
        for a in range(min(below, right) + 1):
            row[j] = a
            total += fill(cell - 1,
                          prod * comb(below, a) * comb(right, a))
        return total

    return fill(rows * cols - 1, 1)


@dataclass(frozen=True)
class ToricCurveClassData:
    """Generators of effective curve classes paired against toric divisors.

    Each row s lists the intersection numbers D_j.C_s of a generating class
    with every divisor; its sum kappa_s is -K_Y.C_s. Each optional degree
    vector belongs to one hypersurface L_i of a complete intersection X and
    lists L_i.C_s for every row. Optional parameter exponents attach a
    monomial in formal divisor parameters to each generator.
    """

    rows: Tuple[Tuple[int, ...], ...]
    degrees: Tuple[Tuple[int, ...], ...] = ()
    param_vars: Tuple[str, ...] = ()
    param_exponents: Tuple[Tuple[int, ...], ...] = ()

    def __post_init__(self):
        rows = tuple(_ints(r, "rows") for r in self.rows)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "degrees",
                           tuple(_ints(v, "degrees") for v in self.degrees))
        object.__setattr__(self, "param_vars", tuple(self.param_vars))
        object.__setattr__(self, "param_exponents",
                           tuple(_ints(e, "parameter exponents")
                                 for e in self.param_exponents))
        if not rows:
            raise ValueError("need at least one curve class row")
        if len({len(r) for r in rows}) != 1:
            raise ValueError("rows must all have the same length")
        if any(len(v) != len(rows) or min(v) < 0 for v in self.degrees):
            raise ValueError("each degree vector needs one entry >= 0 per row")
        if any(k <= 0 for k in self.t_degrees):
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

    @property
    def t_degrees(self) -> Tuple[int, ...]:
        """-K_X.C_s, the power of t each generator carries."""
        return tuple(k - sum(v[s] for v in self.degrees)
                     for s, k in enumerate(self.kappa))


def _toric_combinations(kappa: Sequence[int], bound: int):
    """Nonnegative multiplicity vectors m with sum(m_s kappa_s) <= bound."""
    if not kappa:
        yield ()
        return
    for m in range(bound // kappa[0] + 1):
        for rest in _toric_combinations(kappa[1:], bound - m * kappa[0]):
            yield (m,) + rest


def iseries_toric_parametrized(data: ToricCurveClassData, order: int
                               ) -> List[LaurentPoly]:
    """I-series coefficients as monomials in the divisor parameters.

    Coefficient i is a Laurent polynomial in data.param_vars collecting all
    generator combinations of total anticanonical degree i.
    """
    _check_order(order)
    kappa = data.t_degrees
    vs = data.param_vars
    columns = list(zip(*data.rows))
    terms: List[dict] = [dict() for _ in range(order)]
    for m in _toric_combinations(kappa, order - 1):
        beta = [sum(map(mul, m, col)) for col in columns]
        if min(beta) < 0:
            continue
        deg = sum(map(mul, m, kappa))
        num = factorial(deg) * math.prod(factorial(sum(map(mul, m, v)))
                                         for v in data.degrees)
        exp = tuple(sum(ms * e[j] for ms, e in zip(m, data.param_exponents))
                    for j in range(len(vs)))
        bucket = terms[deg]
        bucket[exp] = bucket.get(exp, 0) + Fraction(
            num, math.prod(map(factorial, beta)))
    return [LaurentPoly(vs, t) for t in terms]


def iseries_toric(data: ToricCurveClassData, order: int) -> PowerSeries:
    """Scalar I-series of a toric complete intersection, parameters set to one."""
    polys = iseries_toric_parametrized(data, order)
    coeffs = tuple(_norm(sum((c for _, c in p.terms()), start=Fraction(0)))
                   for p in polys)
    warnings = ()
    if any(k == 1 for k in data.kappa):
        warnings = ("a generator has anticanonical degree one; the linear "
                    "correction term for index-one models is not applied",)
    return PowerSeries(coeffs, warnings)


class PeriodReport(NamedTuple):
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


def verify_period(f: LaurentPoly, target: PowerSeries) -> PeriodReport:
    """Exact comparison of the period of f against a target series."""
    if target.order < 2:
        raise ValueError("target must have order at least 2")
    mine = phi(f, target.order)
    i = mine.first_mismatch(target)
    if i is None:
        return PeriodReport(True, target.order)
    return PeriodReport(False, target.order, i,
                        str(Fraction(target.coeffs[i])),
                        str(Fraction(mine.coeffs[i])))
