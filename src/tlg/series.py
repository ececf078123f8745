"""Period series of Laurent polynomials and closed-form I-series.

The period of f collects the constant terms ct(f^j), j = 0..N. They are
read off half powers with ct(f^(a+b)) = sum over e of [f^a]_e [f^b]_(-e),
as in Coates-Corti-Galkin-Kasprzyk (arXiv:1303.3288): with f^(a-1) and
f^a at hand, ct(f^(2a-1)) and ct(f^(2a)) are sparse dot products, so only
f^1..f^p, p = N//2, are built. For odd N the last step L of the chain
below is folded into the last pairing: with g = f^p (f/L), what the chain
makes on its way to f^(p+1), ct(f^(2p+1)) = sum over s of L_s * sum over
k of [g]_k [f^p]_(-k-s); for an unfactored f, L = f and g = f^p.

Many models are products, f = prod of L_i^(m_i), the form of the
Givental/Hori-Vafa and Przyjalkowski models of complete intersections
(Przyjalkowski-Shramov, arXiv:1409.3729). `factored` checks such factors
once, on packed keys, and returns f carrying them (`LaurentPoly.factors`),
as loading the catalog does. Then f^a is built from f^(a-1) one step at a
time, by each L_i m_i times, the monomial factors folded into the first
step: a step costs |partial product| * |L_i|, not |f^(a-1)| * |f|, so
(x+y+z+1)^6/(xyz) takes six steps of 4 terms, not one of 84. An
unfactored f is the one-step chain (f, 1).

`phi` first splits f into blocks of variables, computes each block's
series apart and combines them; `tlg.parametric.phi_coefficients` runs the
engine on all of f. Both rules rest on one fact: the constant term of a
product of Laurent polynomials in disjoint variables is the product of
theirs. Two variables share a block when a term of f joins them. With
several blocks f = g + h, g in the first block's variables with the
constant term and h in the others' (as for products of Fano varieties),
and the binomial expansion gives ct(f^n) = sum over k of C(n, k) ct(g^k)
ct(h^(n-k)): the exponential periods multiply (arXiv:1303.3288). When f
carries factors and the variables of its non-monomial factors, each
factor's in one block, fall into blocks, as in (1+x)^2 (1+y)^2 (1+z)^2 /
(xyz), f is the product of its blocks' parts f_B, the factors in the
block's variables times its share of the monomial factor, whose
coefficient goes to the first block, and ct(f^n) = prod of ct(f_B^n).
The rules nest, a block of a product may be a sum, and the engine runs on
each block's own variables, with its share of the factors `factored`
checked.

Each finished power is pruned. Let Delta be the Newton polytope of f,
with facets n.x + h >= 0 (`newton_polytope` hulls a product's factor
sums). A term of f^a at e meets only partners of degree b <= N - a:
f^(a-1) or f^a in a pairing, f^p and one more f in the fold, or, carried
into f^(a+1), the partners of that power. Their exponents lie in b Delta,
so a term that reaches a constant term has -e in b Delta, and when the
origin lies in Delta, b Delta lies in (N - a) Delta. So f^a keeps only the
e with n.e <= (N - a) h for every facet, and no ct(f^j), j <= N, changes.
Building f^(a+1) from the pruned f^a is exact on -(N - a - 1) Delta, the
part it keeps, since -(N - a - 1) Delta - Delta = -(N - a) Delta; in the
fold, Newton(f/L) + Newton(L) = Delta. The argument needs of Delta only
that it is convex, holds the exponents and holds the origin; when the
origin lies outside, every ct(f^j), j >= 1, is 0, and stays 0 in pairings
of pruned powers. So a block prunes by the facets of Delta whose normal
is not 0 on it, read on its coordinates: they hold on its exponents,
which for a summand are exponents of f, and for a product, where Delta is
the product of the blocks' polytopes, they are the facets of the block's
own. The origin lies outside them only when it lies outside the block's
polytope. A cut is skipped when a * peak <= (N - a) h, peak the largest
n.v over Delta, which bounds it over a block's exponents too. Nothing is
pruned when Delta is not full-dimensional, nor f^p at even N, where a
term meets only two dot products and costs less than its test.

The exponents are packed into one int, pack(e) = sum of e_i R^i, with
balanced digits base R = 2K + 1: injective on coordinates in [-K, K], and
linear, so -e and e + e' go to -pack(e) and pack(e) + pack(e'). A pairing
meets exponents in N Delta, and the chain, g included, sums of at most p
exponents of f and one of each step, so K = max(N |f|, p |f| + sum over
the steps of |L|), |g| the largest |exponent| of g, keeps one key per
exponent in every dict: dict sizes are true term counts and the prune
reads true digits. The prune splits off the lowest digit and bounds it by
an interval that depends on the other digits only, worked out once per
row. Coefficients are ints or Fractions. A chain step loops over the
power once per term of the step, and a term with coefficient 1 skips its
multiply. A dict paired with itself, as in ct(f^(2a)), looks up only its
keys below half the target, the sum being symmetric under k -> target - k.

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
from operator import add, mul
from typing import Iterable, List, Optional, Sequence, Tuple

from .laurent import (Coeff, LaurentPoly, VariableMismatch, _coerce_coeff,
                      _norm)
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


def _reach(terms: dict) -> int:
    """The largest |exponent entry| of the terms, 0 for a constant or
    zero."""
    return max((abs(x) for e in terms for x in e), default=0)


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
    radix = 2 * max(_reach(f._terms),
                    sum(m * _reach(L._terms) for L, m in pairs)) + 1
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


def _monomial_part(factors, dims: int):
    """(shift, scale, others): the exponent and the coefficient of the
    product of the one-term factors (monomials and constants) L^m among
    the pairs (L, m), and the other pairs."""
    shift, scale, others = (0,) * dims, 1, []
    for L, m in factors:
        if len(L) == 1:
            ((e, c),) = L.items()
            shift = tuple(a + m * x for a, x in zip(shift, e))
            scale *= c ** m
        else:
            others.append((L, m))
    return shift, _norm(scale), others


def _chain(terms: dict, factors, dims: int) -> List[dict]:
    """The steps whose product takes f^(a-1) to f^a, as dicts of exponent
    to coefficient, for f with the given terms and factor pairs (L, m) of
    such dicts, or None.

    A factor L with power m is m steps of L, and f with no factors is the
    one step f; the one-term factors are folded into the first longer
    step.
    """
    shift, scale, others = _monomial_part(factors or ((terms, 1),), dims)
    steps = [L for L, m in others for _ in range(m)]
    if not steps:
        return [{shift: scale}]
    if any(shift) or scale != 1:
        steps[0] = {tuple(map(add, e, shift)): c * scale
                    for e, c in steps[0].items()}
    return steps


def _radix(terms: dict, steps: List[dict], n: int) -> int:
    """2K + 1 with K = max(N |f|, p |f| + sum over the steps of |L|),
    p = N // 2, which covers every exponent a pairing or the chain meets
    (module docstring)."""
    top = _reach(terms)
    return 2 * max(n * top, n // 2 * top + sum(map(_reach, steps))) + 1


def _powers(terms: dict, steps: List[dict], facets, radix: int, dims: int,
            n: int, coefficient) -> list:
    """ct(f^1)..ct(f^n) for f with the given terms and chain steps in dims
    variables, on keys packed with the radix and pruned by the facets (n,
    h, peak) of the period digits, as coefficient(a, b, targets) gives the
    constant term of a * b * sum of d x^s over (s, d) in targets."""
    weights = [radix ** d for d in range(dims)]

    def pack(p: dict) -> list:
        return [(sum(map(mul, e, weights)), c) for e, c in sorted(p.items())]

    packed, steps = dict(pack(terms)), [pack(step) for step in steps]

    def partial(power: dict) -> dict:
        """power times every step but the last."""
        for step in steps[:-1]:
            power = _times(power, step)
        return power

    half, out, cur = n // 2, [], {0: 1}
    for a in range(1, half + 1):
        # f^1 is the packed f, with no chain; f^(a-2) is let go before f^a
        # is built, and f^(p-1) before the fold, to hold less at the peak
        prev = cur
        cur = _times(partial(prev), steps[-1]) if a > 1 else packed
        # f^a lies in a Delta, which the facet n.x + h >= 0 of
        # -(n - a) Delta cuts only when a * peak > (n - a) * h
        cuts = [(normal, h) for normal, h, peak in facets
                if a * peak > (n - a) * h] if a < half or n % 2 else ()
        if cuts:
            cur = _prune(cur, cuts, n - a, radix, len(cuts[0][0]))
        out.append(coefficient(cur, prev, ((0, 1),)))
        out.append(coefficient(cur, cur, ((0, 1),)))
    if n % 2:
        # f^(2p+1) = f^p * (f / L) * L * f^p, with L the last step
        prev = None
        out.append(coefficient(partial(cur), cur, steps[-1]))
    return out


def _constant_term(a: dict, b: dict, targets) -> Coeff:
    """The constant term of a * b * sum of d x^s over (s, d) in targets,
    every digit a period digit."""
    return sum(d * _pairing(a, b, -s) for s, d in targets)


def _facets(delta: Polytope):
    """(n, h, peak) for each facet n.x + h >= 0 of delta, peak the largest
    n.v over delta; empty when delta is not full-dimensional, and then
    nothing is pruned."""
    if not delta.is_full_dimensional():
        return []
    return [(n, h, max(sum(map(mul, n, v)) for v in delta.vertices))
            for n, h in delta.facets]


def _support(exponents) -> set:
    """The coordinates at which some of the exponents is not 0."""
    return {i for e in exponents for i, x in enumerate(e) if x}


def _blocks(groups, dims: int) -> List[Tuple[int, ...]]:
    """The classes of the coordinates 0..dims-1 that the groups, sets of
    coordinates, join, each sorted, in order of their least coordinate; a
    coordinate in no group is in no class."""
    classes: List[set] = []
    for g in groups:
        joined = [c for c in classes if not c.isdisjoint(g)]
        g = set(g).union(*joined)
        if len(g) == dims:
            return [tuple(range(dims))]
        classes = [c for c in classes if c not in joined] + [g]
    return sorted(tuple(sorted(c)) for c in classes if c)


def _restricted(facets, block: Tuple[int, ...]):
    """The facets (n, h, peak) whose normal is not 0 on the block, read on
    its coordinates, with the least h and peak for each normal."""
    tightest: dict = {}
    for normal, h, peak in facets:
        nb = tuple(normal[i] for i in block)
        if any(nb):
            h0, peak0 = tightest.get(nb, (h, peak))
            tightest[nb] = min(h, h0), min(peak, peak0)
    return [(nb, h, peak) for nb, (h, peak) in tightest.items()]


def _summed_periods(terms: dict, steps: List[dict], facets, dims: int,
                    n: int) -> list:
    """ct(f^0)..ct(f^n) over every variable, for f with the given terms and
    chain steps and facets (n, h, peak) that hold on its exponents: the
    binomial convolution of its blocks' series when its terms fall into
    blocks of variables, the constant term going to the first; else the
    engine on all of f."""
    blocks = [] if dims < 2 or any(all(e) for e in terms) else _blocks(
        [_support([p]) for p in {tuple(map(bool, e)) for e in terms}], dims)
    if len(blocks) < 2:
        return [1] + _powers(terms, steps, facets, _radix(terms, steps, n),
                             dims, n, _constant_term)
    owner = {i: b for b, block in enumerate(blocks) for i in block}
    parts: List[dict] = [{} for _ in blocks]
    for e, c in terms.items():
        b = next((owner[i] for i, x in enumerate(e) if x), 0)
        parts[b][tuple(e[i] for i in blocks[b])] = c
    out = [1] + [0] * n
    for block, local in zip(blocks, parts):
        mine = _summed_periods(local, [local], _restricted(facets, block),
                               len(block), n)
        out = [sum(comb(j, k) * out[k] * mine[j - k]
                   for k in range(j + 1) if out[k]) for j in range(n + 1)]
    return out


def _block_periods(terms: dict, factors, facets, dims: int, n: int) -> list:
    """ct(f^0)..ct(f^n) over every variable as `_summed_periods` gives
    them, but for f carrying factors that fall into blocks of variables
    the product of the blocks' series: a block takes the factors in its
    variables and its part of the monomial factor, whose coefficient goes
    to the first block."""
    if factors and terms:
        shift, scale, others = _monomial_part(factors, dims)
        supports = [_support(L) for L, _ in others]
        blocks = _blocks(supports + [{i} for i, x in enumerate(shift) if x],
                         dims)
        if len(blocks) > 1:
            out = [1] * (n + 1)
            for block in blocks:
                steps = _chain(None, [
                    ({tuple(e[i] for i in block): c for e, c in L.items()}, m)
                    for s, (L, m) in zip(supports, others) if min(s) in block
                ] + [({tuple(shift[i] for i in block): scale}, 1)], len(block))
                scale = 1
                local = {(0,) * len(block): 1}
                for step in steps:
                    product: dict = {}
                    for e, c in local.items():
                        for s, d in step.items():
                            key = tuple(map(add, e, s))
                            product[key] = product.get(key, 0) + c * d
                    local = {e: c for e, c in product.items() if c}
                out = list(map(mul, out, _summed_periods(
                    local, steps, _restricted(facets, block), len(block), n)))
            return out
    return _summed_periods(terms, _chain(terms, factors, dims), facets, dims,
                           n)


def phi(f: LaurentPoly, order: int) -> PowerSeries:
    """Main period of f: coefficient i is the constant term of f^i over
    every variable. The blocks of variables that f falls into, as a sum or
    by the factors it carries, are computed apart and combined (module
    docstring); `phi_coefficients` gives the same series from all of f."""
    _check_order(order)
    dims = len(f.variables)
    if not dims:
        raise ValueError("need at least one period variable")
    facets = [] if f.is_zero() else _facets(newton_polytope(f))
    return PowerSeries(tuple(map(_norm, _block_periods(
        f._terms, f.factors and [(L._terms, m) for L, m in f.factors],
        facets, dims, order - 1))))


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
