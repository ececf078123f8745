import hashlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tlg import catalog, series
from tlg.commands import verify_period
from tlg.intlinalg import det_bareiss
from tlg.laurent import LaurentPoly
from tlg.parametric import phi_coefficients
from tlg.polytope import Polytope, newton_polytope
from tlg.series import (GrassSpec, NegativeAnticanonicalDegree, PowerSeries,
                        ToricCurveClassData, WciSpec, _pairing, _times,
                        factored, iseries_grassmannian, iseries_toric,
                        iseries_toric_parametrized, phi)

V3 = ("x", "y", "z")
x3, y3, z3 = (LaurentPoly.variable(n, V3) for n in V3)
P3_MODEL = x3 + y3 + z3 + (x3 * y3 * z3) ** -1


def brute_constant_terms(f, order):
    """Constant terms of f^i by plain repeated multiplication."""
    out = [1]
    power = LaurentPoly.constant(1, f.variables)
    for _ in range(1, order):
        power = power * f
        out.append(power.coefficient((0,) * len(f.variables)))
    return out


def test_phi_central_binomials():
    xv = LaurentPoly.variable("x", ("x",))
    s = phi(xv + xv ** -1, 7)
    assert list(s.coeffs) == [math.comb(2 * d, d) if i % 2 == 0 else 0
                              for i, d in [(i, i // 2) for i in range(7)]]


def test_phi_projective_plane():
    vs = ("x", "y")
    xv, yv = (LaurentPoly.variable(n, vs) for n in vs)
    s = phi(xv + yv + (xv * yv) ** -1, 10)
    for i, c in enumerate(s.coeffs):
        if i % 3:
            assert c == 0
        else:
            k = i // 3
            assert c == math.factorial(3 * k) // math.factorial(k) ** 3


def test_phi_matches_unpruned_powering():
    f = 2 * x3 + y3 ** -1 + x3 * z3 + 5 + (x3 * y3 * z3) ** -1
    assert list(phi(f, 6).coeffs) == brute_constant_terms(f, 6)


def test_phi_rejects_parameters_but_coefficients_carry_them():
    vs = ("x", "q")
    xv, qv = (LaurentPoly.variable(n, vs) for n in vs)
    f = xv + qv * xv ** -1
    # phi folds every variable into the period, q included
    assert list(phi(f, 3).coeffs) == [1, 0, 0]
    coeffs = phi_coefficients(f, 5, period_vars=("x",))
    q = LaurentPoly.variable("q", ("q",))
    assert coeffs[2] == 2 * q
    assert coeffs[4] == 6 * q ** 2


def test_iseries_projective_space():
    spec = WciSpec((1, 1, 1, 1), ())
    s = iseries_toric(spec.toric_data(), 13)
    for i, c in enumerate(s.coeffs):
        if i % 4:
            assert c == 0
        else:
            k = i // 4
            assert c == math.factorial(4 * k) // math.factorial(k) ** 4
    assert phi(P3_MODEL, 13) == s


def test_iseries_quartic_threefold():
    s = iseries_toric(WciSpec((1,) * 5, (4,)).toric_data(), 4)
    expected = [math.factorial(4 * d) // math.factorial(d) ** 4
                for d in range(4)]
    assert list(s.coeffs) == expected


def test_iseries_sextic_hypersurface():
    s = iseries_toric(WciSpec((1, 1, 1, 1, 3), (6,)).toric_data(), 3)
    assert s.coeffs[1] == 120
    assert s.coeffs[0] == 1


def test_wci_spec_validation():
    with pytest.raises(ValueError):
        WciSpec((1, 1), (2,))  # index zero, not Fano
    with pytest.raises(ValueError):
        WciSpec((1, -1), ())


@st.composite
def _wci_specs(draw):
    weights = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    degrees = draw(st.lists(st.integers(1, 6), max_size=3))
    if sum(weights) - sum(degrees) < 1:
        degrees = []
    return WciSpec(tuple(weights), tuple(degrees))


@settings(max_examples=100, deadline=None)
@given(_wci_specs(), st.integers(1, 25))
@example(WciSpec((1, 1, 1, 2, 3), (6,)), 25)
def test_wci_iseries_is_the_rank_one_toric_series(spec, order):
    # the weighted closed form: (d0 d)! prod_i (d_i d)! / prod_j (w_j d)!
    # at t^(d0 d), where d0 is the index
    d0 = spec.index
    expected = [0] * order
    for d in range((order - 1) // d0 + 1):
        num = math.factorial(d0 * d)
        for di in spec.degrees:
            num *= math.factorial(di * d)
        den = 1
        for w in spec.weights:
            den *= math.factorial(w * d)
        expected[d0 * d] = Fraction(num, den)
    s = iseries_toric(spec.toric_data(), order)
    assert list(s.coeffs) == expected
    assert all(isinstance(c, int) or c.denominator > 1 for c in s.coeffs)
    if len(spec.weights) > 1:
        assert s.warnings == ()


def brute_grassmannian(k, n, degrees, order):
    """The BCFKS sum taken over every (k-1)x(n-1) array over 0..d, padded
    by d, including the arrays whose product of binomials is zero."""
    index = k + n - sum(degrees)
    rows, cols = k - 1, n - 1
    out = [1] + [0] * (order - 1)
    for d in range(1, (order - 1) // index + 1):
        total = 0
        for flat in itertools.product(range(d + 1), repeat=rows * cols):
            def s(i, j):
                return d if i == rows or j == cols else flat[i * cols + j]
            total += math.prod(
                math.comb(s(i + 1, j), s(i, j)) * math.comb(s(i, j + 1), s(i, j))
                for i in range(rows) for j in range(cols))
        num = math.factorial(index * d) * total
        num *= math.prod(math.factorial(e * d) for e in degrees)
        out[index * d] = Fraction(num, math.factorial(d) ** (k + n))
    return out


def _degree_tuples(total, largest, parts):
    """Non-increasing tuples of at most parts positive ints summing to total."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        if parts:
            for rest in _degree_tuples(total - first, first, parts - 1):
                yield (first,) + rest


# every Fano complete intersection of up to six hypersurfaces in G(k, n+k)
# with k, n <= 3 or k = 2, n <= 5; four-cell arrays stop at order 9
GRASS_CASES = [(k, n, degrees, 12 if (k - 1) * (n - 1) < 4 else 9)
               for k, n in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (2, 5)]
               for total in range(k + n)
               for degrees in _degree_tuples(total, total, 6)]


@pytest.mark.parametrize("k, n", sorted({c[:2] for c in GRASS_CASES}))
def test_iseries_grassmannian_matches_the_sum_over_all_arrays(k, n):
    for _, _, degrees, order in (c for c in GRASS_CASES if c[:2] == (k, n)):
        assert list(iseries_grassmannian(GrassSpec(k, n, degrees),
                                         order).coeffs) == \
            brute_grassmannian(k, n, degrees, order), degrees


# the closed-forms benchmark value of G36-2111 (perfbench/reference.json)
G36_2111_ORDER_24 = [
    1,
    12,
    756,
    78960,
    10451700,
    1587790512,
    263964176784,
    46763681545152,
    8685492699286260,
    1673141719035586800,
    331806600070451762256,
    67377255159555932939712,
    13953222357671549636336016,
    2937882227993082932809060800,
    627406381708621842371326632000,
    135639423829806467721012607368960,
    29639527762978144258145645826853620,
    6538095980109974865657746806190094960,
    1454339049153352725557170908168702973200,
    325932435721150419036064508383777324920000,
    73537499930077500634982016825197635299589200,
    16692780174138119603611663299539420692281566400,
    3810174416036104217626468768951619320573081627200,
    874071820450452836386705265010593303675638386528000
]


def test_iseries_grassmannian_quadric_section():
    s = iseries_grassmannian(GrassSpec(3, 3, (2, 1, 1, 1)), 24)
    assert list(s.coeffs) == G36_2111_ORDER_24
    assert iseries_grassmannian(GrassSpec(3, 3, (1, 1, 1, 2)), 24) == s


# not an int, or a bool: refused before any work, in the wording of the
# factor powers
NON_INT_ORDERS = [True, 2.5, "3", Fraction(3)]


@pytest.mark.parametrize("order", NON_INT_ORDERS)
def test_iseries_grassmannian_refuses_a_non_int_order(order):
    with pytest.raises(ValueError, match="order must be an int >= 1, got"):
        iseries_grassmannian(GrassSpec(2, 2), order)


def test_grass_spec_validation():
    with pytest.raises(ValueError):
        GrassSpec(3, 3, (3, 1, 1, 1))  # degree sum hits n+k


S7_ROWS = ((1, 0, 1, 0, 0), (1, 1, 0, 1, 0), (0, 1, 0, 0, 1))


def s7_oracle(order):
    out = [0] * order
    for k in range(order):
        for l in range(order):
            for m in range(order):
                n = 2 * k + 3 * l + 2 * m
                if n >= order:
                    continue
                den = (math.factorial(k + l) * math.factorial(l + m)
                       * math.factorial(k) * math.factorial(l)
                       * math.factorial(m))
                out[n] += math.factorial(n) // den
    return out


def test_iseries_toric_degree_seven_surface():
    data = ToricCurveClassData(S7_ROWS)
    s = iseries_toric(data, 8)
    assert list(s.coeffs) == s7_oracle(8)
    assert s.warnings == ()


def test_iseries_toric_projective_line():
    data = ToricCurveClassData(((1, 1),))
    xv = LaurentPoly.variable("x", ("x",))
    assert iseries_toric(data, 9) == phi(xv + xv ** -1, 9)


@pytest.mark.parametrize("order", NON_INT_ORDERS)
def test_iseries_toric_parametrized_refuses_a_non_int_order(order):
    with pytest.raises(ValueError, match="order must be an int >= 1, got"):
        iseries_toric_parametrized(ToricCurveClassData(((1, 1),)), order)


def test_iseries_toric_unit_kappa_warns():
    data = ToricCurveClassData(((1, 0),))
    s = iseries_toric(data, 3)
    assert s.warnings


def test_toric_data_rejects_negative_degree():
    with pytest.raises(NegativeAnticanonicalDegree):
        ToricCurveClassData(((-1, -1),))
    # a hypersurface can use up the whole anticanonical degree
    with pytest.raises(NegativeAnticanonicalDegree):
        ToricCurveClassData(((1, 1, 1),), ((3,),))
    with pytest.raises(ValueError):
        ToricCurveClassData(((1, 1, 1),), ((1, 1),))
    with pytest.raises(ValueError):
        ToricCurveClassData(((1, 1, 1),), ((-1,),))


def test_negative_divisor_pairings_contribute_nothing():
    # the Hirzebruch surface F_1: the first row is the (-1)-curve, which
    # meets its own divisor negatively; classes that pair a divisor below
    # zero add nothing
    vs = ("x", "y")
    x, y = (LaurentPoly.variable(n, vs) for n in vs)
    data = ToricCurveClassData(((1, -1, 1, 0), (0, 1, 0, 1)))
    s = iseries_toric(data, 10)
    assert list(s.coeffs) == [1, 0, 2, 6, 6, 60, 110, 420, 1750, 4200]
    assert s == phi(x + y + y * x ** -1 + y ** -1, 10)


# Rank-two toric complete intersections: 2-3, 9-1 and 10-1 lie in
# P^1 x P(w), with one class-group row per factor; 2-2 lies in the toric
# variety whose last divisor has weights (1, 2). One degree vector per
# hypersurface.
PRODUCT_CIS = {
    "2-2": (((1, 1, 0, 0, 0, 1), (0, 0, 1, 1, 1, 2)), ((2, 4),)),
    "2-3": (((1, 1, 0, 0, 0, 0, 0), (0, 0, 1, 1, 1, 1, 2)),
            ((1, 1), (0, 4))),
    "9-1": (((1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 1, 2)), ((0, 4),)),
    "10-1": (((1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 2, 3)), ((0, 6),)),
}


@pytest.mark.parametrize("entry_id", sorted(PRODUCT_CIS))
def test_product_complete_intersections_match_catalog_models(entry_id):
    rows, degrees = PRODUCT_CIS[entry_id]
    entry = next(e for e in catalog.load() if e.id == entry_id)
    s = iseries_toric(ToricCurveClassData(rows, degrees), 16)
    assert s.warnings == ()
    assert s == phi(entry.laurent, 16)


def test_parametrized_toric_series_equals_parametrized_period():
    # the same surface with boundary-divisor parameters left symbolic
    vs = ("x", "y", "q0", "q1", "q2")
    x, y, q0, q1, q2 = (LaurentPoly.variable(n, vs) for n in vs)
    f = x + y + q0 * (x * y) ** -1 + q0 * q1 * y ** -1 + q2 * x * y
    lhs = phi_coefficients(f, 7, period_vars=("x", "y"))
    rhs = iseries_toric_parametrized(
        ToricCurveClassData(S7_ROWS, param_vars=("q0", "q1", "q2"),
                            param_exponents=((1, 1, 0), (1, 0, 0),
                                             (1, 0, 1))), 7)
    assert len(lhs) == len(rhs)
    for ours, theirs in zip(lhs, rhs):
        assert ours == theirs


def test_verify_period_match_and_mismatch():
    target = phi(P3_MODEL, 9)
    ok = verify_period(P3_MODEL, target)
    assert ok.match and ok.order == 9 and ok.first_mismatch is None
    bad = PowerSeries(target.coeffs[:8] + (7,))
    rep = verify_period(P3_MODEL, bad)
    assert not rep.match
    assert rep.first_mismatch == 8
    assert rep.expected == "7"
    assert rep.found == "2520"
    data = rep.to_json_dict()
    assert data["match"] is False and data["first_mismatch"] == 8


def test_power_series_mechanics():
    s = PowerSeries((1, Fraction(1, 2), 3))
    assert s.order == 3
    assert s.coefficient(1) == Fraction(1, 2)
    assert s.truncate(2).coeffs == (1, Fraction(1, 2))
    with pytest.raises(ValueError):
        s.truncate(5)
    data = s.to_json_dict()
    assert data == {"order": 3, "coeffs": ["1", "1/2", "3"]}
    assert PowerSeries.from_json_dict(data) == s
    with pytest.raises(ValueError):
        PowerSeries.from_json_dict({"order": 2, "coeffs": ["1"]})


V4 = ("w", "x", "y", "z")
x2, y2 = (LaurentPoly.variable(n, ("x", "y")) for n in ("x", "y"))


@st.composite
def _phi_cases(draw):
    """A Laurent polynomial in 1-4 variables, an order and a nonempty
    period-variable subset in any order; the other variables ride along."""
    vs = V4[:draw(st.integers(1, 4))]
    coeff = st.one_of(st.integers(-3, 3),
                      st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)))
    exponent = st.tuples(*[st.integers(-3, 3)] * len(vs))
    terms = draw(st.lists(st.tuples(exponent, coeff), max_size=6))
    if terms and draw(st.booleans()):
        e, c = draw(st.sampled_from(terms))
        terms.append((e, -c))  # cancels in f itself
    f = LaurentPoly.zero(vs)
    for e, c in terms:
        f = f + LaurentPoly.monomial(vs, e, c)
    period = draw(st.permutations(vs))[:draw(st.integers(1, len(vs)))]
    return f, draw(st.integers(1, 9)), tuple(period)


def _constant_term_over(p, period):
    """The terms of p with exponent 0 in the period variables, as a Laurent
    polynomial in the others."""
    kill = [i for i, v in enumerate(p.variables) if v in period]
    keep = [i for i, v in enumerate(p.variables) if v not in period]
    return LaurentPoly(tuple(p.variables[i] for i in keep),
                       {tuple(e[i] for i in keep): c for e, c in p.terms()
                        if not any(e[i] for i in kill)})


@settings(max_examples=200, deadline=None)
@given(_phi_cases())
@example((LaurentPoly.zero(("x", "y")), 6, ("x", "y")))
@example((LaurentPoly.constant(Fraction(3, 2), ("x", "y")), 5, ("y",)))
# f^2 has x*y terms cancelling: 2*x*y from x*y and -2*x*y from 1*(-x*y)
@example((1 + x2 + y2 - x2 * y2, 7, ("x", "y")))
# sums of 8 exponents reach the radix edge x^24 = x^(N*max|e|); with a
# radix of 24, x^3*y^-1 * (x^3)^7 would pack to 0
@example((x2 ** 3 + x2 ** 3 * y2 ** -1 + x2 ** -3 + y2, 9, ("x", "y")))
@example((x2 ** 3 + x2 ** 3 * y2 ** -1 + x2 ** -3 + y2, 9, ("y", "x")))
# the half powers are pruned to -(N - a) Delta, Delta the Newton polytope
# of f in the period variables: a segment in (x, y) prunes nothing
@example((x2 + x2 ** -1, 8, ("x", "y")))
# the origin outside Delta: every ct(f^j), j >= 1, is 0, on a segment and
# on a triangle
@example((LaurentPoly.variable("x", ("x",)) * (1 + LaurentPoly.variable(
    "x", ("x",))), 8, ("x",)))
@example((x2 + x2 ** 2 + x2 * y2, 9, ("x", "y")))
# the parameter y rides in the coefficients; Delta is the hull of the
# x-exponents only
@example((x2 + y2 * x2 ** -1 + y2 ** 2 + x2 ** 2 * y2 ** -1, 8, ("x",)))
def test_phi_coefficients_match_brute_force_powers(case):
    f, order, period = case
    got = phi_coefficients(f, order, period)
    want = [_constant_term_over(f ** j, period) for j in range(order)]
    assert [p.variables for p in got] == [p.variables for p in want]
    assert [list(p.terms()) for p in got] == [list(p.terms()) for p in want]


def _expand(factors, vs):
    f = LaurentPoly.constant(1, vs)
    for L, m in factors:
        f = f * L ** m
    return f


@st.composite
def _factor_cases(draw):
    """A list of 1-3 factors in 1-4 variables, each a sum of 1-3 terms with
    exponents in [-2, 2] raised to the power 1-3, and an order 1-9; some
    lists hold a factor and its conjugate, whose cross terms cancel."""
    vs = V4[:draw(st.integers(1, 4))]
    coeff = st.one_of(st.integers(-3, 3).filter(bool),
                      st.builds(Fraction, st.integers(1, 3), st.integers(1, 4)))
    exponent = st.tuples(*[st.integers(-2, 2)] * len(vs))

    def term():
        return st.builds(lambda e, c: LaurentPoly.monomial(vs, e, c),
                         exponent, coeff)

    factors = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.lists(term(), min_size=1, max_size=3))
        L = sum(terms[1:], terms[0])
        factors.append((L, draw(st.integers(1, 3))))
    if draw(st.booleans()):
        # (a + b)(a - b) = a^2 - b^2: the terms 2ab cancel between factors
        a, b = draw(term()), draw(term())
        factors += [(a + b, 1), (a - b, 1)]
    f = _expand(factors, vs)
    order = draw(st.integers(1, 9 if len(f) <= 12 else 4))
    period = draw(st.permutations(vs))[:draw(st.integers(1, len(vs)))]
    return factors, order, tuple(period)


@settings(max_examples=150, deadline=None)
@given(_factor_cases())
# the partial product (x^3 + x^2)(1 + y) reaches x^3, beyond the 2 |f| = 2
# of the powers; the radix grows to cover the chain, where the radix 5 of
# the powers alone would give x^3 the key of x^-2 y
@example(([(x2 ** 3 + x2 ** 2, 1), (1 + y2, 1), (x2 ** -3 + x2 ** -2, 1)],
          3, ("x", "y")))
# a monomial factor is folded into the first longer step
@example(([(2 * x2 ** -1, 2), (x2 + y2, 3)], 8, ("x", "y")))
@example(([(1 + x2, 1), (1 - x2, 1)], 9, ("y", "x")))
# for odd N = 2p + 1 the last pairing reads f^p times every step but the
# last; at N = 1 that is x^3 + x^2, beyond N |f| = 2 and the (p - 1)|f| +
# sum |L| = 2 of the chain, and the radix grows to p |f| + sum |L| = 4
@example(([(x2 ** 3 + x2 ** 2, 1), (x2 ** -1 + x2 ** -1 * y2, 1)],
          2, ("x", "y")))
@example(([(x2 ** 3 + x2 ** 2, 1), (x2 ** -1 + x2 ** -1 * y2, 1)],
          2, ("x",)))
def test_phi_of_factors_equals_phi_of_their_product(case):
    factors, order, period = case
    vs = factors[0][0].variables
    f = _expand(factors, vs)
    want = phi_coefficients(f, order, period)
    assert phi_coefficients(factored(f, factors), order, period) == want
    if set(period) == set(vs):
        assert phi(factored(f, factors), order) == phi(f, order)


@pytest.mark.parametrize("order", NON_INT_ORDERS)
def test_phi_coefficients_refuses_a_non_int_order(order):
    with pytest.raises(ValueError, match="order must be an int >= 1, got"):
        phi_coefficients(P3_MODEL, order)
    with pytest.raises(ValueError, match="order must be an int >= 1, got"):
        phi(P3_MODEL, order)


# the kernels on packed keys: coefficients 1 (the multiply is skipped), other
# ints and Fractions, never 0, as in a packed power or factor
_KERNEL_COEFFS = st.one_of(
    st.just(1), st.integers(-3, 3).filter(bool),
    st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 4)))
_PACKED = st.dictionaries(st.integers(-20, 20), _KERNEL_COEFFS, max_size=12)


@settings(max_examples=200, deadline=None)
@given(_PACKED, st.lists(st.tuples(st.integers(-6, 6), _KERNEL_COEFFS),
                         max_size=4, unique_by=lambda t: t[0]))
@example({}, [(0, 1), (2, 3)])
# an empty factor, from f = 0: the product is empty
@example({0: 1, 3: Fraction(1, 2)}, [])
# (1 + x)(1 - x): the x terms cancel and are deleted
@example({0: 1, 1: 1}, [(0, 1), (1, -1)])
@example({-1: Fraction(2, 3), 4: -2}, [(1, -3), (0, Fraction(3, 2))])
def test_times_is_the_double_loop(power, factor):
    want: dict = {}
    for k, c in power.items():
        for s, d in factor:
            want[k + s] = want.get(k + s, 0) + c * d
    assert _times(power, factor) == {k: c for k, c in want.items() if c}


@settings(max_examples=200, deadline=None)
@given(_PACKED, _PACKED, st.integers(-45, 45))
@example({}, {}, 0)
# even targets read the middle key once, odd ones have none
@example({-1: 2, 0: 5, 1: 3}, {}, 0)
@example({-1: 2, 0: 5, 1: 3}, {}, 1)
@example({-3: Fraction(1, 2), -1: 1, 2: -4}, {0: 1}, -4)
@example({-3: Fraction(1, 2), -1: 1, 2: -4}, {0: 1}, -1)
@example({5: 1, 7: 2}, {1: 1}, 12)
def test_pairing_is_the_sum_over_keys(a, b, target):
    def want(a, b):
        return sum(c * b.get(target - k, 0) for k, c in a.items())

    assert _pairing(a, a, target) == want(a, a)
    assert _pairing(a, dict(a), target) == want(a, a)
    assert _pairing(a, b, target) == want(a, b)


@st.composite
def _product_claims(draw):
    """Factors as in _factor_cases and a claimed product: their product,
    or it plus c x^e, e either an exponent of the product or a point with
    every entry at +-K, K = sum of m |L|, the edge of the digits the radix
    2K + 1 packs."""
    factors, _, _ = draw(_factor_cases())
    vs = factors[0][0].variables
    f = _expand(factors, vs)
    if draw(st.booleans()):
        return factors, f
    bound = sum(m * max((abs(a) for e in L.exponents() for a in e),
                        default=0) for L, m in factors)
    edge = st.tuples(*[st.sampled_from((-bound, bound))] * len(vs))
    e = draw(st.one_of(edge, st.sampled_from(list(f.exponents())))
             if len(f) else edge)
    c = draw(st.integers(-2, 2).filter(bool))
    return factors, f + LaurentPoly.monomial(vs, e, c)


@settings(max_examples=200, deadline=None)
@given(_product_claims())
# monomial factors, a power above 1 and negative exponents: x^-6 y^3
@example(([(x2 ** -2 * y2, 3)], x2 ** -6 * y2 ** 3))
# the conjugate terms cancel; x^2 - y^2 is the product, x^2 + y^2 not
@example(([(x2 + y2, 1), (x2 - y2, 1)], x2 ** 2 - y2 ** 2))
@example(([(x2 + y2, 1), (x2 - y2, 1)], x2 ** 2 + y2 ** 2))
# K = 3: with the radix 2K - 1 = 5, x^-2 y would take the key 3 of x^3
@example(([(x2, 3)], x2 ** -2 * y2))
@example(([(x2, 3)], x2 ** 3))
def test_factored_is_laurent_product_equality(case):
    factors, f = case
    vs = factors[0][0].variables
    if _expand(factors, vs) != f:
        with pytest.raises(ValueError, match="do not multiply out"):
            factored(f, factors)
        return
    g = factored(f, factors)
    assert g == f and g.factors == tuple(factors)
    assert f.factors is None


def test_factors_that_miss_f_raise():
    f = (1 + x2 + y2) ** 2
    with pytest.raises(ValueError):
        factored(f, [(1 + x2 + y2, 1)])
    with pytest.raises(ValueError):
        factored(f, [(1 + x2 + y2, 0)])
    with pytest.raises(ValueError):
        factored(f, [(1 + x2 + y2, True), (1 + x2 + y2, 1)])
    with pytest.raises(ValueError):
        factored(f, [(1 + x3 + y3, 2)])
    # packed with the radix 5 of 1 + y alone, x^5 would take the key of y;
    # the radix covers the factors, so the check sees the miss
    with pytest.raises(ValueError):
        factored(1 + y2, [(1 + x2 ** 5, 1)])


def _h_form(p: Polytope):
    return p.ambient_dim, p.dim, p.vertices, p._equations, p._facets


@settings(max_examples=150, deadline=None)
@given(_factor_cases())
@example(([(2 * x2 ** -1, 2), (x2 + y2, 3)], 1, ("x", "y")))
@example(([(1 + x2, 1), (1 - x2, 1)], 1, ("x", "y")))
def test_newton_polytope_of_a_product_is_the_hull_of_the_factor_sums(case):
    # Ostrowski: Newton(gh) = Newton(g) + Newton(h), and the coefficients at
    # its vertices never cancel, even where inner terms do, as in
    # (1 + x)(1 - x) = 1 - x^2
    factors, _, _ = case
    f = _expand(factors, factors[0][0].variables)
    assume(not f.is_zero())
    hull = _h_form(Polytope(f.exponents()))
    sums = [tuple(map(sum, zip(*choice))) for choice in itertools.product(
        *([tuple(m * x for x in e) for e in L.exponents()]
          for L, m in factors))]
    assert _h_form(Polytope(sums)) == hull
    assert _h_form(newton_polytope(factored(f, factors))) == hull


@settings(max_examples=60, deadline=None)
@given(_factor_cases())
def test_a_wrong_factor_list_raises_and_builds_no_newton_polytope(case):
    factors, _, _ = case
    vs = factors[0][0].variables
    f = _expand(factors, vs)
    assume(not f.is_zero())
    (L, m), *rest = factors
    wrong = [(L, m + 1)] + rest
    assume(_expand(wrong, vs) != f)
    with pytest.raises(ValueError, match="do not multiply out"):
        factored(f, wrong)
    assert _h_form(newton_polytope(f)) == _h_form(Polytope(f.exponents()))


# sha256 of phi at orders 13-17 (odd and even N) of each catalog entry with
# at most three variables, computed by an engine that pruned no half power
# and, for odd N, paired f^p with f^p shifted by each term of f; one line
# per order, each coefficient written as "type:value"
PHI_13_TO_17 = {
    "1-1":
        "4263c2e87ce8bb3980deb3b93c445df04cd4a4f5ced8ade671373b091f2add4b",
    "1-2":
        "2a0b6ea4285cc17424ed4433b278ebe657960c89bd2be41470f2540e698a9607",
    "1-3":
        "a0ba9b95e2fb468c924dacec405bdd3a7eba17ffe8941f4ff67e3f69baa52abd",
    "1-4":
        "7f8904935aa6fb5e1af56e1c619210681312c807a512d8216555939d04851071",
    "1-5":
        "c7020c481373671c1f524122c3dbfad98bd5c54ec09a071261a1f113dbb33fa1",
    "1-6":
        "c6cd33b8c951cc90314ce61d46391bb4c552ce1c39087878ebe8ec3c6b085624",
    "1-7":
        "6e30cabc34cf972eb654f0592374984d8df1fb8a41c4f0775fb3342d9b0935c7",
    "1-8":
        "320b546d860d912b3d78a69484ca812caffd2d43ebdac7e46f843fe9de228ff6",
    "1-9":
        "6ab7eda6035e79a386d75920b6c91b1689e9bf32eb2a9253eb66197d1a15192e",
    "1-10":
        "a9902913e28cd447fc870223a2f71ceda0312e24a3a6da377296167bb27ce058",
    "1-11":
        "39ad7ae390ffe46d423e17b2f77d6c4bd745b39fa3b5c6073e7e42b5b0338a1a",
    "1-12":
        "10ceea9fd5dc79ce03a8b832948c8bf9e648197b3e501fcb31b726d02b5b8970",
    "1-13":
        "3fe566ad2775a85647cb157c9c4135c3271bf7d445b454557fa546f57b8250ba",
    "1-14":
        "a2ee3511726d7b48971f6cbe2e9d98b852a23e384afb326b3c177b5c95ba0ece",
    "1-15":
        "432c74d1cd4cd24387696f1eecd355f818877dc6e8958dcd9d3d929566060bbc",
    "1-16":
        "87baa60826dd5f99665ff5d48c76c56151de83a7a5bae090265614b0af415525",
    "1-17":
        "5fb316800800cdbe6bd01e845618807fc2ff871cd2204ba2a3c68da83bbe9390",
    "2-1":
        "c486cfe9334ec99d7ed42abb15b8d904f8e800a713de2b909561f67e45cc422e",
    "2-2":
        "34b2a7ed1a56b704face516eaa0fa7fb2db633dd3928012574e16e6be0bdefe6",
    "2-3":
        "e473a84c0281fe5036b3c167544fb6a35757c87b1bf013dd3e683213e3209980",
    "9-1":
        "db8f9fc1735e5895185a339fdacf3da3ac0a595035545a3d8d7953be0b6264e3",
    "10-1":
        "f6eaf3aa0fb09170209e6c20d9e29976a68055ead837da7a3ca3b22cd31ba3d1",
    "S7-d1":
        "40d6f0eb65ea479c78d04ba14a8bcb832fc0518e18de592de172fca660509c36",
}


def _small_catalog():
    return {e.id: e for e in catalog.load() if len(e.laurent.variables) <= 3}


def test_phi_pins_cover_every_small_catalog_entry():
    assert sorted(_small_catalog()) == sorted(PHI_13_TO_17)


@pytest.mark.parametrize("entry_id", sorted(PHI_13_TO_17))
def test_phi_of_small_catalog_entries_is_pinned(entry_id):
    entry = _small_catalog()[entry_id]
    series = [phi(entry.laurent, order) for order in range(13, 18)]
    text = "\n".join(" ".join(f"{type(c).__name__}:{c}" for c in s.coeffs)
                     for s in series)
    assert hashlib.sha256(text.encode()).hexdigest() == PHI_13_TO_17[entry_id]


# phi splits f into blocks of variables: a sum in disjoint variables by the
# binomial convolution of the blocks' series, a product of factors in
# disjoint variables by the product; phi_coefficients runs the engine on
# all of f and is the reference

_BLOCK_COEFFS = st.one_of(st.integers(-3, 3).filter(bool),
                          st.builds(Fraction, st.integers(1, 3),
                                    st.integers(2, 4)))


@st.composite
def _block_poly(draw, vs, block):
    """1-3 terms in the block's variables with exponents in [-2, 2]: any,
    none constant, or all with a first exponent in [1, 2], so that the
    block's Newton polytope misses the origin."""
    shape = draw(st.sampled_from(("any", "no constant", "off the origin")))
    exponent = st.tuples(*[st.integers(-2, 2)] * len(block))
    if shape == "no constant":
        exponent = exponent.filter(any)
    elif shape == "off the origin":
        exponent = st.tuples(st.integers(1, 2),
                             *[st.integers(-2, 2)] * (len(block) - 1))
    terms = draw(st.dictionaries(exponent, _BLOCK_COEFFS, min_size=1,
                                 max_size=3))
    where = [vs.index(v) for v in block]

    def embed(e):
        out = [0] * len(vs)
        for i, x in zip(where, e):
            out[i] = x
        return tuple(out)

    return LaurentPoly(vs, {embed(e): c for e, c in terms.items()})


@st.composite
def _block_cases(draw):
    """f on 1-3 blocks of 1-2 variables each: the sum of one polynomial
    per block, or, carried by `factored`, the product of their powers and
    a monomial factor, which may hold a variable w of its own; and an
    order 1-9 (1-6 for the larger products)."""
    sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    names = iter("abcdef")
    blocks = [tuple(next(names) for _ in range(k)) for k in sizes]
    product = draw(st.booleans())
    vs = sum(blocks, ()) + (("w",) if product and draw(st.booleans())
                            else ())
    polys = [draw(_block_poly(vs, block)) for block in blocks]
    if not product:
        return sum(polys[1:], polys[0]), draw(st.integers(1, 9))
    monomial = LaurentPoly.monomial(
        vs, draw(st.tuples(*[st.integers(-1, 1)] * len(vs))),
        draw(_BLOCK_COEFFS))
    if "w" in vs:
        monomial = monomial * LaurentPoly.variable("w", vs) ** draw(
            st.sampled_from((-1, 1)))
    factors = [(monomial, 1)] + [(p, draw(st.integers(1, 2)))
                                 for p in polys]
    f = factored(_expand(factors, vs), factors)
    return f, draw(st.integers(1, 9 if len(f) <= 12 else 6))


@settings(max_examples=150, deadline=None)
@given(_block_cases())
# x + 1/x + y + 1/y: two blocks of one variable, no constant term
@example((x2 + x2 ** -1 + y2 + y2 ** -1, 9))
# the constant goes to the first block; the second misses the origin
@example((3 + x2 + x2 ** -1 + y2 + Fraction(1, 2) * y2 ** 2, 9))
# (1 + x)^2 (1 + y)^2 / (xy), the monomial factor split per block
@example((factored((1 + x2) ** 2 * (1 + y2) ** 2 * (x2 * y2) ** -1,
                   [((x2 * y2) ** -1, 1), (1 + x2, 2), (1 + y2, 2)]), 9))
# a factor 1 + x + y in one block whose terms fall into two
@example((factored((1 + x2 + y2) * x2, [(x2, 1), (1 + x2 + y2, 1)]), 9))
def test_phi_of_blocks_equals_the_engine_on_all_of_f(case):
    f, order = case
    want = [p.coefficient(()) for p in phi_coefficients(f, order)]
    got = phi(f, order).coeffs
    assert list(got) == want
    assert [type(c) for c in got] == [type(c) for c in want]


@pytest.mark.parametrize("entry_id", ["1-3", "1-4", "9-1", "10-1"])
@pytest.mark.parametrize("order", [4, 8, 12, 16])
def test_split_catalog_entries_equal_the_engine_on_all_of_f(entry_id,
                                                             order):
    f = _small_catalog()[entry_id].laurent
    assert list(phi(f, order).coeffs) == [
        p.coefficient(()) for p in phi_coefficients(f, order)]


# the engine's runs, as the number of variables of each, for the entries
# that do not make one run on all their variables: 9-1 and 10-1 are sums
# in disjoint variables, 1-3 and 1-4 products of factors in disjoint
# variables; 1-1, 1-2 and 1-17, every block of 1-3 and 1-4 and the z + 1/z
# block of 10-1 are c x^s L^m with L a simplex, and run no engine, while
# 9-1's x-block keeps the constant term; 2-1 and 1-11 have a term that
# joins z with x and y, and every other entry one in all its variables
_ENGINE_RUNS = {"1-1": [], "1-2": [], "1-3": [], "1-4": [], "1-17": [],
                "9-1": [1, 2], "10-1": [2]}


def test_only_the_disjoint_catalog_entries_split(monkeypatch):
    calls = []

    def powers(terms, steps, facets, radix, dims, n, coefficient,
               _powers=series._powers):
        calls.append(dims)
        return _powers(terms, steps, facets, radix, dims, n, coefficient)
    monkeypatch.setattr(series, "_powers", powers)
    engines = {}
    for entry in catalog.load():
        calls.clear()
        phi(entry.laurent, 8)
        if calls != [len(entry.laurent.variables)]:
            engines[entry.id] = list(calls)
    assert engines == _ENGINE_RUNS


@pytest.mark.parametrize("entry_id", ["1-1", "1-2", "1-3", "1-4", "1-17"])
def test_simplex_catalog_entries_equal_their_generator_series_at_order_60(
        entry_id):
    entry = _small_catalog()[entry_id]
    assert phi(entry.laurent, 60) == entry.generator_series(60)


# c x^s L^m with L = sum of c_k x^(e_k) over dims + 1 affinely independent
# exponents has ct(f^j) = c^j (jm)! prod of c_k^(a_k) / a_k! for the one
# a = j a_1 that reaches the origin, when it is a nonnegative integer vector

_SIGNED_COEFFS = st.one_of(st.integers(-3, 3).filter(bool),
                           st.builds(Fraction, st.integers(-3, 3).filter(bool),
                                     st.integers(2, 4)))


def _affinely_independent(exponents):
    first, *rest = exponents
    return det_bareiss([[a - b for a, b in zip(e, first)] for e in rest]) != 0


@st.composite
def _simplex_cases(draw):
    """L on dims + 1 affinely independent exponents in [-2, 2]^dims, dims
    1-3, with int or Fraction coefficients of either sign; f is L alone,
    or, carried by `factored`, L^m, m 1-3, times a monomial c x^s, s in
    [-2, 2]^dims, or with no monomial factor; and an order 1-9."""
    dims = draw(st.integers(1, 3))
    vs = V3[:dims]
    exponents = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dims),
                              min_size=dims + 1, max_size=dims + 1,
                              unique=True).filter(_affinely_independent))
    L = LaurentPoly(vs, {e: draw(_SIGNED_COEFFS) for e in exponents})
    order = draw(st.integers(1, 9))
    shape = draw(st.sampled_from(("alone", "power", "monomial")))
    if shape == "alone":
        return L, order
    factors = [(L, draw(st.integers(1, 3)))]
    if shape == "monomial":
        factors.insert(0, (LaurentPoly.monomial(
            vs, draw(st.tuples(*[st.integers(-2, 2)] * dims)),
            draw(_SIGNED_COEFFS)), 1))
    return factored(_expand(factors, vs), factors), order


@settings(max_examples=150, deadline=None)
@given(_simplex_cases())
# x^2 + 1/x: j a_1 = (j/3, 2j/3) is integral only for 3 | j
@example((LaurentPoly.variable("x", ("x",)) ** 2
          + LaurentPoly.variable("x", ("x",)) ** -1, 9))
# x + y + xy: the simplex misses the origin, so every ct(f^j), j >= 1, is 0
@example((x2 + y2 + x2 * y2, 9))
# 1 + xy + x^2 y^2: three affinely dependent exponents, left to the engine
@example((1 + x2 * y2 + x2 ** 2 * y2 ** 2, 9))
# (1 + x + y)^2 / (2xy): a monomial factor with a Fraction coefficient
@example((factored((1 + x2 + y2) ** 2 * (2 * x2 * y2) ** -1,
                   [((2 * x2 * y2) ** -1, 1), (1 + x2 + y2, 2)]), 9))
def test_phi_of_simplex_powers_equals_the_engine_on_all_of_f(case):
    f, order = case
    want = [p.coefficient(()) for p in phi_coefficients(f, order)]
    got = phi(f, order).coeffs
    assert list(got) == want
    assert [type(c) for c in got] == [type(c) for c in want]


# dims + 1 terms on affinely dependent exponents go to the engine: those
# of 1 + xy + x^2 y^2, whose system has a line of solutions, and of
# y (xy + x^2 y^2 + x^3 y^3), whose system has none, every ct(f^j), j >= 1,
# being 0
_XY = x2 * y2


@pytest.mark.parametrize("f", [
    1 + _XY + _XY ** 2,
    factored(y2 * (_XY + _XY ** 2 + _XY ** 3),
             [(y2, 1), (_XY + _XY ** 2 + _XY ** 3, 1)])])
def test_affinely_dependent_exponents_run_the_engine(f, monkeypatch):
    calls = []

    def powers(*args, _powers=series._powers):
        calls.append(args[4])
        return _powers(*args)
    monkeypatch.setattr(series, "_powers", powers)
    got = phi(f, 9).coeffs
    assert calls == [2]
    assert list(got) == [p.coefficient(()) for p in phi_coefficients(f, 9)]
