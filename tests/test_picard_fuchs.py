from fractions import Fraction
from math import comb

import pytest

from tlg.picard_fuchs import (DifferentialOperator, InsufficientCoefficients,
                              ZeroOperator, fit)
from tlg.series import PowerSeries

CENTRAL_BINOMIAL = PowerSeries(tuple(comb(2 * k, k) for k in range(24)))


def test_fit_central_binomial_series():
    op = fit(CENTRAL_BINOMIAL, 1, 1)
    assert str(op) == "theta + (-2)*t + (-4)*t*theta"
    assert op.terms == ((0, 1, 1), (1, 0, -2), (1, 1, -4))


def test_fit_clears_rational_coefficients():
    # C(2k, k) / 4^k: k a_k = (k - 1/2) a_(k-1)
    series = PowerSeries(tuple(Fraction(comb(2 * k, k), 4 ** k)
                               for k in range(24)))
    op = fit(series, 1, 1)
    assert op.terms == ((0, 1, 1), (1, 0, Fraction(-1, 2)), (1, 1, -1))


def test_fit_returns_none_when_no_operator_exists():
    # (k + 1)(c0 + c1 k) = 0 for every k forces c0 = c1 = 0
    assert fit(PowerSeries(tuple(range(1, 25))), 1, 0) is None


def test_fit_needs_enough_coefficients():
    with pytest.raises(InsufficientCoefficients):
        fit(CENTRAL_BINOMIAL.truncate(14), 1, 1)
    with pytest.raises(ValueError):
        fit(CENTRAL_BINOMIAL, -1, 1)


def test_operator_rejects_zero_and_negative_exponents():
    with pytest.raises(ZeroOperator):
        DifferentialOperator(((0, 1, 0), (1, 0, 0)))
    with pytest.raises(ZeroOperator):
        DifferentialOperator(((0, 0, 1), (0, 0, -1)))
    with pytest.raises(ValueError):
        DifferentialOperator(((-1, 0, 1),))
    with pytest.raises(ValueError):
        DifferentialOperator(((0, -2, 1),))


def test_operator_json_round_trip_and_apply_kills_the_series():
    op = fit(CENTRAL_BINOMIAL, 1, 1)
    assert DifferentialOperator.from_json_dict(op.to_json_dict()) == op
    assert all(c == 0 for c in op.apply(CENTRAL_BINOMIAL).coeffs)
    # scaling the terms does not change the normalized operator
    assert DifferentialOperator(((1, 1, -8), (0, 1, 2), (1, 0, -4))) == op
    with pytest.raises(InsufficientCoefficients):
        op.apply(CENTRAL_BINOMIAL.truncate(1))


@pytest.mark.parametrize("term, message", [
    ({"t": 1.5, "theta": 1, "c": "1"}, "t and theta must be integers"),
    ({"t": 1, "theta": True, "c": "1"}, "t and theta must be integers"),
    ({"t": 1}, "needs the keys"),
    ([1, 1, "1"], "needs the keys"),
    ({"t": 1, "theta": 0, "c": "one"}, "bad coefficient"),
], ids=["float-t", "bool-theta", "missing-keys", "not-an-object",
        "bad-coefficient"])
def test_operator_from_json_locates_a_malformed_term(term, message):
    # int() read {"t": 1.5, "theta": true} as the term t*theta, and a
    # missing key raised a bare KeyError
    data = {"terms": [{"t": 0, "theta": 1, "c": "1"}, term]}
    with pytest.raises(ValueError, match=rf"^terms\[1\]: .*{message}"):
        DifferentialOperator.from_json_dict(data)


@pytest.mark.parametrize("data", [{}, {"terms": "t"}])
def test_operator_from_json_needs_a_list_of_terms(data):
    with pytest.raises(ValueError, match="terms must be a list"):
        DifferentialOperator.from_json_dict(data)
