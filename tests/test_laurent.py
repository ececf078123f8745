from fractions import Fraction

import pytest

from tlg.laurent import (LaurentPoly, NotLaurent, RationalExpr,
                         UnknownVariable, VariableMismatch, ZeroDenominator)

V = ("x", "y")
x = LaurentPoly.variable("x", V)
y = LaurentPoly.variable("y", V)


def test_constructors_normalize():
    assert LaurentPoly.zero().is_zero()
    assert LaurentPoly.constant(0, V).is_zero()
    assert LaurentPoly.constant(7).variables == ()
    f = LaurentPoly(V, {(1, 0): 2, (0, 1): 0})
    assert list(f.terms()) == [((1, 0), 2)]
    m = LaurentPoly.monomial(V, (-2, 3), coeff=5)
    assert m.coefficient((-2, 3)) == 5
    assert m.coefficient((0, 0)) == 0


def test_arithmetic_identities():
    f = x + x ** -1
    assert f * f == x ** 2 + 2 + x ** -2
    assert (x + y) * (x - y) == x ** 2 - y ** 2
    assert (x + 1) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + 1
    assert x - x == LaurentPoly.zero(V)
    assert 2 * x == x + x
    assert (x * y) ** -2 == x ** -2 * y ** -2
    with pytest.raises(NotLaurent):
        (x + 1) ** -1


def test_alignment_across_variable_sets():
    a = LaurentPoly.variable("x", ("x",))
    b = LaurentPoly.variable("z", ("z",))
    s = a + b
    assert s.variables == ("x", "z")
    assert s.coefficient((1, 0)) == 1
    assert s.coefficient((0, 1)) == 1


def test_fraction_coefficients():
    f = Fraction(1, 2) * x + Fraction(3, 2) * x
    assert f == 2 * x
    g = Fraction(1, 3) * x
    assert g.coefficient((1, 0)) == Fraction(1, 3)


def test_rename_and_with_variables():
    f = x + 2 * y
    g = f.rename_variables({"x": "u", "y": "v"})
    assert g.variables == ("u", "v")
    assert g.coefficient((0, 1)) == 2
    h = f.with_variables(("x", "y", "z"))
    assert h.variables == ("x", "y", "z")
    assert h.coefficient((1, 0, 0)) == 1
    # names missing from the mapping stay put; collisions are rejected
    assert f.rename_variables({"q": "r"}) == f
    with pytest.raises(VariableMismatch):
        f.rename_variables({"x": "y"})


def test_constant_term_full_and_partial():
    f = x + 3 + x * y ** -1
    assert f.constant_term() == 3
    g = x * y + 2 * y + 5
    # collapse x only: terms with zero x-exponent survive as a poly in y
    part = g.constant_term(over=("x",))
    assert part == LaurentPoly(("y",), {(1,): 2, (0,): 5})


def test_substitute_scalar_and_poly():
    f = x ** 2 + y
    r = f.substitute({"x": 3})
    assert r.as_laurent() == 9 + LaurentPoly.variable("y", ("y",))
    r2 = f.substitute({"x": y + 1})
    assert r2.as_laurent() == y ** 2 + 3 * y + 1
    with pytest.raises(UnknownVariable):
        f.substitute({"t": 1})


def test_rational_expr_equality_and_errors():
    half = RationalExpr.from_poly(x) / RationalExpr.from_poly(2 * x)
    one = RationalExpr.coerce(1)
    assert half + half == one
    assert RationalExpr.from_poly(x * y) / RationalExpr.from_poly(y) \
        == RationalExpr.from_poly(x)
    with pytest.raises(ZeroDenominator):
        one / RationalExpr.from_poly(LaurentPoly.zero())
    expr = RationalExpr.from_poly(x + 1) / RationalExpr.from_poly(x)
    assert expr.as_laurent() == x ** -1 + 1


def test_rational_expr_power():
    e = RationalExpr.from_poly(1 + x) ** -2
    assert e * RationalExpr.from_poly((1 + x) ** 2) == RationalExpr.coerce(1)


def test_json_round_trip():
    f = Fraction(3, 2) * x ** -2 * y + 7 * x - y ** 5
    data = f.to_json_dict()
    assert data["vars"] == ["x", "y"]
    assert all(isinstance(t["c"], str) for t in data["terms"])
    assert LaurentPoly.from_json_dict(data) == f


def test_terms_sorted_deterministically():
    f = y + x + x * y + x ** -1
    exps = [e for e, _ in f.terms()]
    assert exps == sorted(exps)


def test_str_rendering():
    assert str(x ** 2 - y) in ("x^2 - y", "x^2 + -1*y", "-y + x^2")
    assert str(LaurentPoly.zero()) == "0"
