from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tlg.laurent import (LaurentPoly, NotLaurent, VariableMismatch,
                         _coerce_coeff, _norm)
from tlg.mutation import divide_exact

V = ("x", "y")
x = LaurentPoly.variable("x", V)
y = LaurentPoly.variable("y", V)


@pytest.mark.parametrize("entry", [1.5, True, "1"])
def test_constructor_refuses_an_exponent_that_is_no_int(entry):
    # int() read 1.5 and True as the exponent 1, so each made the variable x
    with pytest.raises(TypeError, match="must be integers"):
        LaurentPoly(("x",), {(entry,): 1})


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


def test_with_variables():
    f = x + 2 * y
    h = f.with_variables(("x", "y", "z"))
    assert h.variables == ("x", "y", "z")
    assert h.coefficient((1, 0, 0)) == 1
    assert h.coefficient((0, 1, 0)) == 2


def test_constant_term_full_and_partial():
    f = x + 3 + x * y ** -1
    assert f.constant_term() == 3
    g = x * y + 2 * y + 5
    # collapse x only: terms with zero x-exponent survive as a poly in y
    part = g.constant_term(over=("x",))
    assert part == LaurentPoly(("y",), {(1,): 2, (0,): 5})


def test_divide_exact():
    assert divide_exact(x + 1, x) == x ** -1 + 1
    assert divide_exact(x, 2 * x) == Fraction(1, 2)
    assert divide_exact(x * y, y) == x
    assert divide_exact(x ** 2 - y ** 2, x + y) == x - y
    assert divide_exact(LaurentPoly.zero(V), x + 1) == LaurentPoly.zero(V)
    # the operands are aligned onto the union of their variables
    z = LaurentPoly.variable("z", ("z",))
    q = divide_exact(x * z + z, x + 1)
    assert q.variables == ("x", "y", "z")
    assert q == z


@pytest.mark.parametrize("num, den", [
    (x, x + 1),
    (LaurentPoly.constant(1, V), 1 - x),
    (x ** 2 + y ** 2, x + y),
    (x ** 2 + 1, x + 1),
    ((x + 1) * (y + 2) + 1, y + 2),
], ids=["x-over-x-plus-1", "geometric", "sum-of-squares", "remainder-2",
        "constant-remainder"])
def test_divide_exact_not_laurent(num, den):
    with pytest.raises(NotLaurent):
        divide_exact(num, den)


def test_divide_exact_by_zero():
    with pytest.raises(ZeroDivisionError):
        divide_exact(x, LaurentPoly.zero(V))
    with pytest.raises(ZeroDivisionError):
        divide_exact(LaurentPoly.zero(V), LaurentPoly.zero())


@st.composite
def _polys(draw, vs, min_size=0):
    coeff = st.one_of(st.integers(-3, 3).filter(bool),
                      st.builds(Fraction, st.integers(1, 3),
                                st.integers(2, 4)))
    exponent = st.tuples(*[st.integers(-2, 2)] * len(vs))
    terms = draw(st.dictionaries(exponent, coeff, min_size=min_size,
                                 max_size=4))
    return LaurentPoly(vs, terms)


@st.composite
def _quotient_cases(draw):
    vs = ("x", "y", "z")[:draw(st.integers(1, 3))]
    return draw(_polys(vs)), draw(_polys(vs, min_size=1))


@settings(max_examples=200, deadline=None)
@given(_quotient_cases())
def test_divide_exact_round_trip(case):
    q, d = case
    assert divide_exact(q * d, d) == q


def test_json_round_trip():
    f = Fraction(3, 2) * x ** -2 * y + 7 * x - y ** 5
    data = f.to_json_dict()
    assert data["vars"] == ["x", "y"]
    assert all(isinstance(t["c"], str) for t in data["terms"])
    assert LaurentPoly.from_json_dict(data) == f


def test_from_json_dict_builds_with_no_constructor_call(monkeypatch):
    # one pass checks every term; the constructor checked them all again
    f = Fraction(3, 2) * x ** -2 * y + 7 * x - y ** 5
    data = f.to_json_dict()

    def refuse(*args):
        raise AssertionError("LaurentPoly.__init__ called")
    monkeypatch.setattr(LaurentPoly, "__init__", refuse)
    got = LaurentPoly.from_json_dict(data)
    assert got.variables == ("x", "y")
    assert list(got.terms()) == list(f.terms())


def _json_terms(*terms):
    return [{"e": e, "c": c} for e, c in terms]


@pytest.mark.parametrize("variables, terms, outcome", [
    (["x", "y"], _json_terms(([1, 0], "1"), ([1], "1")),
     (VariableMismatch, "terms[1]: exponent [1] has length 1, expected 2")),
    (["x", "x"], _json_terms(([1, 0], "1")),
     (VariableMismatch, "duplicate variable names in ('x', 'x')")),
    (["x"], _json_terms(([0], "1"), ([1.0], "1")),
     (TypeError, "terms[1]: exponents must be lists of integers")),
    (["x"], _json_terms(([0], "1"), ([False], "1")),
     (TypeError, "terms[1]: exponents must be lists of integers")),
    # a term with coefficient 0 is dropped but still takes its exponent
    (["x"], _json_terms(([1], "0"), ([1], "2")),
     (ValueError, "terms[1]: exponent [1] repeats")),
    (["x"], _json_terms(([0], "1"), ([1], "x")),
     (ValueError, "terms[1]: bad coefficient 'x': Invalid literal for "
                  "Fraction: 'x'")),
    (["x", "y"], _json_terms(([1, 0], "0"), ([0, 1], "-2/4"), ([-1, 0], 0)),
     [((0, 1), Fraction(-1, 2))]),
], ids=["exponent-length", "duplicate-names", "float-exponent",
        "bool-exponent", "zero-then-repeat", "bad-coefficient",
        "zeros-dropped"])
def test_from_json_dict_checks_every_term_once(variables, terms, outcome):
    data = {"vars": variables, "terms": terms}
    if isinstance(outcome, list):
        assert list(LaurentPoly.from_json_dict(data).terms()) == outcome
        return
    error, message = outcome
    with pytest.raises(error) as info:
        LaurentPoly.from_json_dict(data)
    assert info.type is error and str(info.value) == message


def test_terms_sorted_deterministically():
    f = y + x + x * y + x ** -1
    exps = [e for e, _ in f.terms()]
    assert exps == sorted(exps)


def test_str_rendering():
    assert str(x ** 2 - y) in ("x^2 - y", "x^2 + -1*y", "-y + x^2")
    assert str(LaurentPoly.zero()) == "0"


def _outcome(parse, text):
    try:
        value = parse(text)
    except Exception as exc:  # the type is what is compared
        return type(exc)
    return type(value), value


COEFF_TEXT = st.one_of(
    st.text(),
    st.from_regex(r"\s*[+-]?[0-9_]*(\.[0-9]*)?(e[+-]?[0-9]{1,2})?"
                  r"(/[0-9_]*)?\s*", fullmatch=True))

EDGE_TEXTS = (" 12 ", "+3", "-4", "1_000", "1__0", "_1", "1/2", "-6/4", "4/2",
              "1/0", "1e3", "2.5", "nan", "inf", "", "\u0661\u0662",
              "\u00a07\u2003", "0x10")


def _with_examples(test):
    for text in EDGE_TEXTS:
        test = example(text)(test)
    return test


@given(COEFF_TEXT)
@_with_examples
@settings(max_examples=150, deadline=None)
def test_string_coefficients_parse_as_fractions_do(text):
    # the int fast path must agree with the Fraction parse it short-cuts,
    # in the value and its type or in the type of the exception
    assert _outcome(_coerce_coeff, text) == \
        _outcome(lambda t: _norm(Fraction(t)), text)
