import pytest
from fractions import Fraction

from planarweb.errors import ExprSyntaxError, ZeroDenominator
from planarweb.parse import format_ratfunc, parse_ratfunc
from planarweb.poly import BivarPoly
from planarweb.ratfunc import RatFunc


def test_spence_kummer_inner():
    f = parse_ratfunc("x*(1-y)/(y*(1-x))")
    # canonical form: coprime pair, denominator monic in graded-lex, so the
    # pair (x - xy, y - xy) is stored sign-flipped
    assert f.den.leading_coeff() == 1
    assert f == parse_ratfunc("(x - x*y)/(y - x*y)")
    assert f.num == BivarPoly({(1, 1): Fraction(1), (1, 0): Fraction(-1)})
    assert f.den == BivarPoly({(1, 1): Fraction(1), (0, 1): Fraction(-1)})


def test_zero_over_poly():
    assert parse_ratfunc("0/(x+y)").is_zero()


def test_gcd_cancellation():
    f = parse_ratfunc("(x^2-y^2)/(x-y)")
    assert f == parse_ratfunc("x+y")
    assert f.den.is_constant()


def test_roundtrip_examples():
    for text in [
        "x*(1-y)/(y*(1-x))",
        "(x^2-y^2)/(x-y)",
        "1/(1-x-y)",
        "(x+y)/(1-x*y)",
        "x*(1-y)^2/(y*(1-x)^2)",
        "3/4 + x - (2/5)*y^3",
    ]:
        f = parse_ratfunc(text)
        assert parse_ratfunc(format_ratfunc(f)) == f


def test_variable_names():
    f = parse_ratfunc("u/(1-v)", ("u", "v"))
    assert f == parse_ratfunc("x/(1-y)")


def test_equal_variable_names_are_refused():
    # both names would read as x
    with pytest.raises(ValueError, match="both 'u'"):
        parse_ratfunc("u + 1", ("u", "u"))


def test_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_ratfunc("x + @")
    assert err.value.position == 4


def test_division_by_zero_polynomial():
    with pytest.raises(ZeroDenominator):
        parse_ratfunc("x/(y - y)")


def test_exponent_must_be_integer():
    with pytest.raises(ExprSyntaxError):
        parse_ratfunc("x^y")
