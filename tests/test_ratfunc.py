import random
from fractions import Fraction

import pytest
from conftest import assert_jacobian_matches_reference, quotient_rule_jacobian
from exact_oracle import taylor

from planarweb.abel import depends_only_on
from planarweb.errors import ConstantInput, PoleAtCenter
from planarweb.parse import parse_ratfunc as P
from planarweb.poly import squarefree_part
from planarweb.ratfunc import RatFunc, cleared_jacobian
from planarweb.web import Foliation, same_foliation


def test_derivative_examples():
    assert (P("x") / P("y")).derivative("x") == P("1/y")
    assert (P("x") / P("y")).derivative("y") == P("-x/y^2")
    assert P("(1-y)/(1-x)").derivative("x") == P("(1-y)/(1-x)^2")


def test_leibniz_on_examples():
    rng = random.Random(7)
    pool = ["x", "y", "1-x", "x*y+1", "(x+y)/(1-x)", "x^2-y"]
    for _ in range(20):
        f = P(rng.choice(pool))
        g = P(rng.choice(pool))
        for v in ("x", "y"):
            assert (f * g).derivative(v) == f.derivative(v) * g + f * g.derivative(v)


def test_jacobian_examples():
    x, y = P("x"), P("y")
    assert cleared_jacobian(x, y) == P("1").num
    assert cleared_jacobian(x, x / y) == P("-x").num
    assert cleared_jacobian(x, x).is_zero()
    assert same_foliation(Foliation(P("x/y")), Foliation(P("(x-y)/(x+y)")))
    for f, g in [(x, y), (x, x / y), (x, x), (P("x/y"), P("(x-y)/(x+y)"))]:
        assert_jacobian_matches_reference(f, g)
    with pytest.raises(ConstantInput):
        Foliation(P("3"))
    with pytest.raises(ConstantInput):
        depends_only_on(y, Foliation(P("3")))


def test_jacobian_symmetry():
    pairs = [("x", "x/y"), ("x*y", "(x+y)/(1-x*y)"), ("(1-y)/(1-x)", "x/y")]
    for a, b in pairs:
        assert cleared_jacobian(P(a), P(b)) == -cleared_jacobian(P(b), P(a))
        assert_jacobian_matches_reference(P(a), P(b))
        assert_jacobian_matches_reference(P(b), P(a))


def test_cleared_jacobian_keeps_pole_components():
    # the common leaf y = 0 of the pencils y and x/y is invisible in the
    # reduced quotient-rule Jacobian but present in the cleared polynomial
    assert quotient_rule_jacobian(P("y"), P("x/y")).num.is_constant()
    w = cleared_jacobian(P("y"), P("x/y"))
    assert squarefree_part(w) == P("y").num
    assert_jacobian_matches_reference(P("y"), P("x/y"))


def test_taylor_examples():
    j = taylor(P("1/(1-x-y)"), (0, 0), 2)
    assert j.coeffs == {
        (0, 0): 1,
        (1, 0): 1,
        (0, 1): 1,
        (2, 0): 1,
        (1, 1): 2,
        (0, 2): 1,
    }
    j = taylor(P("x") / P("y"), (Fraction(1, 3), Fraction(1, 2)), 0)
    assert j.coeffs == {(0, 0): Fraction(2, 3)}


def test_taylor_derived_oracle():
    # oracle: symbolic differentiation and evaluation at the center
    f = P("(1-y)/(1-x)")
    c = (Fraction(1, 3), Fraction(1, 2))
    j = taylor(f, c, 1)
    assert j.coefficient(0, 0) == f.evaluate(*c) == Fraction(3, 4)
    assert j.coefficient(1, 0) == f.derivative("x").evaluate(*c) == Fraction(9, 8)
    assert j.coefficient(0, 1) == f.derivative("y").evaluate(*c) == Fraction(-3, 2)


def test_taylor_pole():
    with pytest.raises(PoleAtCenter):
        taylor(P("1/(x-1)"), (1, 0), 2)


def test_substitute_examples():
    f = P("x/y")
    g = f.substitute(P("1/(x-1)"), P("1/(y-1)"))
    assert g == P("(y-1)/(x-1)")
    assert P("x").substitute(P("x"), P("y")) == P("x")
    assert P("x+y").substitute(P("y"), P("x")) == P("x+y")


def test_substitute_oracle_random_points():
    rng = random.Random(3)
    f = P("(x^2-y)/(x+y+1)")
    mx, my = P("(1-y)/(1-x)"), P("x*y+2")
    g = f.substitute(mx, my)
    for _ in range(5):
        px = Fraction(rng.randrange(2, 30), 7)
        py = Fraction(rng.randrange(2, 30), 11)
        assert g.evaluate(px, py) == f.evaluate(mx.evaluate(px, py), my.evaluate(px, py))


@pytest.mark.parametrize(
    "expr", ["0", "3/7", "x/(1-x)", "(x^2-y)/(x+y+1)", "y*(1-x)/(x*(1-y))", "-(2*x*y^3-5)/(3*y^2-x)"]
)
@pytest.mark.parametrize("point", [(0, 0), (Fraction(1, 3), Fraction(-1, 2)), (Fraction(-5, 4), 2)])
def test_translate_is_the_canonical_substitution(expr, point):
    px, py = map(Fraction, point)
    got = P(expr).translate(px, py)
    ref = P(expr).substitute(P("x") + RatFunc.const(px), P("y") + RatFunc.const(py))
    assert (got.num, got.den) == (ref.num, ref.den)


def test_jet_product_truncation():
    f, g = P("1/(1-x-y)"), P("(x+2)/(1-y)")
    c = (Fraction(0), Fraction(0))
    K = 4
    lhs = taylor(f * g, c, K)
    rhs = (taylor(f, c, K) * taylor(g, c, K)).truncate(K)
    assert lhs == rhs
