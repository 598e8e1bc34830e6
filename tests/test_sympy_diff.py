"""Differential tests against sympy: gcd, squarefree part and canonical
rational functions of the exact bivariate arithmetic, and the Fraction Taylor
jets of the test oracle, on random small inputs."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from planarweb.poly import BivarPoly, poly_gcd, squarefree_part
from planarweb.ratfunc import RatFunc

from exact_oracle import taylor

sympy = pytest.importorskip("sympy")

X, Y = sympy.symbols("x y")
# integer coefficients: a gcd over Q is defined up to a constant anyway, and
# a ratio of integer polynomials is any rational function over Q
coeffs = st.integers(min_value=-12, max_value=12)
centers = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def polys(draw, max_terms=3, max_deg=2):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        e = (draw(st.integers(0, max_deg)), draw(st.integers(0, max_deg)))
        terms[e] = terms.get(e, 0) + draw(coeffs)
    return BivarPoly(terms)


nonzero_polys = polys().filter(lambda p: not p.is_zero())


def to_sympy(p):
    """A BivarPoly, or a dict of rational coefficients, as a sympy Poly."""
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in getattr(p, "terms", p).items()}
    return sympy.Poly.from_dict(terms or {(0, 0): 0}, X, Y, domain=sympy.QQ)


def monic(p):
    return p.monic() if not p.is_zero else p


@settings(max_examples=60, deadline=None)
@given(nonzero_polys, polys(), polys())
def test_gcd_agrees_with_sympy_up_to_a_unit(common, a, b):
    p, q = a * common, b * common
    expected = sympy.gcd(to_sympy(p), to_sympy(q))
    assert monic(to_sympy(poly_gcd(p, q))) == monic(expected)


@settings(max_examples=60, deadline=None)
@given(nonzero_polys, nonzero_polys, st.integers(1, 3))
def test_squarefree_part_agrees_with_sympy(a, b, power):
    p = a * b**power
    assert monic(to_sympy(squarefree_part(p))) == monic(to_sympy(p).sqf_part())


ratfuncs = st.builds(
    RatFunc, polys(max_deg=3), polys(max_deg=3).filter(lambda p: not p.is_zero())
)


def canonical_from_sympy(expr):
    """sympy's cancel of expr as a (num, den) pair of Polys, scaled as a
    RatFunc is: integer coefficients with no common factor over both, and a
    positive graded-lex leading coefficient on den."""
    num, den = sympy.fraction(sympy.cancel(expr))
    num, den = sympy.Poly(num, X, Y, domain=sympy.QQ), sympy.Poly(den, X, Y, domain=sympy.QQ)
    cs = [sympy.Rational(c) for c in num.coeffs() + den.coeffs() if c]
    # the rational content of the pair is gcd(numerators) / lcm(denominators)
    scale = sympy.Rational(lcm(*(int(c.q) for c in cs)), gcd(*(int(c.p) for c in cs)))
    if den.LC(order="grlex") < 0:
        scale = -scale
    return num.mul_ground(scale), den.mul_ground(scale)


def as_expr(f: RatFunc):
    return to_sympy(f.num).as_expr() / to_sympy(f.den).as_expr()


@settings(max_examples=40, deadline=None)
@given(ratfuncs, ratfuncs, st.sampled_from(["add", "mul", "dx", "dy"]))
def test_canonical_ratfunc_agrees_with_sympy_cancel(f, g, op):
    if op == "add":
        got, expr = f + g, as_expr(f) + as_expr(g)
    elif op == "mul":
        got, expr = f * g, as_expr(f) * as_expr(g)
    else:
        var = op[1]
        got, expr = f.derivative(var), sympy.diff(as_expr(f), {"x": X, "y": Y}[var])
    assert (to_sympy(got.num), to_sympy(got.den)) == canonical_from_sympy(expr)


def shifted(p: BivarPoly, cx: Fraction, cy: Fraction):
    """p(cx + x, cy + y) as a sympy Poly in x, y."""
    shift = {X: X + sympy.Rational(cx.numerator, cx.denominator),
             Y: Y + sympy.Rational(cy.numerator, cy.denominator)}
    return sympy.Poly(to_sympy(p).as_expr().subs(shift, simultaneous=True), X, Y, domain=sympy.QQ)


@settings(max_examples=60, deadline=None)
@given(polys(), nonzero_polys, centers, centers, st.integers(0, 4))
def test_taylor_agrees_with_sympy(num, den, cx, cy, order):
    # the jet J of num/den at c is the one polynomial of total degree <= order
    # with den(c + .) * J = num(c + .) up to terms of total degree > order
    if den.evaluate(cx, cy) == 0:
        return
    jet = taylor(RatFunc(num, den), (cx, cy), order)
    assert all(i + j <= order for i, j in jet.coeffs)
    residual = shifted(den, cx, cy) * to_sympy(jet.coeffs) - shifted(num, cx, cy)
    assert all(i + j > order for (i, j), c in residual.terms() if c != 0)
