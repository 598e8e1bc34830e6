from fractions import Fraction

import pytest

from planarweb.parse import parse_ratfunc as P
from planarweb.poly import (
    BivarPoly,
    coprime_split,
    poly_divides,
    poly_divmod_exact,
    poly_gcd,
    squarefree_part,
)


def poly(text):
    f = P(text)
    assert f.den.is_constant()
    return f.num


@pytest.mark.parametrize(
    "a, b, expected",
    [
        pytest.param("(x+y)^2*(x-y)", "(x+y)*(x+2*y)", "x+y", id="basic"),
        # 6y(x-y)(x+y) and 4y(x+y)
        pytest.param("6*x^2*y - 6*y^3", "4*x*y + 4*y^2", "x*y + y^2", id="content"),
        pytest.param("(x-1)*(y^2+x)", "3*(x-1)*(y+1)", "x-1", id="factor-in-x"),
        pytest.param("(2*y+1)*(x^2+y)", "(2*y+1)*(x+1)", "2*y+1", id="factor-in-y"),
        pytest.param("(x-1)*(x+y)", "(x-1)*(x+y)*(y+3)", "(x-1)*(x+y)", id="factor-in-x-and-y"),
        pytest.param("6*(x+y)", "4*(x-y)", "1", id="integer-content"),
        pytest.param("0", "-2*x-4*y", "x+2*y", id="zero"),
    ],
)
def test_gcd(a, b, expected):
    assert poly_gcd(poly(a), poly(b)) == poly(expected)
    assert poly_gcd(poly(b), poly(a)) == poly(expected)


def test_gcd_coprime_is_constant():
    assert poly_gcd(poly("x+1"), poly("y+1")).is_constant()


def test_exact_division():
    a = poly("(x^2+x*y+1)*(x-y+3)")
    ok, q = poly_divmod_exact(a, poly("x-y+3"))
    assert ok and q == poly("x^2+x*y+1")
    ok, _ = poly_divmod_exact(poly("x^2+1"), poly("x+y"))
    assert not ok


def test_divides():
    p = poly("(x+y)^2*(x-y)")
    assert poly_divides(poly("x+y"), p)
    assert not poly_divides(poly("x+2*y"), p)


def test_squarefree_part_mixed_factors():
    p = poly("(x+y)^2*(x-y)")
    assert squarefree_part(p) == poly("x^2-y^2")
    # factors free of x must survive
    q = poly("(y-1)^3*(x+1)^2")
    assert squarefree_part(q) == poly("(y-1)*(x+1)")


def test_squarefree_divides_original():
    for text in ["(x+y)^2*(x-y)", "x^3*y^2", "(1-x)*(1-y)^4", "x^2+2*x*y+y^2"]:
        p = poly(text)
        assert poly_divides(squarefree_part(p), p)


def test_coprime_split():
    parts = coprime_split([poly("x*y"), poly("y*(1-x)")])
    product = BivarPoly.const(1)
    for c in parts:
        product = product * c
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            assert poly_gcd(parts[a], parts[b]).is_constant()
    assert poly_divides(poly("x"), product)
    assert poly_divides(poly("y"), product)
    assert poly_divides(poly("1-x"), product)


def test_coprime_split_from_a_basis():
    # splitting only the new inputs against an earlier output gives the same
    # basis as splitting everything at once
    first = [poly("x*y*(x+y)"), poly("y*(1-x)*(x-y)"), poly("(x+y)*(x-y)^2")]
    more = [poly("x*(x+y)"), poly("(1-x)*(x+2*y)"), poly("y^2*(x+2*y)"), poly("3")]
    basis = coprime_split(first)
    assert coprime_split(more, basis=basis) == coprime_split(first + more)
    assert coprime_split([], basis=basis) == basis


def test_canonical_leading_sign():
    _, prim = poly("-2*x-2*y").primitive_z()
    assert prim == poly("x+y")
