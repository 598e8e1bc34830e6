import os
import sys
from fractions import Fraction

import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

from planarweb.abel import depends_only_on
from planarweb.ratfunc import RatFunc, cleared_jacobian
from planarweb.web import Foliation, Web, _JetPowers, same_foliation

from exact_oracle import SeriesJet, taylor

# every run draws the same examples, so a failure reproduces from its test id
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "planarweb", "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def quotient_rule_jacobian(f, g):
    """Reference Jacobian f_x g_y - f_y g_x as a reduced rational function,
    by the quotient rule on each derivative."""
    return f.derivative("x") * g.derivative("y") - f.derivative("y") * g.derivative("x")


def assert_jacobian_matches_reference(f, g):
    """cleared_jacobian is den_f^2 den_g^2 times the reference Jacobian, and
    every foliation test reads the same zero test (f, g non-constant)."""
    ref = quotient_rule_jacobian(f, g)
    w = cleared_jacobian(f, g)
    assert RatFunc.from_poly(w) == ref * RatFunc.from_poly(f.den**2 * g.den**2)
    assert same_foliation(Foliation(f), Foliation(g)) == ref.is_zero() == w.is_zero()
    assert depends_only_on(f, Foliation(g)) == depends_only_on(g, Foliation(f)) == ref.is_zero()


def assert_table_matches_taylor(u, point, top):
    """u's table at `point`, grown to degree `top`, holds blocks 0..top:
    blocks[n] = (d0^(2n), block), and block[a][k] / d0^(2n) is the
    coefficient of s^a t^(n - a) in v^k, v = u - u(point), from
    exact_oracle.taylor, for every k <= n; v^k has no degree-n part for
    k > n, where the block holds no column.  Returns d0."""
    table = _JetPowers(u, point)
    table.block(top)
    d0 = table.d0
    jet = taylor(u, point, top)
    assert table.value == jet.coefficient(0, 0) == u.evaluate(*point)
    assert len(table.blocks) == top + 1
    v = SeriesJet(jet.center, top, {e: c for e, c in jet.coeffs.items() if e != (0, 0)})
    ref = SeriesJet(jet.center, top, {(0, 0): Fraction(1)})
    for k in range(top + 1):
        for n in range(top + 1):
            want = {e: c for e, c in ref.coeffs.items() if sum(e) == n}
            den, block = table.blocks[n]
            assert den == d0 ** (2 * n) and len(block) == n + 1, (u, point, n)
            assert all(len(row) == n + 1 for row in block), (u, point, n)
            if n < k:
                assert not want, (k, n)
                continue
            got = {(a, n - a): Fraction(row[k], den) for a, row in enumerate(block) if row[k]}
            assert got == want, (u, point, k, n)
        ref = ref * v
    return d0


@pytest.fixture(scope="session")
def cauchy_web():
    return Web.from_expressions(["x", "y", "x/y"], name="cauchy")


@pytest.fixture(scope="session")
def arctan_web():
    return Web.from_expressions(["x", "y", "(x+y)/(1-x*y)"], name="arctan")


@pytest.fixture(scope="session")
def bol_web():
    return Web.from_expressions(
        ["x", "y", "x/y", "(1-y)/(1-x)", "y*(1-x)/(x*(1-y))"], name="bol"
    )


@pytest.fixture(scope="session")
def bol_web_indomain():
    # same web as foliations; the fifth integral is the reciprocal that keeps
    # its values inside (0, 1), which the characterization patterns need
    return Web.from_expressions(
        ["x", "y", "x/y", "(1-y)/(1-x)", "x*(1-y)/(y*(1-x))"], name="bol-indomain"
    )


@pytest.fixture(scope="session")
def sk_web():
    return Web.from_expressions(
        [
            "x",
            "y",
            "x/y",
            "(1-y)/(1-x)",
            "y*(1-x)/(x*(1-y))",
            "x*y",
            "x*(1-y)/(x-1)",
            "(1-y)/(y*(x-1))",
            "x*(1-y)^2/(y*(1-x)^2)",
        ],
        name="sk",
    )


@pytest.fixture(scope="session")
def configc_web():
    return Web.from_expressions(
        [
            "x",
            "y",
            "x/y",
            "(1-y)/(1-x)",
            "x*(1-y)/(y*(1-x))",
            "(1+x)/(1+y)",
            "x*(1+y)/(y*(1+x))",
            "(1-y)*(1+x)/((1-x)*(1+y))",
        ],
        name="config-c",
    )
