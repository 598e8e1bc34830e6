import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from planarweb.abel import depends_only_on
from planarweb.ratfunc import RatFunc, cleared_jacobian
from planarweb.web import Foliation, Web, same_foliation

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
    assert depends_only_on(f, g) == depends_only_on(g, f) == ref.is_zero()


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
