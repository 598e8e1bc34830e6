from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fixture_path
from gcd_oracle import _prs_gcd, prs_gcd_cofactors
from planarweb import poly as poly_module
from planarweb.cli import main
from planarweb.parse import parse_ratfunc as P
from planarweb.poly import (
    BivarPoly,
    coprime_split,
    poly_divides,
    poly_divmod_exact,
    poly_gcd,
    poly_gcd_cofactors,
    squarefree_part,
)


def poly(text):
    f = P(text)
    assert f.den.is_constant()
    return f.num


GCD_CASES = [
    pytest.param("(x+y)^2*(x-y)", "(x+y)*(x+2*y)", "x+y", id="basic"),
    # 6y(x-y)(x+y) and 4y(x+y)
    pytest.param("6*x^2*y - 6*y^3", "4*x*y + 4*y^2", "x*y + y^2", id="content"),
    pytest.param("(x-1)*(y^2+x)", "3*(x-1)*(y+1)", "x-1", id="factor-in-x"),
    pytest.param("(2*y+1)*(x^2+y)", "(2*y+1)*(x+1)", "2*y+1", id="factor-in-y"),
    pytest.param("(x-1)*(x+y)", "(x-1)*(x+y)*(y+3)", "(x-1)*(x+y)", id="factor-in-x-and-y"),
    pytest.param("6*(x+y)", "4*(x-y)", "1", id="integer-content"),
    pytest.param("0", "-2*x-4*y", "x+2*y", id="zero"),
]


@pytest.mark.parametrize("a, b, expected", GCD_CASES)
def test_gcd(a, b, expected):
    assert poly_gcd(poly(a), poly(b)) == poly(expected)
    assert poly_gcd(poly(b), poly(a)) == poly(expected)


@pytest.mark.parametrize("a, b, expected", GCD_CASES)
def test_gcd_by_the_prs_alone(a, b, expected):
    assert prs_gcd_cofactors(poly(a), poly(b))[0] == poly(expected)
    assert prs_gcd_cofactors(poly(b), poly(a))[0] == poly(expected)


def test_gcd_coprime_is_constant():
    assert poly_gcd(poly("x+1"), poly("y+1")).is_constant()


@pytest.mark.parametrize("cofactors", [poly_gcd_cofactors, prs_gcd_cofactors], ids=["gcdheu", "prs"])
@pytest.mark.parametrize("a, b", [("x", "y"), ("x-1", "y-1"), ("x^2+1", "y^2+1")])
def test_single_integer_traps_are_coprime(a, b, cofactors):
    # x -> t^m, y -> t would give each pair a common factor
    g, a_bar, b_bar = cofactors(poly(a), poly(b))
    assert g == BivarPoly.const(1) and a_bar == poly(a) and b_bar == poly(b)


coeffs = st.one_of(st.integers(-9, 9), st.integers(-(2**200), 2**200))


@st.composite
def polys(draw, variables="xy", max_terms=4, max_deg=2):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        ex = draw(st.integers(0, max_deg)) if "x" in variables else 0
        ey = draw(st.integers(0, max_deg)) if "y" in variables else 0
        terms[(ex, ey)] = terms.get((ex, ey), 0) + draw(coeffs)
    return BivarPoly(terms)


@settings(max_examples=80, deadline=None)
@given(
    polys(), polys(), polys(variables="x"), polys(variables="y"), polys(max_terms=3),
    st.integers(1, 2**70), st.integers(1, 2**70),
)
def test_gcdheu_equals_the_prs(a, b, in_x, in_y, common, ca, cb):
    # a common factor in x alone, one in y alone and a mixed one, under
    # integer contents of their own
    factor = in_x * in_y * common
    p, q = (a * factor).scale(ca), (b * factor).scale(cb)
    g, p_bar, q_bar = poly_gcd_cofactors(p, q)
    assert (g, p_bar, q_bar) == prs_gcd_cofactors(p, q)
    assert g * p_bar == p and g * q_bar == q
    if not g.is_zero():
        assert g.primitive_z() == (1, g)


def watch_points(monkeypatch):
    """Wrap _image and _value, each called once per input at every
    evaluation point, and list the points of each level by their multiple of
    the first point's bits: 1 for the first point of a gcd, 2 for the
    second, 4 for the third."""
    points = {"y": [], "x": []}

    def watch(level, name, norm):
        helper, pending = getattr(poly_module, name), []

        def wrapper(a, s):
            pending.append(norm(a))
            if len(pending) == 2:
                points[level].append(s // poly_module._slot_bits(max(pending)))
                pending.clear()
            return helper(a, s)

        monkeypatch.setattr(poly_module, name, wrapper)

    watch("y", "_image", lambda p: max(map(abs, p.terms.values())))
    watch("x", "_value", lambda a: max(map(abs, a)))
    return points


@pytest.mark.parametrize(
    "level, a, b",
    [
        # at y = 2^8 the primitive images x - x^2 and 2^16 - x take values at
        # x = 2^24 that share 2^16 (2^8 - 1), whose digits are no Z[x] divisor
        pytest.param("x", "2*x*y^3*(1-x)", "3*y^2*(y^2-x)", id="x-level"),
        # at y = 2^8 the images' Z[x] gcd is 81 2^17 x^3, whose digits in y
        # give x^3 y^2 (y - 94)
        pytest.param("y", "-9*x^3*y^3*(2*y+1)", "9*x^4*y^2*(y^2+2)", id="y-level"),
        # 126 y + 2 at y = 2^8 is a multiple of 2^8 - 2, so the first
        # candidate (x + y)(y - 2) divides only the second input
        pytest.param("y", "(x+y)*(126*y+2)", "(x+y)*(y-2)", id="y-level-divides-one"),
        pytest.param("y", "(x+y)*(y-2)", "(x+y)*(126*y+2)", id="y-level-divides-other"),
        # the curves meet at (2^16, 2^24), on the first point's line y = 2^24,
        # so both images contain x - 65536, which divides only the second input
        pytest.param("y", "256*x-y", "x-65536", id="y-level-shared-factor"),
        pytest.param("y", "(256*x-y)*(x+y+1)", "(x-65536)*(x+y+1)", id="y-level-shared-factor-common"),
    ],
)
def test_a_failed_evaluation_point_is_retried(level, a, b, monkeypatch):
    p, q = poly(a), poly(b)
    expected = prs_gcd_cofactors(p, q)
    points = watch_points(monkeypatch)
    assert poly_gcd_cofactors(p, q) == expected
    assert max(points[level]) == 2


@pytest.mark.parametrize(
    "a, b",
    [
        # 52 2^8 - 9 = 53 * 251, so at x = 2^8 the first candidate x - 5
        # divides only the second input
        pytest.param([-9, 52], [-5, 1], id="divides-one"),
        pytest.param([-5, 1], [-9, 52], id="divides-other"),
        # the same times x + 1
        pytest.param([-9, 43, 52], [-5, -4, 1], id="common-divides-one"),
        pytest.param([-5, -4, 1], [-9, 43, 52], id="common-divides-other"),
    ],
)
def test_a_failed_x_level_candidate_is_retried(a, b, monkeypatch):
    # at the Z[x] level itself: above it, a wrong Z[x] gcd is only ever
    # refused by the y-level trial division, point after point
    g = _prs_gcd(a, b)
    points = watch_points(monkeypatch)
    assert poly_module._heu_zx(a, b) in (g, [-v for v in g])
    assert points["x"] == [1, 2]


@pytest.mark.parametrize(
    "argv",
    [["sigma", f"{w}.web"] for w in ("arctan", "bol", "cauchy", "configc", "sk")]
    + [["abel-ode", f"{w}.web", "--target", "1"] for w in ("bol", "cauchy", "arctan")],
    ids=lambda argv: "-".join(argv[:2]),
)
def test_fixture_gcds_never_reach_the_prs(argv, monkeypatch):
    # one y-level point and at most two x-level points per fixture gcd
    points = watch_points(monkeypatch)
    assert main([argv[0], fixture_path(argv[1]), *argv[2:]]) == 0
    assert set(points["y"]) == {1} and set(points["x"]) <= {1, 2}


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


@pytest.mark.parametrize("name,gcds", [("sk", 321), ("configc", 239)])
def test_coprime_split_scans_each_input_once(name, gcds, monkeypatch):
    # every gcd of a web's locus split, the squarefree parts included: each
    # input is scanned once along the list, and a split part is not tested
    # again against what it is known to be coprime to; the coarsest coprime
    # base does not depend on the order of the inputs
    from planarweb.web import load_web, singular_locus

    locus = singular_locus(load_web(fixture_path(f"{name}.web")))
    calls = []
    cofactors = poly_module.poly_gcd_cofactors

    def counted(p, q):
        calls.append(1)
        return cofactors(p, q)

    monkeypatch.setattr(poly_module, "poly_gcd_cofactors", counted)
    components = locus.curve_components
    assert len(calls) == gcds
    monkeypatch.setattr(poly_module, "poly_gcd_cofactors", cofactors)
    tangency = coprime_split(locus.jacobians[::-1])
    assert coprime_split(locus.poles[::-1], basis=tangency) == components


def test_canonical_leading_sign():
    _, prim = poly("-2*x-2*y").primitive_z()
    assert prim == poly("x+y")
