"""Randomized property suites (at least 100 instances each where cheap)."""

import random
from fractions import Fraction

import pytest
from conftest import (
    assert_jacobian_matches_reference,
    assert_table_matches_taylor,
    fixture_path,
    quotient_rule_jacobian,
)
from exact_oracle import taylor
from hypothesis import assume, given, settings, strategies as st
from mpmath import mpf

from planarweb.abel import reexpress
from planarweb.errors import DegenerateMap, PoleAtCenter
from planarweb.jets import bol_bound, rank_only
from planarweb.parse import format_ratfunc, parse_ratfunc
from planarweb.poly import BivarPoly, coprime_split, squarefree_part
from planarweb.projective import Configuration, ProjPoint, classify_stratum, web_from_configuration
from planarweb.ratfunc import RatFunc, cleared_jacobian, wedge
from planarweb.web import Foliation, Web, _JetPowers, load_web, singular_locus


# --- random algebra objects -------------------------------------------------

# polynomials are over Z; a ratio of them is any rational function over Q
coeffs = st.integers(min_value=-12, max_value=12)


@st.composite
def polys(draw, max_terms=3, max_deg=2):
    n = draw(st.integers(1, max_terms))
    terms = {}
    for _ in range(n):
        e = (draw(st.integers(0, max_deg)), draw(st.integers(0, max_deg)))
        terms[e] = terms.get(e, 0) + draw(coeffs)
    return BivarPoly(terms)


@st.composite
def ratfuncs(draw):
    num = draw(polys())
    den = draw(polys().filter(lambda p: not p.is_zero()))
    return RatFunc(num, den)


@settings(max_examples=120, deadline=None)
@given(ratfuncs())
def test_parser_roundtrip(f):
    assert parse_ratfunc(format_ratfunc(f)) == f


# small integers and rationals of up to 40 digits over 40 digits
rationals = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.just(BivarPoly({})), coeffs.map(BivarPoly.const), polys(max_terms=5, max_deg=4)),
    rationals,
    rationals,
)
def test_evaluate_matches_the_term_sum(p, x, y):
    want = sum((c * x**ex * y**ey for (ex, ey), c in p.terms.items()), Fraction(0))
    got = p.evaluate(x, y)
    assert type(got) is Fraction and got == want


@settings(max_examples=120, deadline=None)
@given(ratfuncs(), ratfuncs())
def test_leibniz(f, g):
    for v in ("x", "y"):
        assert (f * g).derivative(v) == f.derivative(v) * g + f * g.derivative(v)


@settings(max_examples=120, deadline=None)
@given(ratfuncs(), ratfuncs(), st.integers(1, 4))
def test_jet_product_truncation(f, g, order):
    c = (Fraction(0), Fraction(0))
    if f.den.evaluate(*c) == 0 or g.den.evaluate(*c) == 0:
        return
    lhs = taylor(f * g, c, order)
    rhs = (taylor(f, c, order) * taylor(g, c, order)).truncate(order)
    assert lhs == rhs


small_rationals = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 7))


@settings(max_examples=120, deadline=None)
@given(ratfuncs(), small_rationals, small_rationals, st.integers(0, 4))
def test_integer_jet_table_matches_taylor(f, px, py, top):
    point = (px, py)
    if f.den.evaluate(px, py) == 0:
        with pytest.raises(PoleAtCenter):
            _JetPowers(f, point)
        return
    assert_table_matches_taylor(f, point, top)


@settings(max_examples=120, deadline=None)
@given(ratfuncs(), ratfuncs())
def test_jacobian_symmetry_and_vanishing(f, g):
    if f.is_constant() or g.is_constant():
        return
    assert cleared_jacobian(g, f) == -cleared_jacobian(f, g)
    assert cleared_jacobian(f, f).is_zero()
    assert_jacobian_matches_reference(f, g)


@settings(max_examples=120, deadline=None)
@given(ratfuncs(), ratfuncs())
def test_wedge_of_stored_gradients_matches_the_quotient_rule(f, g):
    assume(not f.is_constant() and not g.is_constant())
    a, b = Foliation(f), Foliation(g)
    clear = RatFunc.from_poly(f.den**2 * g.den**2)
    w = wedge(a.gradient, b.gradient)
    assert RatFunc.from_poly(w) == quotient_rule_jacobian(f, g) * clear
    assert w == cleared_jacobian(f, g)
    for v, gv in zip("xy", a.gradient):
        assert RatFunc.from_poly(gv) == f.derivative(v) * RatFunc.from_poly(f.den**2)


def reference_locus_lists(web):
    """Tangency and full component lists by the squarefree-first formula:
    squarefree part of each cleared Jacobian and each non-constant
    denominator, then coprime_split(tang) and coprime_split(tang + poles)."""
    us = web.integrals()
    tang = []
    for i in range(len(us)):
        for j in range(i + 1, len(us)):
            w = cleared_jacobian(us[i], us[j])
            if not w.is_constant():
                tang.append(squarefree_part(w))
    poles = [squarefree_part(u.den) for u in us if not u.den.is_constant()]
    return coprime_split(tang), coprime_split(tang + poles)


def assert_locus_matches_reference(web):
    locus = singular_locus(web)
    tang, full = reference_locus_lists(web)
    assert locus.tangency_components == tang
    assert locus.curve_components == full


@pytest.mark.parametrize("name", ["arctan", "bol", "cauchy", "configc", "sk"])
def test_singular_locus_matches_reference_on_fixtures(name):
    assert_locus_matches_reference(load_web(fixture_path(f"{name}.web")))


@settings(max_examples=60, deadline=None)
@given(st.lists(ratfuncs(), min_size=3, max_size=4))
def test_singular_locus_matches_reference(integrals):
    assume(not any(u.is_constant() for u in integrals))
    try:
        web = Web.from_integrals(integrals)
    except DegenerateMap:
        assume(False)
    assert_locus_matches_reference(web)


# --- web invariants -----------------------------------------------------


def test_sigma_and_rank_invariance_many_moebius(cauchy_web):
    from planarweb.jets import rank_only
    from planarweb.web import Web, singular_locus

    rng = random.Random(77)
    tang0 = {str(c) for c in singular_locus(cauchy_web).tangency_components}
    count = 0
    trials = 0
    while count < 100 and trials < 400:
        trials += 1
        integrals = []
        for u in cauchy_web.integrals():
            while True:
                a, b, c, d = (Fraction(rng.randrange(-3, 4)) for _ in range(4))
                if a * d - b * c == 0:
                    continue
                den = u.scale(c) + RatFunc.const(d)
                if den.is_zero():
                    continue
                moved_u = (u.scale(a) + RatFunc.const(b)) / den
                if not moved_u.is_constant():
                    integrals.append(moved_u)
                    break
        try:
            moved = Web.from_integrals(integrals)
        except Exception:
            continue
        assert {str(c) for c in singular_locus(moved).tangency_components} == tang0
        count += 1
        if count % 25 == 0:  # ranks are costlier; spot-check every 25th
            assert rank_only(moved) == 1
    assert count >= 100


# --- numeric properties ---------------------------------------------------


def test_shuffle_homomorphism_100_pairs():
    import itertools

    from planarweb.hyperlog.numeric import WordEvaluator
    from planarweb.hyperlog.words import STANDARD, shuffle_words

    letters = ["x0", "x1", "x-1"]
    words = [tuple(w) for wt in (1, 2) for w in itertools.product(letters, repeat=wt)]
    need = set()
    pairs = []
    for u in words:
        for v in words:
            if len(u) + len(v) <= 4:
                pairs.append((u, v))
                need.add(u)
                need.add(v)
                for w, _ in shuffle_words(u, v).items():
                    need.add(w)
    assert len(pairs) >= 100
    ev = WordEvaluator(STANDARD, sorted(need), dps=30)
    mpl = ev.mp
    rng = random.Random(5)
    zs = [mpl.mpf(rng.randrange(5, 95)) / 100 for _ in range(3)]
    for z in zs:
        vals = ev.value_vector(z)
        for u, v in pairs:
            prod = vals[u] * vals[v]
            tot = mpl.mpc(0)
            for w, m in shuffle_words(u, v).items():
                tot += m * vals[w]
            assert abs(prod - tot) < mpf(10) ** -24


def test_derivative_vs_finite_difference_100():
    from planarweb.hyperlog.calculus import hyper_derivative
    from planarweb.hyperlog.numeric import WordEvaluator
    from planarweb.hyperlog.words import HyperlogExpr, STANDARD

    import itertools

    letters = ["x0", "x1", "x-1"]
    words = [tuple(w) for wt in (1, 2, 3) for w in itertools.product(letters, repeat=wt)]
    points = [Fraction(37, 100), Fraction(13, 25), Fraction(-2, 5)]
    assert len(words) * len(points) >= 100
    ev = WordEvaluator(STANDARD, words, dps=30)
    mpl = ev.mp
    hs = [mpl.mpf("1e-5"), mpl.mpf("5e-6")]
    for z0f in points:
        z0 = mpl.mpf(z0f.numerator) / z0f.denominator
        vals_at = {h: ev.value_vector(z0 + h) for h in hs}
        vals_at.update({-h: ev.value_vector(z0 - h) for h in hs})
        vals0 = ev.value_vector(z0)
        for w in words:
            de = hyper_derivative(HyperlogExpr.word(w))
            exact = mpl.mpc(0)
            for u, slot in de.terms.items():
                for mono, r in slot.items():
                    num = Fraction(r.evaluate(z0f, 0))
                    exact += mpl.mpf(num.numerator) / num.denominator * vals0[u]
            errs = []
            for h in hs:
                fd = (vals_at[h][w] - vals_at[-h][w]) / (2 * h)
                errs.append(abs(fd - exact))
            # central differences are O(h^2); allow slack when the error is
            # already at rounding level
            assert errs[0] < mpf(10) ** -7
            if errs[0] > mpf(10) ** -14:
                assert errs[1] < errs[0]


def test_kernel_monotonic_random_small_webs():
    from exact_oracle import JetSystem
    from planarweb.web import Web, pick_generic_point

    rng = random.Random(13)
    pool = ["x", "y", "x+y", "x-y", "x*y", "x/y", "x+2*y", "x+y^2", "(x+y)/(1-x)"]
    done = 0
    while done < 12:
        picks = rng.sample(pool, 3)
        try:
            web = Web.from_expressions(picks)
            bp = pick_generic_point(web, seed=done)
        except Exception:
            continue
        dims = [JetSystem(web, bp, k).nullspace().dimension for k in range(3, 8)]
        assert all(a >= b for a, b in zip(dims, dims[1:])), (picks, dims)
        done += 1


# --- univariate re-expression ---------------------------------------------

# the fixtures' integrals and two of higher degree, one with a denominator
fixture_webs = ["bol", "cauchy", "arctan", "configc", "sk"]
target_integrals = [u for name in fixture_webs for u in load_web(fixture_path(f"{name}.web")).integrals()]
target_integrals += [parse_ratfunc("x^2"), parse_ratfunc("(x^2+y^2)/(x*y-1)")]
# univariate polynomials in x of degree <= 3
univariate = st.lists(st.integers(-5, 5), min_size=1, max_size=4).map(
    lambda cs: BivarPoly({(k, 0): c for k, c in enumerate(cs)})
)


def _degree(f):
    return max(f.num.total_degree(), f.den.total_degree())


@settings(max_examples=300, deadline=None)
@given(univariate, univariate.filter(lambda q: not q.is_zero()), st.sampled_from(target_integrals))
def test_reexpress_recovers_g_at_the_proven_degree(p, q, u):
    # f = g(U) has degree deg g * deg U exactly, so reexpress's bound
    # max(deg f) // deg U is attained and its one solve returns g
    g = RatFunc(p, q)
    f = g.substitute(u, RatFunc.var("y"))
    assert reexpress(f, Foliation(u)) == g
    assert _degree(f) == _degree(g) * _degree(u)


# --- configuration webs --------------------------------------------------------

homogeneous = st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(0, 3)).filter(any)


@st.composite
def configurations(draw):
    """Five distinct rational projective points, some at infinity.  The
    last k of them, k = 0, 1 or 2, are each a combination a P_i + b P_j of
    two earlier points, so each lies on their line: k = 0 is as a rule
    generic (S0), one such point makes a collinear triple (S1), and two make
    four points on a line (S2) or two lines through one pivot (S3)."""
    free = 5 - draw(st.sampled_from([0, 1, 1, 2, 2]))
    pts = []
    for n in range(5):
        if n >= free:
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            a, b = draw(st.sampled_from([-2, -1, 1, 2])), draw(st.sampled_from([1, 2, 3]))
            p = tuple(a * x + b * y for x, y in zip(pts[i].ints, pts[j].ints))
        else:
            p = draw(homogeneous)
        assume(any(p) and ProjPoint(*p) not in pts)
        pts.append(ProjPoint(*p))
    return Configuration(pts)


def test_configuration_webs_have_maximal_rank():
    # the paper observes that the webs of point configurations all seem to
    # be of maximal rank; every stratum S0-S3 must come up among the examples
    strata = {}

    @settings(max_examples=30, deadline=None)
    @given(configurations())
    def maximal(config):
        web = web_from_configuration(config)
        label = classify_stratum(config).label
        assert rank_only(web) == bol_bound(web.size), (label, config)
        strata[label] = strata.get(label, 0) + 1

    maximal()
    assert {"S0", "S1", "S2", "S3"} <= set(strata), strata
