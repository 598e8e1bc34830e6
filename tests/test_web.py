import os
import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import FIXTURES, fixture_path
from planarweb.errors import DegenerateMap, PoleAtCenter, TooFewFoliations
from planarweb.parse import parse_ratfunc as P
from planarweb.poly import poly_divides, poly_divmod_exact, squarefree_part
from planarweb.ratfunc import cleared_jacobian
from planarweb.web import (
    BasePoint,
    Foliation,
    Web,
    load_web,
    pick_generic_point,
    pullback_web,
    same_foliation,
    singular_locus,
    verify_sigma_factors,
    web_from_text,
    web_to_text,
    webs_equal_as_foliations,
)


def components(web):
    return {str(c) for c in singular_locus(web).curve_components}


def test_sigma_cauchy(cauchy_web):
    assert components(cauchy_web) == {"x", "y"}


def test_sigma_arctan(arctan_web):
    assert components(arctan_web) == {"x^2 + 1", "y^2 + 1", "x*y - 1"}


def test_sigma_bol(bol_web):
    assert components(bol_web) == {"x", "y", "x - 1", "y - 1", "x - y"}


def test_sigma_sk_all_printed_factors_divide(sk_web):
    printed = ["x", "y", "1-x", "1-y", "x-y", "1+x", "1+y", "1-x*y",
               "2-x-y", "x*y-2*y+1", "2*x*y-y-x"]
    report = verify_sigma_factors(sk_web, [P(t) for t in printed])
    assert report["all_divide"]
    # the printed list misses the mirror conic x*y - 2*x + 1 (an exact
    # tangency of the pair (x/y, U8)); with it the product matches exactly
    report2 = verify_sigma_factors(sk_web, [P(t) for t in printed + ["x*y-2*x+1"]])
    assert report2["all_divide"] and report2["product_equal_up_to_constant"]


def test_sigma_negative_control(cauchy_web):
    report = verify_sigma_factors(cauchy_web, [P("x+y")])
    assert not report["all_divide"]


def test_sigma_product_equality_small(cauchy_web, arctan_web, bol_web):
    for web, printed in [
        (cauchy_web, ["x", "y"]),
        (arctan_web, ["1-x*y", "1+x^2", "1+y^2"]),
        (bol_web, ["x", "y", "1-x", "1-y", "x-y"]),
    ]:
        report = verify_sigma_factors(web, [P(t) for t in printed])
        assert report["all_divide"] and report["product_equal_up_to_constant"]


def test_sigma_order_independent(bol_web):
    shuffled = Web.from_integrals(list(reversed(bol_web.integrals())))
    assert components(bol_web) == components(shuffled)


def test_same_foliation_examples():
    assert same_foliation(Foliation(P("x/y")), Foliation(P("y/x")))
    assert not same_foliation(Foliation(P("x")), Foliation(P("y")))
    assert same_foliation(
        Foliation(P("y*(1-x)/(x*(1-y))")), Foliation(P("x*(1-y)/(y*(1-x))"))
    )


def test_pick_generic_point(bol_web, cauchy_web, sk_web):
    bp = pick_generic_point(bol_web, preferred=(Fraction(1, 3), Fraction(1, 2)))
    assert bp.point == (Fraction(1, 3), Fraction(1, 2))
    bp = pick_generic_point(sk_web, preferred=(Fraction(1, 3), Fraction(1, 2)))
    assert bp.point == (Fraction(1, 3), Fraction(1, 2))
    # the origin lies on the singular locus of the Cauchy web
    bp = pick_generic_point(cauchy_web, preferred=(Fraction(0), Fraction(0)))
    assert bp.point != (Fraction(0), Fraction(0))
    assert not singular_locus(cauchy_web).vanishes_at(*bp.point)


def test_base_point_on_a_pole_curve_is_an_error():
    # (1/2, 0) lies on the pole curve y = 0 of x/y, which is part of the
    # singular locus, so it is no base point
    with pytest.raises(PoleAtCenter):
        BasePoint(Web.from_expressions(["x", "x+y", "x/y"]), (Fraction(1, 2), Fraction(0)))


@pytest.mark.parametrize("name", ["arctan", "bol", "cauchy", "configc", "sk", "bol-indomain"])
def test_point_test_agrees_with_the_components(name, bol_web_indomain):
    # evaluating the unfactored Jacobians and denominators decides membership
    # in the factored locus; the grid meets x = 0, y = 0, x = y and x = 1
    web = bol_web_indomain if name == "bol-indomain" else load_web(fixture_path(f"{name}.web"))
    locus = singular_locus(web)
    coords = [Fraction(v) for v in (-1, 0, Fraction(1, 3), Fraction(1, 2), 1, 2)]
    seen = set()
    for x in coords:
        for y in coords:
            on = any(c.evaluate(x, y) == 0 for c in locus.curve_components)
            assert locus.vanishes_at(x, y) == on, (x, y)
            seen.add(on)
    assert seen == {True, False}


FIXTURE_WEBS = sorted(f for f in os.listdir(FIXTURES) if f.endswith(".web"))


@pytest.mark.parametrize("name", FIXTURE_WEBS)
def test_web_jacobians_are_the_pairwise_cleared_jacobians(name):
    web = load_web(fixture_path(name))
    us = web.integrals()
    assert list(web.jacobians) == list(combinations(range(web.size), 2))
    for (i, j), w in web.jacobians.items():
        assert w == cleared_jacobian(us[i], us[j]), (name, i, j)


def test_each_foliation_computes_one_gradient(monkeypatch):
    # every pairwise test of these webs (their Jacobians, and prop7's
    # matching of the Cremona image) reads the stored gradients
    import planarweb.ratfunc
    import planarweb.web
    from planarweb.projective import named_configuration, prop7_check, web_from_configuration

    built, computed = [], []
    init, gradient = Foliation.__init__, planarweb.ratfunc.cleared_gradient

    def counted_init(self, integral):
        init(self, integral)
        built.append(integral)

    def counted_gradient(u):
        computed.append(u)
        return gradient(u)

    monkeypatch.setattr(Foliation, "__init__", counted_init)
    monkeypatch.setattr(planarweb.web, "cleared_gradient", counted_gradient)
    monkeypatch.setattr(planarweb.ratfunc, "cleared_gradient", counted_gradient)
    sizes = [load_web(fixture_path(name)).size for name in FIXTURE_WEBS]
    sizes += [web_from_configuration(named_configuration(name)).size for name in ("b", "c", "q")]
    check = prop7_check(load_web(fixture_path("sk.web")))
    # sk, its Cremona image and the web of q
    sizes += [9, check["web_size"], check["web_size"]]
    assert check["match"] and len(built) == sum(sizes) == 77
    assert computed == built


def test_restrict_to_every_foliation_shares_the_ladder(bol_web):
    base = pick_generic_point(bol_web)
    assert base.restrict(range(1, 6)).kernels is base.kernels
    assert base.restrict([5, 4, 3, 2, 1]).kernels is base.kernels
    assert base.restrict([1, 2, 3, 4]).kernels is not base.kernels


def test_subweb_slices_the_jacobians(sk_web):
    for idx in ([2, 5, 9], [1, 3, 4, 6, 8], list(range(2, 10))):
        sub = sk_web.subweb(idx)
        assert sub.jacobians == Web(sub.foliations).jacobians


def test_point_tests_do_not_factor_the_locus(bol_web, bol_web_indomain, monkeypatch):
    import planarweb.web
    from planarweb.jets import Pattern, constrained_rank, rank_report

    def refuse(polys):
        raise AssertionError("a point test factored the singular locus")

    monkeypatch.setattr(planarweb.web, "coprime_split", refuse)
    assert len(rank_report(bol_web, [3, 4])["subwebs"]) == 15
    pattern = Pattern([[1, 2, 3, 4], [5]], {1: 1, 2: -1, 3: -1, 4: -1, 5: 1})
    assert constrained_rank(bol_web_indomain, pattern)["dim_mod_subsolutions"] == 1


def test_pullback_examples(bol_web, sk_web):
    swapped = pullback_web(bol_web, (P("y"), P("x")))
    assert webs_equal_as_foliations(swapped, bol_web) is not None
    ident = pullback_web(sk_web, (P("x"), P("y")))
    assert webs_equal_as_foliations(ident, sk_web) == list(range(1, 10))


def test_pullback_inverse_roundtrip(bol_web):
    fwd = (P("1/(x-1)"), P("1/(y-1)"))
    inv = (P("(x+1)/x"), P("(y+1)/y"))
    once = pullback_web(bol_web, fwd)
    back = pullback_web(once, inv)
    assert webs_equal_as_foliations(back, bol_web) is not None


def test_pullback_degenerate():
    web = Web.from_expressions(["x", "y", "x*y"])
    with pytest.raises(DegenerateMap):
        pullback_web(web, (P("x*y"), P("x*y")))


def test_subweb(sk_web, bol_web):
    five = sk_web.subweb([1, 2, 3, 4, 5])
    assert webs_equal_as_foliations(five, bol_web) is not None
    seven = sk_web.subweb_without([6, 9])
    assert seven.size == 7
    assert webs_equal_as_foliations(sk_web.subweb(list(range(1, 10))), sk_web)
    with pytest.raises(TooFewFoliations):
        sk_web.subweb([1, 2])


def test_subweb_trusts_the_parent_distinctness(sk_web, monkeypatch):
    import planarweb.web

    def refuse(f, g):
        raise AssertionError("subweb re-checked distinctness")

    monkeypatch.setattr(planarweb.web, "same_foliation", refuse)
    monkeypatch.setattr(planarweb.web, "wedge", refuse)
    sub = sk_web.subweb([2, 5, 9])
    assert sub.integrals() == [sk_web.integrals()[i] for i in (1, 4, 8)]
    assert sk_web.subweb_without([1]).size == 8


def test_web_file_roundtrip(bol_web):
    text = web_to_text(bol_web)
    back = web_from_text(text)
    assert back.name == bol_web.name
    assert webs_equal_as_foliations(back, bol_web) == [1, 2, 3, 4, 5]


def test_web_needs_distinct_foliations():
    with pytest.raises(DegenerateMap):
        Web.from_expressions(["x", "y", "y/x", "x/y"])


def test_sigma_tangency_invariant_under_moebius(bol_web):
    # tangency components are invariant under arbitrary Mobius changes of
    # the integrals; pole components move (they follow the chosen integral)
    rng = random.Random(4)
    tang0 = {str(c) for c in singular_locus(bol_web).tangency_components}
    for _ in range(5):
        integrals = []
        for u in bol_web.integrals():
            while True:
                a, b, c, d = (Fraction(rng.randrange(-3, 4)) for _ in range(4))
                if a * d - b * c != 0:
                    break
            num = u.scale(a) + RC(b)
            den = u.scale(c) + RC(d)
            integrals.append(num / den if not den.is_zero() else num)
        moved = Web.from_integrals(integrals)
        assert {str(c) for c in singular_locus(moved).tangency_components} == tang0


def test_sigma_full_set_invariant_under_affine_reparam(arctan_web):
    rng = random.Random(9)
    full0 = components(arctan_web)
    for _ in range(5):
        integrals = []
        for u in arctan_web.integrals():
            a = Fraction(rng.randrange(1, 5))
            b = Fraction(rng.randrange(-3, 4))
            integrals.append(u.scale(a) + RC(b))
        assert components(Web.from_integrals(integrals)) == full0


def RC(v):
    from planarweb.ratfunc import RatFunc

    return RatFunc.const(v)
