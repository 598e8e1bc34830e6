from fractions import Fraction

import pytest

from planarweb.abel import (
    Adfe,
    derive_lde,
    depends_only_on,
    genericity_certificate,
    level_field,
    reduce_step,
    reexpress,
)
from planarweb.errors import (
    NoRationalExpression,
    TrivialEquation,
    ZeroPivotCoefficient,
)
from planarweb.parse import parse_ratfunc as P
from planarweb.ratfunc import RatFunc
from planarweb.web import Foliation, Web


def _apply_field(field, f):
    fx, fy = (RatFunc.from_poly(c) for c in field)
    return fx * f.derivative("x") + fy * f.derivative("y")


def test_level_field_examples():
    assert level_field(Foliation(P("x"))) == (P("0").num, P("-1").num)
    # den^2 (dU/dy, -dU/dx) is polynomial and kills U
    assert level_field(Foliation(P("x/y"))) == (P("-x").num, P("-y").num)
    for text in ["x/y", "x*(1-y)/(y*(1-x))", "(x^2+y)/(x-y^3)"]:
        u = P(text)
        field = level_field(Foliation(u))
        assert _apply_field(field, u).is_zero()
        assert not _apply_field(field, P("x+2*y")).is_zero()


def test_reduce_step_cauchy(cauchy_web):
    eq = Adfe.from_web(cauchy_web)
    assert eq.type_vector() == {0: 0, 1: 0, 2: 0}
    eq1 = reduce_step(eq, pivot=0)
    # unknown 1 disappears, the survivors move to first order
    assert eq1.type_vector() == {1: 1, 2: 1}
    with pytest.raises(ZeroPivotCoefficient):
        reduce_step(eq1, pivot=0)


def test_derive_lde_cauchy(cauchy_web):
    ode = derive_lde(cauchy_web, 3)
    # v g'' + g' = 0, normalized monic
    assert ode.order == 2
    assert ode.coeffs[2] == P("1")
    assert ode.coeffs[1] == P("1/x")
    assert ode.coeffs[0].is_zero()


def test_derive_lde_rogers_matches_printed(bol_web):
    ode = derive_lde(bol_web, 1)
    assert ode.order == 4
    v = P("x")
    one_minus = P("1-x")
    denom = v * v * one_minus * one_minus
    assert ode.coeffs[4] == P("1")
    assert ode.coeffs[3] == P("4*(2*x^3-3*x^2+x)") / denom
    assert ode.coeffs[2] == P("2*(1-7*x+7*x^2)") / denom
    assert ode.coeffs[1] == P("2*(2*x-1)") / denom
    assert ode.coeffs[0].is_zero()


def test_lde_solution_preservation(bol_web):
    # every intermediate equation of the pipeline annihilates the truncated
    # kernel solutions of the jet system
    from planarweb.jets import abelian_rank
    from planarweb.web import pick_generic_point

    base = pick_generic_point(bol_web, preferred=(Fraction(1, 3), Fraction(1, 2)))
    rank, basis = abelian_rank(bol_web, base)
    eq = Adfe.from_web(bol_web)
    stages = [eq]
    for pivot in (1, 2, 3, 4):
        eq = reduce_step(eq, pivot=pivot)
        stages.append(eq)
    order = basis.order
    for vec in basis.vectors[:3]:
        comp_jets = {}
        for i in range(bol_web.size):
            comp_jets[i] = [Fraction(0)] + [
                vec[basis.unknown_index[(i, k)]] for k in range(1, order + 1)
            ]
        for stage in stages:
            assert _adfe_annihilates(stage, comp_jets, base, order)


def _adfe_annihilates(eq, comp_jets, base, order):
    """Apply the Adfe operator to truncated component series, exactly."""
    from exact_oracle import taylor

    total = {}
    max_j = max(j for (_, j) in eq.coeffs)
    usable = order - max_j
    for (i, j), coeff in eq.coeffs.items():
        a = RatFunc.from_poly(coeff)
        u = eq.inner[i]
        val = u.evaluate(*base.point)
        ujet = taylor(u, base.point, usable)
        shifted = dict(ujet.coeffs)
        shifted.pop((0, 0), None)
        # j-th derivative series of component i, recentred coefficients
        jet = comp_jets[i]
        dcoef = [jet[k + j] * _falling(k + j, j) for k in range(len(jet) - j)]
        # compose: sum_k dcoef[k] * (u - val)^k
        comp = {(0, 0): dcoef[0]} if dcoef else {}
        power = {(0, 0): Fraction(1)}
        for k in range(1, len(dcoef)):
            power = _mul_trunc(power, shifted, usable)
            if dcoef[k]:
                for e, c in power.items():
                    comp[e] = comp.get(e, Fraction(0)) + dcoef[k] * c
        if a.den.evaluate(*base.point) == 0:
            return True  # coefficient has a pole at the base point; skip stage
        ajet = taylor(a, base.point, usable).coeffs
        term = _mul_trunc(ajet, comp, usable)
        for e, c in term.items():
            total[e] = total.get(e, Fraction(0)) + c
    return all(c == 0 for c in total.values())


def _falling(n, j):
    out = 1
    for t in range(j):
        out *= n - t
    return Fraction(out)


def _mul_trunc(a, b, order):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            if i1 + i2 + j1 + j2 > order:
                continue
            e = (i1 + i2, j1 + j2)
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def test_depends_only_on_examples():
    assert depends_only_on(P("(x/y)^2"), Foliation(P("x/y")))
    assert not depends_only_on(P("x"), Foliation(P("y")))
    assert depends_only_on(P("(x-y)/(x+y)"), Foliation(P("x/y")))


def test_reexpress_examples():
    u = Foliation(P("x/y"))
    g = reexpress(P("(x-y)/(x+y)"), u, 2)
    assert g == P("(x-1)/(x+1)")
    assert reexpress(P("x/y"), u, 1) == P("x")
    assert reexpress(P("5"), u, 1) == P("5")
    with pytest.raises(NoRationalExpression):
        reexpress(P("x"), Foliation(P("y")), 3)


def test_genericity_examples(cauchy_web, bol_web):
    generic = Web.from_expressions(["x", "y", "x+y^3+x^2*y"])
    assert genericity_certificate(generic)["verdict"] == "GENERIC"
    assert genericity_certificate(cauchy_web)["verdict"] == "NOT-CERTIFIED"
    assert genericity_certificate(bol_web)["verdict"] == "NOT-CERTIFIED"


def test_generic_web_has_rank_zero():
    from planarweb.jets import rank_only

    generic = Web.from_expressions(["x", "y", "x+y^3+x^2*y"])
    assert rank_only(generic) == 0


# webs whose target, once alone, takes transverse steps (one and three)
TRANSVERSE_WEBS = {
    "transverse1": ["x/y", "1-y", "x+y^2", "x"],
    "transverse3": ["(1+x)/(1+y)", "x-3*y", "x", "x*(1-y)/(y*(1-x))", "(1-x)/(1-y)"],
}


def _trace(pivots, transverse):
    """Trace entries: `eliminate` steps with their pivots and types, then
    `transverse-differentiate` steps with their types."""
    entries = [{"kind": "eliminate", "pivot": p, "type": t} for p, t in pivots]
    entries += [{"kind": "transverse-differentiate", "type": t} for t in transverse]
    return [{"step": n, **e} for n, e in enumerate(entries, start=1)]


@pytest.mark.parametrize(
    "name, coefficients, trace",
    [
        (
            "transverse1",
            ["0", "(-1)/(v^2 - 2*v + 1)", "(1)/(v - 1)", "1"],
            _trace([(1, {2: 1, 3: 1, 4: 1}), (3, {2: 2, 4: 2}), (4, {2: 3, 4: 1}), (4, {2: 4})], [{2: 3}]),
        ),
        (
            "transverse3",
            ["0", "(2)/(v^2 - 4)", "(4*v)/(v^2 - 4)", "1"],
            _trace(
                [
                    (1, {2: 1, 3: 1, 4: 1, 5: 1}),
                    (3, {2: 2, 4: 2, 5: 2}),
                    (4, {2: 3, 4: 1, 5: 3}),
                    (4, {2: 4, 5: 4}),
                    (5, {2: 5, 5: 3}),
                    (5, {2: 6}),
                ],
                [{2: 5}, {2: 4}, {2: 3}],
            ),
        ),
    ],
)
def test_derive_lde_transverse_steps(name, coefficients, trace):
    """Target 2 of these webs is left alone at order 4 (6), and each
    differentiation along its level field lowers the order by one until
    every ratio A_j / A_top depends on its integral alone."""
    ode = derive_lde(Web.from_expressions(TRANSVERSE_WEBS[name]), 2)
    assert ode.order == 3
    assert ode.coefficient_strings() == coefficients
    assert ode.derivation_trace == trace


ODE_TARGETS = [(name, t) for name, size in (("bol", 5), ("cauchy", 3), ("arctan", 3)) for t in range(1, size + 1)]
ODE_TARGETS += [(name, 2) for name in TRANSVERSE_WEBS]


@pytest.mark.parametrize("name, target", ODE_TARGETS, ids=[f"{n}-{t}" for n, t in ODE_TARGETS])
def test_abel_ode_annihilates_the_rank_kernel(name, target):
    """Each vector of the exact jet kernel at K = stabilized order + 6 gives,
    in the target's columns, the Taylor coefficients of F_t at u0 = U_t(base);
    the ODE of `derive_lde`, its coefficients expanded at u0, applied to that
    series vanishes up to degree K - order - 1.  The constant term is left
    zero: constants solve the ODE, which has no g term."""
    from conftest import fixture_path

    from exact_oracle import JetSystem, taylor
    from planarweb.jets import abelian_rank
    from planarweb.web import DEFAULT_POINT, load_web, pick_generic_point

    if name in TRANSVERSE_WEBS:
        web = Web.from_expressions(TRANSVERSE_WEBS[name])
    else:
        web = load_web(fixture_path(f"{name}.web"))
    base = pick_generic_point(web, preferred=DEFAULT_POINT)
    rank, basis = abelian_rank(web, base)
    K = basis.order + 6
    system = JetSystem(web, base, K)
    kernel = system.nullspace().basis
    assert len(kernel) == rank > 0
    ode = derive_lde(web, target)
    assert ode.coeffs[0].is_zero()
    u0 = base.images[target - 1]
    depth = K - ode.order - 1
    assert depth >= 5
    expanded = [[taylor(c, (u0, 0), depth).coefficient(n, 0) for n in range(depth + 1)] for c in ode.coeffs]
    columns = [system.unknown_index[(target - 1, k)] for k in range(1, K + 1)]
    assert any(vec[c] for vec in kernel for c in columns)
    for vec in kernel:
        series = [0] + [vec[c] for c in columns]
        for n in range(depth + 1):
            # degree n of sum_j c_j F^(j); F^(j) has a_(m+j) (m+j)!/m! at degree m
            total = sum(
                cs[n - m] * series[m + j] * _falling(m + j, j)
                for j, cs in enumerate(expanded)
                for m in range(n + 1)
            )
            assert total == 0, (name, target, n)


@pytest.mark.parametrize("name", ["bol", "sk", "configc"])
def test_coefficients_are_ints(name):
    """Z is the one coefficient ring: a parsed web's numerators and
    denominators, and every Adfe coefficient along an elimination, hold
    Python ints."""
    from conftest import fixture_path

    from planarweb.web import load_web

    web = load_web(fixture_path(f"{name}.web"))
    for u in web.integrals():
        assert all(type(c) is int for p in (u.num, u.den) for c in p.terms.values())
    eq = Adfe.from_web(web)
    for _ in range(min(web.size - 1, 4)):
        eq = reduce_step(eq, eq.active_unknowns()[0])
        assert all(type(v) is int for c in eq.coeffs.values() for v in c.terms.values())


@pytest.mark.parametrize("name", ["bol", "cauchy", "arctan"])
def test_abel_ode_reads_the_foliations_gradients(name, monkeypatch, capsys):
    # every gradient of a web integral that abel-ode uses is the one its
    # Foliation computed when it was built: one per integral, no more
    import planarweb.abel as abel_module
    import planarweb.ratfunc as ratfunc_module
    import planarweb.web as web_module
    from conftest import fixture_path

    from planarweb.cli import main
    from planarweb.ratfunc import cleared_gradient
    from planarweb.web import load_web

    integrals = load_web(fixture_path(f"{name}.web")).integrals()
    seen = []

    def counted(u):
        seen.append(u)
        return cleared_gradient(u)

    for module in (abel_module, ratfunc_module, web_module):
        monkeypatch.setattr(module, "cleared_gradient", counted)
    assert main(["abel-ode", fixture_path(f"{name}.web"), "--target", "1"]) == 0
    capsys.readouterr()
    assert sorted(integrals.index(u) for u in seen if u in integrals) == list(range(len(integrals)))
