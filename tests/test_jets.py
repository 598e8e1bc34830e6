from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from operator import mul

import pytest

from planarweb.errors import InvalidParameter, NotStabilized, PoleAtCenter
from planarweb.jets import (
    Pattern,
    _stabilized_dims,
    abelian_rank,
    bol_bound,
    constrained_rank,
    filtration_dims,
    hexagonality,
    jet_kernel,
    rank_only,
    rank_report,
)
from planarweb.linalg import invertible_columns
from planarweb.parse import parse_ratfunc as P
from planarweb.ratfunc import RatFunc
from planarweb.web import DEFAULT_POINT, BasePoint, Web, _JetPowers, pick_generic_point

from conftest import assert_table_matches_taylor
from exact_oracle import FractionSpan, JetSystem, SeriesJet, assert_primitive, free_columns, taylor


def test_rank_cauchy(cauchy_web):
    rank, basis = abelian_rank(cauchy_web)
    assert rank == 1
    # solution space including constants has dimension 3
    assert rank + cauchy_web.size - 1 == 3


def test_rank_arctan(arctan_web):
    assert rank_only(arctan_web) == 1


def test_rank_bol(bol_web):
    rank, basis = abelian_rank(bol_web)
    assert rank == 6
    assert rank + bol_web.size - 1 == 10


def test_rank_all_lines():
    for n in (5, 6):
        ais = [Fraction(i, n - 1) for i in range(n)]
        web = Web.from_integrals([P(f"x - ({a})*y") for a in ais], name=f"lines{n}")
        bp = pick_generic_point(web, preferred=(Fraction(1, 3), Fraction(1, 2)))
        assert rank_only(web, bp) == bol_bound(n)


def test_rank_base_point_independent(bol_web):
    ranks = set()
    for seed in (1, 2, 3):
        bp = pick_generic_point(bol_web, seed=seed)
        ranks.add(rank_only(bol_web, bp))
    assert ranks == {6}


def test_kernel_dims_nonincreasing(bol_web, cauchy_web, arctan_web, configc_web):
    # a solution of the order-(K+1) system truncates to one of order K
    for web in (bol_web, cauchy_web, arctan_web, configc_web):
        bp = pick_generic_point(web, preferred=(Fraction(1, 3), Fraction(1, 2)))
        n = web.size
        dims = [JetSystem(web, bp, order).nullspace().dimension for order in range(n, n + 4)]
        assert dims == sorted(dims, reverse=True), web.name


def test_kernel_extends_to_higher_order(bol_web):
    # every stabilized kernel vector is the truncation of a higher-order one
    bp = pick_generic_point(bol_web, preferred=(Fraction(1, 3), Fraction(1, 2)))
    rank, basis = abelian_rank(bol_web, bp)
    order = basis.order
    high = JetSystem(bol_web, bp, order + 2).nullspace()

    # project high-order kernel down and check it spans the stabilized one
    proj = []
    for v in high.basis:
        sysh = JetSystem(bol_web, bp, order + 2)
        down = [Fraction(0)] * len(basis.unknown_index)
        for (i, k), col in basis.unknown_index.items():
            down[col] = v[sysh.unknown_index[(i, k)]]
        proj.append(down)
    red = FractionSpan(proj)
    for v in basis.vectors:
        assert red.contains(v)


def test_filtration_bol(bol_web):
    dims = filtration_dims(bol_web)
    assert dims == {3: 5, 4: 5, 5: 6}


def test_filtration_cauchy_and_configc(cauchy_web, configc_web, sk_web):
    # ranked on the pivot columns of the web's kernel, as frozen from the
    # ranks in all nK jet columns
    assert filtration_dims(cauchy_web) == {3: 1}
    assert filtration_dims(configc_web) == {3: 14, 4: 14, 5: 17, 6: 21, 7: 21, 8: 21}
    # sk's spans, in the 28 coordinates of its kernel, are the largest
    # systems that linalg eliminates
    base = pick_generic_point(sk_web, seed=0, preferred=DEFAULT_POINT)
    rank, basis = abelian_rank(sk_web, base)
    assert (rank, basis.order) == (28, 9)
    assert filtration_dims(sk_web, base) == {3: 17, 4: 20, 5: 23, 6: 26, 7: 26, 8: 26, 9: 28}


def test_hexagonality_examples():
    assert hexagonality(Web.from_expressions(["x", "y", "x+y"]))["hexagonal"]
    bad = Web.from_expressions(["x", "y", "x+y+x^2*y"])
    rep = hexagonality(bad)
    assert not rep["hexagonal"]
    assert rank_only(bad) == 0


@pytest.mark.parametrize("web_name,sizes", [("bol_web", [3, 4, 5]), ("sk_web", [3])])
def test_rank_report_shared_point_matches_own_points(web_name, sizes, request):
    # every subweb is ranked at the parent's base point; each must agree
    # with the rank at the subweb's own generic point
    web = request.getfixturevalue(web_name)
    base = pick_generic_point(web, seed=0, preferred=(Fraction(1, 3), Fraction(1, 2)))
    entries = rank_report(web, sizes, base)["subwebs"]
    assert len(entries) == sum(comb(web.size, k) for k in sizes)
    for e in entries:
        sub = web.subweb(e["indices"])
        for s in (0, 1):
            assert e["rank"] == rank_only(sub, pick_generic_point(sub, seed=s)), e


def test_rank_report_three_webs(bol_web):
    rep = rank_report(bol_web, [3])
    assert all(e["rank"] in (0, 1) for e in rep["subwebs"])
    assert all(e["hexagonal"] == (e["rank"] == 1) for e in rep["subwebs"])


def test_rank_moebius_and_projective_invariance(cauchy_web, bol_web):
    import random

    rng = random.Random(12)
    from planarweb.ratfunc import RatFunc
    from planarweb.web import pullback_web

    for web, expected in [(cauchy_web, 1), (bol_web, 6)]:
        # Mobius reparametrization of one integral
        integrals = list(web.integrals())
        u = integrals[0]
        integrals[0] = (u.scale(2) + RatFunc.const(1)) / (u + RatFunc.const(3))
        assert rank_only(Web.from_integrals(integrals)) == expected
        # projective (affine invertible) pullback of the whole web
        while True:
            a, b, c, d = (Fraction(rng.randrange(-3, 4)) for _ in range(4))
            if a * d - b * c != 0:
                break
        fx = P("x").scale(a) + P("y").scale(b) + RatFunc.const(1)
        fy = P("x").scale(c) + P("y").scale(d)
        assert rank_only(pullback_web(web, (fx, fy))) == expected


def test_bound_assertion():
    with pytest.raises(InvalidParameter):
        # a ladder of one order cannot show four equal dimensions
        abelian_rank(
            Web.from_expressions(["x", "y", "x/y"]),
            max_order=3,
            stabilize=4,
        )
    # a ladder that reaches its cap surfaces the dimension sequence
    with pytest.raises(NotStabilized) as info:
        _stabilized_dims(3, lambda order: order, "not stabilized by {cap}: {dims}", 3, 6)
    assert info.value.dims == [3, 4, 5, 6]


def _fraction_kernel(web, point, order):
    """Canonical kernel basis of the order-`order` jet matrix, assembled in
    Fractions from exact_oracle.taylor powers and reduced by Gauss-Jordan
    elimination: free column 1, pivot entries minus the reduced row's."""
    powers = []
    for u in web.integrals():
        jet = taylor(u, point, order)
        v = SeriesJet(jet.center, order, {e: c for e, c in jet.coeffs.items() if e != (0, 0)})
        powers.append([v])
        for _ in range(order - 1):
            powers[-1].append(powers[-1][-1] * v)
    n_cols = web.size * order
    rows = [
        [powers[i][k - 1].coefficient(a, t - a) for i in range(web.size) for k in range(1, order + 1)]
        for t in range(1, order + 1)
        for a in range(t + 1)
    ]
    pivots = []
    for c in range(n_cols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(n_cols) if c not in pivots):
        v = [Fraction(0)] * n_cols
        v[free] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -rows[i][free]
        basis.append(v)
    return basis


def _primitive(v):
    """A rational vector times the positive scalar that makes it a
    primitive integer vector."""
    den = lcm(*(c.denominator for c in v))
    x = [int(c * den) for c in v]
    g = gcd(*x)
    return [c // g for c in x]


@pytest.mark.parametrize("web_name", ["bol_web", "cauchy_web"])
def test_integer_jet_rows_give_the_fraction_kernel(web_name, request):
    # orders high to low, so the lower ones read the table by truncation
    web = request.getfixturevalue(web_name)
    base = pick_generic_point(web, preferred=(Fraction(1, 3), Fraction(1, 2)))
    for order in (web.size + 2, web.size + 1, web.size):
        got = JetSystem(web, base, order).nullspace().basis
        assert got == [_primitive(v) for v in _fraction_kernel(web, base.point, order)], order


@pytest.mark.parametrize("web_name", ["bol_web", "cauchy_web", "arctan_web"])
def test_kernel_bases_are_primitive_integer_vectors(web_name, request):
    web = request.getfixturevalue(web_name)
    base = pick_generic_point(web, preferred=(Fraction(1, 3), Fraction(1, 2)))
    # the full system's basis is exact_nullspace's, positive on its free
    # columns; the ladder's is prolonged from order 0, so its vectors are
    # primitive integer vectors of the same kernel, but not in echelon form
    system = JetSystem(web, base, web.size)
    kernel = system.nullspace()
    free = [c for c in range(len(system.unknown_index)) if c not in kernel.pivot_cols]
    assert free_columns(kernel.basis) == free
    vectors = jet_kernel(base, web.size)
    assert_primitive(vectors)
    assert len(vectors) == kernel.dimension
    assert all(sum(map(mul, r, v)) == 0 for v in vectors for r in system.rows)
    # these webs stabilize at the first order, so the rank's basis is that one
    rank, basis = abelian_rank(web, base)
    assert basis.order == web.size
    assert basis.vectors == vectors


def test_subweb_jet_rows_read_from_the_parent_table(bol_web):
    base = pick_generic_point(bol_web, preferred=(Fraction(1, 3), Fraction(1, 2)))
    JetSystem(bol_web, base, 7)  # the parent's table now holds order 7
    for subset in combinations(range(1, bol_web.size + 1), 3):
        sub = base.restrict(subset)
        for order in (3, 4, 5):
            got = JetSystem(sub.web, sub, order).nullspace().basis
            want = [_primitive(v) for v in _fraction_kernel(sub.web, base.point, order)]
            assert got == want, (subset, order)


def watch_tables(monkeypatch):
    """The jet tables read from now on, each with the highest degree asked
    of it.  RatFunc has no Fraction taylor: no ladder can expand an integral
    by one."""
    assert not hasattr(RatFunc, "taylor")
    asked = {}
    block = _JetPowers.block

    def watched(table, n):
        asked[table] = max(n, asked.get(table, n))
        return block(table, n)

    monkeypatch.setattr(_JetPowers, "block", watched)
    return asked


def assert_append_only(asked, n_tables, order):
    """n_tables tables were read, each to degree `order`, and each ends
    there; a higher read appends blocks and keeps every lower-degree block,
    the same list with the same entries."""
    assert len(asked) == n_tables and set(asked.values()) == {order}
    for table in list(asked):
        assert len(table.blocks) == order + 1
        before = [block for _, block in table.blocks]
        entries = [[list(row) for row in block] for block in before]
        table.block(order + 2)
        assert len(table.blocks) == order + 3
        for (_, block), old, old_entries in zip(table.blocks, before, entries):
            assert block is old and block == old_entries


def test_hexagonality_expands_each_integral_once_per_order(sk_web, monkeypatch):
    # the triples share the web's jet table, and every triple of sk stops
    # at order 5; the 48 of rank 1 read rows of every degree up to 5, the
    # 36 of rank 0 none above their empty order 3, so each of the 9
    # integrals has one table, grown to order 5
    asked = watch_tables(monkeypatch)
    hexagonality(sk_web)
    assert_append_only(asked, sk_web.size, 5)


def test_rank_report_expands_each_integral_once(bol_web, monkeypatch):
    # the ladders of sizes 3, 4 and 5 read orders up to 5, 6 and 7: one
    # table per integral, grown to order 7 and no further
    base = pick_generic_point(bol_web, preferred=(Fraction(1, 2), Fraction(3, 4)))
    asked = watch_tables(monkeypatch)
    report = rank_report(bol_web, [3, 4, 5], base)
    assert [e["rank"] for e in report["subwebs"] if e["size"] == 5] == [6]
    assert set(asked) == set(base._jets)
    assert_append_only(asked, bol_web.size, 7)


def test_constrained_rank_expands_each_integral_once_per_base_point(
    bol_web_indomain, monkeypatch
):
    # the pattern's ladder reads orders 5, 6 and 7 at the base point and at
    # each auxiliary point: one table per integral and point, grown to order 7
    web = bol_web_indomain
    base = pick_generic_point(web, preferred=(Fraction(1, 3), Fraction(1, 2)))
    asked = watch_tables(monkeypatch)
    rep = constrained_rank(web, Pattern([[1, 2, 3, 4, 5]], {1: 1, 2: -1, 3: -1, 4: -1, 5: 1}), base)
    assert rep["order"] == 7 and len(rep["aux_points"]) == 2
    assert set(base._jets) <= set(asked)
    assert_append_only(asked, web.size * 3, 7)


@pytest.mark.parametrize("web_name", ["bol_web", "cauchy_web", "configc_web", "sk_web"])
@pytest.mark.parametrize("point", [(Fraction(1, 3), Fraction(1, 2)), (Fraction(-2, 3), Fraction(-5, 7))])
def test_jet_table_matches_the_fraction_taylor_powers(web_name, point, request):
    for u in request.getfixturevalue(web_name).integrals():
        assert_table_matches_taylor(u, point, 6)


@pytest.mark.parametrize("web_name", ["arctan_web", "bol_web", "cauchy_web", "configc_web", "sk_web"])
def test_base_point_tables_need_no_gcd(web_name, request, monkeypatch):
    # a translation keeps a reduced pair coprime, so the tables reach
    # substitute's canonical pairs with no bivariate gcd at all
    web = request.getfixturevalue(web_name)
    points = [pick_generic_point(web, seed=seed).point for seed in (0, 1)]
    points.append((Fraction(-2, 3), Fraction(-5, 7)))

    def no_gcd(*args):
        raise AssertionError("poly_gcd_cofactors called")

    monkeypatch.setattr("planarweb.ratfunc.poly_gcd_cofactors", no_gcd)
    bases = [BasePoint(web, point) for point in points]
    monkeypatch.undo()
    for base in bases:
        px, py = base.point
        for u, table in zip(web.integrals(), base._jets):
            ref = u.substitute(RatFunc.var("x") + RatFunc.const(px), RatFunc.var("y") + RatFunc.const(py))
            d0, n0 = ref.den.terms[(0, 0)], ref.num.terms.get((0, 0), 0)
            assert table.num == (ref.num.scale(d0) - ref.den.scale(n0)).terms, (web.name, base.point, u)
            assert (0, 0) not in table.num
            assert table.d0 == d0
            assert dict(table.dens) == {
                f: c * d0 ** (2 * (f[0] + f[1]) - 1) for f, c in ref.den.terms.items() if f != (0, 0)
            }


def test_jet_table_with_a_negative_d0():
    # x/(1 - x) at x = 1/3 is (3s + 1)/(2 - 3s), which is -(3s + 1)/(3s - 2)
    # with a positive leading denominator coefficient: d0 = -2
    assert assert_table_matches_taylor(P("x/(1-x)"), (Fraction(1, 3), Fraction(1, 2)), 6) == -2
    with pytest.raises(PoleAtCenter):
        _JetPowers(P("x/(1-x)"), (Fraction(1), Fraction(0)))


def _truncated(v, n, order):
    """An order-(order + 1) jet vector cut to order `order`."""
    return [c for i in range(n) for c in v[i * (order + 1) : i * (order + 1) + order]]


def _ladder_matches_direct_systems(base, top):
    """The ladder's kernels at every order 1..`top`, climbed from order 0,
    span the kernel of the JetSystem of that order: the same dimension,
    every vector annihilates the system's rows exactly, and the vectors are
    independent on its free columns (a basis of the kernel restricts to an
    invertible matrix there).  Each vector is a primitive integer vector; a
    prolonged basis need not be in echelon form.  `base` has climbed no
    rung yet.  Returns the ladder's kernels by order."""
    web = base.web
    assert not base.kernels
    kernels = {order: jet_kernel(base, order) for order in range(1, top + 1)}
    for order, vectors in kernels.items():
        system = JetSystem(web, base, order)
        kernel = system.nullspace()
        assert len(vectors) == kernel.dimension, (web.name, order)
        assert_primitive(vectors)
        assert all(sum(map(mul, r, v)) == 0 for v in vectors for r in system.rows)
        free = [c for c in range(web.size * order) if c not in kernel.pivot_cols]
        span = FractionSpan([[v[c] for c in free] for v in vectors])
        assert span.rank == kernel.dimension, (web.name, order)
    return kernels


@pytest.mark.parametrize(
    "web_name", ["bol_web", "cauchy_web", "arctan_web", "configc_web", "sk_web"]
)
def test_ladder_equals_jet_system(web_name, request):
    web = request.getfixturevalue(web_name)
    base = pick_generic_point(web, preferred=(Fraction(1, 3), Fraction(1, 2)))
    kernels = _ladder_matches_direct_systems(base, web.size + 3)
    if web_name == "configc_web":
        # a rising ladder: below order N - 2 the new columns add solutions
        assert [len(kernels[k]) for k in (1, 2, 3)] == [6, 11, 15]


def test_ladder_equals_jet_system_on_subwebs(bol_web, sk_web):
    base = pick_generic_point(bol_web, preferred=(Fraction(1, 3), Fraction(1, 2)))
    for p in (3, 4, 5):
        for subset in combinations(range(1, bol_web.size + 1), p):
            _ladder_matches_direct_systems(base.restrict(subset), p + 3)
    sk_base = pick_generic_point(sk_web, preferred=(Fraction(1, 3), Fraction(1, 2)))
    # a falling ladder: the rank-0 triple's one solution of orders 1 and 2
    # does not extend to order 3
    kernels = _ladder_matches_direct_systems(sk_base.restrict((1, 3, 7)), 6)
    assert [len(kernels[k]) for k in range(1, 7)] == [1, 1, 0, 0, 0, 0]
    # at order 4 this subweb's kernel holds a vector whose truncation to
    # order 3 combines several order-3 vectors, the general lift
    kernels = _ladder_matches_direct_systems(sk_base.restrict((1, 2, 3, 7)), 7)
    cut = [_truncated(v, 4, 3) for v in kernels[4]]
    assert any(all(not FractionSpan([v]).contains(c) for v in kernels[3]) for c in cut)
    # lifting this subweb's order-3 kernel to order 4 gives vectors with a
    # common factor 3, which the prolongation divides out
    _ladder_matches_direct_systems(sk_base.restrict((1, 2, 3, 8)), 5)


@pytest.mark.parametrize(
    "web_name,rungs,nullspaces", [("sk_web", 348, 348), ("bol_web", 87, 90)], ids=["sk_web", "bol_web"]
)
def test_each_ladder_rung_is_one_prolongation(web_name, rungs, nullspaces, request, monkeypatch):
    # every ladder climbs from order 0 by one _prolong per order, each
    # solving one small system, until a rung at order >= N - 2 is empty:
    # sk's 84 triples stop at order 5, the 48 of rank 1 climbing all five
    # orders and the 36 of rank 0 the three up to their empty order 3
    # (48 * 5 + 36 * 3);
    # bol's filtration climbs the web's ladder to order 7 and each proper
    # p-subweb's to its stop order p + 2 (7 + 10 * 5 + 5 * 6); the 5-subweb
    # shares the web's ladder; and it ranks three spans (the kernel's
    # invertible columns take one mod-p elimination, not a nullspace)
    import planarweb.jets as jets
    import planarweb.linalg as linalg

    web = request.getfixturevalue(web_name)
    prolonged, solved = [], []
    prolong, nullspace = jets._prolong, jets.exact_nullspace

    def counted_prolong(systems, n_blocks, first_power, vectors, order):
        prolonged.append(order)
        return prolong(systems, n_blocks, first_power, vectors, order)

    def counted_nullspace(*args, **kwargs):
        solved.append(1)
        return nullspace(*args, **kwargs)

    monkeypatch.setattr(jets, "_prolong", counted_prolong)
    monkeypatch.setattr(jets, "exact_nullspace", counted_nullspace)
    monkeypatch.setattr(linalg, "exact_nullspace", counted_nullspace)
    if web_name == "sk_web":
        hexagonality(web)
    else:
        filtration_dims(web)
    assert (len(prolonged), len(solved)) == (rungs, nullspaces)


def _stop_rule_on_the_oracle(sub):
    """(rank, order) of the stop rule read on the kernel dimensions of the
    full JetSystems of sub's web at sub, from order N on."""
    dims = _stabilized_dims(sub.web.size, lambda k: JetSystem(sub.web, sub, k).nullspace().dimension, "{dims}")
    order = list(dims)[-3]
    return dims[order], order


@pytest.mark.parametrize(
    "web_name,sizes,zero_ranks", [("sk_web", [3], 36), ("bol_web", [3, 4, 5], 0)], ids=["sk_web", "bol_web"]
)
def test_subweb_ranks_follow_the_stop_rule_on_the_oracle(web_name, sizes, zero_ranks, request):
    # each subweb's ladder, empty rungs and all, gives the rank and order
    # that the stop rule gives on the oracle's dims at orders N..N + 2
    web = request.getfixturevalue(web_name)
    base = pick_generic_point(web, seed=0, preferred=DEFAULT_POINT)
    ranks = []
    for p in sizes:
        for subset in combinations(range(1, web.size + 1), p):
            sub = base.restrict(subset)
            want = _stop_rule_on_the_oracle(sub)
            assert rank_only(sub.web, sub) == want[0], subset
            rank, basis = abelian_rank(sub.web, base.restrict(subset))
            assert (rank, basis.order) == want == (rank, p), subset
            ranks.append(rank)
    assert ranks.count(0) == zero_ranks


def test_an_empty_web_rung_ends_the_climb(sk_web, bol_web_indomain, monkeypatch):
    import planarweb.jets as jets

    prolonged = []
    prolong = jets._prolong

    def counted_prolong(systems, n_blocks, first_power, vectors, order):
        prolonged.append((first_power, order))
        return prolong(systems, n_blocks, first_power, vectors, order)

    monkeypatch.setattr(jets, "_prolong", counted_prolong)
    # the rank-0 triple falls 1, 1, 0 from order 1: the rungs above its
    # empty order 3 are recorded empty, with no prolongation, read a rung at
    # a time or all at once, and the full systems there have no kernel
    sk_base = pick_generic_point(sk_web, preferred=(Fraction(1, 3), Fraction(1, 2)))
    for orders in (range(1, 9), [8]):
        sub = sk_base.restrict((1, 3, 7))
        prolonged.clear()
        for order in orders:
            jet_kernel(sub, order)
        assert prolonged == [(1, 0), (1, 1), (1, 2)]
        assert [len(k) for k in sub.kernels] == [0, 1, 1, 0, 0, 0, 0, 0, 0]
    assert all(JetSystem(sub.web, sub, order).nullspace().dimension == 0 for order in range(4, 9))
    # a pattern's ladder starts with the empty rung at order -1 and climbs
    # on from it, one prolongation per order
    web = bol_web_indomain
    base = pick_generic_point(web, preferred=(Fraction(1, 3), Fraction(1, 2)))
    prolonged.clear()
    rep = constrained_rank(web, Pattern([[1, 2, 3, 4, 5]], {1: 1, 2: -1, 3: -1, 4: -1, 5: 1}), base)
    assert [order for first_power, order in prolonged if first_power == 0] == list(range(-1, rep["order"]))


@pytest.mark.parametrize("web_name,order", [("bol_web", 7), ("configc_web", 8), ("sk_web", 9)])
def test_kernel_on_its_invertible_columns_keeps_its_rank(web_name, order, request):
    # the span ranks of filtration_dims and constrained_rank are taken on
    # these d columns, which is sound only if restriction is injective there
    web = request.getfixturevalue(web_name)
    kernel = jet_kernel(pick_generic_point(web, seed=0, preferred=DEFAULT_POINT), order)
    cols = invertible_columns(kernel)
    assert len(cols) == len(kernel) > 0
    assert FractionSpan([[v[c] for c in cols] for v in kernel]).rank == len(kernel)
