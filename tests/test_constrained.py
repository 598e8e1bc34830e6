"""Characterization patterns at the formal level.

The five-term pattern systems are exact rational linear algebra, so their
kernels cannot contain the (transcendental) jet of the Rogers dilogarithm
directly; instead the jet splits over Q into its log2 and log3 parts, each of
which must solve the system.  The tests verify the reported dimensions, the
membership of both parts of the d-jet, and that d is precisely the direction
surviving the quotient by sub-equation solution jets.
"""

from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest

from exact_oracle import (
    FractionSpan,
    JetSystem,
    assert_primitive,
    constrained_rank_by_subweb_ladders,
    free_columns,
    pattern_system,
)
from planarweb.hyperlog.calculus import PrefactoredExpr
from planarweb.hyperlog.registry import special
from planarweb.jets import (
    Pattern,
    _embed,
    _ladder_kernel,
    _pattern_systems,
    _sections,
    constrained_rank,
    jet_kernel,
)
from planarweb.web import BasePoint, Web, pick_generic_point


class SymLin:
    """q + c2 log2 + c3 log3 with exact rational parts."""

    def __init__(self, q=0, c2=0, c3=0):
        self.v = (Fraction(q), Fraction(c2), Fraction(c3))

    def __add__(self, other):
        return SymLin(*(a + b for a, b in zip(self.v, other.v)))

    def scale(self, c):
        return SymLin(*(a * Fraction(c) for a in self.v))


LOG_VALUES = {
    Fraction(1, 3): {"x0": SymLin(0, 0, -1), "x1": SymLin(0, -1, 1)},
    Fraction(1, 2): {"x0": SymLin(0, -1, 0), "x1": SymLin(0, 1, 0)},
    Fraction(2, 3): {"x0": SymLin(0, 1, -1), "x1": SymLin(0, 0, 1)},
    Fraction(3, 4): {"x0": SymLin(0, -2, 1), "x1": SymLin(0, 2, 0)},
}


def d_jet_parts(value: Fraction, order: int):
    """Exact jets of the Rogers dilogarithm: per k >= 1 the (q, log2, log3)
    coefficient triple of d^{(k)}(value) / k!."""
    chain = [PrefactoredExpr.from_hyperlog(special("d").expr)]
    for _ in range(order):
        chain.append(chain[-1].derivative())
    table = LOG_VALUES[value]
    out = []
    fact = 1
    for k in range(1, order + 1):
        fact *= k
        total = SymLin()
        for w, slot in chain[k].terms.items():
            for mono, r in slot.items():
                assert mono == (0, 0, 0, 0), "d-jets must stay rational-log"
                coef = r.evaluate(value, 0)
                if not w:
                    total = total + SymLin(coef)
                elif len(w) == 1:
                    total = total + table[w[0]].scale(coef)
                else:
                    raise AssertionError("weight-2 words cannot survive k>=1")
        out.append(SymLin(*(c / fact for c in total.v)))
    return out


def pattern_prop11(web):
    return Pattern([[1, 2, 3, 4, 5]], {1: 1, 2: -1, 3: -1, 4: -1, 5: 1})


def test_prop11_dimension_and_d_direction(bol_web_indomain):
    web = bol_web_indomain
    base = pick_generic_point(web, preferred=(Fraction(1, 3), Fraction(1, 2)))
    rep = constrained_rank(web, pattern_prop11(web), base)
    assert rep["dim_mod_subsolutions"] == 1
    col_of = rep["kernel"].unknown_index
    order = rep["order"]
    kernel = rep["kernel"].vectors
    assert_primitive(kernel)  # prolonged from order -1, so not in echelon form

    # exact d-jets, split into log2 / log3 / rational parts
    values = sorted({v for (_, v, _) in col_of})
    parts = {v: d_jet_parts(v, order) for v in values}
    vecs = {idx: [Fraction(0)] * len(col_of) for idx in range(3)}
    for (ci, val, k), col in col_of.items():
        if k == 0:
            continue
        triple = parts[val][k - 1].v
        for idx in range(3):
            vecs[idx][col] = triple[idx]

    # each split part solves the pattern system: it lies in the kernel span
    noncst = [c for (key, c) in col_of.items() if key[2] != 0]
    red = FractionSpan([[v[c] for c in noncst] for v in kernel])
    for idx in range(3):
        part = [vecs[idx][c] for c in noncst]
        if any(part):
            assert red.contains(part), f"d-jet part {idx} escapes the kernel"

    # the d direction is exactly what survives modulo sub-equation jets
    slot_cols = rep["slot_columns"]
    sub = FractionSpan()
    for removed in range(1, web.size + 1):
        subweb = web.subweb_without([removed])
        system = JetSystem(subweb, BasePoint(subweb, base.point), order)
        keep = [i for i in range(1, web.size + 1) if i != removed]
        for v in system.nullspace().basis:
            big = [Fraction(0)] * len(slot_cols)
            for (si, k), col in system.unknown_index.items():
                big[slot_cols[(keep[si] - 1, k)]] = v[col]
            sub.add(big)
    pat = pattern_prop11(web)
    d_images = []
    for idx in range(3):  # rational, log2 and log3 shadows of the d-jet
        img = [Fraction(0)] * len(slot_cols)
        for s in range(1, web.size + 1):
            value = web.integrals()[s - 1].evaluate(*base.point)
            triple = parts[value]
            m = pat.multipliers[s]
            for k in range(1, order + 1):
                img[slot_cols[(s - 1, k)]] = m * triple[k - 1].v[idx]
        d_images.append(img)
    grew = sum(1 for img in d_images if sub.add(img))
    # d is transcendentally one direction: of its three rational shadows the
    # log ones are absorbed by sub-equation jets and exactly one survives,
    # which is the whole one-dimensional quotient reported above
    assert grew == 1


PROP13 = Pattern([[1, 2, 3, 4], [5]], {1: 1, 2: -1, 3: -1, 4: -1, 5: 1})
SK_TRILOG = Pattern(
    [[1, 2, 3, 4, 5, 6, 7, 8, 9]],
    {1: 2, 2: 2, 3: -1, 4: 2, 5: 2, 6: -1, 7: 2, 8: 2, 9: -1},
)


def sk_belowone(sk_web):
    """sk with its fifth integral inverted, so the trilogarithm pattern's
    values stay below one."""
    return Web.from_integrals(
        [u if i != 4 else u.inverse() for i, u in enumerate(sk_web.integrals())],
        name="sk-belowone",
    )


def test_prop13_dimension(bol_web_indomain):
    base = pick_generic_point(bol_web_indomain, preferred=(Fraction(1, 3), Fraction(1, 2)))
    rep = constrained_rank(bol_web_indomain, PROP13, base)
    assert rep["dim_mod_subsolutions"] == 1


def test_sk_pattern_dimension_matches_frozen_oracle(sk_web):
    sk_d = sk_belowone(sk_web)
    base = pick_generic_point(sk_d, preferred=(Fraction(1, 3), Fraction(1, 2)))
    rep = constrained_rank(sk_d, SK_TRILOG, base)
    # frozen from the printed-basis oracle (tests/sk_oracle.py, orders 12/14)
    assert rep["dim_mod_constants"] == 21
    assert rep["dim_mod_subsolutions"] == 2


@pytest.mark.parametrize("case", ["prop11", "prop13", "sk-trilog"])
def test_pattern_ladder_equals_full_system(case, bol_web_indomain, sk_web):
    # the pattern's ladder, climbed from order -1, spans at every order
    # N..N+2 the kernel of the full multi-point system solved at that order:
    # equal dimensions, every ladder vector annihilates the full rows, and
    # the ladder vectors are independent
    if case == "sk-trilog":
        web, pattern = sk_belowone(sk_web), SK_TRILOG
    else:
        web = bol_web_indomain
        pattern = pattern_prop11(web) if case == "prop11" else PROP13
    base = pick_generic_point(web, preferred=(Fraction(1, 3), Fraction(1, 2)))
    _, germ_keys, systems = _pattern_systems(web, pattern, base)
    ladder = []
    for order in range(web.size, web.size + 3):
        vectors = _ladder_kernel(ladder, systems, len(germ_keys), 0, order)
        rows, kernel = pattern_system(systems, len(germ_keys), order)
        free_columns(kernel.basis)
        assert len(vectors) == kernel.dimension, order
        assert_primitive(vectors)
        assert all(sum(map(mul, r, v)) == 0 for v in vectors for r in rows), order
        assert FractionSpan(vectors).rank == len(vectors), order


def _case(case, bol_web_indomain, sk_web):
    if case == "sk-trilog":
        return sk_belowone(sk_web), SK_TRILOG
    pattern = pattern_prop11(bol_web_indomain) if case == "prop11" else PROP13
    return bol_web_indomain, pattern


@pytest.mark.parametrize("case", ["prop11", "prop13", "sk-trilog"])
def test_report_equals_the_subweb_ladder_oracle(case, bol_web_indomain, sk_web):
    # sub-solutions as sections of the web's kernel, ranked on its pivot
    # columns, give the report of the (N - 1)-subweb ladders ranked in nK
    # columns: dims, order, points, kernel and the genuine jets themselves
    web, pattern = _case(case, bol_web_indomain, sk_web)
    point = (Fraction(1, 3), Fraction(1, 2))
    rep = constrained_rank(web, pattern, pick_generic_point(web, preferred=point))
    ref = constrained_rank_by_subweb_ladders(web, pattern, pick_generic_point(web, preferred=point))
    for key in ("dim_mod_constants", "dim_jet_image", "dim_mod_subsolutions", "order"):
        assert rep[key] == ref[key], key
    assert rep["aux_points"] == ref["aux_points"]
    assert rep["kernel"].vectors == ref["kernel"].vectors
    assert rep["kernel"].unknown_index == ref["kernel"].unknown_index
    assert rep["genuine_jets"] == ref["genuine_jets"]
    assert rep["slot_columns"] == ref["slot_columns"]


@pytest.mark.parametrize("case", ["prop11", "prop13", "sk-trilog"])
def test_constants_are_the_order_zero_kernel(case, bol_web_indomain, sk_web):
    # at every order N..N+2, dropping the order-0 kernel from the count gives
    # the rank of the kernel's span with the k = 0 columns deleted
    web, pattern = _case(case, bol_web_indomain, sk_web)
    base = pick_generic_point(web, preferred=(Fraction(1, 3), Fraction(1, 2)))
    _, germ_keys, systems = _pattern_systems(web, pattern, base)
    ladder = []
    for order in range(web.size, web.size + 3):
        kernel = _ladder_kernel(ladder, systems, len(germ_keys), 0, order)
        constants = _ladder_kernel(ladder, systems, len(germ_keys), 0, 0)
        width = order + 1
        dropped = [[c for j, c in enumerate(v) if j % width] for v in kernel]
        assert len(kernel) - len(constants) == FractionSpan(dropped).rank, order


@pytest.mark.parametrize("case,order", [("bol", 7), ("sk", 11)])
def test_sections_span_the_subweb_kernels(case, order, bol_web_indomain, sk_web):
    # the sections of the web's kernel that vanish on one slot span what the
    # (N - 1)-subwebs' own ladders give, embedded, at the pattern's order
    web = bol_web_indomain if case == "bol" else sk_belowone(sk_web)
    base = pick_generic_point(web, preferred=(Fraction(1, 3), Fraction(1, 2)))
    n = web.size
    kernel = jet_kernel(base, order)
    sections = FractionSpan(
        [sum(map(mul, z, col)) for col in zip(*kernel)] for z in _sections(kernel, n, order)
    )
    subwebs = FractionSpan(
        _embed(v, subset, n, order)
        for subset in combinations(range(1, n + 1), n - 1)
        for v in jet_kernel(base.restrict(subset), order)
    )
    assert sections.rank == subwebs.rank > 0
    assert all(sections.contains(v) for v in subwebs.rows)
