from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp

from planarweb.errors import InvalidParameter, OnCut, PrecisionNotReached
from planarweb.hyperlog import numeric
from planarweb.hyperlog.numeric import (
    GUARD_BITS,
    WordEvaluator,
    _anchor_values,
    _exact,
    _fixed_log,
    _from_fixed,
    _step_ratio,
    _to_grid,
    _transport,
    eval_expr,
    eval_word,
)
from planarweb.hyperlog.verify import load_afe, parse_word_expr, verify_afe_numeric
from planarweb.hyperlog.words import STANDARD

from conftest import fixture_path
from series_oracle import _eval_log_series, _log_series


def _fixed_at_anchor(ev, sign=1):
    """The evaluator's fixed-point values at its anchor a (sign 1) or at
    the mirror -a (sign -1)."""
    return ev._anchors[_to_grid(ev.mp.mpc(sign * ev.anchor), ev.grid_bits)]


def test_li2_half_against_direct_series():
    # oracle: direct series summation of Li2(1/2)
    with mp.workdps(60):
        s = mpf(0)
        term = mpf(1)
        for n in range(1, 200):
            term /= 2
            s += term / n**2
        got = eval_word(("x0", "x1"), mpf(1) / 2, dps=50)
        assert abs(got.value - s) < mpf(10) ** -49
        closed = mp.pi**2 / 12 - mp.log(2) ** 2 / 2
        assert abs(got.value - closed) < mpf(10) ** -49
        assert got.digits >= 50


def test_weight_one_values():
    with mp.workdps(60):
        got = eval_word(("x1",), mpf(1) / 2, dps=50)
        assert abs(got.value - mp.log(2)) < mpf(10) ** -49
        got = eval_word(("x0",), 1, dps=50)
        assert abs(got.value) < mpf(10) ** -49


def test_li2_at_one():
    with mp.workdps(60):
        got = eval_word(("x0", "x1"), 1, dps=50)
        assert abs(got.value - mp.pi**2 / 6) < mpf(10) ** -48


def test_divergent_at_letter_raises():
    with pytest.raises(OnCut):
        eval_word(("x1",), 1, dps=30)


def test_a_combination_whose_divergences_cancel_is_finite_at_the_letter():
    # L_{x1 x-1}(z) = int_0^z log(1 + t)/(1 - t) dt diverges at 1 like
    # log 2 * L_{x1}(z) = -log 2 * log(1 - z); their difference has a limit
    with pytest.raises(OnCut, match="diverges at the ramification point 1"):
        eval_expr(parse_word_expr("{[x1 x-1]}"), 1, dps=30)
    got = eval_expr(parse_word_expr("{[x1 x-1] - log2*[x1]}"), 1, dps=30)
    with mp.workdps(40):
        ref = mp.quad(lambda t: (mp.log(1 + t) - mp.log(2)) / (1 - t), [0, 1])
        assert abs(got - ref) < mpf(10) ** -28


def test_on_cut_detection():
    ev = WordEvaluator(STANDARD, [("x0",)], dps=30)
    assert ev.on_cut(ev.mp.mpc(0, -1))
    assert ev.on_cut(ev.mp.mpc(1, 2))
    assert ev.on_cut(ev.mp.mpc(-1, -3))
    assert not ev.on_cut(ev.mp.mpc(0, 1))
    assert not ev.on_cut(ev.mp.mpc(2, 0))
    with pytest.raises(OnCut):
        eval_word(("x0",), ev.mp.mpc(0, -2), dps=30)


def test_polylog_agreement_many_points():
    ev = WordEvaluator(STANDARD, [("x0", "x0", "x1"), ("x0", "x1")], dps=45)
    pts = [mpf(1) / 3, mpf(3) / 8, mpf(-3) / 2, mpf(-1) / 4, ev.mp.mpc("0.3", "0.7"),
           ev.mp.mpc("-0.4", "0.2")]
    for z in pts:
        vals = ev.value_vector(z)
        assert abs(vals[("x0", "x1")] - ev.mp.polylog(2, z)) < mpf(10) ** -40
        assert abs(vals[("x0", "x0", "x1")] - ev.mp.polylog(3, z)) < mpf(10) ** -40


def test_branch_beyond_one_is_lower_cut():
    # the cut at 1 points upward, so real points beyond 1 carry the branch
    # continued below the cut
    ev = WordEvaluator(STANDARD, [("x0", "x1")], dps=40)
    got = ev.value_vector(mpf(2))[("x0", "x1")]
    ref = ev.mp.polylog(2, ev.mp.mpc(2, mpf(10) ** -50))
    assert abs(got - ev.mp.conj(ref)) < mpf(10) ** -35


def test_precision_doubling_validation():
    v30 = eval_word(("x0", "x1"), mpf(2) / 3, dps=30)
    v60 = eval_word(("x0", "x1"), mpf(2) / 3, dps=60)
    assert abs(v30.value - v60.value) < v30.error


def test_regularized_values_weight_two():
    words = [("x0",), ("x1",), ("x-1",), ("x0", "x1"), ("x1", "x0"), ("x-1", "x1")]
    ev = WordEvaluator(STANDARD, words, dps=45)
    reg1 = ev.value_vector(1)
    mpl = ev.mp
    assert abs(reg1[("x1",)]) < mpf(10) ** -40
    assert abs(reg1[("x0", "x1")] - mpl.pi**2 / 6) < mpf(10) ** -40
    assert abs(reg1[("x1", "x0")] + mpl.pi**2 / 6) < mpf(10) ** -40
    assert abs(reg1[("x-1", "x1")] - (mpl.pi**2 / 12 - mpl.log(2) ** 2 / 2)) < mpf(10) ** -40
    regm1 = ev.value_vector(-1)
    assert abs(regm1[("x0",)] - mpl.mpc(0, 1) * mpl.pi) < mpf(10) ** -40
    assert abs(regm1[("x1",)] + mpl.log(2)) < mpf(10) ** -40


def test_letter_constants_are_expanded_once(monkeypatch):
    # the first call at a letter expands every closure word there; a second
    # call at 1 or -1 reads the kept constants, with the same values, and
    # the divergence test still sees the log powers' constant terms
    ev = WordEvaluator(STANDARD, POOLS["g21"], dps=50)
    first = {z: ev.value_vector(z) for z in (1, -1)}
    expanded = []
    log_series = numeric._log_series

    def counted(*args, **kwargs):
        expanded.append(args[3])
        return log_series(*args, **kwargs)

    monkeypatch.setattr(numeric, "_log_series", counted)
    for z in (1, -1, Fraction(1), Fraction(-1)):
        got = ev.value_vector(z)
        assert {w: v._mpc_ for w, v in got.items()} == {w: v._mpc_ for w, v in first[int(z)].items()}
    with pytest.raises(OnCut):
        ev.value_vector(1, strict={("x1",): 1})
    assert expanded == []
    # the kept constants are the h^0 terms of the full expansions, bit for bit
    for pt in (Fraction(1), Fraction(-1)):
        exps = ev.local_expansions_at(pt)
        assert {w: [c._mpc_ for c in cs] for w, cs in ev._constants_at(pt).items()} == {
            w: [s[0]._mpc_ for s in slices] for w, slices in exps.items()
        }


def test_shuffle_evaluation_homomorphism():
    from planarweb.hyperlog.numeric import eval_expr
    from planarweb.hyperlog.words import shuffle

    ev = WordEvaluator(
        STANDARD,
        [("x0", "x1"), ("x1", "x0"), ("x0",), ("x1",), ("x0", "x0"), ("x1", "x1")],
        dps=40,
    )
    mpl = ev.mp
    for z in (mpf(1) / 3, mpf(2) / 3, mpl.mpc("0.2", "0.4")):
        vals = ev.value_vector(z)
        prod = vals[("x0",)] * vals[("x1",)]
        sh = shuffle(("x0",), ("x1",))
        total = mpl.mpc(0)
        for w, c in sh.terms.items():
            total += c.numeric(mpl) * vals[w]
        assert abs(prod - total) < mpf(10) ** -35


LI3, LI2, X1, XM1 = ("x0", "x0", "x1"), ("x0", "x1"), ("x1",), ("x-1",)


@pytest.mark.parametrize(
    "z,side",
    [
        (Fraction(1, 9973), 0),  # next to the letter 0
        (Fraction(9972, 9973), 0),  # next to the letter 1
        (Fraction(-9000, 17), 1),  # far from the alphabet; log(1+z) reached from above
        (Fraction(5, 2), -1),  # beyond 1, reached below the upward cut
        (Fraction(-9, 10), 1),  # from the mirror -a, next to the letter -1
        (0.3 + 0.7j, 0),
        (0.3 - 0.7j, 0),
        (-2 + 0.5j, 0),
    ],
)
def test_transport_matches_mpmath(z, side):
    # side: the real point is the limit of z + side*i*eps on the route's branch
    dps = 50
    ev = WordEvaluator(STANDARD, [LI3, LI2, X1, XM1], dps=dps)
    mpl = ev.mp
    zm = mpl.mpf(z.numerator) / z.denominator if isinstance(z, Fraction) else mpl.mpc(z)
    vals = ev.value_vector(zm)
    zr = zm + side * mpl.mpc(0, mpl.mpf(10) ** -(mpl.dps + 10))
    expected = {
        LI3: mpl.polylog(3, zr),
        LI2: mpl.polylog(2, zr),
        X1: -mpl.log(1 - zr),
        XM1: mpl.log(1 + zr),
    }
    for w, ref in expected.items():
        assert abs(vals[w] - ref) < mpf(10) ** -dps * max(1, abs(ref)), (z, w)


def test_transport_below_the_axis_left_of_minus_one():
    # the route to -2-0.5i passes left of the downward cut at -1, so log(1+z)
    # sits 2*pi*i above its principal value; Li_n and log(1-z) are principal
    dps = 50
    ev = WordEvaluator(STANDARD, [LI3, LI2, X1, XM1], dps=dps)
    mpl = ev.mp
    z = mpl.mpc(-2, "-0.5")
    vals = ev.value_vector(z)
    assert abs(vals[LI3] - mpl.polylog(3, z)) < mpf(10) ** -dps
    assert abs(vals[LI2] - mpl.polylog(2, z)) < mpf(10) ** -dps
    assert abs(vals[X1] + mpl.log(1 - z)) < mpf(10) ** -dps
    assert abs(vals[XM1] - mpl.log(1 + z) - 2j * mpl.pi) < mpf(10) ** -dps


@pytest.mark.parametrize(
    "word,z",
    [(LI2, mpf(1) / 2), (LI3, mpf(-3)), (LI2, mpmath.mpc("0.3", "0.7"))],
)
def test_validated_digits_reach_the_floor(word, z):
    # eval_word's error is the difference of its two runs plus a floor of
    # 10**-(dps+4); its digits are int(-log10(error)), dps + 3 at the floor
    for dps in (30, 50):
        got = eval_word(word, z, dps=dps)
        assert got.error < 2 * mpf(10) ** -(dps + 4)
        assert got.digits >= dps + 3


def test_validated_digits_ignore_the_global_precision():
    digits = []
    for global_dps in (15, 60):
        with mpmath.workdps(global_dps):
            digits.append(eval_word(LI2, mpf(1) / 2, dps=30).digits)
    assert digits[0] == digits[1]


WEIGHT3 = [("x0", "x0", "x1"), ("x1", "x0", "x-1"), ("x-1", "x1", "x0")]


@pytest.mark.parametrize("center", [-1, 0, 1])
def test_local_expansion_sums_to_the_transported_values(center):
    # summed at a point other than the one the branch constants were fixed
    # at, every slice and constant of every closure word must hold
    ev = WordEvaluator(STANDARD, WEIGHT3, dps=40)
    mpl = ev.mp
    exps = ev.local_expansions_at(center)
    direction = 1 if ev.anchor >= center else -1
    z = Fraction(center) + direction * Fraction(1, 4)
    h = mpl.mpf(direction) / 4
    log_h = mpl.log(direction * h)
    vals = ev.value_vector(z)
    for w in ev.closure:
        total = sum(
            log_h**k * sum(c * h**n for n, c in enumerate(slice_k))
            for k, slice_k in enumerate(exps[w])
        )
        assert abs(total - vals[w]) < mpf(10) ** -40, (center, w)


def test_anchor_values_against_mpmath():
    ev = WordEvaluator(STANDARD, WEIGHT3, dps=40)
    mpl = ev.mp
    anchor = ev.anchor
    assert anchor == mpl.mpf(2) / 5
    vals = {w: _from_fixed(z, ev.prec, mpl) for w, z in _fixed_at_anchor(ev).items()}
    assert abs(vals[LI3] - mpl.polylog(3, anchor)) < mpf(10) ** -40
    assert abs(vals[LI2] - mpl.polylog(2, anchor)) < mpf(10) ** -40
    assert abs(vals[X1] + mpl.log(mpl.mpf(3) / 5)) < mpf(10) ** -40
    # at the mirror -a, log z takes its branch above 0: log a + i*pi
    vals = {w: _from_fixed(z, ev.prec, mpl) for w, z in _fixed_at_anchor(ev, -1).items()}
    assert abs(vals[LI3] - mpl.polylog(3, -anchor)) < mpf(10) ** -40
    assert abs(vals[LI2] - mpl.polylog(2, -anchor)) < mpf(10) ** -40
    assert abs(vals[X1] + mpl.log(mpl.mpf(7) / 5)) < mpf(10) ** -40
    assert abs(vals[("x0",)] - mpl.log(mpl.mpc(-anchor))) < mpf(10) ** -40
    assert mpl.im(mpl.log(mpl.mpc(-anchor))) == mpl.pi


AFE_FIXTURES = ["arctan", "g21", "l2_schaffer", "newman", "rogers_d", "sk_r3"]
POOLS = {name: load_afe(fixture_path(f"{name}.afe")).word_pool() for name in AFE_FIXTURES}
POOLS["weight3"] = WEIGHT3


def _oracle_context(ev):
    """An mpmath context 40 digits finer than ev's, and the oracle's n_terms
    there, chosen as WordEvaluator chooses its own."""
    hi = mpmath.mp.clone()
    hi.dps = ev.mp.dps + 40
    return hi, int(hi.dps * 3.4) + 24


@pytest.mark.parametrize("pool", sorted(POOLS))
def test_anchor_values_match_the_mpmath_oracle(pool):
    # the integer expansion at 0, summed at the anchor a and at its mirror
    # -a, against the mpmath series at 40 more digits, with log(-a) on the
    # branch above 0: within 2 units of 2**-mp.prec
    ev = WordEvaluator(STANDARD, POOLS[pool], dps=50)
    hi, n_terms = _oracle_context(ev)
    series = _log_series(STANDARD, ev.closure, Fraction(0), n_terms, hi)
    unit = hi.ldexp(1, -ev.mp.prec)
    for sign in (1, -1):
        z = hi.mpc(sign * hi.mpf(ev.anchor))
        log_z = hi.log(z)  # the principal log of -a is log a + i*pi
        for w in ev.closure:
            ref = _eval_log_series(series[w], z, log_z, hi)
            got = _from_fixed(_fixed_at_anchor(ev, sign)[w], ev.prec, hi)
            assert abs(got - ref) <= 2 * unit, (pool, sign, w)


@pytest.mark.parametrize("pool", sorted(POOLS))
@pytest.mark.parametrize("center", [-1, 0, 1])
def test_local_constants_match_the_mpmath_oracle(pool, center):
    # every constant term of the local expansions, against the mpmath series
    # whose constants are fixed from values transported at 40 more digits to
    # the same point; the terms come out as mpc rounded to mp.prec bits, so
    # the 2 units are relative to values above 1
    ev = WordEvaluator(STANDARD, POOLS[pool], dps=50)
    hi, n_terms = _oracle_context(ev)
    exps = ev.local_expansions_at(center)
    direction = 1 if ev.anchor >= center else -1
    p = Fraction(center) + Fraction(direction, 2)  # half the distance to the next letter
    vals = WordEvaluator(STANDARD, POOLS[pool], dps=ev.dps + 40).value_vector(p)
    h_p = hi.mpc(hi.mpf(direction) / 2)
    at = (h_p, hi.log(direction * h_p), vals)
    series = _log_series(STANDARD, ev.closure, Fraction(center), n_terms, hi, at)
    unit = hi.ldexp(1, -ev.mp.prec)
    for w in ev.closure:
        ref = [slice_k[0] for slice_k in series[w]]
        got = [slice_k[0] for slice_k in exps[w]]
        size = max(len(got), len(ref))
        for k, (g, r) in enumerate(zip(got + [0] * size, ref + [0] * size)):
            assert abs(g - r) <= 2 * unit * max(1, abs(r)), (pool, center, w, k)


@pytest.mark.parametrize("pool", sorted(POOLS))
def test_anchor_series_stop_before_n_terms(pool):
    # |u| <= 2/5 at the anchor, so every slice reaches its exact stop within
    # n_terms: four times the terms give the very same ints, at a and at the
    # mirror -a alike, whose alternating sums read the same coefficients
    ev = WordEvaluator(STANDARD, POOLS[pool], dps=50)
    args = (STANDARD, tuple(ev.closure), _exact(ev.anchor))
    more = _anchor_values(*args, 4 * ev.n_terms, ev.prec)
    assert more == _anchor_values(*args, ev.n_terms, ev.prec)
    assert more == (_fixed_at_anchor(ev), _fixed_at_anchor(ev, -1))


def _toward_zero(x, prec):
    return x >> prec if x >= 0 else -(-x >> prec)


def _transport_all_terms(alphabet, letters, closure, vals, p, q, n_terms, prec):
    """Reference for _transport: every word's loop runs all n_terms terms
    over full-length coefficient lists, with no early stop."""
    h = (q[0] - p[0], q[1] - p[1])
    ratio = {a: _step_ratio(h, (p[0] - x, p[1]), prec) for a, x in letters.items()}
    coeffs = {(): ([1 << prec] + [0] * (n_terms - 1), [0] * n_terms)}
    out = {(): vals[()]}
    for w in closure:
        if not w:
            continue
        ur, ui = ratio[w[0]]
        sign = alphabet.signs[w[0]]
        tr, ti = coeffs[w[1:]]
        cr, ci = [vals[w][0]], [vals[w][1]]
        ar, ai = tr[0], ti[0]
        for n in range(1, n_terms):
            mr = _toward_zero(ar * ur - ai * ui, prec)
            mi = _toward_zero(ar * ui + ai * ur, prec)
            cr.append(sign * mr // n)
            ci.append(sign * mi // n)
            ar = tr[n] - mr
            ai = ti[n] - mi
        coeffs[w] = (cr, ci)
        out[w] = (sum(cr), sum(ci))
    return out


def _integrate_part_all_terms(tail, sign, u, n_terms, prec):
    """One real part of a word's log series from its tail's (real ratio u,
    or None at the center), every slice over all n_terms terms with no
    early stop, and the division by n in a pass of its own."""
    if u is None:
        rhs = [[sign * c for c in s] for s in tail]
        heads = [0] + [sign * s[0] // (k + 1) for k, s in enumerate(tail)]
    else:
        rhs = []
        for s in tail:
            acc, b = s[0], [0]
            for n in range(1, n_terms):
                m = _toward_zero(u * acc, prec)
                acc = s[n] - m
                b.append(sign * m)
            rhs.append(b)
        heads = [0] * len(tail)
    out, upper = [None] * len(heads), [0] * n_terms
    for j in reversed(range(len(heads))):
        b = rhs[j] if j < len(rhs) else [0] * n_terms
        out[j] = upper = [heads[j]] + [(b[n] - (j + 1) * upper[n]) // n for n in range(1, n_terms)]
    return out


def _horner(part, log_h, prec):
    total = 0
    for s in reversed(part):
        total = _toward_zero(total * log_h, prec) + sum(s)
    return total


def _log_series_all_terms(alphabet, closure, center, H, n_terms, prec, at=None):
    """Reference for numeric._log_series: the real and imaginary parts
    apart, each a list of slices, every slice over all n_terms terms."""
    log_h = _fixed_log(abs(H), prec)
    # int() of a Fraction rounds toward zero
    ratio = {
        a: None if pt == center else int(H / (center - pt) * (1 << prec))
        for a, pt in alphabet.points.items()
    }
    series = {(): ([[1 << prec] + [0] * (n_terms - 1)], [[0] * n_terms])}
    values = {(): (1 << prec, 0)}
    for w in closure:
        if not w:
            continue
        sign, u = alphabet.signs[w[0]], ratio[w[0]]
        parts = tuple(_integrate_part_all_terms(t, sign, u, n_terms, prec) for t in series[w[1:]])
        values[w] = tuple(_horner(part, log_h, prec) for part in parts)
        if at is not None:
            for part, target, value in zip(parts, at[w], values[w]):
                part[0][0] += target - value
            values[w] = at[w]
        series[w] = parts
    return series, values


@pytest.mark.parametrize("pool", sorted(POOLS))
@pytest.mark.parametrize("center", [None, 0, 1, -1], ids=["anchor", "0", "1", "-1"])
def test_log_series_matches_the_all_terms_reference(pool, center):
    # the expansion at 0 summed at the anchor, and the expansions at the
    # letters with the constants of the values transported to the point half
    # way to the next letter, as local_expansions_at takes them: the very
    # same ints, coefficient for coefficient, as the reference's
    ev = WordEvaluator(STANDARD, POOLS[pool], dps=50)
    if center is None:
        center, H, at = Fraction(0), _exact(ev.anchor), None
    else:
        H = Fraction(1 if ev.anchor >= center else -1, 2)
        at = ev._fixed_values_along(ev.route(center + H))
    args = (STANDARD, ev.closure, Fraction(center), H, ev.n_terms, ev.prec, at)
    series, values = numeric._log_series(*args)
    ref_series, ref_values = _log_series_all_terms(*args)
    assert values == ref_values
    if at is None:
        assert values == _fixed_at_anchor(ev)
    for w in ev.closure:
        depth = max(len(series[w]), *map(len, ref_series[w]))
        for part, ref in enumerate(ref_series[w]):
            got = [list(s[part]) + [0] * (ev.n_terms - len(s[part])) for s in series[w]]
            zero = [0] * ev.n_terms
            assert got + [zero] * (depth - len(got)) == ref + [zero] * (depth - len(ref)), (pool, center, w)


# routes next to a letter, far from the alphabet, beyond 1 below its cut,
# off the axis and from the mirror -a toward 0: short and long steps, zero
# and nonzero accumulators
TRANSPORT_TARGETS = [
    Fraction(1, 9973), Fraction(9972, 9973), Fraction(-9000, 17), Fraction(5, 2),
    0.3 + 0.7j, -2 - 0.5j, Fraction(-1, 9973),
]


@pytest.mark.parametrize("z", TRANSPORT_TARGETS)
def test_transport_stops_exactly(z):
    ev = WordEvaluator(STANDARD, WEIGHT3 + [LI3, LI2, XM1], dps=30)
    mpl, prec = ev.mp, ev.prec
    pts = ev.subdivide(ev.route(z))
    vals = ev._anchors[pts[0]]
    for p, q in zip(pts, pts[1:]):
        args = (ev.alphabet, ev.letters, ev.closure, vals, p, q, ev.n_terms, prec)
        got = _transport(*args)
        ref = _transport_all_terms(*args)
        assert got == ref, (z, p, q)
        vals = ref
    got = ev.value_vector(z)
    for w in ev.closure:
        re, im = vals[w]
        ref = (from_man_exp(re, -prec, mpl.prec, "n"), from_man_exp(im, -prec, mpl.prec, "n"))
        assert got[w]._mpc_ == ref, (z, w)


def test_every_series_stops_before_n_terms():
    # steps of at most a quarter of the distance to the nearest letter, so
    # |u| <= 1/4 and each accumulator past its tail reaches exactly 0 in about
    # prec/2 terms: four times the terms must give the very same values
    ev = WordEvaluator(STANDARD, WEIGHT3 + [LI3, XM1], dps=30)
    mpl = ev.mp
    a, step = ev.anchor, mpl.mpf("0.05")
    path = [
        a, a - step, a - 2 * step, mpl.mpc(a - 2 * step, step), mpl.mpc(a - 3 * step, step),
        a - 3 * step,
    ]
    pts = ev.subdivide(path)
    assert len(pts) == len(path)  # no step needed subdividing
    vals = _fixed_at_anchor(ev)
    for p, q in zip(pts, pts[1:]):
        got, more = (
            _transport(ev.alphabet, ev.letters, ev.closure, vals, p, q, n_terms, ev.prec)
            for n_terms in (ev.n_terms, 4 * ev.n_terms)
        )
        assert got == more, (p, q)
        vals = got


@pytest.mark.parametrize(
    "near,far",
    [
        (Fraction(7, 100), Fraction(3, 100)),  # left of the anchor, toward 0
        (Fraction(7, 10), Fraction(19, 20)),  # right of the anchor, toward 1
        (Fraction(-7, 100), Fraction(-3, 100)),  # right of the mirror -a, toward 0
        (0.25 + 0.05j, 0.25 - 0.2j),  # down one vertical leg below one horizontal leg
        (0.1 - 0.1j, 0.1 - 0.3j),  # across the axis between the letters 0 and 1
    ],
)
def test_routes_heading_the_same_way_share_waypoints(near, far):
    # a waypoint depends only on where its leg starts and which way it heads,
    # so the nearer target's route, but for its own last step, is a prefix of
    # the farther one's, and the farther route resumes from the trie there
    ev = WordEvaluator(STANDARD, [LI2], dps=30)
    near_pts, far_pts = ev.subdivide(ev.route(near)), ev.subdivide(ev.route(far))
    assert len(near_pts) >= 3 and len(far_pts) > len(near_pts)
    assert far_pts[: len(near_pts) - 1] == near_pts[:-1]
    ev.value_vector(near)
    node = ev._waypoints
    for q in near_pts[:-1]:
        node = node[q][1]
    assert set(node) == {near_pts[-1]}  # the near target's own last step only
    ev.value_vector(far)
    assert set(node) == {near_pts[-1], far_pts[len(near_pts) - 1]}


@pytest.mark.parametrize("exponent", [45, 70])
def test_log_and_li2_at_tiny_arguments(exponent):
    # about 3.3 * exponent halving steps toward 0, to a target far below
    # 2**-prec: the waypoints' grid must be finer than the values' scale
    ev = WordEvaluator(STANDARD, [("x0",), LI2], dps=50)
    mpl = ev.mp
    z = mpl.mpf(10) ** -exponent
    vals = ev.value_vector(z)
    assert abs(vals[("x0",)] - mpl.log(z)) < mpf(10) ** -60
    assert abs(vals[LI2] - mpl.polylog(2, z)) < mpf(10) ** -60


def test_a_corner_off_the_grid_is_refused():
    ev = WordEvaluator(STANDARD, [LI2], dps=30)
    with pytest.raises(PrecisionNotReached):
        ev.values_along([ev.anchor, ev.mp.ldexp(1, -ev.grid_bits - 1)])


def test_a_path_must_start_at_an_anchor():
    # the values at the start of a path are known only at the two anchors;
    # from anywhere else both entry points refuse it
    ev = WordEvaluator(STANDARD, [LI2], dps=30)
    with pytest.raises(InvalidParameter, match=r"starts at \(0\.5 .*anchor \(0\.4 or -0\.4\)"):
        ev.values_along([0.5, 0.6])
    assert not ev._waypoints
    with pytest.raises(InvalidParameter, match="not at an anchor"):
        eval_word(LI2, None, dps=30, path=[0.5, 0.6])
    got = ev.values_along([-ev.anchor, -0.6])[LI2]
    assert abs(got - ev.mp.polylog(2, -0.6)) < mpf(10) ** -30


def test_real_points_left_of_zero_start_at_the_mirror():
    ev = WordEvaluator(STANDARD, [LI2], dps=30)
    mpl, a = ev.mp, ev.anchor
    for z in (Fraction(-1, 7), Fraction(-2, 5), Fraction(-9, 10), Fraction(-1, 9973)):
        zm = mpl.mpf(z.numerator) / z.denominator
        assert ev.route(z) == [-a, zm]
    # off the axis, left of -1 and right of 0 the routes start at a as before
    assert ev.route(mpl.mpc("-0.5", "0.1"))[0] == a
    alt = mpl.mpf("0.35")
    assert ev.route(Fraction(-3, 2)) == [a, mpl.mpc(a, alt), mpl.mpc(-1.5, alt), -1.5]
    assert ev.route(Fraction(1, 3))[0] == a


@pytest.mark.parametrize("pool", sorted(POOLS))
def test_mirror_values_match_the_old_rectangle(pool):
    # the values summed at -a against those transported there over 0 along
    # the rectangle every gap point took before: equal within the guard bits
    ev = WordEvaluator(STANDARD, POOLS[pool], dps=50)
    mpl, a = ev.mp, ev.anchor
    alt = mpl.mpf("0.35")
    rect = ev._fixed_values_along([a, mpl.mpc(a, alt), mpl.mpc(-a, alt), -a])
    mirror = _fixed_at_anchor(ev, -1)
    for w in ev.closure:
        for got, ref in zip(mirror[w], rect[w]):
            assert abs(got - ref) < 1 << GUARD_BITS, (pool, w)


def test_gap_points_are_not_transported_over_zero(monkeypatch):
    # 5 of the 36 arguments of sk_r3's four samples at seed 0 lie in
    # (-1, 0): reached from -a, the run takes 73 steps in all; routed over 0
    # along the vertical leg from a, it would take 83
    steps = []
    transport = numeric._transport

    def counted(*args):
        steps.append(args[4:6])
        return transport(*args)

    monkeypatch.setattr(numeric, "_transport", counted)
    report = verify_afe_numeric(load_afe(fixture_path("sk_r3.afe")), samples=4, dps=50, seed=0)
    assert report["pass"]
    assert len(steps) == 73


def _loop_round(ev, center, radius):
    """A based loop from the anchor once round center, counterclockwise."""
    mpl = ev.mp
    c = mpl.mpc(center)
    approach = c + radius if center <= 0.4 else c - radius
    eta = ev.route(approach)
    circle = [c + (approach - c) * mpl.exp(2j * mpl.pi * k / 8) for k in range(1, 8)]
    return list(eta) + circle + [approach] + list(reversed(eta))


def _waypoint_count(children):
    return sum(1 + _waypoint_count(node[1]) for node in children.values())


def test_warm_evaluator_matches_a_fresh_one_exactly():
    # targets on one side share the first steps of their subdivided routes;
    # the loops end at the anchor with other values than the anchor's own, so
    # a cache keyed by the point alone would return the wrong branch there
    words = WEIGHT3 + [LI3, XM1]
    targets = [
        Fraction(1, 3), Fraction(1, 5), Fraction(2, 3), Fraction(-1, 2), Fraction(-3, 2),
        Fraction(5, 2), 0.3 + 0.7j, 0.3 + 0.9j, -2 - 0.5j,
    ]
    warm = WordEvaluator(STANDARD, words, dps=30)
    steps = 0
    for path in [warm.route(z) for z in targets] + [_loop_round(warm, c, 0.3) for c in (0, 1)]:
        steps += len(warm.subdivide(path)) - 1
        warm.values_along(path)
    assert _waypoint_count(warm._waypoints) - 1 < steps  # some prefixes were shared
    loop = _loop_round(warm, 1, 0.3)
    assert warm.values_along(loop)[LI3] != warm.value_vector(warm.anchor)[LI3]
    for z in targets + [warm.anchor]:
        fresh = WordEvaluator(STANDARD, words, dps=30).value_vector(z)
        got = warm.value_vector(z)
        assert {w: v._mpc_ for w, v in got.items()} == {w: v._mpc_ for w, v in fresh.items()}, z
    fresh_loop = WordEvaluator(STANDARD, words, dps=30).values_along(loop)
    got_loop = warm.values_along(loop)
    assert {w: v._mpc_ for w, v in got_loop.items()} == {w: v._mpc_ for w, v in fresh_loop.items()}


def test_evaluators_share_no_waypoints():
    first = WordEvaluator(STANDARD, [LI3], dps=30)
    second = WordEvaluator(STANDARD, [LI3], dps=30)
    first.value_vector(Fraction(1, 3))
    assert first._waypoints and not second._waypoints
    second.value_vector(Fraction(1, 3))
    assert first._waypoints is not second._waypoints
    (first_root,) = first._waypoints.values()
    (second_root,) = second._waypoints.values()
    assert first_root is not second_root
