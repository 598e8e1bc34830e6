"""Arbitrary-precision evaluation of hyperlogarithm words.

Strategy: expand the whole suffix-closed family of words at the tangential
base point 0 (power series with log z slices, shuffle-regularized), sum it
at two regular anchors, a > 0 and its mirror -a, then transport the value
vector from one of them along a polyline whose steps stay within half the
distance to the nearest ramification point.  The Taylor recursion at a
regular point uses the geometric structure of the kernels, so one step
costs O(terms) per word.

One integration routine, _integrate, serves the transport and the
log series: it integrates sign/(z - a) times a word's tail, on ints in the
fixed point below, coefficient by coefficient with the same rounding and
the same exact stop.  The log series gives the expansion at the base point
0 (every integration constant 0) and at every ramification point (each
word's constant fixed from its value transported to a nearby point), with
one mpmath log per call.  Its coefficients C[k][n] of log(h)**k h**n are
scaled by H**n, H the real offset at which the expansion is summed (the
anchor, or the nearby point), so every kernel ratio u is real, |u| <= 1/2
(2/5 at the anchor), and the value at H is the plain sum
sum_k L**k sum_n C[k][n], L = log|H|.  At -H it is the alternating sum
sum_k L**k sum_n (-1)**n C[k][n] with L = log|H| + i*pi, the log's branch
above 0, so the expansion at 0 summed at a gives the values at -a as well,
with no second series.  The values at both anchors are summed once per word
family and cached as fixed-point ints.  Real points between the largest
letter below 0 and 0 are reached straight from -a, every other point from a
(route).

Transport runs on plain Python ints from start to finish.  Word values are
fixed point, real and imaginary parts apart, scaled by 2**prec, prec =
mp.prec + GUARD_BITS; waypoints are exact grid pairs on the coordinate scale
2**(2 * prec), fine enough that every corner of a route at the working
precision, its target too, lies on the grid (a corner off it raises
PrecisionNotReached and is never rounded).  Only the word values coming out
are mpmath numbers.  A step p -> q is the integration at the regular point
p, one log-free slice per word, scaled by the step: it carries the
coefficients of h**n, h = q - p, so each term is O(|u|**n), u = h/(p - a),
|u| <= 1/2 however far p lies from the alphabet, and the value at q is the
plain sum of the terms.  Unscaled coefficients of (z - p)**n grow like
|p|**n and would leave no correct bit of a fixed-point sum far from the
alphabet.  The products are rounded toward zero, and the guard bits absorb
that rounding over the ~n_terms operations per word and step.  A word's
series stops exactly where every later term is 0: past its tail's last
nonzero coefficient, once the accumulator is 0, which rounding toward zero
makes every accumulator there reach.

Each evaluator keeps the fixed-point values it reaches at every waypoint,
keyed by the subdivided path prefix from its anchor, a or -a (the grid pair
of each point), never by the point alone: a loop comes back to its start
with other values.  A later path resumes from its longest transported
prefix, so the samples and components of one evaluation share their common
first steps.  The subdivision is integral too, and on the horizontal and
vertical legs of a route each step is exactly half the distance to the
nearest letter (rounded down), so a waypoint depends only on where its leg
starts and which way it heads: routes that head the same way share every
waypoint up to the nearer target.  The cache lives and dies with the
evaluator.  Values differ from those of a transport with mpmath step ratios
and floored products only inside the guard bits, so they are not bit for
bit the same.

Default paths stay inside the cut plane: vertical cuts leave each real
ramification point downward except at 1, where the cut goes upward (so the
segment (1, oo) is reached below the cut).  Only eval_word gives an error
figure, and it is an estimate, not a bound: the difference from a second
run at 12 more digits.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import isqrt
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import mpmath
from mpmath.libmp import from_man_exp, from_rational, mpf_log, mpf_pi, round_nearest, to_fixed

from ..errors import InvalidParameter, OnCut, PrecisionNotReached
from .words import Alphabet, HyperlogExpr, STANDARD, Word


class MultiFloat:
    """Value with an error estimate (see eval_word)."""

    __slots__ = ("value", "error", "digits")

    def __init__(self, value, error, digits: int):
        self.value = value
        self.error = error
        self.digits = digits

    def __repr__(self):
        return f"MultiFloat({self.value}, +-{self.error})"


def suffix_closure(words: Iterable[Word]) -> List[Word]:
    out = set()
    for w in words:
        w = tuple(w)
        for k in range(len(w) + 1):
            out.add(w[k:])
    return sorted(out, key=lambda w: (len(w), w))


# ---------------------------------------------------------------------------
# log-series expansion at the base point 0 and at the ramification points
# ---------------------------------------------------------------------------


def _fixed_log(x: Fraction, prec):
    """log x of a rational x > 0, as an int scaled by 2**prec (within a unit)."""
    wp = prec + 20
    return to_fixed(mpf_log(from_rational(x.numerator, x.denominator, wp, round_nearest), wp), prec)


def _exact(x) -> Fraction:
    """The finite mpf x as an exact Fraction."""
    sign, man, exp, _ = x._mpf_
    man = -int(man) if sign else int(man)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _integrate(tail, sign, u, head, n_terms, prec):
    """The series of L_{a w} from its tail's, the series of L_w: the
    antiderivative of sign/(z - a) times the tail, with the value head =
    (re, im) at h = 0.  A series is a list over the log power k of (re, im)
    pairs of equal-length int lists: the coefficients of log(h)**k h**n,
    times H**n and 2**prec, H the offset at which it is summed.  They are
    stored without trailing zeros, but for each slice's constant term and
    the first slice.  u is the fixed-point kernel ratio (ur, ui) =
    H/(center - a), or None when the letter a is the center itself.

    In t = h/H the kernel is sign*u/H * sum (-u t)**n, so the integrand of
    h**(n-1), times H, is sign*m_n, m_n = u * acc_{n-1} rounded toward zero,
    acc_n = tail_n - m_n.  So |m_n| <= |u| |acc_{n-1}|: past the tail's
    stored coefficients (acc_n = -m_n there) an accumulator shrinks by |u|
    per term down to exactly 0, and the slice's recurrence stops there,
    every later m_n being 0; at |u| close to 1/2 that takes about prec
    terms, which may be more than n_terms.  The loop carries -acc_n and -u,
    so past the tail it carries m_n itself, with nothing to negate.  The
    ansatz sum_j A_{j,n} h**n log(h)**j then needs
    n A_{j,n} + (j+1) A_{j+1,n} = sign*m_{j,n}, solved downward in j with
    floor division by n (by sign*n, which rounds the same rational down).
    When a is the center, sign/h times the tail is the integrand itself: its
    h**0 terms raise the log power, the others integrate from h**(n-1) as
    they are."""
    if u is None:
        heads = [head] + [(sign * r[0] // j, sign * i[0] // j) for j, (r, i) in enumerate(tail, 1)]
    else:
        heads = [head] + [(0, 0)] * (len(tail) - 1)
        vr, vi = -u[0], -u[1]
    out = [None] * len(heads)
    upr = upi = ()  # A_{j+1}
    for j in reversed(range(len(heads))):
        j1, top = j + 1, len(upr)
        cr, ci = [heads[j][0]], [heads[j][1]]
        tr, ti = tail[j] if j < len(tail) else ([0], [0])
        size = len(tr)
        if u is None:
            cr += [(sign * tr[n] - (j1 * upr[n] if n < top else 0)) // n for n in range(1, size)]
            ci += [(sign * ti[n] - (j1 * upi[n] if n < top else 0)) // n for n in range(1, size)]
        else:
            sj1 = sign * j1
            ar, ai = -tr[0], -ti[0]
            for n in range(1, n_terms):
                mr = ar * vr - ai * vi
                mr = mr >> prec if mr >= 0 else -(-mr >> prec)
                mi = ar * vi + ai * vr
                mi = mi >> prec if mi >= 0 else -(-mi >> prec)
                if n < size:
                    ar = mr - tr[n]
                    ai = mi - ti[n]
                elif mr or mi:
                    ar, ai = mr, mi
                else:
                    break
                sn = sign * n
                if n < top:
                    cr.append((mr - sj1 * upr[n]) // sn)
                    ci.append((mi - sj1 * upi[n]) // sn)
                else:
                    cr.append(mr // sn)
                    ci.append(mi // sn)
        if len(cr) < top:  # past the integrand's last term only A_{j+1} contributes
            cr += [-j1 * upr[n] // n for n in range(len(cr), top)]
            ci += [-j1 * upi[n] // n for n in range(len(ci), top)]
        while len(cr) > 1 and not (cr[-1] or ci[-1]):
            cr.pop()
            ci.pop()
        out[j] = upr, upi = cr, ci
    while len(out) > 1 and out[-1] == ([0], [0]):
        out.pop()
    return out


def _sum_at(series, log_h, prec, sign=1):
    """The series' value (re, im) at h = sign * H: sum_k L**k sum_n
    sign**n series[k][n], L = log_h = (re, im) the fixed-point log of h, by
    Horner in L with each part of each product rounded toward zero."""
    lr, li = log_h
    total = sum if sign > 0 else (lambda c: sum(c[::2]) - sum(c[1::2]))
    re = im = 0
    for r, i in reversed(series):
        re, im = re * lr - im * li, re * li + im * lr
        re = (re >> prec if re >= 0 else -(-re >> prec)) + total(r)
        im = (im >> prec if im >= 0 else -(-im >> prec)) + total(i)
    return re, im


def _log_series(
    alphabet: Alphabet, closure: Sequence[Word], center: Fraction, H: Fraction, n_terms: int,
    prec: int, at=None,
):
    """Log-series expansions of the closure words at center, on ints, and
    their values at h = H, h = z - center, H rational and real.

    series[w] is the word's series as _integrate builds it: the coefficient
    of log(h)**k h**n times H**n, scaled by 2**prec, is series[w][k] =
    (re, im) at n.  The slice variable is log(h) if H > 0 and log(-h) if
    H < 0 (any branch serves, all have derivative 1/h), so it is L = log|H|
    at h = H, the one mpmath operation here, and the value there is the
    plain sum sum_k L**k sum_n series[w][k][n].  Every kernel ratio
    u = H/(center - a) is real, |u| <= 2/5 at the anchor and 1/2 at a
    letter's point, and the operator is real, so the two parts never mix.

    Without `at`, every integration constant is 0: the shuffle
    regularization at the tangential base point 0.  With `at`, fixed-point
    values at h = H, each word's constant makes its expansion take at[w]
    there; word by word, because later words integrate the constants of
    their tails.  Returns (series, the fixed-point values at h = H)."""
    log_h = _fixed_log(abs(H), prec)
    ratio = {}
    for a, pt in alphabet.points.items():
        if pt == center:
            ratio[a] = None
            continue
        # rounded toward zero, so |u| never exceeds the exact ratio's
        q = H / (center - pt)
        mag = (abs(q.numerator) << prec) // q.denominator
        ratio[a] = (mag if q > 0 else -mag, 0)
    series = {(): [([1 << prec], [0])]}
    values = {(): (1 << prec, 0)}
    for w in closure:
        if not w:
            continue
        s = series[w] = _integrate(
            series[w[1:]], alphabet.signs[w[0]], ratio[w[0]], (0, 0), n_terms, prec
        )
        values[w] = _sum_at(s, (log_h, 0), prec)
        if at is not None:
            (r, i), (re, im) = s[0], values[w]
            values[w] = at[w]
            r[0] += at[w][0] - re
            i[0] += at[w][1] - im
    return series, values


# ---------------------------------------------------------------------------
# transport at regular points
# ---------------------------------------------------------------------------


# bits carried below the working precision by the fixed-point transport; they
# absorb the rounding of ~n_terms operations per word and step over the 1-30
# steps of a route (-9000/17 takes 29)
GUARD_BITS = 40


def _from_fixed(z, prec, mp):
    """The fixed-point pair z (scale 2**prec) as an mpc of the context mp."""
    re, im = z
    return mp.make_mpc(
        (from_man_exp(re, -prec, mp.prec, "n"), from_man_exp(im, -prec, mp.prec, "n"))
    )


def _to_grid(z, bits):
    """(re, im) of an mpc as exact ints on the coordinate scale 2**bits.  A
    part that is not a multiple of 2**-bits, or not finite, raises
    PrecisionNotReached: a corner is never rounded."""
    out = []
    for sign, man, exp, _ in z._mpc_:
        if not man:
            if exp:  # inf or nan
                raise PrecisionNotReached(f"{z} is not a finite point")
            out.append(0)
        elif exp + bits < 0:
            raise PrecisionNotReached(f"{z} does not lie on the coordinate grid 2**-{bits}")
        else:
            n = int(man) << (exp + bits)
            out.append(-n if sign else n)
    return tuple(out)


def _step_ratio(h, d, prec):
    """u = h/d for grid pairs h and d != 0, a fixed-point pair scaled by
    2**prec and rounded down: (h * conj(d) << prec) // |d|**2."""
    hx, hy = h
    dx, dy = d
    dd = dx * dx + dy * dy
    return ((hx * dx + hy * dy) << prec) // dd, ((hy * dx - hx * dy) << prec) // dd


def _transport(alphabet: Alphabet, letters, closure, vals, p, q, n_terms, prec):
    """Taylor-transport the fixed-point word values vals from p to q.

    p and q are grid pairs (coordinate scale 2**(2 * prec)), letters maps
    each letter to its real grid coordinate.  Fixed point: every value is a
    pair of ints (re, im) scaled by 2**prec, prec = mp.prec + GUARD_BITS.
    The step is _integrate at the regular point p, with H = h = q - p, the
    ratios u = h/(p - a) from the ints by _step_ratio and the values at p as
    the heads: each word's series is one slice, every term is O(|u|**n)
    whatever |p|, and the value at q is the plain sum of its terms.  Each
    series stops exactly where every later term is 0, so the values at q
    are those of a loop over all n_terms terms, which is what lets
    WordEvaluator.values_along keep them as the waypoint q of its prefix
    trie and call this only for the steps past a known prefix."""
    h = (q[0] - p[0], q[1] - p[1])
    ratio = {a: _step_ratio(h, (p[0] - x, p[1]), prec) for a, x in letters.items()}
    series = {(): [([1 << prec], [0])]}
    out = {(): vals[()]}
    for w in closure:
        if not w:
            continue
        s = series[w] = _integrate(
            series[w[1:]], alphabet.signs[w[0]], ratio[w[0]], vals[w], n_terms, prec
        )
        out[w] = _sum_at(s, (0, 0), prec)
    return out


def _subdivide(letters, corners):
    """Insert grid points into a polyline of grid pairs so that each step is
    at most half the distance from its start to the nearest letter (letters:
    real grid coordinates), up to a grid unit on a slanted leg.

    On integers: the nearest letter by squared distance rho2, the target
    taken once 4 d2 <= rho2, and otherwise the point p + (t - p) * s //
    isqrt(d2), s = isqrt(rho2) // 2.  On a horizontal or vertical leg that
    step is exactly +-s, so a waypoint depends only on where its leg starts
    and which way it heads, not on how far the leg goes."""
    out = [corners[0]]
    for tx, ty in corners[1:]:
        for _ in range(4000):
            px, py = out[-1]
            rho2 = min((px - x) ** 2 for x in letters) + py * py
            if rho2 == 0:
                raise OnCut("path touches a ramification point")
            dx, dy = tx - px, ty - py
            d2 = dx * dx + dy * dy
            if 4 * d2 <= rho2:
                out.append((tx, ty))
                break
            s, r = isqrt(rho2) // 2, isqrt(d2)
            out.append((px + dx * s // r, py + dy * s // r))
        else:
            raise PrecisionNotReached("path subdivision did not converge")
    return out


# ---------------------------------------------------------------------------
# the evaluator
# ---------------------------------------------------------------------------


def _anchor_point(alphabet: Alphabet, mp):
    """Regular real point at 2/5 of the distance from 0 to the nearest
    nonzero ramification point."""
    nonzero = [p for p in alphabet.points.values() if p != 0]
    scale = min(abs(Fraction(p)) for p in nonzero) if nonzero else Fraction(1)
    return mp.mpf(2 * scale.numerator) / (5 * scale.denominator)


@functools.lru_cache(maxsize=32)
def _anchor_values(
    alphabet: Alphabet, closure, anchor: Fraction, n_terms: int, prec: int
) -> Tuple[Dict[Word, tuple], Dict[Word, tuple]]:
    """Fixed-point values (scale 2**prec) of the closure words at the
    anchor a and at its mirror -a, both summed from the one expansion at 0.
    Its coefficients are scaled by a**n, so at h = -a the term of h**n takes
    the sign (-1)**n, and the slice variable log(h) is L = log a + i*pi,
    its branch continued from a above 0, where the routes over the axis
    pass.  Shared, so callers must not mutate the result."""
    series, values = _log_series(alphabet, closure, Fraction(0), anchor, n_terms, prec)
    log_mirror = (_fixed_log(anchor, prec), to_fixed(mpf_pi(prec + 20), prec))
    return values, {w: _sum_at(s, log_mirror, prec, -1) for w, s in series.items()}


class WordEvaluator:
    """Evaluate a family of words at points of the cut plane.

    The values at every waypoint reached are kept for the evaluator's
    lifetime in a trie keyed by the grid pairs of the subdivided path from
    its anchor (a or -a), so a path is transported only past its longest
    known prefix; the results are exactly those of a fresh evaluator."""

    def __init__(self, alphabet: Alphabet = STANDARD, words: Iterable[Word] = (), dps: int = 50):
        self.alphabet = alphabet
        self.closure = suffix_closure(list(words) or [()])
        self.dps = dps
        self.mp = mp = mpmath.mp.clone()
        mp.dps = dps + 10 + 5 * max(len(w) for w in self.closure)
        self.n_terms = int(mp.dps * 3.4) + 24
        self.anchor = a = _anchor_point(alphabet, mp)
        self.prec = mp.prec + GUARD_BITS  # fixed-point value scale
        self.grid_bits = bits = 2 * self.prec  # coordinate scale of the waypoints
        values, mirrored = _anchor_values(
            alphabet, tuple(self.closure), _exact(a), self.n_terms, self.prec
        )
        # the fixed-point values at each anchor, by its grid pair
        self._anchors = {_to_grid(mp.mpc(a), bits): values, _to_grid(mp.mpc(-a), bits): mirrored}
        # real letters on the grid; a letter off it would move by < 2**-grid_bits
        self.letters = {label: round(pt * 2**bits) for label, pt in alphabet.points.items()}
        # each letter's point, exact and as an mpf of the context
        points = sorted(alphabet.points.values())
        self._points = [(pt, mp.mpf(pt.numerator) / pt.denominator) for pt in points]
        # route's real gaps: (max_low, up_cut), between the letters below 1 and
        # the upward cuts, reached from a; (below_zero, 0) reached from -a
        low = [p for pt, p in self._points if pt < 1]
        up = [p for pt, p in self._points if pt >= 1]
        below = [p for pt, p in self._points if pt < 0]
        self._max_low = max(low) if low else None
        self._up_cut = min(up) if up else None
        self._below_zero = max(below) if below else mp.ninf
        min_gap = min((b - c for c, b in zip(points, points[1:])), default=Fraction(1))
        self._alt = mp.mpf("0.35") * min(1, mp.mpf(min_gap.numerator) / min_gap.denominator)
        # fixed-point values by subdivided path prefix: a trie of waypoints,
        # each node (values, children keyed by the next grid pair)
        self._waypoints: Dict[tuple, tuple] = {}
        # by letter point: each word's constant terms, one per log power
        self._letter_constants: Dict[Fraction, Dict[Word, list]] = {}

    # -- paths ---------------------------------------------------------

    def on_cut(self, z) -> bool:
        mp = self.mp
        re, im = mp.re(z), mp.im(z)
        for pt, p in self._points:
            if re == p:
                if im == 0:
                    return True  # a ramification point itself
                if pt >= 1 and im > 0:
                    return True
                if pt < 1 and im < 0:
                    return True
        return False

    def route(self, z) -> List:
        """Waypoints from an anchor to z inside the cut plane.  A real z
        between the letters below 1 and the first upward cut is reached
        straight from a, and a real z between the largest letter below 0 and
        0 straight from -a; every other z from a, over the axis (under it
        from the first upward cut on)."""
        mp = self.mp
        if isinstance(z, Fraction):
            z = mp.mpf(z.numerator) / z.denominator
        z = mp.mpc(z)
        if self.on_cut(z):
            raise OnCut(f"{z} lies on a branch cut")
        a, alt, low, up = self.anchor, self._alt, self._max_low, self._up_cut
        re, im = mp.re(z), mp.im(z)
        if im == 0 and up is not None and low is not None and low < re < up:
            return [a, z]
        if im == 0 and self._below_zero < re < 0:
            return [-a, z]
        if up is None or re < up:
            # travel above (all cuts below except those at points >= 1)
            return [a, a + 1j * alt, mp.mpc(re, alt), z]
        # re >= first up-cut: travel below, come up through the (max_low, oo)
        # real gap at re
        return [a, a - 1j * alt, mp.mpc(re, -alt), z]

    # -- evaluation ------------------------------------------------------

    def subdivide(self, path: Sequence) -> List[tuple]:
        """The polyline's corners as exact grid pairs, subdivided into the
        steps of the transport (_subdivide)."""
        mp, bits = self.mp, self.grid_bits
        return _subdivide(self.letters.values(), [_to_grid(mp.mpc(p), bits) for p in path])

    def values_along(self, path: Sequence) -> Dict[Word, object]:
        """Values of all closure words at the end of the polyline from the
        anchor a or -a (_fixed_values_along), as mpc."""
        vals = self._fixed_values_along(path)
        return {w: _from_fixed(z, self.prec, self.mp) for w, z in vals.items()}

    def _fixed_values_along(self, path: Sequence) -> Dict[Word, tuple]:
        """Transport all closure words along the polyline from its first
        point, which must be the anchor a or -a (InvalidParameter
        otherwise), resuming from the longest already transported prefix of
        its subdivision and keeping every new waypoint's values.

        The corners are taken exactly onto the coordinate grid 2**-grid_bits,
        grid_bits = 2 * prec, which is fine enough for every corner at the
        working precision, down to arguments far below 2**-prec; a corner
        off the grid raises PrecisionNotReached.  The trie is keyed by the
        waypoints' grid pairs, its roots the two anchors', so routes that
        head the same way from a common corner share every waypoint up to
        the shorter one's last step."""
        start = self.mp.mpc(path[0])
        vals = self._anchors.get(_to_grid(start, self.grid_bits))
        if vals is None:
            a = mpmath.nstr(self.anchor, 8)
            raise InvalidParameter(
                f"the path starts at {mpmath.nstr(start, 8)}, not at an anchor ({a} or -{a})"
            )
        pts, children = self.subdivide(path), self._waypoints
        for i, q in enumerate(pts):
            node = children.get(q)
            if node is None:
                if i:
                    vals = _transport(
                        self.alphabet, self.letters, self.closure, vals, pts[i - 1], q,
                        self.n_terms, self.prec,
                    )
                node = children[q] = (vals, {})
            vals, children = node
        return vals

    def value_vector(self, z, strict: Optional[Dict[Word, object]] = None) -> Dict[Word, object]:
        """Values of all closure words at z.  At a ramification point itself,
        finite words get their limit and divergent ones their regularized
        constant, and OnCut is raised if the combination sum_w strict[w] L_w
        (numeric coefficients) diverges there: if the constant term of one
        of its log powers above 0 is not 0."""
        mp = self.mp
        if isinstance(z, Fraction):
            z = mp.mpf(z.numerator) / z.denominator
        zc = mp.mpc(z)
        for pt, p in self._points:
            if zc == p:
                consts = self._constants_at(pt)
                tol = mp.mpf(10) ** (-(self.dps))
                for k in range(1, max((len(consts[w]) for w in strict or ()), default=1)):
                    lead = sum(c * consts[w][k] for w, c in strict.items() if k < len(consts[w]))
                    if abs(lead) > tol:
                        what = f"L_{next(iter(strict))}" if len(strict) == 1 else "the word combination"
                        raise OnCut(f"{what} diverges at the ramification point {pt}")
                return {w: c[0] for w, c in consts.items()}
        path = self.route(z)
        return self.values_along(path)

    def _constants_at(self, pt: Fraction) -> Dict[Word, list]:
        """The h^0 coefficient of each log power of every closure word's
        expansion at the letter point pt (local_expansions_at), computed on
        the first call at pt and kept, like the waypoints, for the
        evaluator's lifetime.  Only those coefficients leave fixed point."""
        consts = self._letter_constants.get(pt)
        if consts is None:
            series, _ = self._local_series_at(pt)
            mp, prec = self.mp, self.prec
            consts = self._letter_constants[pt] = {
                w: [_from_fixed((r[0], i[0]), prec, mp) for r, i in series[w]] for w in self.closure
            }
        return consts

    def local_expansions_at(self, letter_point) -> Dict[Word, List[List]]:
        """Log-structured expansions sum_k log(h)^k P_k(h) of every closure
        word at the given ramification point, with the branch constants fixed
        by transport from an anchor.  The h^0 log^0 coefficients are the
        regularized values at the point."""
        mp, prec = self.mp, self.prec
        series, H = self._local_series_at(Fraction(letter_point))
        # the coefficient of h**n is the scaled one over H**n
        inv_h = mp.mpf(H.denominator) / H.numerator
        return {
            w: [
                [_from_fixed(c, prec, mp) * inv_h**n for n, c in enumerate(zip(r, i))]
                for r, i in series[w]
            ]
            for w in self.closure
        }

    def _local_series_at(self, pt: Fraction):
        """(series, H): the fixed-point log series of every closure word at
        the letter point pt (_log_series), scaled to h = H, with the branch
        constants fixed by transport from an anchor to pt + H."""
        rho = min(
            (abs(pt - q) for q in self.alphabet.points.values() if q != pt), default=Fraction(1)
        )
        # slice variable log(direction * h): real along the approach ray, so
        # the extracted constants follow the real-parameter shuffle
        # regularization (log(1-z) slices at the point 1, etc.)
        direction = 1 if _exact(self.anchor) >= pt else -1
        near = pt + direction * rho / 2
        p = self.mp.mpf(near.numerator) / near.denominator
        H = _exact(p) - pt  # exactly p - pt, p rounded to the working precision
        at = self._fixed_values_along(self.route(p))
        series, _ = _log_series(self.alphabet, self.closure, pt, H, self.n_terms, self.prec, at)
        return series, H


def eval_word(
    word: Sequence[str],
    z,
    dps: int = 50,
    alphabet: Alphabet = STANDARD,
    path: Optional[Sequence] = None,
) -> MultiFloat:
    """Value of L_word at z (path from 0 inside the cut plane), or at the end
    of `path`, a polyline from the anchor a or -a (WordEvaluator.values_along),
    with an error estimate: the difference from a recomputation at 12 more
    digits, which is not a rigorous bound."""
    w = tuple(word)
    results = []
    for extra in (0, 12):
        ev = WordEvaluator(alphabet, [w], dps=dps + extra)
        if path is not None:
            vals = ev.values_along(path)
        else:
            vals = ev.value_vector(z, strict={w: 1})
        results.append(vals[w])
    mp = ev.mp
    err = abs(results[0] - results[1]) + mp.mpf(10) ** (-(dps + 4))
    digits = int(-mp.log10(err)) if err > 0 else dps
    if digits < dps - 2:
        raise PrecisionNotReached(f"the two runs agree to only {digits} of {dps} digits")
    return MultiFloat(results[1], err, digits)


def eval_expr(
    expr: HyperlogExpr,
    z,
    dps: int = 50,
    evaluator: Optional[WordEvaluator] = None,
) -> object:
    """Numeric value of a hyperlog expression (single computation, no
    doubling; eval_word adds an error estimate).  At a ramification point
    where the expression diverges, OnCut is raised."""
    ev = evaluator or WordEvaluator(expr.alphabet, expr.words(), dps=dps)
    mp = ev.mp
    coeffs = {w: c.numeric(mp) for w, c in expr.terms.items()}
    vals = ev.value_vector(z, strict=coeffs)
    total = mp.mpc(0)
    for w, c in coeffs.items():
        total += c * vals[w]
    return total
