"""Arbitrary-precision evaluation of hyperlogarithm words.

Strategy: expand the whole suffix-closed family of words at the tangential
base point 0 (power series with log z slices, shuffle-regularized), move to
a regular anchor, then transport the value vector along a polyline whose
steps stay within half the distance to the nearest ramification point.  The
Taylor recursion at a regular point uses the geometric structure of the
kernels, so one step costs O(terms) per word.

One log-series routine gives the expansion at the base point 0 (every
integration constant 0) and at every ramification point (each word's
constant fixed from its value transported to a nearby point).  It runs on
ints in the fixed point of the transport below, with one mpmath log per
call.  The coefficients C[k][n] of log(h)**k h**n are scaled by H**n, H the
real offset at which the expansion is summed (the anchor, or the nearby
point), so every kernel ratio u is real, |u| <= 1/2 (2/5 at the anchor); the
products are rounded toward zero, each slice stops exactly once every later
term is 0, and the value at H is the plain sum sum_k L**k sum_n C[k][n],
L = log|H|.  The anchor values are summed once per word family and cached
as fixed-point ints.

Transport runs on plain Python ints from start to finish.  Word values are
fixed point, real and imaginary parts apart, scaled by 2**prec, prec =
mp.prec + GUARD_BITS; waypoints are exact grid pairs on the coordinate scale
2**(2 * prec), fine enough that every corner of a route at the working
precision, its target too, lies on the grid (a corner off it raises
PrecisionNotReached and is never rounded).  Only the word values coming out
are mpmath numbers.  The recurrence of a step p -> q is scaled by the step:
it carries the coefficients of h**n, h = q - p, so each term is O(|u|**n),
u = h/(p - a), |u| <= 1/2 however far p lies from the alphabet, and the
value at q is the plain sum of the terms.  Unscaled coefficients of
(z - p)**n grow like |p|**n and would leave no correct bit of a fixed-point
sum far from the alphabet.  The products are rounded toward zero, and the
guard bits absorb that rounding over the ~n_terms operations per word and
step.  A word's series stops exactly where every later term is
0: past its tail's last nonzero coefficient, once the accumulator is 0,
which rounding toward zero makes every accumulator there reach.

Each evaluator keeps the fixed-point values it reaches at every waypoint,
keyed by the subdivided path prefix from the anchor (the grid pair of each
point), never by the point alone: a loop comes back to its start with other
values.  A later path resumes from its longest transported prefix, so the
samples and components of one evaluation share their common first steps.
The subdivision is integral too, and on the horizontal and vertical legs of
a route each step is exactly half the distance to the nearest letter
(rounded down), so a waypoint depends only on where its leg starts and which
way it heads: routes that head the same way share every waypoint up to the
nearer target.  The cache lives and dies with the evaluator.  Values differ
from those of a transport with mpmath step ratios and floored products only
inside the guard bits, so they are not bit for bit the same.

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
from typing import Dict, Iterable, List, Optional, Sequence

import mpmath
from mpmath.libmp import from_man_exp, from_rational, mpf_log, round_nearest, to_fixed

from ..errors import OnCut, PrecisionNotReached
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


def _integrate_part(tail, sign, u, n_terms, prec):
    """One real part of the scaled expansion of L_{a w}, with constant 0,
    from the same part of L_w's (tail): the antiderivative of sign/(z - a)
    times it.  A part is a list over k of int lists, part[k][n] for
    log(h)**k h**n.  u is the fixed-point kernel ratio H/(center - a), or
    None when the letter a is the center itself.

    In t = h/H the kernel is sign*u/H * sum (-u t)**n, so with the h**n
    coefficients scaled by H**n the integrand of h**(n-1), times H, is
    sign*m_n, m_n = u * acc_{n-1} rounded toward zero, acc_n = tail_n - m_n,
    as in _transport; a slice stops exactly once it is past its tail and m_n
    is 0.  The ansatz sum_j A_{j,n} h**n log(h)**j then needs
    n A_{j,n} + (j+1) A_{j+1,n} = rhs_{j,n}, solved downward in j with floor
    division by n."""
    if u is None:
        # sign/h * C h**n log**k: the n = 0 term raises the log power, the
        # others integrate from h**(n-1) as they are
        rhs = [[sign * c for c in s] for s in tail]
        heads = [0] + [sign * s[0] // (k + 1) if s else 0 for k, s in enumerate(tail)]
    else:
        rhs = []
        for s in tail:
            size = len(s)
            b = [0]
            acc = s[0] if size else 0
            for n in range(1, n_terms):
                m = acc * u
                m = m >> prec if m >= 0 else -(-m >> prec)
                if n < size:
                    acc = s[n] - m
                elif m:
                    acc = -m
                else:
                    break
                b.append(sign * m)
            rhs.append(b)
        heads = [0] * len(tail)
    out = [None] * len(heads)
    upper: List[int] = []
    for j in reversed(range(len(heads))):
        b = rhs[j] if j < len(rhs) else [0]
        size = max(len(b), len(upper))
        b, upper = b + [0] * (size - len(b)), upper + [0] * (size - len(upper))
        out[j] = upper = [heads[j]] + [(b[n] - (j + 1) * upper[n]) // n for n in range(1, size)]
    return out


def _sum_at(part, log_h, prec):
    """sum_k L**k sum_n part[k][n], L = log_h, by Horner in L rounded
    toward zero: one real part's value at h = H."""
    total = 0
    for s in reversed(part):
        total *= log_h
        total = (total >> prec if total >= 0 else -(-total >> prec)) + sum(s)
    return total


def _strip(part):
    """Drop trailing zero coefficients, then trailing empty slices."""
    for s in part:
        while s and not s[-1]:
            s.pop()
    while part and not part[-1]:
        part.pop()


def _log_series(
    alphabet: Alphabet, closure: Sequence[Word], center: Fraction, H: Fraction, n_terms: int,
    prec: int, at=None,
):
    """Log-series expansions of the closure words at center, on ints, and
    their values at h = H, h = z - center, H rational and real.

    series[w] = (re, im), its real and imaginary parts: part[k][n] is the
    coefficient of log(h)**k h**n times H**n, as an int scaled by 2**prec,
    in lists without trailing zeros.  The slice variable is log(h) if H > 0
    and log(-h) if H < 0 (any branch serves, all have derivative 1/h), so it
    is L = log|H| at h = H, the one mpmath operation here, and the value
    there is the plain sum sum_k L**k sum_n part[k][n].  Every kernel ratio
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
        ratio[a] = mag if q > 0 else -mag
    series = {(): ([[1 << prec]], [])}
    values = {(): (1 << prec, 0)}
    for w in closure:
        if not w:
            continue
        sign, u = alphabet.signs[w[0]], ratio[w[0]]
        parts = tuple(_integrate_part(t, sign, u, n_terms, prec) for t in series[w[1:]])
        if at is None:
            values[w] = tuple(_sum_at(part, log_h, prec) for part in parts)
        else:
            values[w] = at[w]
            for part, target in zip(parts, at[w]):
                const = target - _sum_at(part, log_h, prec)
                if part:
                    part[0][0] += const
                else:
                    part.append([const])
        for part in parts:
            _strip(part)
        series[w] = parts
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
    The step carries the coefficients of h**n, h = q - p, so with u = h/(p -
    a), computed from the ints by _step_ratio, the kernel sign/(z - a)
    becomes sign*u * sum (-u)**n and every term is O(|u|**n) whatever |p|.

    The products m = u * acc are rounded toward zero, so |m| <= |u| |acc|:
    past its tail's stored coefficients an accumulator (acc = -m there)
    shrinks by |u| <= 1/2 per term down to exactly 0, and the word's series
    stops there, every later coefficient being 0.  At |u| close to 1/2 that
    takes about prec terms, which may be more than n_terms.  Coefficient
    lists are stored without trailing zeros (the empty word's unit is
    ([1 << prec], [0])), so a word's tail runs out as soon as it can.  The
    values at q are exactly those of a loop over all n_terms terms, which is
    what lets WordEvaluator.values_along keep them as the waypoint q of its
    prefix trie and call this only for the steps past a known prefix."""
    h = (q[0] - p[0], q[1] - p[1])
    ratio = {a: _step_ratio(h, (p[0] - x, p[1]), prec) for a, x in letters.items()}
    coeffs = {(): ([1 << prec], [0])}
    out = {(): vals[()]}
    for w in closure:
        if not w:
            continue
        ur, ui = ratio[w[0]]
        sign = alphabet.signs[w[0]]
        tr, ti = coeffs[w[1:]]
        size = len(tr)
        cr, ci = [vals[w][0]], [vals[w][1]]
        ar, ai = tr[0], ti[0]
        for n in range(1, n_terms):
            # m = u * acc_{n-1} toward zero;  c_n = sign * m / n;  acc_n = tail_n - m
            mr = ar * ur - ai * ui
            mr = mr >> prec if mr >= 0 else -(-mr >> prec)
            mi = ar * ui + ai * ur
            mi = mi >> prec if mi >= 0 else -(-mi >> prec)
            cr.append(sign * mr // n)
            ci.append(sign * mi // n)
            if n < size:
                ar = tr[n] - mr
                ai = ti[n] - mi
            elif mr or mi:
                ar, ai = -mr, -mi
            else:
                break
        while len(cr) > 1 and not (cr[-1] or ci[-1]):
            cr.pop()
            ci.pop()
        coeffs[w] = (cr, ci)
        out[w] = (sum(cr), sum(ci))
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
) -> Dict[Word, tuple]:
    """Fixed-point values (scale 2**prec) of the closure words at the
    anchor, summed from the expansion at 0.  Shared, so callers must not
    mutate the result."""
    return _log_series(alphabet, closure, Fraction(0), anchor, n_terms, prec)[1]


class WordEvaluator:
    """Evaluate a family of words at points of the cut plane.

    The values at every waypoint reached are kept for the evaluator's
    lifetime in a trie keyed by the grid pairs of the subdivided path from
    the anchor, so a path is transported only past its longest known prefix;
    the results are exactly those of a fresh evaluator."""

    def __init__(self, alphabet: Alphabet = STANDARD, words: Iterable[Word] = (), dps: int = 50):
        self.alphabet = alphabet
        self.closure = suffix_closure(list(words) or [()])
        self.dps = dps
        self.mp = mpmath.mp.clone()
        self.mp.dps = dps + 10 + 5 * max(len(w) for w in self.closure)
        self.n_terms = int(self.mp.dps * 3.4) + 24
        self.anchor = _anchor_point(alphabet, self.mp)
        self.prec = self.mp.prec + GUARD_BITS  # fixed-point value scale
        self._anchor_values = _anchor_values(
            alphabet, tuple(self.closure), _exact(self.anchor), self.n_terms, self.prec
        )
        self.grid_bits = 2 * self.prec  # coordinate scale of the waypoints
        # real letters on the grid; a letter off it would move by < 2**-grid_bits
        self.letters = {
            a: round(pt * 2**self.grid_bits) for a, pt in alphabet.points.items()
        }
        # fixed-point values by subdivided path prefix: a trie of waypoints,
        # each node (values, children keyed by the next grid pair)
        self._waypoints: Dict[tuple, tuple] = {}

    # -- paths ---------------------------------------------------------

    def on_cut(self, z) -> bool:
        mp = self.mp
        re, im = mp.re(z), mp.im(z)
        for pt in self.alphabet.points.values():
            p = mp.mpf(pt.numerator) / pt.denominator
            if re == p:
                if im == 0:
                    return True  # a ramification point itself
                if pt >= 1 and im > 0:
                    return True
                if pt < 1 and im < 0:
                    return True
        return False

    def route(self, z) -> List:
        """Waypoints from the anchor to z inside the cut plane."""
        mp = self.mp
        if isinstance(z, Fraction):
            z = mp.mpf(z.numerator) / z.denominator
        z = mp.mpc(z)
        if self.on_cut(z):
            raise OnCut(f"{z} lies on a branch cut")
        a = self.anchor

        def num(p: Fraction):
            return mp.mpf(p.numerator) / p.denominator

        re, im = mp.re(z), mp.im(z)
        up_cuts = [num(p) for p in self.alphabet.points.values() if p >= 1]
        low = [num(p) for p in self.alphabet.points.values() if p < 1]
        max_low = max(low) if low else None
        gap_hi = min(up_cuts) if up_cuts else None
        pts = sorted(self.alphabet.points.values())
        min_gap = min(
            (Fraction(b - a2) for a2, b in zip(pts, pts[1:])), default=Fraction(1)
        )
        alt = mp.mpf("0.35") * min(
            1, mp.mpf(min_gap.numerator) / min_gap.denominator
        )
        if im == 0 and gap_hi is not None and max_low is not None and max_low < re < gap_hi:
            return [a, z]
        if gap_hi is None or re < gap_hi:
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
        anchor (_fixed_values_along), as mpc."""
        vals = self._fixed_values_along(path)
        return {w: _from_fixed(z, self.prec, self.mp) for w, z in vals.items()}

    def _fixed_values_along(self, path: Sequence) -> Dict[Word, tuple]:
        """Transport all closure words from the anchor along the polyline,
        resuming from the longest already transported prefix of its
        subdivision and keeping every new waypoint's values.

        The corners are taken exactly onto the coordinate grid 2**-grid_bits,
        grid_bits = 2 * prec, which is fine enough for every corner at the
        working precision, down to arguments far below 2**-prec; a corner
        off the grid raises PrecisionNotReached.  The trie is keyed by the
        waypoints' grid pairs, so routes that head the same way from a common
        corner share every waypoint up to the shorter one's last step."""
        pts = self.subdivide(path)
        vals, children = None, self._waypoints
        for i, q in enumerate(pts):
            node = children.get(q)
            if node is None:
                if i == 0:
                    vals = self._anchor_values
                else:
                    vals = _transport(
                        self.alphabet, self.letters, self.closure, vals, pts[i - 1], q,
                        self.n_terms, self.prec,
                    )
                node = children[q] = (vals, {})
            vals, children = node
        return vals

    def value_vector(self, z, strict_words: Optional[Iterable[Word]] = None) -> Dict[Word, object]:
        """Values of all closure words at z.  At a ramification point itself,
        finite words get their limit and divergent ones their regularized
        constant; divergence of a word listed in strict_words raises OnCut."""
        mp = self.mp
        if isinstance(z, Fraction):
            z = mp.mpf(z.numerator) / z.denominator
        zc = mp.mpc(z)
        for pt in self.alphabet.points.values():
            p = mp.mpf(pt.numerator) / pt.denominator
            if zc == p:
                exps = self.local_expansions_at(pt)
                out = {}
                tol = mp.mpf(10) ** (-(self.dps))
                strict = set(map(tuple, strict_words)) if strict_words else set()
                for w in self.closure:
                    slices = exps[w]
                    if w in strict and any(abs(s[0]) > tol for s in slices[1:]):
                        raise OnCut(f"L_{w} diverges at the ramification point {pt}")
                    out[w] = slices[0][0]
                return out
        path = self.route(z)
        return self.values_along(path)

    def local_expansions_at(self, letter_point) -> Dict[Word, List[List]]:
        """Log-structured expansions sum_k log(h)^k P_k(h) of every closure
        word at the given ramification point, with the branch constants fixed
        by transport from the anchor.  The h^0 log^0 coefficients are the
        regularized values at the point."""
        mp, prec = self.mp, self.prec
        pt = Fraction(letter_point)
        rho = min(
            (abs(pt - q) for q in self.alphabet.points.values() if q != pt), default=Fraction(1)
        )
        # slice variable log(direction * h): real along the approach ray, so
        # the extracted constants follow the real-parameter shuffle
        # regularization (log(1-z) slices at the point 1, etc.)
        direction = 1 if _exact(self.anchor) >= pt else -1
        near = pt + direction * rho / 2
        p = mp.mpf(near.numerator) / near.denominator
        H = _exact(p) - pt  # exactly p - pt, p rounded to the working precision
        at = self._fixed_values_along(self.route(p))
        series, _ = _log_series(self.alphabet, self.closure, pt, H, self.n_terms, prec, at)
        # the coefficient of h**n is the scaled one over H**n
        inv_h = mp.mpf(H.denominator) / H.numerator
        out = {}
        for w in self.closure:
            re, im = series[w]
            slices = []
            for k in range(max(len(re), len(im), 1)):
                r, i = (part[k] if k < len(part) else [] for part in (re, im))
                r, i = r + [0] * (len(i) - len(r)), i + [0] * (len(r) - len(i))
                slices.append(
                    [_from_fixed(c, prec, mp) * inv_h**n for n, c in enumerate(zip(r, i))]
                    or [mp.mpc(0)]
                )
            out[w] = slices
        return out


def eval_word(
    word: Sequence[str],
    z,
    dps: int = 50,
    alphabet: Alphabet = STANDARD,
    path: Optional[Sequence] = None,
) -> MultiFloat:
    """Value of L_word at z (path from 0 inside the cut plane), with an error
    estimate: the difference from a recomputation at 12 more digits, which
    is not a rigorous bound."""
    w = tuple(word)
    results = []
    for extra in (0, 12):
        ev = WordEvaluator(alphabet, [w], dps=dps + extra)
        if path is not None:
            vals = ev.values_along(path)
        else:
            vals = ev.value_vector(z, strict_words=[w])
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
    doubling; eval_word adds an error estimate)."""
    ev = evaluator or WordEvaluator(expr.alphabet, expr.words(), dps=dps)
    vals = ev.value_vector(z)
    mp = ev.mp
    total = mp.mpc(0)
    for w, c in expr.terms.items():
        total += c.numeric(mp) * vals[w]
    return total
