"""Arbitrary-precision evaluation of hyperlogarithm words.

Strategy: expand the whole suffix-closed family of words at the tangential
base point 0 (power series with log z slices, shuffle-regularized), move to
a regular anchor, then transport the value vector along a polyline whose
steps stay within half the distance to the nearest ramification point.  The
Taylor recursion at a regular point uses the geometric structure of the
kernels, so one step costs O(terms) per word.

One log-series routine gives the expansion at the base point 0 (every
integration constant 0) and at every ramification point (each word's
constant fixed from its value transported to a nearby point).

Transport runs on plain Python ints from start to finish.  Word values are
fixed point, real and imaginary parts apart, scaled by 2**prec, prec =
mp.prec + GUARD_BITS; waypoints are exact grid pairs on the coordinate scale
2**(2 * prec), fine enough that every corner of a route at the working
precision, its target too, lies on the grid (a corner off it raises
PrecisionNotReached and is never rounded).  Only the anchor values going in
and the word values coming out are mpmath numbers.  The recurrence of a step
p -> q is scaled by the step: it carries the coefficients of h**n, h = q - p,
so each term is O(|u|**n), u = h/(p - a), |u| <= 1/2 however far p lies from
the alphabet, and the value at q is the plain sum of the terms.  Unscaled
coefficients of (z - p)**n grow like |p|**n and would leave no correct bit
of a fixed-point sum far from the alphabet.  The products are rounded toward
zero, and the guard bits absorb that rounding over the ~n_terms operations
per word and step.  A word's series stops exactly where every later term is
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
segment (1, oo) is reached below the cut).  Values carry a validated error
estimate obtained by recomputing with increased precision and depth.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import isqrt
from typing import Dict, Iterable, List, Optional, Sequence

import mpmath
from mpmath.libmp import from_man_exp, to_fixed

from ..errors import OnCut, PrecisionNotReached
from .words import Alphabet, HyperlogExpr, STANDARD, Word


class MultiFloat:
    """Value with a validated error bound."""

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


def _log_series(
    alphabet: Alphabet, closure: Sequence[Word], center: Fraction, n_terms: int, mp, at=None
):
    """For each word, slices[k][n] = coefficient of log(h)^k * h^n, h = z - center.

    Without `at`, every integration constant is 0: the shuffle regularization
    at the tangential base point 0.  With at = (h, log h, values), each word's
    constant makes its expansion take values[w] at h; word by word, because
    later words integrate the constants of their tails.  Any branch of log(h)
    or of log(-h) serves, since both have derivative 1/h; log h in `at`
    picks it."""
    zero = mp.mpf(0)
    series: Dict[Word, List[List]] = {(): [[mp.mpf(1)] + [zero] * (n_terms - 1)]}
    for w in closure:
        if not w:
            continue
        tail = series[w[1:]]
        sign = alphabet.signs[w[0]]
        offset = center - alphabet.points[w[0]]
        if offset == 0:
            # multiply by sign/h then integrate: index shift, log-raise at n=0
            integ = [[zero] * n_terms for _ in range(len(tail) + 1)]
            for k, slice_k in enumerate(tail):
                # n=0 term: sign * c0 * log^k / h -> sign*c0 log^{k+1}/(k+1)
                c0 = slice_k[0]
                if c0:
                    integ[k + 1][0] += sign * c0 / (k + 1)
                # n>=1 terms: integrand sign*c_n h^{n-1} log^k
                b = [zero] * n_terms
                for n in range(1, n_terms):
                    b[n - 1] = sign * slice_k[n]
                _integrate_slices_into(integ, k, b, mp)
        else:
            # kernel geometric: sign/(h + offset) = (sign/offset) sum (-h/offset)^m
            g0 = mp.mpf(sign * offset.denominator) / offset.numerator
            r = mp.mpf(-offset.denominator) / offset.numerator
            integ = [[zero] * n_terms for _ in range(len(tail))]
            for k, slice_k in enumerate(tail):
                # integrand b_n h^n log^k
                b = [zero] * n_terms
                acc = zero
                for n in range(n_terms - 1):
                    acc = acc * r + slice_k[n]
                    b[n] = g0 * acc
                _integrate_slices_into(integ, k, b, mp)
        if at is not None:
            h, logh, values = at
            integ[0][0] += values[w] - _eval_log_series(integ, h, logh, mp)
        while len(integ) > 1 and not any(integ[-1]):
            integ.pop()
        series[w] = integ
    return series


def _integrate_slices_into(integ, k, b, mp):
    """Add the antiderivative of sum_n b[n-1] z^{n-1} log^k z to integ.

    Ansatz sum_{j<=k} A_{j,n} z^n log^j with
    b_{k,n-1} = n A_{k,n} + (k+1) A_{k+1,n} solved downward in j."""
    n_terms = len(b)
    upper = [mp.mpf(0)] * n_terms  # A_{j+1, n} of the previous (higher) j
    for j in range(k, -1, -1):
        cur = [mp.mpf(0)] * n_terms
        for n in range(1, n_terms):
            rhs = (b[n - 1] if j == k else mp.mpf(0)) - (j + 1) * upper[n]
            if rhs:
                cur[n] = rhs / n
        for n in range(n_terms):
            if cur[n]:
                integ[j][n] += cur[n]
        upper = cur


def _eval_log_series(slices, z, logz, mp):
    total = mp.mpc(0)
    for k, slice_k in enumerate(slices):
        acc = mp.mpc(0)
        for c in reversed(slice_k):
            acc = acc * z + c
        total += acc * logz**k
    return total


# ---------------------------------------------------------------------------
# transport at regular points
# ---------------------------------------------------------------------------


# bits carried below the working precision by the fixed-point transport; they
# absorb the rounding of ~n_terms operations per word and step over the 1-30
# steps of a route (-9000/17 takes 29)
GUARD_BITS = 40


def _to_fixed(z, prec):
    """(re, im) of an mpc as ints scaled by 2**prec."""
    re, im = z._mpc_
    return to_fixed(re, prec), to_fixed(im, prec)


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
def _anchor_values(alphabet: Alphabet, closure, dps: int, n_terms: int) -> Dict[Word, object]:
    """Values of the closure words at the anchor, summed from the expansion
    at 0.  Shared, so callers must not mutate the result."""
    mp = mpmath.mp.clone()
    mp.dps = dps
    anchor = _anchor_point(alphabet, mp)
    series = _log_series(alphabet, closure, Fraction(0), n_terms, mp)
    logz = mp.log(anchor)
    return {w: _eval_log_series(series[w], mp.mpc(anchor), logz, mp) for w in closure}


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
        self._anchor_values = _anchor_values(
            alphabet, tuple(self.closure), self.mp.dps, self.n_terms
        )
        self.prec = self.mp.prec + GUARD_BITS  # fixed-point value scale
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
        """Transport all closure words from the anchor along the polyline,
        resuming from the longest already transported prefix of its
        subdivision and keeping every new waypoint's values.

        The corners are taken exactly onto the coordinate grid 2**-grid_bits,
        grid_bits = 2 * prec, which is fine enough for every corner at the
        working precision, down to arguments far below 2**-prec; a corner
        off the grid raises PrecisionNotReached.  The trie is keyed by the
        waypoints' grid pairs, so routes that head the same way from a common
        corner share every waypoint up to the shorter one's last step."""
        mp, prec = self.mp, self.prec
        pts = self.subdivide(path)
        vals, children = None, self._waypoints
        for i, q in enumerate(pts):
            node = children.get(q)
            if node is None:
                if i == 0:
                    vals = {w: _to_fixed(self._anchor_values[w], prec) for w in self.closure}
                else:
                    vals = _transport(
                        self.alphabet, self.letters, self.closure, vals, pts[i - 1], q,
                        self.n_terms, prec,
                    )
                node = children[q] = (vals, {})
            vals, children = node
        return {
            w: mp.make_mpc(
                (from_man_exp(re, -prec, mp.prec, "n"), from_man_exp(im, -prec, mp.prec, "n"))
            )
            for w, (re, im) in vals.items()
        }

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
        mp = self.mp
        pt = Fraction(letter_point)
        a = mp.mpf(pt.numerator) / pt.denominator
        rho = min(
            (
                abs(a - mp.mpf(q.numerator) / q.denominator)
                for q in self.alphabet.points.values()
                if q != pt
            ),
            default=mp.mpf(1),
        )
        # slice variable log(direction * h): real along the approach ray, so
        # the extracted constants follow the real-parameter shuffle
        # regularization (log(1-z) slices at the point 1, etc.)
        direction = 1 if self.anchor >= a else -1
        p = a + direction * rho / 2
        vals = self.values_along(self.route(p))
        h_p = mp.mpc(p - a)
        at = (h_p, mp.log(direction * h_p), vals)
        return _log_series(self.alphabet, self.closure, pt, self.n_terms, mp, at)

    def regularized_values_at(self, letter_point) -> Dict[Word, object]:
        """Shuffle-regularized values (constant terms of the local
        log-expansions) at a ramification point."""
        exps = self.local_expansions_at(letter_point)
        return {w: exps[w][0][0] for w in self.closure}


def eval_word(
    word: Sequence[str],
    z,
    dps: int = 50,
    alphabet: Alphabet = STANDARD,
    path: Optional[Sequence] = None,
) -> MultiFloat:
    """Value of L_word at z (path from 0 inside the cut plane), validated by
    recomputation at increased precision."""
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
        raise PrecisionNotReached(f"validated only {digits} of {dps} digits")
    return MultiFloat(results[1], err, digits)


def eval_expr(
    expr: HyperlogExpr,
    z,
    dps: int = 50,
    evaluator: Optional[WordEvaluator] = None,
) -> object:
    """Numeric value of a hyperlog expression (single computation, no
    doubling; use eval_word for validated values)."""
    ev = evaluator or WordEvaluator(expr.alphabet, expr.words(), dps=dps)
    vals = ev.value_vector(z)
    mp = ev.mp
    total = mp.mpc(0)
    for w, c in expr.terms.items():
        total += c.numeric(mp) * vals[w]
    return total
