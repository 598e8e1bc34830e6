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

Transport runs in fixed point on plain Python ints, real and imaginary parts
apart, scaled by 2**(mp.prec + GUARD_BITS); only the anchor values going in
and the word values coming out are mpmath numbers.  The recurrence of a step
p -> q is scaled by the step: it carries the coefficients of h**n, h = q - p,
so each term is O(theta**n) with theta <= 1/2 however far p lies from the
alphabet, and the value at q is the plain sum of the terms.  Unscaled
coefficients of (z - p)**n grow like |p|**n and would leave no correct bit
of a fixed-point sum far from the alphabet.  The guard bits absorb the
rounding of the ~n_terms operations per word and step.  A word's series
stops exactly where every later term is 0: past its tail's last nonzero
coefficient, once the accumulator is 0.

Each evaluator keeps the fixed-point values it reaches at every waypoint,
keyed by the subdivided path prefix from the anchor (the exact _mpc_ of each
point), never by the point alone: a loop comes back to its start with other
values.  A later path resumes from its longest transported prefix, so the
samples and components of one evaluation share their common first steps;
the subdivision depends only on where a step starts and where it heads, so
routes to targets in one direction share waypoints.  The cache lives and
dies with the evaluator.

Default paths stay inside the cut plane: vertical cuts leave each real
ramification point downward except at 1, where the cut goes upward (so the
segment (1, oo) is reached below the cut).  Values carry a validated error
estimate obtained by recomputing with increased precision and depth.
"""

from __future__ import annotations

import functools
from fractions import Fraction
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


def _transport(alphabet: Alphabet, closure, vals, p, q, n_terms, mp):
    """Taylor-transport the fixed-point word values vals from p to q.

    Fixed point: every number is a pair of ints (re, im) scaled by 2**prec,
    prec = mp.prec + GUARD_BITS.  The step carries the coefficients of
    h**n, h = q - p, so with u = h/(p - a) the kernel sign/(z - a) becomes
    sign*u * sum (-u)**n and every term is O(theta**n) whatever |p|.

    A word's series stops exactly: past the last stored coefficient of its
    tail, a zero accumulator makes every later coefficient 0.  Coefficient
    lists are stored without trailing zeros (the empty word's unit is
    ([1 << prec], [0])), so a word's tail runs out as soon as it can.  The
    values at q are exactly those of a loop over all n_terms terms, which is
    what lets WordEvaluator.values_along keep them as the waypoint q of its
    prefix cache and call this only for the steps past a cached prefix."""
    prec = mp.prec + GUARD_BITS
    letters = {a: mp.mpf(pt.numerator) / pt.denominator for a, pt in alphabet.points.items()}
    with mp.workprec(prec):
        ratio = {a: _to_fixed((q - p) / (p - pt), prec) for a, pt in letters.items()}
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
            # m = u * acc_{n-1};  c_n = sign * m / n;  acc_n = tail_n - m
            mr = (ar * ur - ai * ui) >> prec
            mi = (ar * ui + ai * ur) >> prec
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


def _nearest_letter_distance(alphabet: Alphabet, z, mp):
    return min(
        abs(z - mp.mpf(pt.numerator) / pt.denominator)
        for pt in alphabet.points.values()
    )


def _subdivide(alphabet: Alphabet, path, mp, theta=0.5):
    """Insert intermediate points so each step <= theta * distance to the
    nearest ramification point at the step's start."""
    out = [path[0]]
    for target in path[1:]:
        guard = 0
        while True:
            p = out[-1]
            rho = _nearest_letter_distance(alphabet, p, mp)
            if rho == 0:
                raise OnCut("path touches a ramification point")
            d = abs(target - p)
            if d <= theta * rho:
                out.append(target)
                break
            out.append(p + (target - p) * (theta * rho / d))
            guard += 1
            if guard > 4000:
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
    lifetime in a trie keyed by the subdivided path from the anchor, so a
    path is transported only past its longest known prefix; the results are
    exactly those of a fresh evaluator."""

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
        # fixed-point values by subdivided path prefix: a trie of waypoints,
        # each node (values, children keyed by the next point's _mpc_)
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

    def values_along(self, path: Sequence) -> Dict[Word, object]:
        """Transport all closure words from the anchor along the polyline,
        resuming from the longest already transported prefix of its
        subdivision and keeping every new waypoint's values."""
        mp = self.mp
        prec = mp.prec + GUARD_BITS
        pts = _subdivide(self.alphabet, [mp.mpc(p) for p in path], mp)
        vals, children = None, self._waypoints
        for i, q in enumerate(pts):
            node = children.get(q._mpc_)
            if node is None:
                if i == 0:
                    vals = {w: _to_fixed(self._anchor_values[w], prec) for w in self.closure}
                else:
                    vals = _transport(
                        self.alphabet, self.closure, vals, pts[i - 1], q, self.n_terms, mp
                    )
                node = children[q._mpc_] = (vals, {})
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
