"""The log-series expansion in mpmath arithmetic: the tests' reference for
the integer routine of planarweb.hyperlog.numeric.

_log_series builds the expansion of a suffix-closed word family at a center
in mpf arithmetic over full n_terms-long slices, and _eval_log_series sums it
at a point.  Run at more digits than the routine under test, they give the
anchor values and the constant terms of the local expansions to compare with.
"""

from fractions import Fraction
from typing import Dict, List, Sequence

from planarweb.hyperlog.words import Alphabet, Word


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
