"""Monodromy of hyperlogarithm germs by path composition.

Continuing the principal germ around a ramification point multiplies its
branch series on the left by the loop's transport series, so in the germ
basis the operator acts by deconcatenation:

    M_a L_w = sum over w = u v of L_u * tau_a(v),

where tau_a is the conjugated small-loop series Phi_a^{-1} E_a Phi_a: E_a
collects the bare loop values (sign_a 2 pi i)^k / k! on the letter powers
a^k, and Phi_a is the regularized transport series from the tangential base
point 0 to a (its coefficients are the shuffle-regularized word values at
a).  Weight-3 monodromy only consumes Phi_a up to weight 2; those values are
classical constants, tabulated here exactly and cross-validated in the test
suite against both the numeric regularization machinery and direct numeric
continuation along sampled loops.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict

from ..errors import AlphabetMismatch
from .constants import SymConst
from .words import Alphabet, HyperlogExpr, STANDARD, Word

MAX_WEIGHT = 3


def _c(**kw) -> SymConst:
    return SymConst.monomial(**kw)


def _q(v) -> SymConst:
    return SymConst.rational(v)


# shuffle-regularized values of weight <= 2 words at the points 1 and -1,
# approached along the real axis from the side of 0 (above 0 for -1)
_PHI_AT_1: Dict[Word, SymConst] = {
    (): _q(1),
    ("x-1",): _c(log2=1),
    ("x0", "x1"): _c(pi=2, coeff=Fraction(1, 6)),
    ("x1", "x0"): _c(pi=2, coeff=Fraction(-1, 6)),
    ("x0", "x-1"): _c(pi=2, coeff=Fraction(1, 12)),
    ("x-1", "x0"): _c(pi=2, coeff=Fraction(-1, 12)),
    ("x-1", "x1"): _c(pi=2, coeff=Fraction(1, 12)) + _c(log2=2, coeff=Fraction(-1, 2)),
    ("x1", "x-1"): _c(pi=2, coeff=Fraction(-1, 12)) + _c(log2=2, coeff=Fraction(1, 2)),
    ("x-1", "x-1"): _c(log2=2, coeff=Fraction(1, 2)),
}

_PHI_AT_M1: Dict[Word, SymConst] = {
    (): _q(1),
    ("x0",): _c(i=1, pi=1),
    ("x1",): _c(log2=1, coeff=-1),
    ("x0", "x0"): _c(pi=2, coeff=Fraction(-1, 2)),
    ("x1", "x1"): _c(log2=2, coeff=Fraction(1, 2)),
    ("x0", "x1"): _c(pi=2, coeff=Fraction(-1, 12)),
    ("x1", "x0"): _c(pi=2, coeff=Fraction(1, 12)) + _c(i=1, pi=1, log2=1, coeff=-1),
    ("x0", "x-1"): _c(pi=2, coeff=Fraction(-1, 6)),
    ("x-1", "x0"): _c(pi=2, coeff=Fraction(1, 6)),
    ("x1", "x-1"): _c(pi=2, coeff=Fraction(1, 12)) + _c(log2=2, coeff=Fraction(-1, 2)),
    ("x-1", "x1"): _c(pi=2, coeff=Fraction(-1, 12)) + _c(log2=2, coeff=Fraction(1, 2)),
}

Series = Dict[Word, SymConst]


def _series_mul(a: Series, b: Series, max_weight: int = MAX_WEIGHT) -> Series:
    out: Series = {}
    for u, cu in a.items():
        for v, cv in b.items():
            if len(u) + len(v) > max_weight:
                continue
            w = u + v
            s = out.get(w, SymConst()) + cu * cv
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return out


def _series_inverse(a: Series, max_weight: int = MAX_WEIGHT) -> Series:
    """(1 + A)^{-1} = 1 - A + A^2 - ...; terminates by weight."""
    rest = {w: c for w, c in a.items() if w}
    out: Series = {(): _q(1)}
    power: Series = {(): _q(1)}
    for m in range(1, max_weight + 1):
        power = _series_mul(power, rest, max_weight)
        if not power:
            break
        for w, c in power.items():
            s = out.get(w, SymConst()) + c.scale((-1) ** m)
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return out


def _transport_series(alphabet: Alphabet, letter: str) -> Series:
    if alphabet != STANDARD:
        raise AlphabetMismatch(
            "symbolic monodromy tables cover the standard alphabet x0, x1, x-1"
        )
    point = alphabet.points[letter]
    if point == 0:
        return {(): _q(1)}
    if point == 1:
        return dict(_PHI_AT_1)
    if point == -1:
        return dict(_PHI_AT_M1)
    raise AlphabetMismatch(f"no transport table for the letter {letter!r}")


def loop_operator(alphabet: Alphabet, letter: str, max_weight: int = MAX_WEIGHT) -> Series:
    """tau = Phi^{-1} E Phi: coefficients of the based positively-oriented
    loop around the letter, on words up to max_weight."""
    phi = _transport_series(alphabet, letter)
    phi_inv = _series_inverse(phi, max_weight)
    sign = alphabet.signs[letter]
    two_pi_i = _c(i=1, pi=1, coeff=2 * sign)
    # E - 1: letter powers with (sign 2 pi i)^k / k!, k >= 1
    e_minus_1: Series = {}
    power = _q(1)
    fact = 1
    for k in range(1, max_weight + 1):
        power = power * two_pi_i
        fact *= k
        e_minus_1[(letter,) * k] = power.scale(Fraction(1, fact))
    tau = _series_mul(_series_mul(phi_inv, e_minus_1, max_weight), phi, max_weight)
    tau[()] = tau.get((), SymConst()) + _q(1)
    return tau


def monodromy(e: HyperlogExpr, letter: str) -> HyperlogExpr:
    """Analytic continuation of the principal germ around a positively
    oriented loop at the given ramification point."""
    if e.weight() > MAX_WEIGHT:
        raise AlphabetMismatch("symbolic monodromy implemented up to weight 3")
    if letter not in e.alphabet.points:
        raise AlphabetMismatch(f"letter {letter!r} not in the alphabet")
    tau = loop_operator(e.alphabet, letter)
    out: Dict[Word, SymConst] = {}
    for w, c in e.terms.items():
        for cut in range(len(w) + 1):
            u, v = w[:cut], w[cut:]
            t = tau.get(v)
            if not t:
                continue
            s = out.get(u, SymConst()) + c * t
            if s:
                out[u] = s
            else:
                out.pop(u, None)
    return HyperlogExpr(out, e.alphabet)
