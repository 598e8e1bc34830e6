"""Symbolic differentiation of hyperlogarithm expressions and ODE checks.

Differentiation strips the leading letter against its kernel:
d/dz L_{a w} = k_a(z) L_w(z).  Repeated derivatives therefore live in the
module of words with univariate rational prefactors; an expression is zero
exactly when every prefactor is the zero rational function (linear
independence of distinct words over rational functions is the standard fact
used by the zero test, and every symbolic zero is numerically cross-checked
in the test suite).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict

from ..poly import BivarPoly
from ..ratfunc import RatFunc
from .constants import Monomial, SymConst
from .words import Alphabet, HyperlogExpr, Word


def kernel_ratfunc(alphabet: Alphabet, letter: str) -> RatFunc:
    """k_a(z) = sign / (z - point) as a univariate RatFunc in x."""
    a = alphabet.points[letter]
    s = alphabet.signs[letter]
    # sign / (x - p/q) = sign q / (q x - p)
    den = BivarPoly({(1, 0): a.denominator, (0, 0): -a.numerator})
    return RatFunc(BivarPoly.const(s * a.denominator), den)


class PrefactoredExpr:
    """sum over words of (sum over constant monomials of a RatFunc) * L_w."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self.terms: Dict[Word, Dict[Monomial, RatFunc]] = {}

    @staticmethod
    def from_hyperlog(e: HyperlogExpr) -> "PrefactoredExpr":
        out = PrefactoredExpr(e.alphabet)
        for w, c in e.terms.items():
            for mono, q in c.terms.items():
                out._add(w, mono, RatFunc.const(q))
        return out

    def _add(self, w: Word, mono: Monomial, r: RatFunc):
        if r.is_zero():
            return
        slot = self.terms.setdefault(w, {})
        cur = slot.get(mono)
        s = r if cur is None else cur + r
        if s.is_zero():
            slot.pop(mono, None)
            if not slot:
                self.terms.pop(w, None)
        else:
            slot[mono] = s

    def add(self, other: "PrefactoredExpr") -> "PrefactoredExpr":
        out = PrefactoredExpr(self.alphabet)
        for src in (self, other):
            for w, slot in src.terms.items():
                for mono, r in slot.items():
                    out._add(w, mono, r)
        return out

    def scale_ratfunc(self, r: RatFunc) -> "PrefactoredExpr":
        out = PrefactoredExpr(self.alphabet)
        if r.is_zero():
            return out
        for w, slot in self.terms.items():
            for mono, rr in slot.items():
                out._add(w, mono, rr * r)
        return out

    def derivative(self) -> "PrefactoredExpr":
        """d/dz by the Leibniz rule and the kernel convention."""
        out = PrefactoredExpr(self.alphabet)
        for w, slot in self.terms.items():
            for mono, r in slot.items():
                dr = r.derivative("x")
                out._add(w, mono, dr)
                if w:
                    k = kernel_ratfunc(self.alphabet, w[0])
                    out._add(w[1:], mono, r * k)
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            for mono, r in self.terms[w].items():
                label = "L[" + " ".join(w) + "]" if w else "1"
                parts.append(f"({r})*({SymConst({mono: Fraction(1)})})*{label}")
        return " + ".join(parts)


def hyper_derivative(e: HyperlogExpr) -> PrefactoredExpr:
    """First derivative of a hyperlog expression (rational prefactors)."""
    return PrefactoredExpr.from_hyperlog(e).derivative()


def ode_check(ode, e: HyperlogExpr) -> bool:
    """True iff e solves the ODE identically: substitute via symbolic
    differentiation, collect in the word basis over rational functions, and
    test every coefficient for exact vanishing."""
    derivs = [PrefactoredExpr.from_hyperlog(e)]
    for _ in range(ode.order):
        derivs.append(derivs[-1].derivative())
    total = PrefactoredExpr(e.alphabet)
    for j, c in enumerate(ode.coeffs):
        if c.is_zero():
            continue
        total = total.add(derivs[j].scale_ratfunc(c))
    return total.is_zero()
