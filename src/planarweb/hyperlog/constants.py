"""Symbolic constants for the iterated-integral calculus.

A SymConst is a Q-linear combination of monomials in the free commuting
symbols pi, log2, zeta3 and the imaginary unit i (the only relation used is
i^2 = -1).  No algebraic relations among the transcendental symbols are
assumed, so exact zero tests are conservative.  A numeric interpretation map
evaluates a SymConst at any mpmath precision.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

# monomial: (i_power in {0,1}, pi_power, log2_power, zeta3_power)
Monomial = Tuple[int, int, int, int]
_ONE: Monomial = (0, 0, 0, 0)


class SymConst:
    """Exact symbolic constant: dict monomial -> Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Monomial, Fraction] | None = None):
        self.terms: Dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[m] = c

    @staticmethod
    def rational(c) -> "SymConst":
        return SymConst({_ONE: Fraction(c)})

    @staticmethod
    def monomial(i: int = 0, pi: int = 0, log2: int = 0, zeta3: int = 0, coeff=1) -> "SymConst":
        sign = Fraction(coeff)
        if i >= 2:
            sign *= (-1) ** (i // 2)
            i %= 2
        return SymConst({(i, pi, log2, zeta3): sign})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SymConst.rational(other)
        return isinstance(other, SymConst) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "SymConst") -> "SymConst":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        r = SymConst()
        r.terms = out
        return r

    def __neg__(self) -> "SymConst":
        return SymConst({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "SymConst") -> "SymConst":
        return self + (-other)

    def __mul__(self, other: "SymConst") -> "SymConst":
        out: Dict[Monomial, Fraction] = {}
        for (i1, p1, l1, z1), c1 in self.terms.items():
            for (i2, p2, l2, z2), c2 in other.terms.items():
                i = i1 + i2
                c = c1 * c2
                if i >= 2:
                    c = -c
                    i -= 2
                m = (i, p1 + p2, l1 + l2, z1 + z2)
                s = out.get(m, 0) + c
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        r = SymConst()
        r.terms = out
        return r

    def scale(self, c) -> "SymConst":
        c = Fraction(c)
        return SymConst({m: v * c for m, v in self.terms.items()}) if c else SymConst()

    def numeric(self, mp):
        """Evaluate with the given mpmath context (returns mpc)."""
        total = mp.mpc(0)
        for (ip, pp, lp, zp), c in self.terms.items():
            v = mp.mpf(c.numerator) / mp.mpf(c.denominator)
            term = mp.mpc(v)
            if ip:
                term *= mp.mpc(0, 1)
            if pp:
                term *= mp.pi**pp
            if lp:
                term *= mp.log(2) ** lp
            if zp:
                term *= mp.zeta(3) ** zp
            total += term
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            atoms = []
            if c != 1 or m == _ONE:
                atoms.append(str(c))
            names = ("i", "pi", "log2", "zeta3")
            for name, e in zip(names, m):
                if e == 1:
                    atoms.append(name)
                elif e > 1:
                    atoms.append(f"{name}^{e}")
            parts.append("*".join(atoms))
        return " + ".join(parts)


ONE = SymConst.rational(1)
