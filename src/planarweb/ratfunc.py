"""Reduced rational functions of two variables.

A RatFunc stores a numerator/denominator pair of integer BivarPoly in
canonical form: the pair is coprime, jointly primitive (no integer > 1
divides every coefficient of both) and the denominator has a positive
leading (graded-lex) coefficient, so equality of rational functions is plain
equality of the pairs.  A rational constant p/q is the pair (p, q).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd
from typing import Dict, Tuple

from .errors import IdenticallySingular, PoleAtCenter, ZeroDenominator
from .poly import BivarPoly, _homogeneous_powers, poly_gcd_cofactors, poly_quo


class RatFunc:
    """Canonical ratio of coprime, jointly primitive integer polynomials,
    the denominator's leading coefficient positive."""

    __slots__ = ("num", "den")

    def __init__(self, num: BivarPoly, den: BivarPoly, _canonical: bool = False):
        if den.is_zero():
            raise ZeroDenominator("zero denominator")
        if _canonical:
            self.num, self.den = num, den
            return
        if num.is_zero():
            self.num, self.den = BivarPoly.zero(), BivarPoly.const(1)
            return
        # the gcd is primitive (Gauss's lemma), so the reduced pair's joint
        # content is the gcd c of all input coefficients
        c = gcd(*num.terms.values(), *den.terms.values())
        c = BivarPoly.const(c if den.leading_coeff() > 0 else -c)
        _, num, den = poly_gcd_cofactors(num, den)
        self.num, self.den = poly_quo(num, c), poly_quo(den, c)

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c) -> "RatFunc":
        c = Fraction(c)
        return RatFunc(BivarPoly.const(c.numerator), BivarPoly.const(c.denominator), _canonical=True)

    @staticmethod
    def var(name: str) -> "RatFunc":
        return RatFunc.from_poly(BivarPoly.var(name))

    @staticmethod
    def from_poly(p: BivarPoly) -> "RatFunc":
        return RatFunc(p, BivarPoly.const(1), _canonical=True)

    # -- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not constant")
        return Fraction(self.num.constant_value(), self.den.constant_value())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den, _canonical=True)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def scale(self, c) -> "RatFunc":
        return self * RatFunc.const(c)

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(self.den, self.num)

    # -- calculus -------------------------------------------------------

    def derivative(self, var: str) -> "RatFunc":
        """Quotient-rule derivative, canonically reduced."""
        if var not in ("x", "y"):
            raise ValueError("variable must be 'x' or 'y'")
        n, d = self.num, self.den
        return RatFunc(n.diff(var) * d - n * d.diff(var), d * d)

    def evaluate(self, x, y) -> Fraction:
        dv = self.den.evaluate(x, y)
        if dv == 0:
            raise PoleAtCenter(f"pole at ({x}, {y})")
        return self.num.evaluate(x, y) / dv

    def substitute(self, fx: "RatFunc", fy: "RatFunc") -> "RatFunc":
        """Composition self(fx, fy), canonically reduced."""
        # clear to a common denominator: p(x,y)/q -> p(nx/dx, ny/dy)
        dx_deg = max(self.num.degree_in("x"), self.den.degree_in("x"), 0)
        dy_deg = max(self.num.degree_in("y"), self.den.degree_in("y"), 0)

        def lift(p: BivarPoly) -> BivarPoly:
            out = BivarPoly.zero()
            for (ex, ey), c in p.terms.items():
                t = (fx.num**ex) * (fx.den ** (dx_deg - ex))
                t = t * (fy.num**ey) * (fy.den ** (dy_deg - ey))
                out = out + t.scale(c)
            return out

        new_num = lift(self.num)
        new_den = lift(self.den)
        if new_den.is_zero():
            if new_num.is_zero():
                raise IdenticallySingular("composition is 0/0 everywhere")
            raise ZeroDenominator("composed denominator vanishes identically")
        return RatFunc(new_num, new_den)

    def translate(self, px: Fraction, py: Fraction) -> "RatFunc":
        """self(x + px, y + py), canonical without a gcd: the integer Taylor
        shifts of num and den, cleared jointly, over their joint content.  A
        translation keeps the pair coprime and keeps its top-degree terms
        (so the denominator's leading sign), so this is the canonical pair
        that `substitute` reaches through `poly_gcd`."""
        px, py = Fraction(px), Fraction(py)
        nx = max(self.num.degree_in("x"), self.den.degree_in("x"), 0)
        ny = max(self.num.degree_in("y"), self.den.degree_in("y"), 0)
        num = _taylor_shift(self.num, px, nx, py, ny)
        den = _taylor_shift(self.den, px, nx, py, ny)
        c = gcd(*num.values(), *den.values())
        return RatFunc(
            BivarPoly._of({e: v // c for e, v in num.items()}),
            BivarPoly._of({e: v // c for e, v in den.items()}),
            _canonical=True,
        )

    # -- printing --------------------------------------------------------

    def __repr__(self):
        return f"RatFunc({self!s})"

    def __str__(self):
        from .parse import format_ratfunc

        return format_ratfunc(self)


def _taylor_shift(p: BivarPoly, px: Fraction, nx: int, py: Fraction, ny: int):
    """The terms of b^nx e^ny p(x + a/b, y + c/e) over Z, px = a/b and py =
    c/e, for nx and ny at least p's degrees in x and y: a term t x^ex y^ey
    adds t C(ex, i) a^(ex-i) b^(nx-ex+i) C(ey, j) c^(ey-j) e^(ny-ey+j) to
    the coefficient of x^i y^j."""
    xs = _homogeneous_powers(px.numerator, px.denominator, nx)
    ys = _homogeneous_powers(py.numerator, py.denominator, ny)
    out: Dict[Tuple[int, int], int] = {}
    for (ex, ey), t in p.terms.items():
        for i in range(ex + 1):
            ti = t * comb(ex, i) * xs[ex - i]
            for j in range(ey + 1):
                out[(i, j)] = out.get((i, j), 0) + ti * comb(ey, j) * ys[ey - j]
    return {e: c for e, c in out.items() if c}


def cleared_gradient(u: RatFunc) -> Tuple[BivarPoly, BivarPoly]:
    """den^2 (U_x, U_y) of U = num/den: the pair (n_x d - n d_x, n_y d - n d_y)."""
    n, d = u.num, u.den
    return n.diff("x") * d - n * d.diff("x"), n.diff("y") * d - n * d.diff("y")


def wedge(a: Tuple[BivarPoly, BivarPoly], b: Tuple[BivarPoly, BivarPoly]) -> BivarPoly:
    """a_x b_y - a_y b_x, the coefficient of dx ^ dy in a ^ b."""
    return a[0] * b[1] - a[1] * b[0]


def cleared_jacobian(f: RatFunc, g: RatFunc) -> BivarPoly:
    """Denominator-cleared Jacobian polynomial den_f^2 den_g^2 (f_x g_y - f_y g_x),
    the wedge of the two cleared gradients.

    It vanishes identically exactly when f and g define the same foliation
    (the denominators are nonzero).  Clearing rather than reducing keeps the
    components supported on the pole curves (common leaves of the two
    pencils), which belong to the web's tangency locus.  A `web.Foliation`
    keeps its integral's cleared gradient, so a web takes the wedge of the
    stored pairs instead.
    """
    return wedge(cleared_gradient(f), cleared_gradient(g))
