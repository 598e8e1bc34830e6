"""Reduced rational functions of two variables, and their jets.

A RatFunc stores a numerator/denominator pair of integer BivarPoly in
canonical form: the pair is coprime, jointly primitive (no integer > 1
divides every coefficient of both) and the denominator has a positive
leading (graded-lex) coefficient, so equality of rational functions is plain
equality of the pairs.  A rational constant p/q is the pair (p, q).

SeriesJet is the truncated Taylor expansion of a RatFunc at a rational
center, exact in Q: the reference for the integer jet tables that the
jet-rank linear algebra reads (web.BasePoint).
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

    def taylor(self, center: Tuple[Fraction, Fraction], order: int) -> "SeriesJet":
        """Exact truncated Taylor expansion at a non-pole rational center."""
        cx, cy = Fraction(center[0]), Fraction(center[1])
        if self.den.evaluate(cx, cy) == 0:
            raise PoleAtCenter(f"denominator vanishes at ({cx}, {cy})")
        num_j = _poly_jet(self.num, cx, cy, order)
        den_j = _poly_jet(self.den, cx, cy, order)
        return SeriesJet((cx, cy), order, _jet_div(num_j, den_j, order))

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


def cleared_jacobian(f: RatFunc, g: RatFunc) -> BivarPoly:
    """Denominator-cleared Jacobian polynomial den_f^2 den_g^2 (f_x g_y - f_y g_x).

    It vanishes identically exactly when f and g define the same foliation
    (the denominators are nonzero).  Clearing rather than reducing keeps the
    components supported on the pole curves (common leaves of the two
    pencils), which belong to the web's tangency locus.
    """
    nf, df, ng, dg = f.num, f.den, g.num, g.den
    wf_x = nf.diff("x") * df - nf * df.diff("x")
    wf_y = nf.diff("y") * df - nf * df.diff("y")
    wg_x = ng.diff("x") * dg - ng * dg.diff("x")
    wg_y = ng.diff("y") * dg - ng * dg.diff("y")
    return wf_x * wg_y - wf_y * wg_x


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

JetTerms = Dict[Tuple[int, int], Fraction]


class SeriesJet:
    """Truncated power series at a center, coefficients indexed by (i, j)
    with i + j <= order; absent keys are zero."""

    __slots__ = ("center", "order", "coeffs")

    def __init__(self, center, order: int, coeffs: JetTerms):
        self.center = (Fraction(center[0]), Fraction(center[1]))
        self.order = order
        self.coeffs = {e: c for e, c in coeffs.items() if c and e[0] + e[1] <= order}

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.coeffs.get((i, j), Fraction(0))

    def __eq__(self, other):
        return (
            isinstance(other, SeriesJet)
            and self.center == other.center
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def truncate(self, order: int) -> "SeriesJet":
        return SeriesJet(
            self.center,
            order,
            {e: c for e, c in self.coeffs.items() if e[0] + e[1] <= order},
        )

    def __mul__(self, other: "SeriesJet") -> "SeriesJet":
        assert self.center == other.center
        order = min(self.order, other.order)
        return SeriesJet(self.center, order, _jet_mul(self.coeffs, other.coeffs, order))

    def __repr__(self):
        return f"SeriesJet(center={self.center}, order={self.order}, {len(self.coeffs)} terms)"


def _jet_mul(a: JetTerms, b: JetTerms, order: int) -> JetTerms:
    out: JetTerms = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            i, j = i1 + i2, j1 + j2
            if i + j > order:
                continue
            e = (i, j)
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _jet_div(a: JetTerms, b: JetTerms, order: int) -> JetTerms:
    """a / b as jets; b must have nonzero constant term."""
    b0 = b.get((0, 0), Fraction(0))
    if b0 == 0:
        raise PoleAtCenter("jet division by a series vanishing at the center")
    # invert b by the graded recurrence inv_n = -(1/b0) * sum b_k inv_{n-k}
    inv: JetTerms = {(0, 0): 1 / b0}
    for n in range(1, order + 1):
        for i in range(n + 1):
            j = n - i
            s = Fraction(0)
            for (bi, bj), bc in b.items():
                if (bi, bj) == (0, 0) or bi > i or bj > j:
                    continue
                c = inv.get((i - bi, j - bj))
                if c:
                    s += bc * c
            if s:
                inv[(i, j)] = -s / b0
    return _jet_mul(a, inv, order)


def _poly_jet(p: BivarPoly, cx: Fraction, cy: Fraction, order: int) -> JetTerms:
    """Jet of a polynomial at (cx, cy): expand each monomial by binomials."""
    from math import comb

    out: JetTerms = {}
    for (ex, ey), c in p.terms.items():
        # (cx + u)^ex (cy + v)^ey
        for i in range(min(ex, order) + 1):
            pa = comb(ex, i) * cx ** (ex - i)
            if pa == 0 and ex - i > 0:
                continue
            for j in range(min(ey, order - i) + 1):
                pb = comb(ey, j) * cy ** (ey - j)
                if pb == 0 and ey - j > 0:
                    continue
                e = (i, j)
                s = out.get(e, 0) + c * pa * pb
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
    return out
