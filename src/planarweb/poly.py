"""Exact sparse bivariate polynomials over the rationals.

A polynomial in the two plane variables is a dict mapping exponent pairs
(ex, ey) to nonzero Fraction coefficients.  The zero polynomial is the empty
dict.  Two polynomials are equal iff their term dicts are equal, so the
representation is canonical by construction.

The monomial order used everywhere (leading term, canonical sign, printing)
is graded lexicographic: first total degree, then ex, then ey.

gcd works by the classical content / primitive-part recursion with y as the
main variable: coefficients in y are univariate polynomials in x, taken to
Z[x] by clearing denominators, and reduced with a primitive pseudo-remainder
sequence.  This covers the degrees produced by planar-web computations
without any factorization machinery.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from typing import Dict, Iterable, Tuple

Exponent = Tuple[int, int]
Terms = Dict[Exponent, Fraction]


class BivarPoly:
    """Sparse bivariate polynomial with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Terms | None = None):
        self.terms: Terms = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[e] = Fraction(c)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "BivarPoly":
        return BivarPoly()

    @staticmethod
    def const(c) -> "BivarPoly":
        c = Fraction(c)
        return BivarPoly({(0, 0): c}) if c else BivarPoly()

    @staticmethod
    def var(name: str) -> "BivarPoly":
        if name == "x":
            return BivarPoly({(1, 0): Fraction(1)})
        if name == "y":
            return BivarPoly({(0, 1): Fraction(1)})
        raise ValueError(f"unknown variable {name!r}")

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and (0, 0) in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms[(0, 0)]

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(ex + ey for ex, ey in self.terms)

    def degree_in(self, var: str) -> int:
        if not self.terms:
            return -1
        i = 0 if var == "x" else 1
        return max(e[i] for e in self.terms)

    @staticmethod
    def _key(e: Exponent):
        return (e[0] + e[1], e[0], e[1])

    def leading_exponent(self) -> Exponent:
        # graded-lex maximal monomial
        return max(self.terms, key=BivarPoly._key)

    def leading_coeff(self) -> Fraction:
        return self.terms[self.leading_exponent()]

    # -- arithmetic ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, BivarPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "BivarPoly":
        return BivarPoly({e: -c for e, c in self.terms.items()})

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        r = BivarPoly()
        r.terms = out
        return r

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        return self + (-other)

    def __mul__(self, other: "BivarPoly") -> "BivarPoly":
        out: Terms = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                e = (a1 + a2, b1 + b2)
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        r = BivarPoly()
        r.terms = out
        return r

    def scale(self, c) -> "BivarPoly":
        c = Fraction(c)
        if not c:
            return BivarPoly()
        return BivarPoly({e: cc * c for e, cc in self.terms.items()})

    def __pow__(self, n: int) -> "BivarPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = BivarPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def diff(self, var: str) -> "BivarPoly":
        i = 0 if var == "x" else 1
        out: Terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = (e[0] - 1, e[1]) if i == 0 else (e[0], e[1] - 1)
            out[ne] = out.get(ne, Fraction(0)) + c * e[i]
        return BivarPoly({e: c for e, c in out.items() if c})

    def evaluate(self, x, y) -> Fraction:
        x = Fraction(x)
        y = Fraction(y)
        total = Fraction(0)
        for (ex, ey), c in self.terms.items():
            total += c * x**ex * y**ey
        return total

    # -- normalization ------------------------------------------------

    def monic(self) -> "BivarPoly":
        """Divide by the graded-lex leading coefficient."""
        if self.is_zero():
            return self
        lc = self.leading_coeff()
        return BivarPoly({e: c / lc for e, c in self.terms.items()})

    def primitive_z(self) -> Tuple[Fraction, "BivarPoly"]:
        """Write self = content * primitive with integer coprime coefficients
        and positive leading (graded-lex) coefficient."""
        if self.is_zero():
            return Fraction(0), self
        den = 1
        for c in self.terms.values():
            den = den * c.denominator // int_gcd(den, c.denominator)
        num_gcd = 0
        for c in self.terms.values():
            num_gcd = int_gcd(num_gcd, c.numerator * (den // c.denominator))
        content = Fraction(num_gcd, den)
        prim = BivarPoly({e: c / content for e, c in self.terms.items()})
        if prim.leading_coeff() < 0:
            prim = -prim
            content = -content
        return content, prim

    # -- printing -----------------------------------------------------

    def __repr__(self):
        return f"BivarPoly({self!s})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for e in sorted(self.terms, key=BivarPoly._key, reverse=True):
            c = self.terms[e]
            mon = []
            if e[0]:
                mon.append("x" if e[0] == 1 else f"x^{e[0]}")
            if e[1]:
                mon.append("y" if e[1] == 1 else f"y^{e[1]}")
            if not mon:
                parts.append(str(c))
                continue
            m = "*".join(mon)
            if c == 1:
                parts.append(m)
            elif c == -1:
                parts.append(f"-{m}")
            else:
                parts.append(f"{c}*{m}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")


# ---------------------------------------------------------------------------
# univariate integer polynomials (dense lists, ascending), helpers for gcd
# ---------------------------------------------------------------------------


def _z_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _z_content(p) -> int:
    g = 0
    for c in p:
        g = int_gcd(g, c)
    return g


def _z_primitive(p):
    g = _z_content(p)
    if g == 0:
        return p
    if p[-1] < 0:
        g = -g
    return [c // g for c in p]


def _z_mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _z_trim(out)


def _z_scale(p, c):
    return [a * c for a in p] if c else []


def _z_sub(p, q):
    out = list(p) + [0] * (len(q) - len(p))
    for i, b in enumerate(q):
        out[i] -= b
    return _z_trim(out)


def _z_pseudo_rem(f, g):
    """Pseudo-remainder of f by g in Z[x]."""
    f = list(f)
    df, dg = len(f) - 1, len(g) - 1
    lc = g[-1]
    while len(f) - 1 >= dg and f:
        shift = len(f) - 1 - dg
        coef = f[-1]
        f = _z_sub(_z_scale(f, lc), [0] * shift + _z_scale(g, coef))
    return f


def _z_gcd(p, q):
    """gcd in Z[x] via a primitive pseudo-remainder sequence."""
    p, q = _z_primitive(list(p)), _z_primitive(list(q))
    if not p:
        return q
    if not q:
        return p
    if len(p) < len(q):
        p, q = q, p
    while q:
        r = _z_primitive(_z_pseudo_rem(p, q))
        p, q = q, r
    return _z_primitive(p)


def _to_y_coeffs(p: BivarPoly):
    """Represent p as a list (ascending in y) of integer x-coefficient lists,
    together with the cleared rational factor."""
    content, prim = p.primitive_z()
    dy = prim.degree_in("y")
    rows = [[] for _ in range(dy + 1)]
    for (ex, ey), c in prim.terms.items():
        row = rows[ey]
        if len(row) <= ex:
            row.extend([0] * (ex + 1 - len(row)))
        row[ex] = int(c)
    return content, [_z_trim(r) for r in rows]


def _from_y_coeffs(rows) -> BivarPoly:
    terms: Terms = {}
    for ey, row in enumerate(rows):
        for ex, c in enumerate(row):
            if c:
                terms[(ex, ey)] = Fraction(c)
    return BivarPoly(terms)


def _rows_trim(rows):
    while rows and not rows[-1]:
        rows.pop()
    return rows


def _rows_content(rows):
    g = []
    for r in rows:
        g = _z_gcd(g, r)
    return g


def _z_div_exact(p, d):
    """Exact division in Z[x]; raises if not exact."""
    if not d:
        raise ZeroDivisionError("division by zero polynomial")
    out = [0] * (len(p) - len(d) + 1) if len(p) >= len(d) else []
    rem = list(p)
    while rem and len(rem) >= len(d):
        shift = len(rem) - len(d)
        q, r = divmod(rem[-1], d[-1])
        if r:
            raise ValueError("inexact division")
        out[shift] = q
        rem = _z_sub(rem, [0] * shift + _z_scale(d, q))
    if rem:
        raise ValueError("inexact division")
    return _z_trim(out)


def _rows_div(rows, d):
    return [_z_div_exact(r, d) for r in rows]


def _rows_pseudo_rem(f, g):
    """Pseudo-remainder in (Z[x])[y]."""
    f = [list(r) for r in f]
    dg = len(g) - 1
    lc = g[-1]
    while f and len(f) - 1 >= dg:
        shift = len(f) - 1 - dg
        coef = f[-1]
        scaled = [_z_mul(r, lc) for r in f]
        sub = [[] for _ in range(shift)] + [_z_mul(r, coef) for r in g]
        new = []
        for i in range(max(len(scaled), len(sub))):
            a = scaled[i] if i < len(scaled) else []
            b = sub[i] if i < len(sub) else []
            new.append(_z_sub(a, b))
        f = _rows_trim(new)
    return f


def _spec_gcd_is_trivial(fr, gr) -> bool:
    """Specialize x to a point keeping both leading y-coefficients nonzero;
    a constant univariate gcd there certifies deg_y(gcd) = 0."""
    if len(fr) == 1 or len(gr) == 1:
        return False
    for x0 in (2, 3, 5, 7, 11):
        lf = _z_eval(fr[-1], x0)
        lg = _z_eval(gr[-1], x0)
        if lf == 0 or lg == 0:
            continue
        uf = [_z_eval(row, x0) for row in fr]
        ug = [_z_eval(row, x0) for row in gr]
        g = _z_gcd(uf, ug)
        return len(g) <= 1
    return False


def _z_eval(row, x0: int) -> int:
    acc = 0
    for c in reversed(row):
        acc = acc * x0 + c
    return acc


def poly_gcd(p: BivarPoly, q: BivarPoly) -> BivarPoly:
    """gcd over Q[x, y], normalized primitive with positive leading coeff.

    Constant (nonzero) results are returned as 1.
    """
    if p.is_zero():
        return q.primitive_z()[1] if not q.is_zero() else BivarPoly.zero()
    if q.is_zero():
        return p.primitive_z()[1]
    _, fr = _to_y_coeffs(p)
    _, gr = _to_y_coeffs(q)
    if _spec_gcd_is_trivial(fr, gr):
        cont = _z_gcd(_rows_content(fr), _rows_content(gr))
        g = _from_y_coeffs([cont])
        return g.primitive_z()[1] if not g.is_zero() else BivarPoly.zero()
    cf = _rows_content(fr)
    cg = _rows_content(gr)
    ff = _rows_div(fr, cf)
    gg = _rows_div(gr, cg)
    cont = _z_gcd(cf, cg)
    a, b = (ff, gg) if len(ff) >= len(gg) else (gg, ff)
    while b:
        r = _rows_pseudo_rem(a, b)
        if r:
            r = _rows_div(r, _rows_content(r))
        a, b = b, r
    if len(a) == 1:
        # y-primitive parts are coprime; only the x-content gcd survives
        rows = [cont]
    else:
        rows = [_z_mul(r2, cont) for r2 in _rows_div(a, _rows_content(a))]
    g = _from_y_coeffs(rows)
    return g.primitive_z()[1] if not g.is_zero() else BivarPoly.zero()


def poly_divides(d: BivarPoly, p: BivarPoly) -> bool:
    """True iff d divides p in Q[x, y]."""
    if d.is_zero():
        return p.is_zero()
    ok, _ = poly_divmod_exact(p, d)
    return ok


def poly_divmod_exact(p: BivarPoly, d: BivarPoly):
    """Try to divide p by d exactly.  Returns (True, quotient) or (False, None)."""
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    q = BivarPoly.zero()
    r = p
    dle = d.leading_exponent()
    dlc = d.leading_coeff()
    while not r.is_zero():
        rle = r.leading_exponent()
        ex, ey = rle[0] - dle[0], rle[1] - dle[1]
        if ex < 0 or ey < 0:
            return False, None
        t = BivarPoly({(ex, ey): r.leading_coeff() / dlc})
        q = q + t
        r = r - t * d
    return True, q


def poly_quo(p: BivarPoly, d: BivarPoly) -> BivarPoly:
    """The quotient p / d; raises ValueError unless d divides p exactly."""
    if d.is_constant():
        return p.scale(1 / d.constant_value())
    ok, q = poly_divmod_exact(p, d)
    if not ok:
        raise ValueError("inexact polynomial division")
    return q


def squarefree_part(p: BivarPoly) -> BivarPoly:
    """Product of the distinct irreducible factors of p, primitive, positive
    leading coefficient: p / gcd(p, p_x, p_y), since in characteristic 0 a
    factor of multiplicity e divides p_x and p_y at least e - 1 times and
    one of them exactly e - 1 times."""
    if p.is_zero():
        raise ValueError("squarefree part of the zero polynomial")
    _, p = p.primitive_z()
    if p.is_constant():
        return BivarPoly.const(1)
    g = poly_gcd(poly_gcd(p, p.diff("x")), p.diff("y"))
    return poly_quo(p, g).primitive_z()[1]


def coprime_split(polys: Iterable[BivarPoly]):
    """Split squarefree polynomials into a pairwise-coprime list whose product
    equals the squarefree part of the input product (up to constants)."""
    work = [squarefree_part(p) for p in polys if not p.is_constant()]
    out: list[BivarPoly] = []
    while work:
        p = work.pop()
        if p.is_constant():
            continue
        fresh = True
        for i, q in enumerate(out):
            g = poly_gcd(p, q)
            if g.is_constant():
                continue
            fresh = False
            q1, p1 = poly_quo(q, g), poly_quo(p, g)
            out.pop(i)
            for h in (g, q1.primitive_z()[1]):
                if not h.is_constant():
                    out.append(h)
            if not p1.is_constant():
                work.append(p1.primitive_z()[1])
            break
        if fresh:
            out.append(p)
    return sorted(out, key=lambda q: (q.total_degree(), sorted(q.terms.items())))
