"""Exact sparse bivariate polynomials over the integers.

A polynomial in the two plane variables is a dict mapping exponent pairs
(ex, ey) to nonzero int coefficients.  The zero polynomial is the empty
dict.  Two polynomials are equal iff their term dicts are equal, so the
representation is canonical by construction.  Rational data enters through
`RatFunc`, which keeps a denominator of its own; only `evaluate` leaves the
integers.

The monomial order used everywhere (leading term, canonical sign, printing)
is graded lexicographic: first total degree, then ex, then ey.

gcd is two-level GCDHEU (B. W. Char, K. O. Geddes and G. H. Gonnet,
J. Symbolic Comput. 7 (1989)).  p and q are evaluated at y = 2^s by shifts,
one Z[x] coefficient per x-degree, and GCDHEU runs again on those images A
and B at x = 2^t: one integer gcd, its balanced base-2^t digits, their
primitive part checked by exact division of the primitive parts of A and B,
times the gcd of the integer contents of A and B: the exact gcd in Z[x].
The balanced base-2^s digits of its coefficients, made primitive, are the
candidate.  Digits are read off `to_bytes` slices (H.-C. Liao and
R. Fateman, ISSAC 1995), so s and t are multiples of 8.

The candidate is certified by trial division (K. O. Geddes, S. R. Czapor
and G. Labahn, Algorithms for Computer Algebra, Thm 7.7).  With
2^s > 2 min(|p|, |q|) + 2 for the largest coefficients |.|, every root of
a common factor lies below 1 + min(|p|, |q|) < 2^s / 2; so a candidate
that divides p and q exactly is their gcd, and its quotients are the
cofactors that `poly_gcd_cofactors` returns.  A constant candidate proves
gcd 1 with no division.  The same holds at x = 2^t in Z[x].  Both levels
take the point above twice the larger norm, so that no coefficient
overflows its digit, and retry a failed point at twice the bits until the
trial divisions accept a candidate.

That always happens.  Write p = g p' and q = g q' with g their gcd.  The
Z[x] gcd of the images at y = xi is g(x, xi) k(x), k = gcd(p'(x, xi),
q'(x, xi)).  The coprime curves p' = 0 and q' = 0 meet in finitely many
points, so for all but finitely many xi, k is an integer; and
a p' + b q' = res_y(p', q') != 0 with a, b in Z[x, y], so k divides the
content of that resultant.  Once 2^(s-1) > k max|g|, the balanced digits
are k g, their primitive part is g, and the trial divisions accept it.
The same argument at x = 2^t bounds the integer gcd of the values of the
coprime primitive parts by their resultant in Z.  Doubling the bits
reaches either bound after O(log) points.  This covers the degrees
produced by planar-web computations without any factorization machinery.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd as int_gcd
from typing import Dict, Iterable, Tuple

Exponent = Tuple[int, int]
Terms = Dict[Exponent, int]


def _homogeneous_powers(a: int, d: int, top: int):
    """[a^i d^(top-i) for i = 0..top]."""
    num = [1]
    den = [1]
    for _ in range(top):
        num.append(num[-1] * a)
        den.append(den[-1] * d)
    return [n * m for n, m in zip(num, reversed(den))]


class BivarPoly:
    """Sparse bivariate polynomial with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Terms | None = None):
        """Integral values become ints; a non-integral one is a ValueError."""
        self.terms: Terms = {}
        for e, c in (terms or {}).items():
            if c != int(c):
                raise ValueError(f"non-integral coefficient {c}")
            if c:
                self.terms[e] = int(c)

    # -- constructors -------------------------------------------------

    @staticmethod
    def _of(terms: Terms) -> "BivarPoly":
        """Wrap a dict of nonzero int coefficients without copying it."""
        r = BivarPoly()
        r.terms = terms
        return r

    @staticmethod
    def zero() -> "BivarPoly":
        return BivarPoly()

    @staticmethod
    def const(c) -> "BivarPoly":
        return BivarPoly({(0, 0): c})

    @staticmethod
    def var(name: str) -> "BivarPoly":
        if name == "x":
            return BivarPoly({(1, 0): 1})
        if name == "y":
            return BivarPoly({(0, 1): 1})
        raise ValueError(f"unknown variable {name!r}")

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and (0, 0) in self.terms)

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms.get((0, 0), 0)

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

    def leading_coeff(self) -> int:
        return self.terms[self.leading_exponent()]

    # -- arithmetic ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, BivarPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "BivarPoly":
        return BivarPoly._of({e: -c for e, c in self.terms.items()})

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return BivarPoly._of(out)

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
        return BivarPoly._of(out)

    def scale(self, c: int) -> "BivarPoly":
        if not c:
            return BivarPoly()
        return BivarPoly._of({e: cc * c for e, cc in self.terms.items()})

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
            out[ne] = c * e[i]
        return BivarPoly._of(out)

    def evaluate(self, x, y) -> Fraction:
        """The value at x = a/d, y = b/e, summed over the integers as
        sum c a^i d^(X-i) b^j e^(Y-j) over d^X e^Y, with X and Y the top
        degrees in x and y: one Fraction normalization per call."""
        if not self.terms:
            return Fraction(0)
        x = Fraction(x)
        y = Fraction(y)
        top_x = max(ex for ex, _ in self.terms)
        top_y = max(ey for _, ey in self.terms)
        xs = _homogeneous_powers(x.numerator, x.denominator, top_x)
        ys = _homogeneous_powers(y.numerator, y.denominator, top_y)
        total = sum(c * xs[ex] * ys[ey] for (ex, ey), c in self.terms.items())
        return Fraction(total, x.denominator**top_x * y.denominator**top_y)

    # -- normalization ------------------------------------------------

    def primitive_z(self) -> Tuple[int, "BivarPoly"]:
        """Write self = content * primitive with coprime coefficients and a
        positive leading (graded-lex) coefficient."""
        if self.is_zero():
            return 0, self
        c = int_gcd(*self.terms.values())
        if self.leading_coeff() < 0:
            c = -c
        return c, (self if c == 1 else BivarPoly._of({e: v // c for e, v in self.terms.items()}))

    # -- printing -----------------------------------------------------

    def __repr__(self):
        return f"BivarPoly({self!s})"

    def __str__(self):
        return self.str_over(1)

    def str_over(self, d: int) -> str:
        """The printed form of self / d, for an int d > 0: each coefficient
        as a reduced fraction, an integer where it is one."""
        if self.is_zero():
            return "0"
        parts = []
        for e in sorted(self.terms, key=BivarPoly._key, reverse=True):
            c, g = self.terms[e], int_gcd(self.terms[e], d)
            c = str(c // g) if g == d else f"{c // g}/{d // g}"
            mon = []
            if e[0]:
                mon.append("x" if e[0] == 1 else f"x^{e[0]}")
            if e[1]:
                mon.append("y" if e[1] == 1 else f"y^{e[1]}")
            if not mon:
                parts.append(c)
                continue
            m = "*".join(mon)
            parts.append(m if c == "1" else f"-{m}" if c == "-1" else f"{c}*{m}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")


# ---------------------------------------------------------------------------
# gcd: GCDHEU at y = 2^s over GCDHEU at x = 2^t
# ---------------------------------------------------------------------------

def _slot_bits(norm: int) -> int:
    """The least multiple s of 8 with 2^s > 2 norm + 2."""
    return ((2 * norm + 2).bit_length() + 7) & -8


def _value(a: list, s: int) -> int:
    """Dense a at 2^s, by Horner's rule in shifts.  Each shift copies the
    partial value, but at the sizes met here that costs less than laying
    out byte slots, and the integer gcd that follows is quadratic anyway."""
    v = 0
    for c in reversed(a):
        v = (v << s) + c
    return v


def _trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _digits(n: int, s: int) -> list:
    """The balanced base-2^s digits of n != 0, for s a multiple of 8, each in
    [-2^(s-1), 2^(s-1)), ascending without trailing zeros: the digits of n
    plus 2^(s-1) in each of m places, read as byte slices of one `to_bytes`,
    each less 2^(s-1).  Linear in the size."""
    half = 1 << (s - 1)
    if -half <= n < half:
        return [n]
    k = s >> 3
    m = abs(n).bit_length() // s + 2
    raw = (n + int.from_bytes(half.to_bytes(k, "little") * m, "little")).to_bytes(k * m, "little")
    return _trim([int.from_bytes(raw[i : i + k], "little") - half for i in range(0, k * m, k)])


def _divides_zx(d: list, a: list) -> bool:
    """True iff dense d divides dense a exactly in Z[x]."""
    r, n = list(a), len(d) - 1
    for i in range(len(r) - n - 1, -1, -1):
        c, m = divmod(r[i + n], d[-1])
        if m:
            return False
        for j in range(n):
            r[i + j] -= c * d[j]
    return not any(r[:n])


def _heu_zx(a: list, b: list) -> list:
    """The gcd in Z[x] of dense nonzero a and b, exactly: the gcd of their
    contents times the gcd of their primitive parts, up to sign."""
    ca, cb = int_gcd(*a), int_gcd(*b)
    c = int_gcd(ca, cb)
    if len(a) == 1 or len(b) == 1:
        return [c]
    a = a if ca == 1 else [v // ca for v in a]
    b = b if cb == 1 else [v // cb for v in b]
    s = _slot_bits(max(max(a), -min(a), max(b), -min(b)))
    while True:
        g = _digits(int_gcd(_value(a, s), _value(b, s)), s)
        if len(g) == 1:
            return [c]
        h = int_gcd(*g)
        g = [v // h for v in g]
        if _divides_zx(g, a) and _divides_zx(g, b):
            return [c * v for v in g]
        s *= 2


def _image(p: BivarPoly, s: int) -> list:
    """p at y = 2^s as a dense list ascending in x, by shifts."""
    a = [0] * (max(p.terms)[0] + 1)
    for (ex, ey), c in p.terms.items():
        a[ex] += c << (s * ey)
    return a


def poly_gcd_cofactors(p: BivarPoly, q: BivarPoly):
    """(g, p / g, q / g) for g = poly_gcd(p, q); (0, 0, 0) when both are
    zero."""
    if p.is_zero() or q.is_zero():
        c, g = (p + q).primitive_z()
        unit = BivarPoly.const(c)
        return g, (p if p.is_zero() else unit), (q if q.is_zero() else unit)
    if p.is_constant() or q.is_constant():
        return BivarPoly._of({(0, 0): 1}), p, q
    s = _slot_bits(max(max(map(abs, p.terms.values())), max(map(abs, q.terms.values()))))
    while True:
        gx = _heu_zx(_image(p, s), _image(q, s))
        g = BivarPoly._of(
            {(ex, ey): d for ex, c in enumerate(gx) if c for ey, d in enumerate(_digits(c, s)) if d}
        )
        if g.is_constant():
            return BivarPoly._of({(0, 0): 1}), p, q
        g = g.primitive_z()[1]
        ok, p_bar = poly_divmod_exact(p, g)
        if ok:
            ok, q_bar = poly_divmod_exact(q, g)
            if ok:
                return g, p_bar, q_bar
        s *= 2


def poly_gcd(p: BivarPoly, q: BivarPoly) -> BivarPoly:
    """gcd over Z[x, y] (and so over Q[x, y] up to a constant), normalized
    primitive with positive leading coeff.

    Constant (nonzero) results are returned as 1.
    """
    return poly_gcd_cofactors(p, q)[0]


def poly_divides(d: BivarPoly, p: BivarPoly) -> bool:
    """True iff d divides p in Z[x, y]; for a primitive d, as in Q[x, y]
    (Gauss's lemma)."""
    if d.is_zero():
        return p.is_zero()
    ok, _ = poly_divmod_exact(p, d)
    return ok


def poly_divmod_exact(p: BivarPoly, d: BivarPoly):
    """Try to divide p by d exactly in Z[x, y].  Returns (True, quotient) or
    (False, None).

    One remainder and one quotient dict are updated in place; a heap yields
    the remainder's graded-lex leading exponents in turn."""
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    (dx, dy), dlc = d.leading_exponent(), d.leading_coeff()
    rest = [(e, c) for e, c in d.terms.items() if e != (dx, dy)]
    r = dict(p.terms)
    heap = [(-ex - ey, -ex, (ex, ey)) for ex, ey in r]
    heapify(heap)
    q: Terms = {}
    while heap:
        e = heappop(heap)[2]
        c = r.pop(e, None)
        if c is None:  # cancelled since it was pushed
            continue
        ex, ey = e[0] - dx, e[1] - dy
        if ex < 0 or ey < 0:
            return False, None
        t, m = divmod(c, dlc)
        if m:
            return False, None
        q[(ex, ey)] = t
        for (a, b), dc in rest:
            f = (a + ex, b + ey)
            s = r.get(f, 0) - t * dc
            if not s:
                r.pop(f, None)
                continue
            if f not in r:
                heappush(heap, (-f[0] - f[1], -f[0], f))
            r[f] = s
    return True, BivarPoly._of(q)


def poly_quo(p: BivarPoly, d: BivarPoly) -> BivarPoly:
    """The quotient p / d; raises ValueError unless d divides p exactly in
    Z[x, y]."""
    if d.is_constant() and not d.is_zero():
        c = d.constant_value()
        if any(v % c for v in p.terms.values()):
            raise ValueError("inexact polynomial division")
        return p if c == 1 else BivarPoly._of({e: v // c for e, v in p.terms.items()})
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
    return poly_gcd_cofactors(p, poly_gcd(p.diff("x"), p.diff("y")))[1]


def coprime_split(polys: Iterable[BivarPoly], basis: Iterable[BivarPoly] = ()):
    """Split squarefree polynomials into a pairwise-coprime list whose product
    equals the squarefree part of the input product (up to constants).

    basis, an earlier output (squarefree, primitive with positive leading
    coefficient and pairwise coprime), is the starting point: only polys are
    split against it, and the result is coprime_split(basis + polys).

    Each input p is scanned once along the list.  Where p shares a
    nontrivial g with an element q, q gives way to g and q / g, and the scan
    goes on with p / g, which is coprime to g, to q / g and to every element
    already scanned; what is left of p at the end is a new element.  The
    coarsest coprime base is unique, so the sorted result does not depend on
    the order of the inputs."""
    out: list[BivarPoly] = list(basis)
    for p in polys:
        if p.is_constant():
            continue
        p = squarefree_part(p)
        i = 0
        while i < len(out) and not p.is_constant():
            g, p1, q1 = poly_gcd_cofactors(p, out[i])
            if g.is_constant():
                i += 1
                continue
            parts = [g] if q1.is_constant() else [g, q1.primitive_z()[1]]
            out[i : i + 1] = parts
            i += len(parts)
            p = p1.primitive_z()[1]
        if not p.is_constant():
            out.append(p)
    return sorted(out, key=lambda q: (q.total_degree(), sorted(q.terms.items())))
