"""The classical primitive PRS gcd in Z[x, y]: the tests' independent
reference for the GCDHEU of planarweb.poly.

One dense routine set serves both levels: a polynomial is read as a list,
ascending in y, of Z[x] coefficients (`_ZX`, ascending int lists), and the
same pseudo-remainder and content routines run on int and on `_ZX`
coefficients, with y as the main variable.  The result is made primitive,
with a positive leading coefficient, once.
"""

from math import gcd as int_gcd

from planarweb.poly import BivarPoly, poly_quo

# a content that reaches one of these (an int, or a _ZX) is a unit
_UNITS = (1, -1, [1], [-1])


def _trim(f):
    while f and not f[-1]:
        f.pop()
    return f


class _ZX(list):
    """Dense polynomial in Z[x], ascending, without trailing zeros: the
    coefficient type of Z[x][y].  `//` is exact division."""

    __slots__ = ()

    def __mul__(self, other):
        if not self or not other:
            return _ZX()
        out = [0] * (len(self) + len(other) - 1)
        for i, a in enumerate(self):
            if a:
                for j, b in enumerate(other):
                    out[i + j] += a * b
        return _ZX(out)

    def __sub__(self, other):
        out = _ZX(self)
        out.extend([0] * (len(other) - len(out)))
        for i, b in enumerate(other):
            out[i] -= b
        return _trim(out)

    def __floordiv__(self, d):
        """The quotient self / d; raises ValueError unless it is exact."""
        r, n = list(self), len(d) - 1
        q = [0] * max(len(r) - n, 0)
        for i in range(len(q) - 1, -1, -1):
            c, m = divmod(r[i + n], d[-1])
            if m:
                raise ValueError("inexact division")
            q[i] = c
            for j in range(n):
                r[i + j] -= c * d[j]
        if any(r[:n]):
            raise ValueError("inexact division")
        return _ZX(q)


def _gcd(a, b):
    """gcd of two coefficients, ints or _ZX, up to a unit."""
    return int_gcd(a, b) if type(a) is int else _ZX(_prs_gcd(a, b))


def _content(f):
    """gcd of the coefficients of a dense f != 0; stops at a unit."""
    g = f[-1]
    for a in f[:-1]:
        if g in _UNITS:
            break
        g = _gcd(g, a)
    return g


def _primitive(f):
    """(content, primitive part) of a dense f != 0."""
    c = _content(f)
    return c, (f if c in _UNITS else [a // c for a in f])


def _prem(f, g):
    """Pseudo-remainder of dense f by dense g != 0."""
    f, n, lc = list(f), len(g) - 1, g[-1]
    while len(f) > n:
        c = f.pop()
        shift = len(f) - n
        f = [a * lc for a in f]
        for j in range(n):
            f[shift + j] -= c * g[j]
        _trim(f)
    return f


def _prs_gcd(f, g):
    """gcd, up to a unit, of dense f and g over ints (in Z[x]) or over _ZX
    (in Z[x][y]): gcd of the contents times the last primitive
    pseudo-remainder."""
    if not f or not g:
        return f or g
    (cf, a), (cg, b) = _primitive(f), _primitive(g)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _prem(a, b)
        a, b = b, (_primitive(r)[1] if r else r)
    c = _gcd(cf, cg)
    # a primitive b of degree 0 is a unit
    return [c] if b else [c * x for x in a]


def _y_rows(p: BivarPoly):
    """p as a dense list ascending in y of _ZX coefficients."""
    rows = [_ZX() for _ in range(p.degree_in("y") + 1)]
    for (ex, ey), c in p.terms.items():
        row = rows[ey]
        if len(row) <= ex:
            row.extend([0] * (ex + 1 - len(row)))
        row[ex] = c
    return rows


def prs_gcd_cofactors(p: BivarPoly, q: BivarPoly):
    """(g, p / g, q / g) for g the PRS gcd of p and q, primitive with a
    positive leading coefficient, as poly_gcd_cofactors returns it; (0, 0, 0)
    when both are zero."""
    if p.is_zero() and q.is_zero():
        return p, p, q
    rows = _prs_gcd(_y_rows(p), _y_rows(q))
    g = BivarPoly._of({(ex, ey): c for ey, row in enumerate(rows) for ex, c in enumerate(row) if c})
    g = g.primitive_z()[1]
    return g, poly_quo(p, g), poly_quo(q, g)
