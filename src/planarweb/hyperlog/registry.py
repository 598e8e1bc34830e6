"""Registry of the named special functions used by the fixture identities.

Functions expressible in weight <= 3 words over the standard alphabet are
stored as HyperlogExpr (and evaluated through the word evaluator); the rest
carry a native arbitrary-precision evaluator.  Two-variable right-hand sides
(R3, Schaffer) take the plane point directly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Optional

from ..errors import UnknownName
from .constants import SymConst
from .words import HyperlogExpr


def _w(*letters) -> HyperlogExpr:
    return HyperlogExpr.word(letters)


def _const(c: SymConst) -> HyperlogExpr:
    return HyperlogExpr.constant(c)


def _mono(**kw) -> SymConst:
    return SymConst.monomial(**kw)


class SpecialFunction:
    """Either a word expression or a native evaluator (mp, z) -> value."""

    def __init__(self, name: str, expr: Optional[HyperlogExpr] = None, native: Optional[Callable] = None):
        self.name = name
        self.expr = expr
        self.native = native


def _build_registry() -> Dict[str, SpecialFunction]:
    half = Fraction(1, 2)
    d_expr = (
        _w("x0", "x1").scale(half)
        - _w("x1", "x0").scale(half)
        - _const(_mono(pi=2, coeff=Fraction(1, 6)))
    )
    g_expr = (
        _w("x0", "x0", "x1").scale(2)
        - _w("x0", "x1", "x0")
        - _w("x1", "x0", "x0")
        - _const(_mono(zeta3=1, coeff=Fraction(2, 3)))
    )
    ghat_expr = (
        g_expr
        + _w("x0", "x1").scale(_mono(i=1, pi=1))
        - _w("x1", "x0").scale(_mono(i=1, pi=1, coeff=4))
        - _w("x1").scale(_mono(pi=2))
        + _const(_mono(i=1, pi=3, coeff=2))
    )
    h_expr = _w("x0", "x0", "x1") - _w("x1", "x0", "x0")
    hhat_expr = (
        h_expr
        - _w("x0", "x1").scale(_mono(i=1, pi=1))
        + _w("x1", "x0").scale(_mono(i=1, pi=1, coeff=2))
        + _w("x1").scale(_mono(pi=2, coeff=half))
        - _const(_mono(i=1, pi=3, coeff=Fraction(1, 3)))
    )

    def bloch_wigner(mp, z):
        z = mp.mpc(z)
        if z == 0 or z == 1:
            return mp.mpf(0)
        return mp.im(mp.polylog(2, z)) + mp.arg(1 - z) * mp.log(abs(z))

    def l3_single_valued(mp, z):
        z = mp.mpc(z)
        if z == 0:
            return mp.mpf(0)
        if z == 1:
            return mp.re(mp.zeta(3))
        lz = mp.log(abs(z))
        return mp.re(
            mp.polylog(3, z) - mp.polylog(2, z) * lz - mp.log(1 - z) * lz**2 / 3
        )

    reg = {
        "log": SpecialFunction("log", expr=_w("x0")),
        "Li1": SpecialFunction("Li1", expr=_w("x1")),
        "log1p": SpecialFunction("log1p", expr=_w("x-1")),
        "Li2": SpecialFunction("Li2", expr=_w("x0", "x1")),
        "Li3": SpecialFunction("Li3", expr=_w("x0", "x0", "x1")),
        "d": SpecialFunction("d", expr=d_expr),
        "g": SpecialFunction("g", expr=g_expr),
        "ghat": SpecialFunction("ghat", expr=ghat_expr),
        "h": SpecialFunction("h", expr=h_expr),
        "hhat": SpecialFunction("hhat", expr=hhat_expr),
        "Id": SpecialFunction("Id", native=lambda mp, z: mp.mpc(z)),
        "recip": SpecialFunction("recip", native=lambda mp, z: 1 / mp.mpc(z)),
        "arcth_sqrt": SpecialFunction(
            "arcth_sqrt", native=lambda mp, z: mp.atanh(mp.sqrt(mp.mpc(z)))
        ),
        "atan": SpecialFunction("atan", native=lambda mp, z: mp.atan(mp.mpc(z))),
        "BlochWigner": SpecialFunction("BlochWigner", native=bloch_wigner),
        "L3": SpecialFunction("L3", native=l3_single_valued),
    }
    return reg


_REGISTRY = _build_registry()


def special(name: str) -> SpecialFunction:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownName(f"unknown special function {name!r}") from None


def special_names():
    return sorted(_REGISTRY)


# two-variable right-hand sides -------------------------------------------


def rhs_function(name: str) -> Callable:
    if name in ("0", "zero", ""):
        return lambda mp, x, y: mp.mpf(0)
    if name == "R3":

        def r3(mp, x, y):
            ly = mp.log(y)
            return (
                2 * mp.zeta(3)
                - ly**2 * mp.log((1 - y) / (1 - x))
                + mp.pi**2 / 3 * ly
                + ly**3 / 3
            )

        return r3
    if name == "schaffer":
        return lambda mp, x, y: -mp.pi**2 / 6 + mp.log(y) * mp.log((1 - y) / (1 - x))
    raise UnknownName(f"unknown right-hand side {name!r}")


def cross_ratio(mp, a, b, c, d):
    """(a-c)(b-d) / ((a-d)(b-c)) with the projective conventions at oo."""
    inf = mp.inf

    def diff(u, v):
        if u == inf and v == inf:
            raise ZeroDivisionError("cross ratio of coincident points")
        if u == inf or v == inf:
            return None  # cancels against the matching factor
        return mp.mpc(u) - mp.mpc(v)

    ac, bd, ad, bc = diff(a, c), diff(b, d), diff(a, d), diff(b, c)
    # an infinite entry cancels pairwise: a=oo drops both ac and ad, etc.
    num = mp.mpc(1)
    den = mp.mpc(1)
    if ac is not None:
        num *= ac
    if bd is not None:
        num *= bd
    if ad is not None:
        den *= ad
    if bc is not None:
        den *= bc
    return num / den
