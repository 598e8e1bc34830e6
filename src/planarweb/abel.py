"""Abel's elimination method for abelian functional equations.

An Adfe is a linear combination sum_ij A_ij G_i^(j)(V_i) = 0 with polynomial
coefficients, stored divided by their gcd: one representative up to a constant.

An elimination step divides the equation by the pivot's top coefficient,
applies the level field X = den^2 (V_y d/dx - V_x d/dy) of the pivot's inner
function V = num/den, the rotated gradient its Foliation keeps, and clears
denominators: the top term dies, the pivot's order drops and every other
unknown's order rises by one.  Using h X for a nonzero function h only
multiplies the result by h, which the gcd removes, so X needs no
normalization (such as unit speed along another unknown's integral) and no
rational function is formed during elimination.

The target's transverse differentiation is the same step with the target as
pivot, once it is the only unknown left.  When that step leaves nothing, every
ratio A_j / A_top depends on the target's integral U alone; only those ratios
become rational functions, each re-expressed as g(U) by one exact solve at a
degree proven from deg A_j / A_top and deg U (`reexpress`).  So a ratio that
finds no g is proven not rational in U, not merely missed by a search.
"""

from __future__ import annotations

from collections import defaultdict
from math import gcd
from typing import Dict, List, Sequence, Tuple

from .errors import (
    NoRationalExpression,
    NotPurelyUnivariate,
    TrivialEquation,
    ZeroPivotCoefficient,
)
from .linalg import exact_nullspace
from .parse import format_ratfunc
from .poly import BivarPoly, poly_gcd_cofactors, poly_quo
from .ratfunc import RatFunc, cleared_gradient, wedge
from .web import Foliation, Web

Field = Tuple[BivarPoly, BivarPoly]


def level_field(f: Foliation) -> Field:
    """The polynomial field den^2 (dU/dy d/dx - dU/dx d/dy) of the
    foliation's integral U = num/den, as its (d/dx, d/dy) components: the
    cleared gradient (g_x, g_y) the foliation keeps, rotated to (g_y, -g_x).
    It annihilates U along its level curves."""
    gx, gy = f.gradient
    return gy, -gx


def _apply(field: Field, p: BivarPoly) -> BivarPoly:
    return field[0] * p.diff("x") + field[1] * p.diff("y")


def _coprime(p: BivarPoly, q: BivarPoly) -> Tuple[BivarPoly, BivarPoly]:
    """p / h and q / h for h = gcd(p, q)."""
    return poly_gcd_cofactors(p, q)[1:]


def _speed(field: Field, v: RatFunc) -> Tuple[BivarPoly, BivarPoly]:
    """X(v) as a reduced (numerator, denominator) pair."""
    return _coprime(_apply(field, v.num) * v.den - v.num * _apply(field, v.den), v.den * v.den)


def depends_only_on(f: RatFunc, u: Foliation) -> bool:
    """True iff f is constant along the leaves of u: the wedge of f's
    cleared gradient with the one u keeps vanishes."""
    return wedge(cleared_gradient(f), u.gradient).is_zero()


class Adfe:
    """Abelian differential functional equation with polynomial coefficients.

    coeffs maps (unknown index, derivative order) to a nonzero BivarPoly; the
    unknown indices refer to the `foliations` list (0-based), whose integrals
    are the inner functions `inner` and whose gradients give the level
    fields.  The coefficients are stored divided by their gcd and by the
    integer content of all of them; the gcd is primitive, so dividing by it
    leaves the contents as they were (Gauss's lemma).
    """

    def __init__(self, foliations: Sequence[Foliation], coeffs: Dict[Tuple[int, int], BivarPoly]):
        self.foliations = list(foliations)
        self.inner = [f.integral for f in self.foliations]
        coeffs = {k: c for k, c in coeffs.items() if not c.is_zero()}
        # quotients by the running gcd g, from the cofactors of each gcd step
        g, quotients = BivarPoly.zero(), []
        for c in coeffs.values():
            g, a, b = poly_gcd_cofactors(g, c)
            if a != BivarPoly.const(1):
                quotients = [q * a for q in quotients]
            quotients.append(b)
        content = BivarPoly.const(gcd(*(v for q in quotients for v in q.terms.values())))
        self.coeffs = {k: poly_quo(q, content) for k, q in zip(coeffs, quotients)}

    @staticmethod
    def from_web(web: Web) -> "Adfe":
        return Adfe(web.foliations, {(i, 0): BivarPoly.const(1) for i in range(web.size)})

    def active_unknowns(self) -> List[int]:
        return sorted({i for (i, _) in self.coeffs})

    def order_of(self, i: int) -> int:
        orders = [j for (k, j) in self.coeffs if k == i]
        return max(orders) if orders else -1

    def type_vector(self) -> Dict[int, int]:
        return {i: self.order_of(i) for i in self.active_unknowns()}

    def __repr__(self):
        tv = self.type_vector()
        return f"Adfe(type={{{', '.join(f'{i + 1}:{m}' for i, m in tv.items())}}})"


def reduce_step(eq: Adfe, pivot: int) -> Adfe:
    """One elimination step along the level field X of the pivot's inner
    function.  With top the pivot's top coefficient, h = gcd(top, X(top)),
    t = top / h, s = X(top) / h and L the lcm of the denominators of the
    speeds X(V_i), the new equation is t top L X(eq / top): a term a G_i^(j)
    gives L (t X(a) - a s) at (i, j) and a t L X(V_i) at (i, j + 1), both
    zero for the pivot's top term.  Dividing by h first drops the factors of
    top that X keeps, which keeps the products small.

    The pivot's order strictly drops (the unknown disappears when it was at
    order zero, or when its lower coefficients all cancel); every other
    active unknown's order rises by exactly one.  When the pivot is the only
    unknown, X(V_pivot) = 0 and L is a positive constant: the step maps each
    a to t X(a) - a s, and it leaves nothing iff every a / top depends on
    V_pivot alone."""
    m_p = eq.order_of(pivot)
    if m_p < 0:
        raise ZeroPivotCoefficient(f"unknown {pivot + 1} is absent from the equation")
    top = eq.coeffs[(pivot, m_p)]
    field = level_field(eq.foliations[pivot])
    t, s = _coprime(top, _apply(field, top))
    speeds = {i: _speed(field, eq.inner[i]) for i in eq.active_unknowns()}
    lcm_den = BivarPoly.const(1)
    for _, den in speeds.values():
        lcm_den = lcm_den * poly_gcd_cofactors(lcm_den, den)[2]
    # t L X(V_i), a polynomial; zero for the pivot
    raised = {i: t * num * poly_quo(lcm_den, den) for i, (num, den) in speeds.items()}
    new_coeffs: Dict[Tuple[int, int], BivarPoly] = defaultdict(BivarPoly)
    for (i, j), a in eq.coeffs.items():
        new_coeffs[(i, j)] += lcm_den * (t * _apply(field, a) - a * s)
        new_coeffs[(i, j + 1)] += a * raised[i]
    return Adfe(eq.foliations, new_coeffs)


class UnivarODE:
    """Linear ODE sum_j c_j(v) g^(j)(v) = 0, its coefficients c_0..c_order
    with c_order = 1."""

    def __init__(self, variable: str, coeffs: Sequence[RatFunc], trace: List[dict]):
        self.variable = variable
        self.coeffs = list(coeffs)
        self.order = len(self.coeffs) - 1
        self.derivation_trace = trace

    def coefficient_strings(self) -> List[str]:
        return [format_ratfunc(c, (self.variable, "_")) for c in self.coeffs]

    def __repr__(self):
        terms = []
        for j in range(self.order, 0, -1):
            c = self.coeffs[j]
            if c.is_zero():
                continue
            cs = format_ratfunc(c, (self.variable, "_"))
            terms.append(f"({cs})*g^({j})")
        if not self.coeffs[0].is_zero():
            terms.append(f"({format_ratfunc(self.coeffs[0], (self.variable, '_'))})*g")
        return " + ".join(terms) + " = 0"


def reexpress(f: RatFunc, u: Foliation) -> RatFunc:
    """The univariate rational g, in the variable x, with g(U) = f for U the
    integral of u, from one exact solve at the degree d = max(deg f.num,
    deg f.den) // e, e = max(deg U.num, deg U.den) >= 1.

    The degree is proven.  Both pairs are coprime, so on a generic line
    (off their finitely many common zeros, in a direction where every
    polynomial keeps its total degree) U restricts to a map P^1 -> P^1 of
    degree e and f to one of degree max(deg f.num, deg f.den).  Degrees of
    rational maps multiply under composition, so f = g(U) gives
    deg g = max(deg f) / e <= d.

    The solve is a certificate.  The unknowns are the coefficients of P and
    Q, of degree <= d, in P(U) den_f - Q(U) num_f = 0 cleared by U.den^d.
    U is not constant, so P(U) = 0 only for P = 0: every nonzero kernel
    vector has Q != 0 and P(U) / Q(U) = f, hence P / Q = g.  So the kernel
    is empty iff f is not rational in U, and then NoRationalExpression is a
    proof, not a failed search."""
    if not depends_only_on(f, u):
        raise NoRationalExpression("f is not constant on the level curves of u")
    un, ud = u.integral.num, u.integral.den
    e = max(un.total_degree(), ud.total_degree())
    d = max(f.num.total_degree(), f.den.total_degree()) // e
    # U^k cleared by ud^d: un^k ud^(d-k)
    pows, clear = [BivarPoly.const(1)], [BivarPoly.const(1)]
    for _ in range(d):
        pows.append(pows[-1] * un)
        clear.append(clear[-1] * ud)
    lifted = [pows[k] * clear[d - k] for k in range(d + 1)]
    # unknowns p_0..p_d, q_0..q_d:  sum p_k L_k * den_f - sum q_k L_k * num_f = 0
    cols: List[BivarPoly] = [lk * f.den for lk in lifted] + [-(lk * f.num) for lk in lifted]
    monomials = sorted({m for col in cols for m in col.terms})
    matrix = [[col.terms.get(m, 0) for col in cols] for m in monomials]
    kern = exact_nullspace(matrix, n_cols=len(cols))
    if not kern.basis:
        raise NoRationalExpression(f"f is not rational in u: no g of degree <= {d} (deg f // deg U)")
    vec = kern.basis[0]
    p = BivarPoly({(k, 0): vec[k] for k in range(d + 1)})
    q = BivarPoly({(k, 0): vec[d + 1 + k] for k in range(d + 1)})
    g = RatFunc(p, q)
    if g.substitute(u.integral, RatFunc.var("y")) != f:
        raise AssertionError(f"re-expressed {g} does not give back {f}")
    return g


def derive_lde(web: Web, target: int) -> UnivarODE:
    """Eliminate all unknowns but `target` (1-based) and return the linear
    ODE satisfied by that component of every local solution.

    Every step is `reduce_step`.  The pivot is the lowest active non-target,
    and the target itself once it is alone: that step differentiates along
    the target's level field.  When it leaves nothing, each ratio
    A_j / A_top is re-expressed as g(U) for the target's integral U by
    `reexpress`, so the ODE is monic of order >= 1; NotPurelyUnivariate
    certifies that a ratio is not rational in U.
    """
    if not 1 <= target <= web.size:
        raise ValueError("target out of range")
    t = target - 1
    eq = Adfe.from_web(web)
    trace: List[dict] = []
    while True:
        actives = eq.active_unknowns()
        if not actives:
            raise TrivialEquation("the equation vanished identically")
        if t not in actives:
            raise TrivialEquation("the target unknown dropped out during elimination")
        pivot = next((i for i in actives if i != t), t)
        if pivot == t and eq.order_of(t) == 0:
            raise TrivialEquation("reduction bottomed out: only the zero solution survives")
        step = reduce_step(eq, pivot)
        if pivot == t and not step.coeffs:
            break
        eq = step
        # the target's own step is Corollary-style transverse differentiation
        kind = {"kind": "transverse-differentiate"} if pivot == t else {"kind": "eliminate", "pivot": pivot + 1}
        trace.append({"step": len(trace) + 1, **kind, "type": {i + 1: m for i, m in eq.type_vector().items()}})
    order = eq.order_of(t)
    if order == 1 and (t, 0) not in eq.coeffs:
        raise TrivialEquation("only constant solutions (generic case)")
    top = eq.coeffs[(t, order)]
    coeffs = [RatFunc.const(0)] * (order + 1)
    for (_, j), c in eq.coeffs.items():
        ratio = RatFunc(c, top)
        try:
            coeffs[j] = reexpress(ratio, eq.foliations[t])
        except NoRationalExpression as exc:
            raise NotPurelyUnivariate(
                f"coefficient {ratio} is not rational in the target integral", equation=ratio
            ) from exc
    return UnivarODE("v", coeffs, trace)


def genericity_certificate(web: Web) -> dict:
    """Run the reduction for every target; GENERIC means each component of
    every local solution was forced to be constant."""
    verdicts = []
    generic = True
    for i in range(1, web.size + 1):
        try:
            ode = derive_lde(web, i)
            verdicts.append({"target": i, "result": "ode", "order": ode.order})
            generic = False
        except TrivialEquation as exc:
            verdicts.append({"target": i, "result": "trivial", "detail": str(exc)})
        except NotPurelyUnivariate as exc:
            verdicts.append({"target": i, "result": "not-univariate", "detail": str(exc)})
            generic = False
    return {
        "web": web.name,
        "verdict": "GENERIC" if generic else "NOT-CERTIFIED",
        "targets": verdicts,
    }
