"""Abel's elimination method for abelian functional equations.

An Adfe is a linear combination sum_ij A_ij G_i^(j)(V_i) = 0 with rational
coefficient functions.  One elimination step normalizes by the pivot's top
coefficient and applies the derivation that kills the pivot's inner function
while moving the companion's at unit speed; the pivot's order drops and
every other unknown's order rises by one.  Iterating removes all unknowns
but the target and leaves a linear ODE whose coefficients, once the
remaining cross-dependence is differentiated away, are univariate in the
target's first integral.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    ConstantInput,
    DegeneratePair,
    NoRationalExpression,
    NotPurelyUnivariate,
    TrivialEquation,
    ZeroPivotCoefficient,
)
from .linalg import exact_nullspace
from .parse import format_ratfunc
from .poly import BivarPoly, poly_divmod_exact, poly_gcd
from .ratfunc import RatFunc, cleared_jacobian
from .web import Web


class DerivationField:
    """The vector field cx * d/dx + cy * d/dy with rational coefficients."""

    __slots__ = ("cx", "cy")

    def __init__(self, cx: RatFunc, cy: RatFunc):
        if cx.is_zero() and cy.is_zero():
            raise ValueError("zero derivation field")
        self.cx = cx
        self.cy = cy

    def apply(self, f: RatFunc) -> RatFunc:
        return self.cx * f.derivative("x") + self.cy * f.derivative("y")

    def scale(self, g: RatFunc) -> "DerivationField":
        return DerivationField(self.cx * g, self.cy * g)

    def __repr__(self):
        return f"DerivationField({self.cx}, {self.cy})"


def level_field(u: RatFunc) -> DerivationField:
    """(dU/dy) d/dx - (dU/dx) d/dy; annihilates U along its level curves."""
    if u.is_constant():
        raise ConstantInput("level field of a constant")
    return DerivationField(u.derivative("y"), -u.derivative("x"))


def normalized_derivation(v_pivot: RatFunc, v_companion: RatFunc) -> DerivationField:
    """Derivation Y with Y(v_pivot) = 0 and Y(v_companion) = 1."""
    x_field = level_field(v_pivot)
    speed = x_field.apply(v_companion)
    if speed.is_zero():
        raise DegeneratePair("pivot and companion define the same foliation")
    inv = speed.inverse()
    return DerivationField(x_field.cx * inv, x_field.cy * inv)


def depends_only_on(f: RatFunc, u: RatFunc) -> bool:
    """True iff f is constant along the level curves of u."""
    if u.is_constant():
        raise ConstantInput("dependence test against a constant")
    return cleared_jacobian(f, u).is_zero()


class Adfe:
    """Abelian differential functional equation with rational coefficients.

    coeffs maps (unknown index, derivative order) to nonzero RatFunc; the
    unknown indices refer to the `inner` list (0-based).  The true type is
    recomputed from the stored coefficients.
    """

    def __init__(self, inner: Sequence[RatFunc], coeffs: Dict[Tuple[int, int], RatFunc]):
        self.inner = list(inner)
        self.coeffs = {k: v for k, v in coeffs.items() if not v.is_zero()}

    @staticmethod
    def from_web(web: Web) -> "Adfe":
        return Adfe(web.integrals(), {(i, 0): RatFunc.const(1) for i in range(web.size)})

    def active_unknowns(self) -> List[int]:
        return sorted({i for (i, _) in self.coeffs})

    def order_of(self, i: int) -> int:
        orders = [j for (k, j) in self.coeffs if k == i]
        return max(orders) if orders else -1

    def type_vector(self) -> Dict[int, int]:
        return {i: self.order_of(i) for i in self.active_unknowns()}

    def normalized_by_common_denominator(self) -> "Adfe":
        """Scale the equation so all coefficients are polynomial with trivial
        common content (controls coefficient blow-up between steps)."""
        if not self.coeffs:
            return self
        den = BivarPoly.const(1)
        for c in self.coeffs.values():
            g = poly_gcd(den, c.den)
            ok, q = poly_divmod_exact(c.den, g)
            assert ok
            den = den * q
        scaled = {k: RatFunc(c.num * _exact_quot(den, c.den), BivarPoly.const(1)) for k, c in self.coeffs.items()}
        common = BivarPoly.zero()
        for c in scaled.values():
            common = poly_gcd(common, c.num)
        if not common.is_constant():
            scaled = {
                k: RatFunc(_exact_quot(c.num, common), BivarPoly.const(1))
                for k, c in scaled.items()
            }
        return Adfe(self.inner, scaled)

    def __repr__(self):
        tv = self.type_vector()
        return f"Adfe(type={{{', '.join(f'{i + 1}:{m}' for i, m in tv.items())}}})"


def _exact_quot(a: BivarPoly, b: BivarPoly) -> BivarPoly:
    ok, q = poly_divmod_exact(a, b)
    if not ok:
        raise ValueError("inexact division in Adfe normalization")
    return q


def reduce_step(eq: Adfe, pivot: int, companion: int) -> Adfe:
    """One elimination step: normalize by the pivot's top coefficient, apply
    the derivation fixing the pivot's levels, collect by the product rule.

    The pivot's order strictly drops (the unknown disappears when it was at
    order zero, or when its lower coefficients all cancel); every other
    active unknown's order rises by exactly one."""
    if pivot == companion:
        raise DegeneratePair("pivot and companion must differ")
    m_p = eq.order_of(pivot)
    if m_p < 0:
        raise ZeroPivotCoefficient(f"unknown {pivot + 1} is absent from the equation")
    top = eq.coeffs.get((pivot, m_p))
    if top is None or top.is_zero():
        raise ZeroPivotCoefficient("pivot top coefficient is zero")
    y_der = normalized_derivation(eq.inner[pivot], eq.inner[companion])
    # derivative of each inner function along Y (Y(V_pivot) = 0 exactly)
    speeds = {}
    for i in eq.active_unknowns():
        speeds[i] = y_der.apply(eq.inner[i])
    new_coeffs: Dict[Tuple[int, int], RatFunc] = {}

    def add(key, val: RatFunc):
        if val.is_zero():
            return
        if key in new_coeffs:
            s = new_coeffs[key] + val
            if s.is_zero():
                del new_coeffs[key]
            else:
                new_coeffs[key] = s
        else:
            new_coeffs[key] = val

    for (i, j), a in eq.coeffs.items():
        b = a / top
        if i == pivot and j == m_p:
            continue  # becomes the constant 1; killed by the derivation
        add((i, j), y_der.apply(b))
        add((i, j + 1), b * speeds[i])
    return Adfe(eq.inner, new_coeffs).normalized_by_common_denominator()


class UnivarODE:
    """Linear ODE sum_j c_j(v) g^(j)(v) = 0 with monic top coefficient."""

    def __init__(self, variable: str, coeffs: Sequence[RatFunc], trace: Optional[List[dict]] = None):
        self.variable = variable
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        if len(coeffs) < 2:
            raise ValueError("an ODE needs order >= 1")
        lead = coeffs[-1]
        self.coeffs = [c / lead for c in coeffs]
        self.order = len(self.coeffs) - 1
        self.derivation_trace = trace or []

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


def reexpress(f: RatFunc, u: RatFunc, degree_bound: int) -> RatFunc:
    """Find a univariate rational g with g(u) = f, by exact linear algebra on
    P(u) den_f - Q(u) num_f = 0.  The result uses the variable x."""
    if not depends_only_on(f, u):
        raise NoRationalExpression("f is not constant on the level curves of u")
    if f.is_constant():
        return RatFunc.const(f.constant_value())
    d = max(degree_bound, 1)
    for _ in range(3):
        sol = _reexpress_attempt(f, u, d)
        if sol is not None:
            return sol
        d *= 2
    raise NoRationalExpression(
        f"no rational expression of degree <= {d // 2} (f may be algebraic in u)"
    )


def _reexpress_attempt(f: RatFunc, u: RatFunc, d: int) -> Optional[RatFunc]:
    un, ud = u.num, u.den
    # powers u^k cleared by ud^d
    pows = [BivarPoly.const(1)]
    for _ in range(d):
        pows.append(pows[-1] * un)
    clear = [BivarPoly.const(1)]
    for _ in range(d):
        clear.append(clear[-1] * ud)
    lifted = [pows[k] * clear[d - k] for k in range(d + 1)]
    # unknowns p_0..p_d, q_0..q_d:  sum p_k L_k * den_f - sum q_k L_k * num_f = 0
    cols: List[BivarPoly] = [lk * f.den for lk in lifted] + [-(lk * f.num) for lk in lifted]
    monomials = sorted({e for col in cols for e in col.terms})
    matrix = [[col.terms.get(e, Fraction(0)) for col in cols] for e in monomials]
    kern = exact_nullspace(matrix, n_cols=len(cols))
    for vec in kern.basis:
        p = BivarPoly({(k, 0): vec[k] for k in range(d + 1) if vec[k]})
        q = BivarPoly({(k, 0): vec[d + 1 + k] for k in range(d + 1) if vec[d + 1 + k]})
        if q.is_zero():
            continue
        g = RatFunc(p, q)
        # symbolic verification g(u) == f
        if g.substitute(u, RatFunc.var("y")) == f:
            return g
    return None


def derive_lde(web: Web, target: int, companion_policy: Optional[Sequence[int]] = None) -> UnivarODE:
    """Eliminate all unknowns but `target` (1-based) and return the linear
    ODE satisfied by that component of every local solution.

    Elimination order: ascending index, pivot = lowest active non-target,
    companion = target (overridable per step via companion_policy).  After
    elimination the one-unknown equation is repeatedly differentiated in the
    transverse direction until every coefficient depends on the target's
    integral alone, then re-expressed univariately.
    """
    if not 1 <= target <= web.size:
        raise ValueError("target out of range")
    t = target - 1
    eq = Adfe.from_web(web)
    trace: List[dict] = []
    step_no = 0
    while True:
        actives = eq.active_unknowns()
        others = [i for i in actives if i != t]
        if not others:
            break
        if t not in actives:
            raise TrivialEquation(
                "the target unknown dropped out during elimination"
            )
        pivot = others[0]
        companion = t
        if companion_policy is not None and step_no < len(companion_policy):
            companion = companion_policy[step_no] - 1
        eq = reduce_step(eq, pivot, companion)
        step_no += 1
        trace.append(
            {
                "step": step_no,
                "kind": "eliminate",
                "pivot": pivot + 1,
                "companion": companion + 1,
                "type": {i + 1: m for i, m in eq.type_vector().items()},
            }
        )
    return _finish_one_unknown(eq, t, web, trace)


def _finish_one_unknown(eq: Adfe, t: int, web: Web, trace: List[dict]) -> UnivarODE:
    v_t = eq.inner[t]
    # transverse coordinate: lowest-index other inner function
    u_idx = next(i for i in range(len(eq.inner)) if i != t)
    z_der = normalized_derivation(v_t, eq.inner[u_idx])

    while True:
        if not eq.coeffs:
            raise TrivialEquation("the equation vanished identically")
        order = eq.order_of(t)
        if order <= 0:
            raise TrivialEquation(
                "reduction bottomed out: only the zero solution survives"
                if order == 0
                else "empty equation"
            )
        top = eq.coeffs[(t, order)]
        normalized = {k: c / top for k, c in eq.coeffs.items()}
        bad = [j for (i, j), c in normalized.items() if not depends_only_on(c, v_t)]
        if not bad:
            if order == 1 and all(
                c.is_zero() for (i, j), c in normalized.items() if j == 0
            ):
                raise TrivialEquation("only constant solutions (generic case)")
            coeffs = [RatFunc.const(0)] * (order + 1)
            for (i, j), c in normalized.items():
                coeffs[j] = _to_univar(c, v_t, web)
            return UnivarODE("v", coeffs, trace)
        # Corollary-style transverse differentiation: the monic top dies and
        # the order strictly drops
        new_coeffs: Dict[Tuple[int, int], RatFunc] = {}
        for (i, j), c in normalized.items():
            if j == order:
                continue
            dc = z_der.apply(c)
            if not dc.is_zero():
                new_coeffs[(i, j)] = dc
        eq = Adfe(eq.inner, new_coeffs).normalized_by_common_denominator()
        trace.append(
            {
                "step": len(trace) + 1,
                "kind": "transverse-differentiate",
                "coordinate": u_idx + 1,
                "type": {i + 1: m for i, m in eq.type_vector().items()},
            }
        )


def _to_univar(c: RatFunc, v_t: RatFunc, web: Web) -> RatFunc:
    if c.is_constant():
        return RatFunc.const(c.constant_value())
    bound = 2 * max(
        c.num.total_degree(),
        c.den.total_degree(),
        v_t.num.total_degree(),
        v_t.den.total_degree(),
        1,
    )
    try:
        return reexpress(c, v_t, bound)
    except NoRationalExpression as exc:
        raise NotPurelyUnivariate(
            f"coefficient {c} is not rational in the target integral", equation=c
        ) from exc


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
