"""Numeric verification of abelian functional equations.

An AfeInstance bundles rational inner functions, per-slot components (word
expressions or named specials), integer multipliers, an optional right-hand
side and a sampling domain.  verify_afe_numeric draws seeded rational
samples, evaluates sum_i m_i comp_i(U_i(x, y)) - rhs(x, y) at the requested
precision and reports the residuals; constancy_check instead reports the
empirical constant of that difference and matches candidate closed forms.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import mpmath

from ..errors import EvaluationFailure, InvalidParameter, NotConstant, PlanarWebError, UnknownName
from ..parse import parse_ratfunc
from ..ratfunc import RatFunc
from .constants import SymConst
from .numeric import WordEvaluator, eval_expr
from .registry import SpecialFunction, rhs_function, special
from .words import HyperlogExpr, STANDARD


class AfeInstance:
    def __init__(
        self,
        inner: Sequence[RatFunc],
        components: Sequence[Union[str, SpecialFunction, HyperlogExpr]],
        multipliers: Sequence[int],
        rhs: Optional[str] = None,
        domain: str = "unit_order",
        name: Optional[str] = None,
    ):
        if not (len(inner) == len(components) == len(multipliers)):
            raise ValueError("inner/components/multipliers lengths differ")
        self.inner = list(inner)
        self.components: List[Union[SpecialFunction, HyperlogExpr]] = [
            special(c) if isinstance(c, str) else c for c in components
        ]
        self.multipliers = list(multipliers)
        self.rhs = rhs
        self.domain = domain
        self.name = name

    def word_pool(self):
        words = set()
        for c in self.components:
            expr = c.expr if isinstance(c, SpecialFunction) else c
            if expr is not None:
                words.update(expr.terms.keys())
        return sorted(words, key=lambda w: (len(w), w))


def _sample_domain(domain: str, rng: random.Random) -> Tuple[Fraction, Fraction]:
    den = 9973
    if domain == "unit_order":  # 0 < x < y < 1
        while True:
            a = Fraction(rng.randrange(1, den), den)
            b = Fraction(rng.randrange(1, den), den)
            if a == b:
                continue
            x, y = (a, b) if a < b else (b, a)
            return x, y
    if domain == "xy_lt_1":
        while True:
            x = Fraction(rng.randrange(-3 * den, 3 * den), 2 * den)
            y = Fraction(rng.randrange(-3 * den, 3 * den), 2 * den)
            if x * y < Fraction(19, 20) and x != 0 and y != 0:
                return x, y
    raise UnknownName(f"unknown sampling domain {domain!r}")


def _component_value(comp, mp, z, evaluator: Optional[WordEvaluator]):
    if isinstance(comp, SpecialFunction) and comp.expr is None:
        return comp.native(mp, z)
    expr = comp.expr if isinstance(comp, SpecialFunction) else comp
    return eval_expr(expr, z, evaluator=evaluator)


def _sample_values(instance: AfeInstance, samples: int, dps: int, seed: int, rhs=None):
    """The working context and, for each seeded sample (x, y), the value of
    sum_i m_i comp_i(U_i(x, y)), minus rhs(x, y) when rhs is given."""
    rng = random.Random(seed)
    words = instance.word_pool()
    evaluator = WordEvaluator(STANDARD, words, dps=dps) if words else None
    mp = evaluator.mp if evaluator else mpmath.mp.clone()
    if not evaluator:
        mp.dps = dps + 10
    out = []
    for _ in range(samples):
        x, y = _sample_domain(instance.domain, rng)
        total = mp.mpc(0)
        try:
            for u, comp, m in zip(instance.inner, instance.components, instance.multipliers):
                z = u.evaluate(x, y)
                zval = mp.mpf(z.numerator) / z.denominator
                total += m * _component_value(comp, mp, zval, evaluator)
            if rhs is not None:
                xv = mp.mpf(x.numerator) / x.denominator
                yv = mp.mpf(y.numerator) / y.denominator
                total -= rhs(mp, xv, yv)
        except Exception as exc:  # noqa: BLE001 - surfaced with the sample point
            raise EvaluationFailure(
                f"evaluation failed at ({x}, {y}): {exc}", point=(x, y)
            ) from exc
        out.append((x, y, total))
    return mp, out


def verify_afe_numeric(
    instance: AfeInstance,
    samples: int = 20,
    dps: int = 50,
    tolerance: Fraction = Fraction(1, 10**40),
    seed: int = 0,
) -> dict:
    """PASS iff |residual| < tolerance at every seeded sample."""
    rhs = rhs_function(instance.rhs) if instance.rhs else None
    mp, sampled = _sample_values(instance, samples, dps, seed, rhs)
    tol = mp.mpf(tolerance.numerator) / tolerance.denominator
    rows = []
    max_res = mp.mpf(0)
    for x, y, total in sampled:
        res = abs(total)
        max_res = max(max_res, res)
        rows.append({"x": str(x), "y": str(y), "residual": mpmath.nstr(res, 8)})
    return {
        "instance": instance.name,
        "samples": samples,
        "dps": dps,
        "tolerance": mpmath.nstr(tol, 5),
        "max_residual": mpmath.nstr(max_res, 8),
        "pass": bool(max_res < tol),
        "rows": rows,
    }


def constancy_check(
    instance: AfeInstance,
    samples: int = 12,
    dps: int = 50,
    candidates: Optional[Dict[str, SymConst]] = None,
    tolerance: Fraction = Fraction(1, 10**30),
    seed: int = 0,
) -> dict:
    """The left-hand side, minus the instance's rhs when it has one, must be
    constant across samples; the empirical constant is matched against the
    supplied candidate closed forms.  One sample cannot show a varying
    left-hand side, so at least two are needed."""
    if samples < 2:
        raise InvalidParameter(f"a constancy check needs at least 2 samples, got {samples}")
    rhs = rhs_function(instance.rhs) if instance.rhs else None
    mp, sampled = _sample_values(instance, samples, dps, seed, rhs)
    tol = mp.mpf(tolerance.numerator) / tolerance.denominator
    values = [total for _, _, total in sampled]
    mean = sum(values) / len(values)
    spread = max(abs(v - mean) for v in values)
    if spread > tol:
        raise NotConstant(
            f"left-hand side varies by {mpmath.nstr(spread, 8)} across samples"
        )
    best_name, best_res = None, None
    for cname, cval in (candidates or {}).items():
        res = abs(mean - cval.numeric(mp))
        if best_res is None or res < best_res:
            best_name, best_res = cname, res
    return {
        "instance": instance.name,
        "samples": samples,
        "dps": dps,
        "constant": mpmath.nstr(mean, dps),
        "spread": mpmath.nstr(spread, 8),
        "best_match": best_name,
        "best_residual": mpmath.nstr(best_res, 8) if best_res is not None else None,
        "matched": bool(best_res is not None and best_res < tol),
    }


def verify_five_term_bw(
    samples: int = 20, dps: int = 50, tolerance: Fraction = Fraction(1, 10**40), seed: int = 0
) -> dict:
    """Five-term relation of the Bloch-Wigner function over random complex
    5-tuples: sum_i (-1)^i D(cr(z_0, .., omit z_i, .., z_4)) = 0."""
    from .registry import cross_ratio, special

    rng = random.Random(seed)
    mp = mpmath.mp.clone()
    mp.dps = dps + 15
    bw = special("BlochWigner")
    tol = mp.mpf(tolerance.numerator) / tolerance.denominator
    max_res = mp.mpf(0)
    rows = []
    for _ in range(samples):
        pts = []
        while len(pts) < 5:
            z = mp.mpc(rng.randrange(-400, 400), rng.randrange(-400, 400)) / 100
            if all(abs(z - w) > mp.mpf("0.05") for w in pts):
                pts.append(z)
        total = mp.mpf(0)
        for i in range(5):
            rest = [pts[j] for j in range(5) if j != i]
            total += (-1) ** i * bw.native(mp, cross_ratio(mp, *rest))
        res = abs(total)
        max_res = max(max_res, res)
        rows.append({"residual": mpmath.nstr(res, 8)})
    return {
        "instance": "five-term-bloch-wigner",
        "samples": samples,
        "dps": dps,
        "max_residual": mpmath.nstr(max_res, 8),
        "pass": bool(max_res < tol),
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# .afe files
# ---------------------------------------------------------------------------


def parse_word_expr(text: str) -> HyperlogExpr:
    """Inline word-combination syntax for .afe component fields.

    Terms are separated by + and -; each term is an optional coefficient
    (rational and/or one of the constant symbols pi, pi2, log2, zeta3, ipi)
    followed by at most one bracketed word, e.g.

        {[x-1 x1] - [x0 x1] + log2*[x0] - 1/6*pi2}
    """
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    out = HyperlogExpr()
    sign = 1
    terms = []
    cur = ""
    inside = False
    for ch in body:
        if ch == "[":
            inside = True
        elif ch == "]":
            inside = False
        if ch in "+-" and not inside:
            if cur.strip():
                terms.append((sign, cur.strip()))
                sign = 1
            sign *= 1 if ch == "+" else -1
            cur = ""
        else:
            cur += ch
    if cur.strip():
        terms.append((sign, cur.strip()))

    names = {
        "pi": SymConst.monomial(pi=1),
        "pi2": SymConst.monomial(pi=2),
        "pi3": SymConst.monomial(pi=3),
        "log2": SymConst.monomial(log2=1),
        "zeta3": SymConst.monomial(zeta3=1),
        "ipi": SymConst.monomial(i=1, pi=1),
        "one": SymConst.rational(1),
    }
    for sgn, term in terms:
        coeff = SymConst.rational(sgn)
        word = None
        for factor in term.split("*"):
            factor = factor.strip()
            if not factor:
                continue
            if factor.startswith("["):
                if word is not None:
                    raise InvalidParameter(f"the term {term!r} multiplies two words")
                word = HyperlogExpr.word(factor[1:-1].split())  # letters outside the alphabet raise
            elif factor in names:
                coeff = coeff * names[factor]
            else:
                coeff = coeff * SymConst.rational(Fraction(factor))
        if word is None:
            out = out + HyperlogExpr.constant(coeff)
        else:
            out = out + word.scale(coeff)
    return out


def afe_from_text(text: str) -> AfeInstance:
    """The instance of a .afe file's text.  The names of its specials and
    letters, its domain and its rhs are checked here, before any sample is
    drawn; a malformed file, whatever the error, is an InvalidParameter
    that names the culprit line where there is one."""
    name = None
    domain = "unit_order"
    rhs = None
    inner, comps, mults = [], [], []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("name:"):
                name = line[5:].strip()
            elif line.startswith("domain:"):
                domain = line[7:].strip()
                if domain not in ("unit_order", "xy_lt_1"):  # the domains of _sample_domain
                    raise UnknownName(f"unknown sampling domain {domain!r}")
            elif line.startswith("rhs:"):
                rhs = line[4:].strip() or None
                if rhs:
                    rhs_function(rhs)
            elif line.startswith("component:"):
                first, rest = line[10:].split(None, 1)
                mult = int(first)
                if mult == 0:
                    raise InvalidParameter("multiplier 0: the component drops out of the sum")
                if rest.startswith("{"):
                    close = rest.index("}")
                    comp = parse_word_expr(rest[: close + 1])
                    if comp.is_zero():
                        raise InvalidParameter("the word combination is zero: the component drops out of the sum")
                    expr_text = rest[close + 1 :]
                else:
                    fn_name, expr_text = rest.split(None, 1)
                    comp = special(fn_name)
                inner.append(parse_ratfunc(expr_text.strip()))
                comps.append(comp)
                mults.append(mult)
            else:
                raise UnknownName("not a name:, domain:, rhs: or component: line")
        except (PlanarWebError, ValueError, ZeroDivisionError) as exc:
            raise InvalidParameter(f"bad afe line {line!r}: {type(exc).__name__}: {exc}") from None
    if not comps:
        raise InvalidParameter("the .afe file has no component: line")
    return AfeInstance(inner, comps, mults, rhs=rhs, domain=domain, name=name)


def load_afe(path) -> AfeInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return afe_from_text(fh.read())
