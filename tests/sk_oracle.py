"""Independent oracle for the single-unknown trilogarithm pattern.

Works from the printed 28 non-constant solution tuples of the nine-term
equation (components transcribed up to additive constants).  Components are
turned into high-precision jets at their slot values via exact symbolic
differentiation of the word expressions; the fifth slot, whose inner
function is taken in the everywhere-below-1 form, is reconstructed from the
other eight through the solution property (the tuple determines it).

The pattern dimension is the corank of the shared-value jet conditions on
the 28 coefficients; the characterization dimension additionally quotients
by the span of combinations supported on proper sub-equations.  Everything
is numeric-rank arithmetic at two precisions with a wide threshold window,
so the integer outputs are robust.

The powers (U_i - U_i(base))^k, k = 0..K, depend only on the slot and the
order: they are expanded once per oracle, exactly, by exact_oracle.taylor, and
each coefficient is converted to mpc once.  A component's bivariate jet is
then one linear combination of its slot's powers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import mpmath

from planarweb.hyperlog.calculus import PrefactoredExpr
from planarweb.hyperlog.constants import SymConst
from planarweb.hyperlog.numeric import WordEvaluator
from planarweb.hyperlog.words import HyperlogExpr, STANDARD
from planarweb.parse import parse_ratfunc

from exact_oracle import SeriesJet, taylor


def _w(*letters):
    return HyperlogExpr.word(letters)


def _mono(**kw):
    return SymConst.monomial(**kw)


L0 = _w("x0")
L1 = _w("x1")
L00 = _w("x0", "x0")
L01 = _w("x0", "x1")
L10 = _w("x1", "x0")
L001 = _w("x0", "x0", "x1")
L010 = _w("x0", "x1", "x0")
L100 = _w("x1", "x0", "x0")
IPI = _mono(i=1, pi=1)
PI2 = _mono(pi=2)

D_PAPER = L01 - L10
G_PAPER = L001.scale(2) - L010 - L100
GHAT = G_PAPER + L01.scale(IPI) - L10.scale(_mono(i=1, pi=1, coeff=4)) - L1.scale(PI2)
H_PAPER = L001 - L100
HHAT = H_PAPER - L01.scale(IPI) + L10.scale(_mono(i=1, pi=1, coeff=2)) + L1.scale(
    _mono(pi=2, coeff=Fraction(1, 2))
)

ZERO = HyperlogExpr()

# natives are tagged by name; word expressions stand for themselves
ID, IV, ATH = "Id", "Iv", "arcth_sqrt"

# printed non-constant solution tuples, slot 5 omitted (reconstructed);
# additive constants dropped throughout
SK_BASIS = [
    (L0, -L0, -L0, ZERO, ZERO, ZERO, ZERO, ZERO),
    (L0 + L1, ZERO, -(L0 + L1), L1, ZERO, ZERO, ZERO, ZERO),
    # the printed second entry L1 contradicts the five-term embedding (the
    # Rogers Delta_3 it restricts to); the sign below makes it a solution
    (L1, -L1, ZERO, -L0, ZERO, ZERO, ZERO, ZERO),
    (ZERO, ZERO, L0, L0, ZERO, ZERO, ZERO, ZERO),          # slot5: -L0
    (L1, ZERO, -L1, ZERO, ZERO, ZERO, ZERO, ZERO),          # slot5: +L1
    (L0, L0, ZERO, ZERO, -L0, ZERO, ZERO, ZERO),
    (L0, ZERO, ZERO, L0, ZERO, -L0, ZERO, ZERO),
    (IV, ZERO, ZERO, ZERO, ZERO, IV, ZERO, ZERO),           # slot5: Iv
    (L1, ZERO, ZERO, ZERO, -L1, L1, ZERO, ZERO),
    (ZERO, ID, ZERO, ID, ZERO, ID, ZERO, ZERO),
    (ZERO, ZERO, ZERO, ZERO, L0, -L0, L0, ZERO),
    (ZERO, L0, ZERO, ZERO, ZERO, L1, -L1, ZERO),
    (ZERO, ZERO, ZERO, ZERO, ZERO, L0, L0, -L0),
    (ZERO, ZERO, ZERO, ZERO, ZERO, L1, ZERO, -L1),          # slot5: L1
    (ZERO, IV, ZERO, ZERO, ZERO, ZERO, ID, ZERO),           # slot5: Id
    (ID, ZERO, ZERO, IV, ZERO, ZERO, IV, ZERO),
    (ZERO, ZERO, ATH, ZERO, [-1, ATH], ZERO, ZERO, [-1, ATH]),
    (L00.scale(2), L00.scale(2), -L00, ZERO, -L00, ZERO, ZERO, ZERO),
    (ZERO, ZERO, ZERO, ZERO, L00, L00.scale(-2), L00.scale(-2),
     L00 + L0.scale(_mono(i=1, pi=1, coeff=4))),
    (ZERO, ZERO, L00, L00.scale(-2), ZERO, ZERO, ZERO, L00),  # slot5: -2 L00
    (D_PAPER, -D_PAPER, -D_PAPER, -D_PAPER, ZERO, ZERO, ZERO, ZERO),  # slot5: d
    (D_PAPER, D_PAPER - L0.scale(_mono(i=1, pi=1, coeff=Fraction(1, 2))), ZERO, ZERO,
     -D_PAPER, D_PAPER, -D_PAPER, ZERO),
    (ZERO, ZERO, ZERO, D_PAPER - L0.scale(_mono(i=1, pi=1, coeff=Fraction(1, 2))),
     ZERO, D_PAPER,
     D_PAPER + L0.scale(_mono(i=1, pi=1, coeff=Fraction(1, 2))) + L1.scale(IPI),
     -D_PAPER),                                             # slot5: d
    (L01, L01, ZERO, L00, -L01, L01, -L01 - L00 + L0.scale(IPI), ZERO),
    (ZERO, L00, ZERO, L01, ZERO, L01, L01, -L01),           # slot5: L01
    (L01.scale(2), ZERO, -L01, ZERO, -L01, L01.scale(2), ZERO, -L01),  # slot5: 2 L01
    (G_PAPER.scale(2), G_PAPER.scale(2), -G_PAPER, G_PAPER.scale(2), -G_PAPER,
     GHAT.scale(2), GHAT.scale(2), -G_PAPER),               # slot5: 2 g
    (H_PAPER.scale(2), H_PAPER.scale(2) - L0.scale(_mono(pi=2, coeff=Fraction(2, 3))),
     -H_PAPER, H_PAPER.scale(2), -H_PAPER,
     HHAT.scale(2), HHAT.scale(2), -H_PAPER),               # slot5: 2 h
]

SK_INNER_D = [
    "x", "y", "x/y", "(1-y)/(1-x)", "x*(1-y)/(y*(1-x))",
    "x*y", "x*(1-y)/(x-1)", "(1-y)/(y*(x-1))", "x*(1-y)^2/(y*(1-x)^2)",
]
MULTIPLIERS = [2, 2, -1, 2, 2, -1, 2, 2, -1]
BASE = (Fraction(1, 3), Fraction(1, 2))


class SkOracle:
    def __init__(self, dps: int = 60, order: int = 10):
        self.dps = dps
        self.order = order
        words = []
        for wt in (1, 2, 3):
            words += [tuple(w) for w in product(["x0", "x1", "x-1"], repeat=wt)]
        self.ev = WordEvaluator(STANDARD, words, dps=dps)
        self.mp = self.ev.mp
        self.inner = [parse_ratfunc(s) for s in SK_INNER_D]
        self.values = [u.evaluate(*BASE) for u in self.inner]
        self.powers = [self._slot_powers(u) for u in self.inner]
        self._vecs = None
        self._value_cache = {}
        self._chain_cache = {}
        self._jet_cache = {}
        self._repair = None

    def _slot_powers(self, u):
        """[v^0, .., v^K] for v = u - u(base), as dicts of mpc coefficients
        keyed by the monomial exponents at the base point."""
        K, mp = self.order, self.mp
        jet = taylor(u, BASE, K)
        v = SeriesJet(BASE, K, {e: c for e, c in jet.coeffs.items() if e != (0, 0)})
        exact = [SeriesJet(BASE, K, {(0, 0): Fraction(1)})]
        for _ in range(K):
            exact.append(exact[-1] * v)
        return [{e: mp.mpc(mp.mpf(c.numerator) / c.denominator) for e, c in p.coeffs.items()} for p in exact]

    # -- jets of components ------------------------------------------------

    def _word_values(self, value: Fraction):
        if value not in self._value_cache:
            self._value_cache[value] = self.ev.value_vector(value)
        return self._value_cache[value]

    def _derivative_chain(self, expr):
        key = _expr_key(expr)
        if key not in self._chain_cache:
            chain = [PrefactoredExpr.from_hyperlog(expr)]
            for _ in range(self.order):
                chain.append(chain[-1].derivative())
            self._chain_cache[key] = chain
        return self._chain_cache[key]

    def expr_jet(self, expr, value: Fraction):
        """[f(v), f'(v)/1!, .., f^(K)(v)/K!] of a word expression."""
        cache_key = (_expr_key(expr), value)
        if cache_key in self._jet_cache:
            return self._jet_cache[cache_key]
        mp = self.mp
        vals = self._word_values(value)
        chain = self._derivative_chain(expr)
        out = []
        fact = 1
        for k in range(self.order + 1):
            if k:
                fact *= k
            total = mp.mpc(0)
            for w, slot in chain[k].terms.items():
                for monoc, r in slot.items():
                    pref = SymConst({monoc: Fraction(1)}).numeric(mp) * _ratval(r, value, mp)
                    total += pref * vals[w]
            out.append(total / fact)
        self._jet_cache[cache_key] = out
        return out

    def native_jet(self, name: str, value: Fraction):
        mp = self.mp
        v = mp.mpf(value.numerator) / value.denominator
        if name == ID:
            return [v, mp.mpf(1)] + [mp.mpf(0)] * (self.order - 1)
        if name == IV:
            out = [1 / v]
            for k in range(1, self.order + 1):
                out.append((-1) ** k / v ** (k + 1))
            return out
        if name == ATH:
            # g'(t) = 1/(2 sqrt(t) (1-t)): series of 1/sqrt(v+s) times the
            # geometric series of 1/(1-v-s), integrated termwise
            K = self.order
            inv_sqrt = [1 / mp.sqrt(v)]
            for k in range(1, K):
                inv_sqrt.append(inv_sqrt[-1] * (-mp.mpf(2 * k - 1) / (2 * k)) / v)
            geo = [1 / (1 - v)]
            for k in range(1, K):
                geo.append(geo[-1] / (1 - v))
            out = [mp.atanh(mp.sqrt(v))]
            for k in range(1, K + 1):
                c = sum(inv_sqrt[m] * geo[k - 1 - m] for m in range(k)) / 2
                out.append(c / k)
            return out
        raise ValueError(name)

    def component_jet(self, comp, value: Fraction):
        if isinstance(comp, str):
            return self.native_jet(comp, value)
        if isinstance(comp, list):  # [scalar, native-name]
            scale, name = comp
            return [scale * c for c in self.native_jet(name, value)]
        return self.expr_jet(comp, value)

    # -- slot-5 reconstruction ----------------------------------------------

    def tuple_jets(self, element):
        """Jets (k = 1..order) of all nine components at their slot values;
        the fifth is reconstructed from the solution property."""
        mp = self.mp
        K = self.order
        jets = {}
        for idx9, comp in zip((0, 1, 2, 3, 5, 6, 7, 8), element):
            if comp is ZERO or (isinstance(comp, HyperlogExpr) and comp.is_zero()):
                jets[idx9] = [mp.mpc(0)] * (K + 1)
            else:
                jets[idx9] = self.component_jet(comp, self.values[idx9])
        return self._with_fifth_slot(jets, "slot-5 reconstruction leftover {}; bad basis element?")

    def _with_fifth_slot(self, jets, failure):
        """jets with the fifth slot's jet added: it solves F5(u5) = -(the
        composite of the other eight), with u5 = U5 - U5(base); AssertionError
        with the message `failure` when the solve leaves a defect."""
        mp = self.mp
        K = self.order
        rhs = {}
        for idx9 in (0, 1, 2, 3, 5, 6, 7, 8):
            for e, c in self._composite_jet(jets[idx9], idx9).items():
                rhs[e] = rhs.get(e, mp.mpc(0)) - c
        lead = self.powers[4][1].get((1, 0), 0)
        assert lead != 0
        f5 = [mp.mpc(0)]
        residual = rhs
        for k in range(1, K + 1):
            ck = residual.get((k, 0), mp.mpc(0)) / lead**k
            f5.append(ck)
            if ck:
                for e, c in self.powers[4][k].items():
                    residual[e] = residual.get(e, mp.mpc(0)) - ck * c
        leftover = max((abs(c) for c in residual.values()), default=mp.mpf(0))
        if leftover > mp.mpf(10) ** (-(self.dps - 14)):
            raise AssertionError(failure.format(leftover))
        jets[4] = f5
        return jets

    def repaired_tuple_jets(self, element):
        """Like tuple_jets, but first repairs branch-normalization defects.

        The printed germ tuples assume the author's continuation paths; under
        principal branches a few elements miss the equation by a combination
        of log-level terms times i pi / pi^2 constants.  Any single-slot
        lower-weight correction tuple restoring the equation differs from any
        other choice by a genuine solution, so the spanned space (all the
        oracle uses) is independent of the choice made here."""
        mp = self.mp
        try:
            return self.tuple_jets(element)
        except AssertionError:
            pass
        # raw composite of the 8 printed slots; the repair solves for log-level
        # single-slot corrections plus a fifth-slot jet absorbing the rest
        raw = {}
        for pos, comp in enumerate(element):
            slot9 = (0, 1, 2, 3, 5, 6, 7, 8)[pos]
            if isinstance(comp, HyperlogExpr) and comp.is_zero():
                continue
            jet = self.component_jet(comp, self.values[slot9])
            for e, c in self._composite_jet(jet, slot9).items():
                raw[e] = raw.get(e, mp.mpc(0)) + c
        labels, keys, solver = self._repair_system()
        rhs = [-raw.get(e, mp.mpc(0)) for e in keys]
        sol = solver.solve(rhs)
        if sol is None:
            raise AssertionError("branch repair failed: defect outside log span")
        corrected = []
        for pos, comp in enumerate(element):
            slot9 = (0, 1, 2, 3, 5, 6, 7, 8)[pos]
            extra = [
                (labels[k][1], sol[k]) for k in range(len(labels))
                if labels[k][0] == slot9 and abs(sol[k]) > mp.mpf(10) ** (-(self.dps - 20))
            ]
            corrected.append((comp, extra))
        return self._tuple_jets_with_extras(corrected)

    def _repair_system(self):
        """(labels, keys, solver) of the repair: one column per slot and
        log-level word, the composite of its jet, then one per power of u5;
        one row per monomial of degree 1..order.  It does not depend on the
        element, so it is eliminated once."""
        if self._repair is None:
            gens = [("x0",), ("x1",), ("x-1",), ("x0", "x0"), ("x0", "x1"), ("x1", "x0"), ("x1", "x1")]
            cols = []
            labels = []
            for slot9 in (0, 1, 2, 3, 5, 6, 7, 8):
                for g in gens:
                    jet = self.expr_jet(HyperlogExpr.word(g), self.values[slot9])
                    cols.append(self._composite_jet(jet, slot9))
                    labels.append((slot9, g))
            # columns for the reconstructed fifth slot: powers of u5
            for k in range(1, self.order + 1):
                cols.append(self.powers[4][k])
                labels.append((4, ("u5", k)))
            keys = [(a, t - a) for t in range(1, self.order + 1) for a in range(t + 1)]
            zero = self.mp.mpc(0)
            matrix = [[col.get(e, zero) for col in cols] for e in keys]
            self._repair = labels, keys, _NumericSolver(matrix, self.mp, self.dps - 16)
        return self._repair

    def _composite_jet(self, comp_jet, slot9):
        """Bivariate jet of component(U_slot) at the base point: the sum of
        comp_jet[k] (U_slot - U_slot(base))^k over k >= 1."""
        zero = self.mp.mpc(0)
        total = {}
        for k in range(1, self.order + 1):
            ck = comp_jet[k]
            if ck:
                for e, c in self.powers[slot9][k].items():
                    total[e] = total.get(e, zero) + ck * c
        return total

    def _tuple_jets_with_extras(self, corrected):
        mp = self.mp
        element = []
        extras = []
        for comp, extra in corrected:
            element.append(comp)
            extras.append(extra)
        # rebuild with the additive corrections folded into the jets
        K = self.order
        jets = {}
        for pos, comp in enumerate(element):
            idx9 = (0, 1, 2, 3, 5, 6, 7, 8)[pos]
            if isinstance(comp, HyperlogExpr) and comp.is_zero():
                jet = [mp.mpc(0)] * (K + 1)
            else:
                jet = self.component_jet(comp, self.values[idx9])
            for g, coef in extras[pos]:
                gjet = self.expr_jet(HyperlogExpr.word(g), self.values[idx9])
                jet = [a + coef * b for a, b in zip(jet, gjet)]
            jets[idx9] = jet
        return self._with_fifth_slot(jets, "repair left a defect of size {}")

    # -- the pattern computation ---------------------------------------------

    def coefficient_vectors(self):
        """Per basis element: the concatenated slot jets (k >= 1)."""
        if self._vecs is None:
            self._vecs = [self.repaired_tuple_jets(el) for el in SK_BASIS]
        return self._vecs

    def pattern_dims(self):
        """(dim mod constants, dim mod sub-equation solutions)."""
        mp = self.mp
        K = self.order
        vecs = self.coefficient_vectors()
        # shared-value condition: value of slot 2 equals slot 5 (both 1/2):
        # jets of T2/m2 - T5/m5 vanish for k >= 1
        rows = []
        for k in range(1, K + 1):
            rows.append(
                [v[1][k] / MULTIPLIERS[1] - v[4][k] / MULTIPLIERS[4] for v in vecs]
            )
        pattern = _numeric_nullspace(rows, mp, self.dps - 16)
        # sub-equation span: combinations with some slot identically zero
        sub_vectors = []
        for s in range(9):
            rows_s = [[v[s][k] for v in vecs] for k in range(1, K + 1)]
            for nv in _numeric_nullspace(rows_s, mp, self.dps - 16):
                sub_vectors.append(nv)
        dim_pattern = len(pattern)
        dim_sub = _numeric_rank(sub_vectors, mp, self.dps - 16)
        dim_join = _numeric_rank(sub_vectors + pattern, mp, self.dps - 16)
        return dim_pattern, dim_join - dim_sub


def _expr_key(expr):
    return frozenset(
        (w, frozenset(c.terms.items())) for w, c in expr.terms.items()
    )


def _ratval(r, value: Fraction, mp):
    q = r.evaluate(value, 0)
    return mp.mpf(q.numerator) / q.denominator


def _numeric_rref(rows, mp, digits):
    """(pivot columns, fully reduced echelon rows) with a relative threshold."""
    tol = mp.mpf(10) ** (-digits)
    ech, piv = [], []
    if not rows:
        return piv, ech
    n = len(rows[0])
    for row in rows:
        r = [mp.mpc(c) for c in row]
        scale = max(abs(c) for c in r)
        if scale <= tol:
            continue
        r = [c / scale for c in r]
        for pc, er in zip(piv, ech):
            f = r[pc]
            if abs(f) > 0:
                r = [a - f * b for a, b in zip(r, er)]
        scale2 = max(abs(c) for c in r)
        if scale2 <= tol:
            continue
        pc = max(range(n), key=lambda c: abs(r[c]))
        r = [a / r[pc] for a in r]
        # eliminate the new pivot from the existing rows (full RREF)
        for i, er in enumerate(ech):
            f = er[pc]
            if abs(f) > 0:
                ech[i] = [a - f * b for a, b in zip(er, r)]
        ech.append(r)
        piv.append(pc)
    return piv, ech


class _NumericSolver:
    """Gaussian elimination of an overdetermined matrix, kept to solve it
    against several right-hand sides.  Each row is scaled to max-norm 1 and
    reduced by the echelon rows before it; a row whose remainder is below
    10^-digits is a dependency, which a consistent right-hand side must
    satisfy to 10^-(digits - 6)."""

    def __init__(self, matrix, mp, digits):
        self.mp = mp
        self.tol = mp.mpf(10) ** (-digits)
        self.n = len(matrix[0])
        self.piv, self.ech = [], []  # pivot columns, echelon rows (pivot 1)
        self.steps = []  # per row: (scale, [(echelon row, factor)], pivot value)
        for row in matrix:
            r = [mp.mpc(c) for c in row]
            scale = max(abs(c) for c in r)
            if scale <= self.tol:
                self.steps.append((mp.mpf(1), [], None))
                continue
            r = [c / scale for c in r]
            factors = []
            for j, (pc, er) in enumerate(zip(self.piv, self.ech)):
                f = r[pc]
                if abs(f) > 0:
                    r = [a - f * b for a, b in zip(r, er)]
                    factors.append((j, f))
            if max(abs(c) for c in r) <= self.tol:
                self.steps.append((scale, factors, None))
                continue
            pc = max(range(self.n), key=lambda c: abs(r[c]))
            lead = r[pc]
            self.steps.append((scale, factors, lead))
            self.piv.append(pc)
            self.ech.append([a / lead for a in r])

    def solve(self, rhs):
        """One solution, the free variables zero, or None if inconsistent."""
        mp = self.mp
        reduced = []  # the right-hand side of each echelon row
        for (scale, factors, lead), b in zip(self.steps, rhs):
            b = mp.mpc(b) / scale
            for j, f in factors:
                b -= f * reduced[j]
            if lead is not None:
                reduced.append(b / lead)
            elif abs(b) > self.tol * 10**6:
                return None
        sol = [mp.mpc(0)] * self.n
        # each echelon row is zero at the pivots before it: back substitution
        for j in range(len(self.piv) - 1, -1, -1):
            er = self.ech[j]
            sol[self.piv[j]] = reduced[j] - sum(er[pc] * sol[pc] for pc in self.piv[j + 1:])
        return sol


def _numeric_rank(vectors, mp, digits):
    piv, _ = _numeric_rref([list(v) for v in vectors], mp, digits)
    return len(piv)


def _numeric_nullspace(rows, mp, digits):
    if not rows:
        return []
    n = len(rows[0])
    piv, ech = _numeric_rref(rows, mp, digits)
    free = [c for c in range(n) if c not in piv]
    basis = []
    for f in free:
        v = [mp.mpc(0)] * n
        v[f] = mp.mpc(1)
        for pc, er in zip(piv, ech):
            v[pc] = -er[f]
        basis.append(v)
    return basis
