"""Webs of plane foliations with rational first integrals.

A Foliation is the level-curve foliation of a non-constant rational function
(post-composition with a Mobius map changes the integral, not the foliation).

Foliation equality and the singular locus read one polynomial per pair of
integrals, the cleared Jacobian den_i^2 den_j^2 (dU_i ^ dU_j).  A Foliation
computes its integral's cleared gradient den^2 dU once, when it is built
(`ratfunc.cleared_gradient`), and a pair's Jacobian is the wedge of the two
stored gradients.  A web computes its Jacobians once, when it is built, and
its subwebs slice them:

* two integrals define the same foliation exactly when it vanishes
  identically (the denominators are nonzero);
* its zero set is the pair's tangency divisor.  Clearing (rather than
  reducing) keeps components supported on pole curves, which are common
  leaves of the two pencils and genuinely singular for the web.  This is the
  affine restriction of the projective wedge of the pencils' defining forms.

The singular locus adds the pole components, the denominator curve of each
integral, where the value reaches infinity (the paper's printed loci include
these).  A point is tested against the locus by evaluating the Jacobians and
denominators unfactored; the squarefree, pairwise coprime components are
factored only when read, for `sigma`.  Indeterminacy sets are kept as
(numerator, denominator) ideal descriptors since downstream code only ever
needs avoidance, which is decided by evaluation.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (
    ConstantInput,
    DegenerateMap,
    ExprSyntaxError,
    InvalidParameter,
    PlanarWebError,
    PoleAtCenter,
    SearchExhausted,
    TooFewFoliations,
)
from .parse import format_ratfunc, parse_ratfunc
from .poly import BivarPoly, coprime_split, poly_divides, poly_divmod_exact, squarefree_part
from .ratfunc import RatFunc, cleared_gradient, wedge


class Foliation:
    """Level-curve foliation of a non-constant rational first integral, with
    the integral's cleared gradient den^2 (U_x, U_y)."""

    __slots__ = ("integral", "gradient")

    def __init__(self, integral: RatFunc):
        if integral.is_constant():
            raise ConstantInput("a first integral must be non-constant")
        self.integral = integral
        self.gradient = cleared_gradient(integral)

    def __repr__(self):
        return f"Foliation({self.integral})"


def same_foliation(f: Foliation, g: Foliation) -> bool:
    return wedge(f.gradient, g.gradient).is_zero()


class Web:
    """Unordered set of N >= 3 pairwise distinct foliations; `jacobians` maps
    each 0-based pair i < j, in `combinations` order, to its cleared Jacobian."""

    def __init__(self, foliations: Sequence[Foliation], name: Optional[str] = None):
        fols = list(foliations)
        if len(fols) < 3:
            raise TooFewFoliations(f"a web needs at least 3 foliations, got {len(fols)}")
        self.jacobians: Dict[Tuple[int, int], BivarPoly] = {}
        for i, j in combinations(range(len(fols)), 2):
            w = wedge(fols[i].gradient, fols[j].gradient)
            if w.is_zero():
                raise DegenerateMap(f"foliations {i + 1} and {j + 1} coincide as foliations")
            self.jacobians[(i, j)] = w
        self.foliations = fols
        self.name = name

    @property
    def size(self) -> int:
        return len(self.foliations)

    def integrals(self) -> List[RatFunc]:
        return [f.integral for f in self.foliations]

    @staticmethod
    def from_integrals(integrals: Iterable[RatFunc], name: Optional[str] = None) -> "Web":
        return Web([Foliation(u) for u in integrals], name=name)

    @staticmethod
    def from_expressions(exprs: Iterable[str], name: Optional[str] = None) -> "Web":
        return Web.from_integrals([parse_ratfunc(e) for e in exprs], name=name)

    def subweb(self, indices: Sequence[int], name: Optional[str] = None) -> "Web":
        """Web of the selected foliations (1-based indices), slicing the
        parent's Jacobians.  Any subset of pairwise distinct foliations is
        pairwise distinct, so the check of the constructor is not repeated."""
        idx = sorted(set(indices))
        if len(idx) < 3:
            raise TooFewFoliations("a subweb needs at least 3 foliations")
        if idx[0] < 1 or idx[-1] > self.size:
            raise ValueError("subweb index out of range")
        sub = Web.__new__(Web)
        sub.foliations = [self.foliations[i - 1] for i in idx]
        sub.jacobians = {
            (a, b): self.jacobians[(idx[a] - 1, idx[b] - 1)]
            for a, b in combinations(range(len(idx)), 2)
        }
        sub.name = name
        return sub

    def subweb_without(self, removed: Sequence[int], name: Optional[str] = None) -> "Web":
        """Complement convention: drop the listed (1-based) indices."""
        keep = [i for i in range(1, self.size + 1) if i not in set(removed)]
        return self.subweb(keep, name=name)

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"Web{label}[{', '.join(str(u) for u in self.integrals())}]"


class SingularLocus:
    """The web's cleared Jacobians and pole curves (its non-constant
    denominators), with indeterminacy ideal descriptors.  The curve
    components, squarefree and pairwise coprime, are factored when read."""

    def __init__(self, jacobians, indeterminacy_points):
        self.jacobians: List[BivarPoly] = jacobians
        self.indeterminacy_points: List[Tuple[BivarPoly, BivarPoly]] = indeterminacy_points
        self.poles = [den for _, den in indeterminacy_points]

    @cached_property
    def tangency_components(self) -> List[BivarPoly]:
        # invariant under Mobius reparametrization of the integrals
        return coprime_split(self.jacobians)

    @cached_property
    def curve_components(self) -> List[BivarPoly]:
        # the gcd-free basis of the Jacobians and the poles: irreducible
        # factors grouped by which inputs they divide
        return coprime_split(self.poles, basis=self.tangency_components)

    def product(self) -> BivarPoly:
        out = BivarPoly.const(1)
        for c in self.curve_components:
            out = out * c
        return out

    def vanishes_at(self, x, y) -> bool:
        # a zero of a gcd-free basis is a zero of one of its inputs
        return any(p.evaluate(x, y) == 0 for p in chain(self.jacobians, self.poles))

    def __repr__(self):
        return f"SingularLocus({[str(c) for c in self.curve_components]})"


def singular_locus(web: Web) -> SingularLocus:
    """The web's locus, read from the Jacobians the web keeps."""
    indet = [(u.num, u.den) for u in web.integrals() if not u.den.is_constant()]
    return SingularLocus(list(web.jacobians.values()), indet)


def verify_sigma_factors(web: Web, candidates: Sequence[RatFunc]) -> dict:
    """Compare candidate factors, the numerators of the given expressions,
    against the computed singular locus.

    Reports, per candidate, whether it divides the locus product, and whether
    the product of the candidates matches the computed squarefree product up
    to a rational constant.  A candidate is printed divided by its
    denominator's leading coefficient, with rational coefficients.
    """
    locus = singular_locus(web)
    product = locus.product()
    per_candidate = []
    cand_product = BivarPoly.const(1)
    all_divide = True
    for k, f in enumerate(candidates, 1):
        if f.is_zero():
            raise InvalidParameter(f"candidate factor {k} is zero")
        if f.num.is_constant():
            # a constant divides every locus, so its "divides" would be vacuous
            raise InvalidParameter(f"candidate factor {k} has the constant numerator {f.num}")
        c = f.num
        divides = poly_divides(squarefree_part(c), product)
        all_divide = all_divide and divides
        per_candidate.append({"factor": c.str_over(f.den.leading_coeff()), "divides": divides})
        cand_product = cand_product * c
    cand_sf = squarefree_part(cand_product) if not cand_product.is_constant() else cand_product
    prod_match = False
    if not product.is_constant() and not cand_sf.is_constant():
        ok, q = poly_divmod_exact(product, cand_sf)
        prod_match = bool(ok and q is not None and q.is_constant())
    elif product.is_constant() and cand_sf.is_constant():
        prod_match = True
    return {
        "web": web.name,
        "candidates": per_candidate,
        "all_divide": all_divide,
        "product_equal_up_to_constant": prod_match,
        "computed_components": [str(c) for c in locus.curve_components],
    }


MAX_TRIALS = 20000
# the base point tried first wherever no point is given
DEFAULT_POINT = (Fraction(1, 3), Fraction(1, 2))


def pick_generic_point(
    web: Web,
    seed: int = 0,
    preferred: Optional[Tuple[Fraction, Fraction]] = None,
):
    """Deterministic search for a rational base point off the singular locus;
    the locus holds every integral's pole curve, so every integral is finite
    there.  A valid preferred point wins."""
    locus = singular_locus(web)
    if preferred is not None:
        px, py = Fraction(preferred[0]), Fraction(preferred[1])
        if not locus.vanishes_at(px, py):
            return BasePoint(web, (px, py))

    # seeded deterministic spiral over small-denominator rationals
    rng = random.Random(seed)
    trials = 0
    for den in (2, 3, 5, 7, 11, 13, 17, 23, 31, 43):
        for _ in range(MAX_TRIALS // 10):
            trials += 1
            px = Fraction(rng.randrange(1, 4 * den), den)
            py = Fraction(rng.randrange(1, 4 * den), den + rng.randrange(1, 3))
            if not locus.vanishes_at(px, py):
                return BasePoint(web, (px, py))
    raise SearchExhausted(f"no generic point found in {trials} trials")


class _JetPowers:
    """The jets at a point of the powers v^k of v = U - U(point), over the
    integers, as one block per degree, grown a degree at a time.

    With N/D = U(point + (s, t)) over Z (`RatFunc.translate`, no gcd) and
    d0 = D(0, 0), v = M / (d0 D) with M = d0 N - N(0, 0) D, an integer
    polynomial with no constant term.  `blocks[n]` = (d0^(2n), block):
    block[a][k] is the coefficient of s^a t^(n - a) in v^k, k = 0..n, over
    that one denominator, so a jet row of degree n reads one list per
    monomial and one denominator per integral, shared by every subweb and
    order that reads the table; a higher order only appends degrees.
    Column 1 follows from M = d0 D v without a division: with n = |e| and
    w_e = block_n[a][1],
    w_e = d0^(2n - 2) M_e - sum_{0 < f < e} D_f d0^(2|f| - 1) w_(e - f),
    and `dens` holds the D_f d0^(2|f| - 1).  Column k >= 2 is v^(k-1) v:
    block_n[a][k] = sum_m sum_a2 block_m[a2][1] block_(n - m)[a - a2][k - 1],
    already over d0^(2m) d0^(2(n - m)) = d0^(2n).  d0 = 0 is a pole at the
    point."""

    __slots__ = ("num", "dens", "d0", "value", "blocks")

    def __init__(self, u: RatFunc, point: Tuple[Fraction, Fraction]):
        px, py = point
        shifted = u.translate(px, py)
        d0 = self.d0 = shifted.den.terms.get((0, 0), 0)
        if d0 == 0:
            raise PoleAtCenter(f"pole at ({px}, {py})")
        n0 = shifted.num.terms.get((0, 0), 0)
        self.num = (shifted.num.scale(d0) - shifted.den.scale(n0)).terms  # M
        self.dens = [(f, c * d0 ** (2 * (f[0] + f[1]) - 1)) for f, c in shifted.den.terms.items() if f != (0, 0)]
        self.value = Fraction(n0, d0)
        self.blocks: List[Tuple[int, List[List[int]]]] = [(1, [[1]])]

    def block(self, n: int):
        """(d0^(2n), block) of degree n: block[a][k] is the coefficient of
        s^a t^(n - a) in v^k, k = 0..n, over that one denominator."""
        blocks = self.blocks
        for deg in range(len(blocks), n + 1):
            block = [[0] * (deg + 1) for _ in range(deg + 1)]
            scale = self.d0 ** (2 * deg - 2)
            for a, row in enumerate(block):
                c = self.num.get((a, deg - a), 0) * scale
                for (fa, fb), df in self.dens:
                    if fa <= a and fb <= deg - a and fa + fb < deg:
                        c -= df * blocks[deg - fa - fb][1][a - fa][1]
                row[1] = c
            for m in range(1, deg):  # v^k = v^(k-1) v, from degrees deg - m and m
                lower = blocks[deg - m][1]
                for a2, row2 in enumerate(blocks[m][1]):
                    c2 = row2[1]
                    if c2:
                        for a1, row1 in enumerate(lower):
                            out = block[a1 + a2]
                            for k in range(1, deg - m + 1):
                                out[k + 1] += c2 * row1[k]
            blocks.append((self.d0 ** (2 * deg), block))
        return blocks[n]


class BasePoint:
    """A point off the web's singular locus, where every integral is finite,
    with the integral values.

    It holds the point's jet table, one `_JetPowers` per integral, which
    gives the values too.  A table is its per-degree blocks, grown a
    degree at a time, as far as a ladder reads it, and the jet rows read
    them (see `jet_block`).  A subweb's base point from `restrict` shares
    the parent's tables, so each block of each integral is computed once,
    however many subwebs and orders read it.

    It also holds the rungs of its web's rank ladder: `kernels[K]` is the
    certified kernel of the order-K jet system, filled from order 0 (no
    columns, empty basis) a degree at a time by `jets.jet_kernel`; after
    an empty rung at K >= N - 2 every higher rung is recorded empty, with
    nothing solved.  A proper subweb's base point has its own ladder; the
    subweb of all the foliations has the same jet systems, so it shares
    this one."""

    def __init__(self, web: Web, point: Tuple[Fraction, Fraction]):
        self.point = (Fraction(point[0]), Fraction(point[1]))
        self.web = web
        self._jets = [_JetPowers(u, self.point) for u in web.integrals()]
        self.images: List[Fraction] = [jet.value for jet in self._jets]
        self.kernels: List[List[List[int]]] = []

    def jet_block(self, i: int, degree: int):
        """(d0^(2n), block) of integral i (0-based) at degree n = `degree`:
        block[a][k] is the coefficient of s^a t^(n - a) in v^k,
        v = U_i - U_i(point), k = 0..n, over that denominator."""
        return self._jets[i].block(degree)

    def restrict(self, indices: Sequence[int]) -> "BasePoint":
        """The base point of the subweb of the given (1-based) foliations at
        this point, sharing this point's jet table, and its ladder when the
        subweb has every foliation.  A point off the web's singular locus is
        off every subweb's locus."""
        idx = sorted(set(indices))
        sub = BasePoint.__new__(BasePoint)
        sub.point = self.point
        sub.web = self.web.subweb(idx)
        sub.images = [self.images[i - 1] for i in idx]
        sub._jets = [self._jets[i - 1] for i in idx]
        sub.kernels = self.kernels if len(idx) == self.web.size else []
        return sub

    def __repr__(self):
        return f"BasePoint({self.point}, images={self.images})"


def pullback_web(web: Web, map_xy: Tuple[RatFunc, RatFunc], name: Optional[str] = None) -> Web:
    """Web with integrals U_i composed with the map; distinctness revalidated."""
    fx, fy = map_xy
    if fx.is_constant() or fy.is_constant():
        raise DegenerateMap("pullback map components must be non-constant")
    pulled = [u.substitute(fx, fy) for u in web.integrals()]
    try:
        return Web.from_integrals(pulled, name=name)
    except DegenerateMap as exc:
        raise DegenerateMap(f"pullback collapsed two foliations: {exc}") from exc


def webs_equal_as_foliations(a: Web, b: Web) -> Optional[List[int]]:
    """If the webs agree as unordered sets of foliations, the matching
    (1-based, position i of `a` -> returned[i-1] of `b`); else None."""
    if a.size != b.size:
        return None
    used = [False] * b.size
    match: List[int] = []
    for fa in a.foliations:
        found = None
        for j, fb in enumerate(b.foliations):
            if not used[j] and same_foliation(fa, fb):
                found = j
                break
        if found is None:
            return None
        used[found] = True
        match.append(found + 1)
    return match


# ---------------------------------------------------------------------------
# web definition files
# ---------------------------------------------------------------------------


def web_to_text(web: Web, variables=("x", "y")) -> str:
    lines = []
    if web.name:
        lines.append(f"name: {web.name}")
    lines.append(f"variables: {variables[0]} {variables[1]}")
    for u in web.integrals():
        lines.append(format_ratfunc(u, variables))
    return "\n".join(lines) + "\n"


def web_from_text(text: str) -> Web:
    """The web of a .web file's text.  A malformed file, whatever the error,
    is an InvalidParameter that names the culprit line where there is one."""
    name = None
    variables = ("x", "y")
    fols = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        try:
            if line.startswith("name:"):
                name = line[5:].strip()
            elif line.startswith("variables:"):
                parts = line[10:].split()
                if len(parts) != 2:
                    raise ExprSyntaxError("variables line must list exactly two names", 10)
                if parts[0] == parts[1]:
                    raise ExprSyntaxError("variables line must list two different names", 10)
                variables = (parts[0], parts[1])
            elif line:
                fols.append(Foliation(parse_ratfunc(line, variables)))
        except PlanarWebError as exc:
            raise InvalidParameter(f"bad web line {line!r}: {type(exc).__name__}: {exc}") from None
    try:
        return Web(fols, name=name)
    except PlanarWebError as exc:
        raise InvalidParameter(f"bad web file: {type(exc).__name__}: {exc}") from None


def load_web(path) -> Web:
    with open(path, "r", encoding="utf-8") as fh:
        return web_from_text(fh.read())
