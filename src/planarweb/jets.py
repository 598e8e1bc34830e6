"""Web rank by exact jet linear algebra.

The space of local solutions (F_1, .., F_N) of sum F_i(U_i) = 0 modulo
constants is computed as the nullspace of the truncated system: unknowns are
the Taylor coefficients c_{i,k} of F_i at U_i(base) for 1 <= k <= K, rows
are the coefficients of (x - bx)^a (y - by)^b, 1 <= a+b <= K, in
sum_i sum_k c_{i,k} (U_i - U_i(base))^k.  Starting the k-range at 1 quotients
the constants out, so the stabilized kernel dimension is the rank.

Truncation policy: K starts at N, grows by 1, stabilization is declared
after three equal consecutive dimensions, with a hard cap N(N-1)/2 + 3.
Kernel dimensions are certified exact (see linalg).

Jet powers are computed in integer-scaled form: a jet is a dict of integer
coefficients plus one denominator, so the inner convolution loops never
touch Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import NotStabilized
from .linalg import ExactKernel, exact_nullspace, exact_rank_of_span, independent_rows
from .ratfunc import RatFunc
from .web import BasePoint, Web, pick_generic_point, singular_locus


# ---------------------------------------------------------------------------
# integer-scaled jets
# ---------------------------------------------------------------------------


class _IntJet:
    """coeffs/den with integer coefficients indexed by (a, b), a+b <= order."""

    __slots__ = ("coeffs", "den", "order")

    def __init__(self, coeffs: Dict[Tuple[int, int], int], den: int, order: int):
        self.coeffs = coeffs
        self.den = den
        self.order = order

    @staticmethod
    def from_series(jet) -> "_IntJet":
        den = 1
        for c in jet.coeffs.values():
            den = den * c.denominator // gcd(den, c.denominator)
        coeffs = {e: int(c * den) for e, c in jet.coeffs.items()}
        return _IntJet(coeffs, den, jet.order)

    def mul_trunc(self, other: "_IntJet", order: int) -> "_IntJet":
        out: Dict[Tuple[int, int], int] = {}
        items = sorted(other.coeffs.items())
        for (a1, b1), c1 in self.coeffs.items():
            rem = order - a1 - b1
            if rem < 0:
                continue
            for (a2, b2), c2 in items:
                if a2 + b2 > rem:
                    continue
                e = (a1 + a2, b1 + b2)
                out[e] = out.get(e, 0) + c1 * c2
        out = {e: c for e, c in out.items() if c}
        return _IntJet(out, self.den * other.den, order)

    def fraction(self, e) -> Fraction:
        c = self.coeffs.get(e)
        return Fraction(c, self.den) if c else Fraction(0)


def _vanishing_jet_powers(u: RatFunc, value: Fraction, point, order: int) -> List[_IntJet]:
    """[v^1, .., v^order] as jets, v = u - value (vanishing at the point)."""
    base = u.taylor(point, order)
    shifted = dict(base.coeffs)
    c0 = shifted.pop((0, 0), Fraction(0))
    assert c0 == value, "jet constant term must equal the recorded value"
    v = _IntJet.from_series(type(base)(base.center, order, shifted))
    powers = [v]
    for _ in range(order - 1):
        powers.append(powers[-1].mul_trunc(v, order))
    return powers


# ---------------------------------------------------------------------------
# the jet system
# ---------------------------------------------------------------------------


def _jet_columns(n: int, order: int) -> Dict[Tuple[int, int], int]:
    """Column of the unknown c_{i,k}: i = 0..n-1 in turn, k = 1..order."""
    return {(i, k): i * order + k - 1 for i in range(n) for k in range(1, order + 1)}


class JetSystem:
    """Exact truncated linear system of a web at a base point."""

    def __init__(self, web: Web, base: BasePoint, order: int):
        self.web = web
        self.base = base
        self.order = order
        self.unknown_index = _jet_columns(web.size, order)
        self.rows: List[List[Fraction]] = []
        self.row_index: List[Tuple[int, int]] = []
        powers_by_i = [
            _vanishing_jet_powers(
                base.effective_integrals[i], base.images[i], base.point, order
            )
            for i in range(web.size)
        ]
        n_cols = len(self.unknown_index)
        for total in range(1, order + 1):
            for a in range(total + 1):
                b = total - a
                row = [Fraction(0)] * n_cols
                nonzero = False
                for i in range(web.size):
                    for k in range(1, order + 1):
                        c = powers_by_i[i][k - 1].fraction((a, b))
                        if c:
                            row[self.unknown_index[(i, k)]] = c
                            nonzero = True
                if nonzero:
                    self.rows.append(row)
                    self.row_index.append((a, b))

    def nullspace(self) -> ExactKernel:
        return exact_nullspace(self.rows, n_cols=len(self.unknown_index))


class KernelBasis:
    """Exact kernel vectors of a stabilized jet system."""

    def __init__(self, vectors: List[List[Fraction]], order: int, unknown_index):
        self.vectors = vectors
        self.order = order
        self.unknown_index = dict(unknown_index)

    def __len__(self):
        return len(self.vectors)


def bol_bound(n: int) -> int:
    """Rank bound (N-1)(N-2)/2 (solution space incl. constants: N(N-1)/2)."""
    return (n - 1) * (n - 2) // 2


def abelian_rank(
    web: Web,
    base: Optional[BasePoint] = None,
    start_order: Optional[int] = None,
    stabilize: int = 3,
    max_order: Optional[int] = None,
) -> Tuple[int, KernelBasis]:
    """Stabilized kernel dimension (the web rank) with its exact basis."""
    if base is None:
        base = pick_generic_point(web, seed=0, preferred=(Fraction(1, 3), Fraction(1, 2)))
    n = web.size
    k0 = start_order if start_order is not None else n
    cap = max_order if max_order is not None else n * (n - 1) // 2 + 3
    dims: List[int] = []
    kernels: List[ExactKernel] = []
    systems: List[JetSystem] = []
    order = k0
    while order <= cap:
        system = JetSystem(web, base, order)
        kern = system.nullspace()
        if dims and kern.dimension > dims[-1]:
            raise AssertionError(
                "kernel dimension increased with the truncation order"
            )
        dims.append(kern.dimension)
        kernels.append(kern)
        systems.append(system)
        if len(dims) >= stabilize and len(set(dims[-stabilize:])) == 1:
            rank = dims[-1]
            if rank > bol_bound(n):
                raise AssertionError(
                    f"computed rank {rank} exceeds the bound {bol_bound(n)}"
                )
            idx = len(dims) - stabilize
            sys_f = systems[idx]
            return rank, KernelBasis(
                kernels[idx].basis, sys_f.order, sys_f.unknown_index
            )
        order += 1
    raise NotStabilized(
        f"kernel dimension not stabilized by order {cap}: {dims}", dims=dims
    )


def rank_only(web: Web, base: Optional[BasePoint] = None, **kw) -> int:
    return abelian_rank(web, base, **kw)[0]


def _subweb_jets(web: Web, subset: Sequence[int], base: BasePoint, order: int, col_of):
    """The subweb's base point (the parent's point) and its order-`order`
    kernel vectors, embedded in the parent's jet columns `col_of`.  A point
    off the web's singular locus is off every subweb's locus."""
    sub_base = BasePoint(web.subweb(subset), base.point)
    system = JetSystem(sub_base.web, sub_base, order)
    jets = []
    for v in system.nullspace().basis:
        big = [Fraction(0)] * len(col_of)
        for (si, k), col in system.unknown_index.items():
            big[col_of[(subset[si] - 1, k)]] = v[col]
        jets.append(big)
    return sub_base, jets


# ---------------------------------------------------------------------------
# filtration by solution order
# ---------------------------------------------------------------------------


def filtration_dims(web: Web, base: Optional[BasePoint] = None) -> Dict[int, int]:
    """dim F^p for p = 3..N: the span of all p-subweb solution jets inside
    the web's jet coordinate space at its stabilized order."""
    if base is None:
        base = pick_generic_point(web, seed=0, preferred=(Fraction(1, 3), Fraction(1, 2)))
    rank, basis = abelian_rank(web, base)
    order = basis.order
    n = web.size
    out: Dict[int, int] = {}
    vecs: List[List[Fraction]] = []  # a basis of F^(p-1), then the new jets
    for p in range(3, n + 1):
        for subset in combinations(range(1, n + 1), p):
            sub_base, jets = _subweb_jets(web, subset, base, order, basis.unknown_index)
            sub_rank = rank_only(sub_base.web, sub_base)
            if len(jets) != sub_rank:
                raise NotStabilized(
                    f"subweb {subset} kernel at order {order} has dim "
                    f"{len(jets)} but stabilized rank {sub_rank}"
                )
            vecs.extend(jets)
        vecs = [vecs[i] for i in independent_rows(vecs)]
        out[p] = len(vecs)
    assert out[n] == rank, "full filtration level must equal the rank"
    return out


# ---------------------------------------------------------------------------
# hexagonality and subweb tables
# ---------------------------------------------------------------------------


def hexagonality(web: Web, base_seed: int = 0) -> dict:
    """A web is reported hexagonal iff every 3-subweb has rank exactly 1."""
    entries = rank_report(web, [3], pick_generic_point(web, seed=base_seed))["subwebs"]
    return {
        "web": web.name,
        "hexagonal": all(e["hexagonal"] for e in entries),
        "triples": [{"indices": e["indices"], "rank": e["rank"]} for e in entries],
    }


def rank_report(web: Web, subweb_sizes: Sequence[int], base: Optional[BasePoint] = None) -> dict:
    """Rank, maximal-rank flag (and hexagonality for size 3) for every
    subweb of each requested size, in deterministic index order, all at the
    web's base point."""
    if base is None:
        base = pick_generic_point(web, seed=0, preferred=(Fraction(1, 3), Fraction(1, 2)))
    entries = []
    for size in sorted(set(subweb_sizes)):
        for subset in combinations(range(1, web.size + 1), size):
            sub = web.subweb(subset)
            r = rank_only(sub, BasePoint(sub, base.point))
            entry = {
                "indices": list(subset),
                "size": size,
                "rank": r,
                "maximal": r == bol_bound(size),
            }
            if size == 3:
                entry["hexagonal"] = r == 1
            entries.append(entry)
    return {"web": web.name, "subwebs": entries}


# ---------------------------------------------------------------------------
# constrained (pattern) ranks
# ---------------------------------------------------------------------------


class Pattern:
    """Partition of the slots into classes sharing one unknown function,
    with integer multipliers: sum_i m_i G_{class(i)}(U_i) = 0."""

    def __init__(self, groups: Sequence[Sequence[int]], multipliers: Dict[int, int]):
        seen: set = set()
        for g in groups:
            for i in g:
                if i in seen:
                    raise ValueError(f"slot {i} appears in two classes")
                seen.add(i)
        self.groups = [tuple(g) for g in groups]
        self.multipliers = dict(multipliers)
        for i in seen:
            if self.multipliers.get(i, 0) == 0:
                raise ValueError(f"slot {i} has a zero or missing multiplier")

    def class_of(self, slot: int) -> int:
        for ci, g in enumerate(self.groups):
            if slot in g:
                return ci
        raise ValueError(f"slot {slot} not covered by the pattern")

    def slots(self) -> List[int]:
        return sorted(s for g in self.groups for s in g)


def _value_closed_points(web: Web, pattern: Pattern, base: BasePoint, budget: int = 40):
    """Auxiliary rational base points whose pattern-slot values stay inside
    the value set of the primary base point (value-sharing makes the jet
    system see that class germs belong to one function)."""
    slots = pattern.slots()
    values = sorted({base.images[s - 1] for s in slots})
    candidates = values + list(base.point)
    integrals = web.integrals()
    locus = singular_locus(web)
    pts = []
    seen = {base.point}
    for px in candidates:
        for py in candidates:
            if (px, py) in seen:
                continue
            # generic (off the singular locus, so every integral is finite)
            if not locus.vanishes_at(px, py) and all(
                integrals[s - 1].evaluate(px, py) in values for s in slots
            ):
                pts.append((px, py))
                seen.add((px, py))
            if len(pts) >= budget:
                return pts
    return pts


def constrained_rank(
    web: Web,
    pattern: Pattern,
    base: Optional[BasePoint] = None,
    start_order: Optional[int] = None,
    stabilize: int = 3,
    max_order: Optional[int] = None,
    aux_points: Optional[Sequence[Tuple[Fraction, Fraction]]] = None,
) -> dict:
    """Kernel of the pattern system, mod constants, with the dimension also
    reported modulo jets of sub-equation solutions (the genuine new content
    of a single-function characterization lives in that quotient)."""
    if base is None:
        base = pick_generic_point(web, seed=0, preferred=(Fraction(1, 3), Fraction(1, 2)))
    slots = pattern.slots()
    if aux_points is None:
        aux_pts = _value_closed_points(web, pattern, base)
    else:
        aux_pts = [(Fraction(a), Fraction(b)) for a, b in aux_points]
    bases = [base.point] + list(aux_pts)
    n = web.size
    k0 = start_order if start_order is not None else n
    cap = max_order if max_order is not None else n * (n - 1) // 2 + 3

    integrals = web.integrals()
    germ_keys: List[Tuple[int, Fraction]] = []
    for s in slots:
        ci = pattern.class_of(s)
        for pt in bases:
            u = integrals[s - 1]
            val = u.evaluate(*pt)
            if (ci, val) not in germ_keys:
                germ_keys.append((ci, val))
    germ_keys.sort(key=lambda t: (t[0], t[1]))

    dims: List[int] = []
    result = None
    order = k0
    while order <= cap:
        col_of: Dict[Tuple[int, Fraction, int], int] = {}
        for ci, val in germ_keys:
            for k in range(0, order + 1):  # constants kept, quotiented below
                col_of[(ci, val, k)] = len(col_of)
        rows: List[List[Fraction]] = []
        for pt in bases:
            per_slot = []
            for s in slots:
                u = integrals[s - 1]
                val = u.evaluate(*pt)
                powers = _vanishing_jet_powers(u, val, pt, order)
                per_slot.append((s, val, powers))
            for total in range(0, order + 1):
                for a in range(total + 1):
                    b = total - a
                    row = [Fraction(0)] * len(col_of)
                    nonzero = False
                    for s, val, powers in per_slot:
                        ci = pattern.class_of(s)
                        m = pattern.multipliers[s]
                        if (a, b) == (0, 0):
                            row[col_of[(ci, val, 0)]] += m
                            nonzero = True
                            continue
                        for k in range(1, order + 1):
                            c = powers[k - 1].fraction((a, b))
                            if c:
                                row[col_of[(ci, val, k)]] += m * c
                                nonzero = True
                    if nonzero and any(row):
                        rows.append(row)
        kern = exact_nullspace(rows, n_cols=len(col_of))
        const_cols = {col_of[(ci, val, 0)] for ci, val in germ_keys}
        noncst = [c for c in range(len(col_of)) if c not in const_cols]
        dim_mod_const = exact_rank_of_span([[v[c] for c in noncst] for v in kern.basis])
        dims.append(dim_mod_const)
        if len(dims) >= stabilize and len(set(dims[-stabilize:])) == 1:
            result = (kern, col_of, order)
            break
        order += 1
    if result is None:
        raise NotStabilized(f"constrained system not stabilized: {dims}", dims=dims)
    kern, col_of, order = result

    # project kernel vectors to slot-jet coordinates at the primary point and
    # quotient by the span of proper-sub-equation solution jets there
    slot_cols = _jet_columns(n, order)
    projected = []
    for v in kern.basis:
        big = [Fraction(0)] * len(slot_cols)
        for s in slots:
            ci = pattern.class_of(s)
            val = base.images[s - 1]
            m = pattern.multipliers[s]
            for k in range(1, order + 1):
                c = v[col_of[(ci, val, k)]]
                if c:
                    big[slot_cols[(s - 1, k)]] = m * c
        projected.append(big)
    dim_image = exact_rank_of_span(projected)

    # sub-solutions first, so a projected vector is kept iff it enlarges the
    # span of the sub-solution jets and of the projected vectors before it
    sub_jets: List[List[Fraction]] = []
    for subset in combinations(range(1, n + 1), n - 1):
        sub_jets.extend(_subweb_jets(web, subset, base, order, slot_cols)[1])
    n_sub = len(sub_jets)
    genuine = [
        projected[i - n_sub] for i in independent_rows(sub_jets + projected) if i >= n_sub
    ]
    return {
        "web": web.name,
        "dim_mod_constants": dims[-1],
        "dim_jet_image": dim_image,
        "dim_mod_subsolutions": len(genuine),
        "order": order,
        "aux_points": [(str(a), str(b)) for a, b in aux_pts],
        "kernel": KernelBasis(kern.basis, order, col_of),
        "genuine_jets": genuine,
        "slot_columns": slot_cols,
    }
