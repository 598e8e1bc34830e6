"""Web rank by exact jet linear algebra.

The space of local solutions (F_1, .., F_N) of sum F_i(U_i) = 0 modulo
constants is computed as the nullspace of the truncated system: unknowns are
the Taylor coefficients c_{i,k} of F_i at U_i(base) for 1 <= k <= K, rows
are the coefficients of (x - bx)^a (y - by)^b, 1 <= a+b <= K, in
sum_i sum_k c_{i,k} (U_i - U_i(base))^k.  Starting the k-range at 1 quotients
the constants out, so the stabilized kernel dimension is the rank.

What is certified.  Each truncated kernel dimension is exact: the kernel is
read from an exact Gauss-Jordan elimination over Z (see linalg), whose row
operations are invertible over Q.  At an order K >= N - 2 it is also an
upper bound on the rank.  A relation whose F_i have zero derivatives 1..K
at the base images satisfies sum_i c_i l_i^(K+1) = 0 in degree K + 1, with
l_i = dU_i(base); powers l_i^m of pairwise non-proportional linear forms
(the base point is off the tangency locus) are independent when N <= m + 1,
so c = 0 and, by induction, every F_i is constant.  For the same reason an
empty kernel at an order K >= N - 2 stays empty at every higher order, and
a rank of 0 is a certificate: a zero dimension there bounds the rank by 0.

Every kernel at order K + 1 is prolonged from the certified kernel at
order K, never solved at one order in one piece, and it is certified as
well.  v^k has no terms below degree k, and the table's coefficients of
degree <= K do not depend on how far it has grown, so the rows of
degree <= K of the order-(K + 1) system are the order-K rows with zeros in
the new columns (i, K + 1).  Hence ker_{K+1} = {(x, y) : x in ker_K,
B x + C y = 0}, where [B | C] are the rows of degree K + 1.  With
v_1..v_d a basis of ker_K, the map (z, y) -> (sum_j z_j v_j, y) is
injective and sends the kernel of the small system [C | B v_1 .. B v_d]
onto ker_{K+1}, and that small kernel is certified like any other.  The
argument holds from the order below the first power, whose system has no
columns and the kernel {0}, and for rows stacked over several base points.

What is heuristic.  Only the stop rule, and only for a nonzero rank: K
starts at N and grows by 1, and the rank is taken to be the dimension once
`stabilize` (default three) consecutive orders give equal dimensions, with
a hard cap N(N-1)/2 + `stabilize` for a ladder of N foliations (so
N(N-1)/2 + 3 by default) unless the caller fixes one cap for every ladder.
The stop rule is `_stabilized_dims`, shared by the web rank and the pattern
rank.

The rank ladder.  A ladder is a list of systems, each a base point with its
terms (slot, multiplier, block), over columns laid out block by block,
k = first_power..K in each block.  It starts with the empty basis at order
first_power - 1 and climbs one degree per `_prolong` (`_ladder_kernel`).
A web's ladder is one system with one block per slot and first power 1,
from order 0; its BasePoint keeps the rungs (`jet_kernel`).  The web's
rank, every subweb's rank at the web's point and the filtration read these
ladders, so a proper subweb read at the web's order climbs its own ladder
there; the subweb of all N foliations shares the web's.  The sub-solutions
of a pattern climb no subweb ladder: the kernel of the (N - 1)-subweb
without slot s, embedded, is the section {x in ker_K : x = 0 on s's
columns} of the web's own kernel (a subweb's system is the web's on its
columns), so it is sum z_j v_j over the kernel of the K x d matrix of the
basis entries on s's columns.  A pattern's ladder is one system
per base point with one block per germ key (class, value) and first power
0, from order -1 (`constrained_rank`).  The kernels are primitive integer
vectors, so an order-K vector widens to order K + 1 by one entry at the
end of each block.  The new columns come first in the small system.  On a
web's ladder from K = N - 2 on, C has full column rank (the powers
l_i^(K+1) above), so the lex-first pivots of the certified kernel are C's
columns, and at an order where the dimension stays each old vector v_j
extends by itself, with z the j-th unit vector.  Full column rank makes
ker_{K+1} -> ker_K injective, so an empty rung there is followed by empty
ones: `jet_kernel` records them with no prolongation, rows or nullspace.
A pattern's ladder climbs every rung, empty ones included (its first, at
order -1, is empty), since the argument is not made for its stacked
multi-point rows.

Span ranks in the coordinates of the web's kernel.  Every embedded subweb
jet of the filtration, every sub-solution jet and every projected pattern
vector lies in the web's kernel ker_K at the order read: at the base point
the pattern's rows of degree >= 1 are the web's rows with
F_i = m_i G_class(i).  A basis v_1..v_d of ker_K has d columns on which
it is an invertible d x d matrix, the pivot columns of its exact
elimination (`linalg.invertible_columns`), so restricting to them is
injective on ker_K, and span ranks and greedy subsets are taken in d
coordinates instead of nK.

The jet table.  Rows are built from one table per (web, point), held by
its BasePoint: for each integral one block per degree n, the coefficients
of v_i^0..v_i^n, v_i = U_i - U_i(base), at each monomial of degree n, as
integers over d0_i^(2n), where N/D is U_i(base + (s, t)) over Z and
d0_i = D(0, 0).  That denominator does not depend on the order, so a
table grows a degree at a time, as far as a ladder reads it, and never
recomputes an entry; no ladder has to ask ahead for the orders its stop
rule may read.  A subweb's base point at the parent's point
(BasePoint.restrict) shares the parent's tables, so the web, every subweb
and every order read one table and one block per degree.  Each rung forms
its small system [C | B v_1 .. B v_d] straight from the degree-(K + 1)
blocks, one row per monomial (`_prolong`): a term's block row, times m
times the lcm of its system's d0_i^(2n) over its own, puts its top entry
in C and the others in B's row, which is dotted with each v_j as it
stands.  No row of the order-(K + 1) system is built, and no row is
divided by its gcd: each is a positive multiple of the rational row, and
the kernel depends only on the row space.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InvalidParameter, NotStabilized
from .linalg import exact_nullspace, exact_rank_of_span, independent_rows, invertible_columns
from .web import DEFAULT_POINT, BasePoint, Web, pick_generic_point, singular_locus


# ---------------------------------------------------------------------------
# the jet systems and their ladders
# ---------------------------------------------------------------------------


def _jet_columns(n: int, order: int) -> Dict[Tuple[int, int], int]:
    """Column of the unknown c_{i,k}: i = 0..n-1 in turn, k = 1..order."""
    return {(i, k): i * order + k - 1 for i in range(n) for k in range(1, order + 1)}


def _prolong(systems, n_blocks: int, first_power: int, vectors: List[List[int]], order: int):
    """Kernel basis at order K + 1 of the jet systems, from a certified one at
    order K = `order`.  `systems` are (base point, terms) pairs, terms
    (slot, multiplier, block); their rows, stacked, are those of
    sum m * sum_k c_{block,k} v_slot^k, k = first_power..K, and block b holds
    the columns k = first_power..K in turn.  The rows of degree <= K at
    order K + 1 are the order-K rows, zero on the new columns (b, K + 1), so
    the kernel is the (x, y) with x = sum_j z_j v_j and B x + C y = 0 for the
    degree-(K + 1) rows [B | C].  The small system [C | B v_1 .. B v_d] is
    formed from the degree-(K + 1) blocks, one row per monomial a: a term
    (slot, m, b) whose block is (den, cs) adds f cs[a][K + 1] to C's column
    b and f cs[a][k] to B's column (b, k), k = first_power..K, with f = m
    times the lcm of its system's dens over den, and B's row is dotted with
    each v_j.  A row is a positive multiple of the rational one, so the
    kernel is unchanged.  It is solved exactly and its kernel lifted by
    (z, y) -> (sum_j z_j v_j, y), which is injective, with y_b written after
    block b; the lift is divided by its gcd."""
    width = order - first_power + 1  # columns per block at order K
    new = order + 1
    small = []
    for base, terms in systems:
        blocks = [(base.jet_block(i, new), m, b) for i, m, b in terms]
        scale = lcm(*(den for (den, _), _, _ in blocks))
        factors = [(cs, m * (scale // den), b, b * width - first_power) for (den, cs), m, b in blocks]
        for a in range(new + 1):
            top = [0] * n_blocks
            row = [0] * (n_blocks * width)  # B's row, in the columns of the v_j
            for cs, f, b, shift in factors:
                coeffs = cs[a]
                top[b] += f * coeffs[new]
                for k in range(first_power, new):
                    row[shift + k] += f * coeffs[k]
            small.append(top + [sum(map(mul, row, v)) for v in vectors])
    out = []
    for yz in exact_nullspace(small, n_cols=n_blocks + len(vectors)).basis:
        x = [0] * (n_blocks * width)
        for z, v in zip(yz[n_blocks:], vectors):
            if z:
                x = [s + z * t for s, t in zip(x, v)]
        lifted = []
        for b in range(n_blocks):
            lifted.extend(x[b * width : (b + 1) * width])
            lifted.append(yz[b])
        g = gcd(*lifted)
        out.append([c // g for c in lifted])
    return out


def _ladder_kernel(kernels, systems, n_blocks: int, first_power: int, order: int, settled=None):
    """Certified kernel basis at `order` of the jet systems (as in _prolong)
    from their ladder `kernels`, whose entry j is the basis at order
    first_power - 1 + j.  The ladder starts with the empty basis on no
    columns, and each missing order is prolonged from the one below, except
    that an empty rung at an order >= `settled` is followed by empty ones."""
    if not kernels:
        kernels.append([])
    start = first_power - 1
    while start + len(kernels) <= order:
        top = start + len(kernels) - 1
        if settled is not None and top >= settled and not kernels[-1]:
            kernels.append([])
        else:
            kernels.append(_prolong(systems, n_blocks, first_power, kernels[-1], top))
    return kernels[order - start]


def jet_kernel(base: BasePoint, order: int) -> List[List[int]]:
    """Certified kernel basis of base.web's order-`order` jet system, as
    primitive integer vectors in the columns of _jet_columns, from the base
    point's ladder: one system, one block per slot, first power 1.  From
    order N - 2 on, an empty rung ends the climb: every rung above it is
    empty (see "What is certified")."""
    n = base.web.size
    systems = [(base, [(i, 1, i) for i in range(n)])]
    return _ladder_kernel(base.kernels, systems, n, 1, order, settled=n - 2)


class KernelBasis:
    """Exact kernel vectors of a stabilized jet system, a web's or a
    pattern's, as primitive integer vectors in the columns unknown_index."""

    def __init__(self, vectors: List[List[int]], order: int, unknown_index):
        self.vectors = vectors
        self.order = order
        self.unknown_index = dict(unknown_index)


def bol_bound(n: int) -> int:
    """Rank bound (N-1)(N-2)/2 (solution space incl. constants: N(N-1)/2)."""
    return (n - 1) * (n - 2) // 2


def _stabilized_dims(n, dim_at, failure, stabilize=3, max_order=None) -> Dict[int, int]:
    """dim_at(K) for K = N, N + 1, .. until the last `stabilize` dims are
    equal, capped at max_order (default N(N-1)/2 + stabilize, per ladder).
    Returns the dims by order; at the cap raises NotStabilized with the
    message `failure`, formatted with the cap and the dims.  A ladder with
    fewer than `stabilize` orders can never stop, so it is an
    InvalidParameter; only an explicit max_order can leave that few."""
    cap = max_order if max_order is not None else n * (n - 1) // 2 + stabilize
    if stabilize > cap - n + 1:
        raise InvalidParameter(f"a {n}-web's orders {n}..{cap} are too few to stabilize over {stabilize}")
    dims: Dict[int, int] = {}
    for order in range(n, cap + 1):
        dims[order] = dim_at(order)
        last = list(dims.values())[-stabilize:]
        if len(last) == stabilize and len(set(last)) == 1:
            return dims
    seq = list(dims.values())
    raise NotStabilized(failure.format(cap=cap, dims=seq), dims=seq)


def abelian_rank(
    web: Web,
    base: Optional[BasePoint] = None,
    stabilize: int = 3,
    max_order: Optional[int] = None,
) -> Tuple[int, KernelBasis]:
    """Stabilized kernel dimension (the web rank) with its exact basis."""
    if base is None:
        base = pick_generic_point(web, seed=0, preferred=DEFAULT_POINT)
    n = web.size

    def dim_at(order):
        dim = len(jet_kernel(base, order))
        if order > n and dim > len(jet_kernel(base, order - 1)):
            raise AssertionError("kernel dimension increased with the truncation order")
        return dim

    dims = _stabilized_dims(
        n, dim_at, "kernel dimension not stabilized by order {cap}: {dims}", stabilize, max_order
    )
    order = list(dims)[-stabilize]
    rank = dims[order]
    if rank > bol_bound(n):
        raise AssertionError(f"computed rank {rank} exceeds the bound {bol_bound(n)}")
    return rank, KernelBasis(jet_kernel(base, order), order, _jet_columns(n, order))


def rank_only(
    web: Web, base: Optional[BasePoint] = None, stabilize: int = 3, max_order: Optional[int] = None
) -> int:
    return abelian_rank(web, base, stabilize, max_order)[0]


def _embed(v: List[int], subset: Sequence[int], n: int, order: int) -> List[int]:
    """A subweb's jet vector in the web's jet columns: slot si of the subweb
    is foliation subset[si] (1-based), both laid out by _jet_columns."""
    big = [0] * (n * order)
    for si, s in enumerate(subset):
        big[(s - 1) * order : s * order] = v[si * order : (si + 1) * order]
    return big


# ---------------------------------------------------------------------------
# filtration by solution order
# ---------------------------------------------------------------------------


def filtration_dims(
    web: Web,
    base: Optional[BasePoint] = None,
    stabilize: int = 3,
    max_order: Optional[int] = None,
) -> Dict[int, int]:
    """dim F^p for p = 3..N: the span of all p-subweb solution jets inside
    the web's jet coordinate space at its stabilized order.  The web and
    every subweb are ranked with the same stop rule."""
    if base is None:
        base = pick_generic_point(web, seed=0, preferred=DEFAULT_POINT)
    rank, basis = abelian_rank(web, base, stabilize, max_order)
    order = basis.order
    n = web.size
    pivots = invertible_columns(basis.vectors)
    out: Dict[int, int] = {}
    vecs: List[List[int]] = []  # a basis of F^(p-1), then the new jets, on the pivots
    for p in range(3, n + 1):
        for subset in combinations(range(1, n + 1), p):
            sub_base = base.restrict(subset)
            sub_rank = rank_only(sub_base.web, sub_base, stabilize, max_order)
            jets = jet_kernel(sub_base, order)
            if len(jets) != sub_rank:
                raise NotStabilized(
                    f"subweb {subset} kernel at order {order} has dim "
                    f"{len(jets)} but stabilized rank {sub_rank}"
                )
            for v in jets:
                big = _embed(v, subset, n, order)
                vecs.append([big[c] for c in pivots])
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


def rank_report(
    web: Web,
    subweb_sizes: Sequence[int],
    base: Optional[BasePoint] = None,
    stabilize: int = 3,
    max_order: Optional[int] = None,
) -> dict:
    """Rank, maximal-rank flag (and hexagonality for size 3) for every
    subweb of each requested size, in deterministic index order, all at the
    web's base point and with one stop rule."""
    if base is None:
        base = pick_generic_point(web, seed=0, preferred=DEFAULT_POINT)
    entries = []
    for size in sorted(set(subweb_sizes)):
        for subset in combinations(range(1, web.size + 1), size):
            sub_base = base.restrict(subset)
            r = rank_only(sub_base.web, sub_base, stabilize, max_order)
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


AUX_POINT_BUDGET = 40


def _value_closed_points(web: Web, pattern: Pattern, base: BasePoint):
    """Up to AUX_POINT_BUDGET auxiliary rational base points whose
    pattern-slot values stay inside the value set of the primary base point
    (value-sharing makes the jet system see that class germs belong to one
    function)."""
    slots = pattern.slots()
    values = sorted({base.images[s - 1] for s in slots})
    candidates = list(dict.fromkeys(values + list(base.point)))
    integrals = [web.integrals()[s - 1] for s in slots]
    locus = singular_locus(web)

    def value_closed(px, py):
        for u in integrals:
            den = u.den.evaluate(px, py)
            if den == 0 or u.num.evaluate(px, py) / den not in values:
                return False
        return True

    pts = []
    for px in candidates:
        for py in candidates:
            # the cheap value test first (it rejects the poles too); then
            # genericity, off the singular locus
            if (px, py) != base.point and value_closed(px, py) and not locus.vanishes_at(px, py):
                pts.append((px, py))
                if len(pts) >= AUX_POINT_BUDGET:
                    return pts
    return pts


def _pattern_systems(web: Web, pattern: Pattern, base: BasePoint):
    """The auxiliary points, the germ keys (class, value) in order, and the
    pattern's jet systems for _prolong: one per base point, with the terms
    (slot, multiplier, block), where block j is germ key j."""
    slots = pattern.slots()
    aux_pts = _value_closed_points(web, pattern, base)
    bases = [base] + [BasePoint(web, pt) for pt in aux_pts]
    germ_keys = sorted({(pattern.class_of(s), bp.images[s - 1]) for s in slots for bp in bases})
    block = {key: j for j, key in enumerate(germ_keys)}
    systems = [
        (bp, [(s - 1, pattern.multipliers[s], block[(pattern.class_of(s), bp.images[s - 1])]) for s in slots])
        for bp in bases
    ]
    return aux_pts, germ_keys, systems


def _sections(kernel: List[List[int]], n: int, order: int) -> List[List[int]]:
    """The sub-solutions as sections of a web's kernel basis v_1..v_d at
    `order`: for each slot i in turn, a basis of the z with sum z_j v_j = 0
    on i's columns.  Those sums span the kernel of the (N - 1)-subweb
    without i, embedded."""
    out = []
    for i in range(n):
        on_slot = [[v[i * order + k] for v in kernel] for k in range(order)]
        out.extend(exact_nullspace(on_slot, n_cols=len(kernel)).basis)
    return out


def constrained_rank(
    web: Web,
    pattern: Pattern,
    base: Optional[BasePoint] = None,
) -> dict:
    """Kernel of the pattern system, mod constants, with the dimension also
    reported modulo jets of sub-equation solutions (the genuine new content
    of a single-function characterization lives in that quotient)."""
    if base is None:
        base = pick_generic_point(web, seed=0, preferred=DEFAULT_POINT)
    slots = pattern.slots()
    n = web.size
    aux_pts, germ_keys, systems = _pattern_systems(web, pattern, base)
    # columns c_{class, value, k}, k = 0..K: constants are kept in the system
    # and quotiented out of the kernel, so its ladder starts at order -1
    ladder: List[List[List[int]]] = []

    def kernel_at(order):
        return _ladder_kernel(ladder, systems, len(germ_keys), 0, order)

    def dim_at(order):
        # the degree-0 rows alone touch the k = 0 columns, so the constants
        # in the kernel are exactly the order-0 kernel
        return len(kernel_at(order)) - len(kernel_at(0))

    dims = _stabilized_dims(n, dim_at, "constrained system not stabilized: {dims}")
    order = list(dims)[-1]
    kernel = kernel_at(order)
    col_of = {
        (ci, val, k): j * (order + 1) + k
        for j, (ci, val) in enumerate(germ_keys)
        for k in range(order + 1)
    }

    # project kernel vectors to slot-jet coordinates at the primary point and
    # quotient by the span of proper-sub-equation solution jets there, all in
    # the web's kernel at this order and ranked on its pivot columns
    slot_cols = _jet_columns(n, order)
    projected = []
    for v in kernel:
        big = [0] * len(slot_cols)
        for s in slots:
            ci = pattern.class_of(s)
            val = base.images[s - 1]
            m = pattern.multipliers[s]
            for k in range(1, order + 1):
                c = v[col_of[(ci, val, k)]]
                if c:
                    big[slot_cols[(s - 1, k)]] = m * c
        projected.append(big)
    web_kernel = jet_kernel(base, order)
    pivots = invertible_columns(web_kernel)
    on_pivots = [[v[c] for c in pivots] for v in web_kernel]
    short = [[v[c] for c in pivots] for v in projected]
    dim_image = exact_rank_of_span(short)

    # sub-solutions first, so a projected vector is kept iff it enlarges the
    # span of the sub-solution jets and of the projected vectors before it
    sub_jets = [
        [sum(map(mul, z, col)) for col in zip(*on_pivots)] for z in _sections(web_kernel, n, order)
    ]
    n_sub = len(sub_jets)
    genuine = [projected[i - n_sub] for i in independent_rows(sub_jets + short) if i >= n_sub]
    return {
        "web": web.name,
        "dim_mod_constants": dims[order],
        "dim_jet_image": dim_image,
        "dim_mod_subsolutions": len(genuine),
        "order": order,
        "aux_points": [(str(a), str(b)) for a, b in aux_pts],
        "kernel": KernelBasis(kernel, order, col_of),
        "genuine_jets": genuine,
        "slot_columns": slot_cols,
    }
