"""Test oracles.

A plain Fraction span reducer, independent of planarweb.linalg: membership
and greedy selection by incremental Gauss elimination over Q, with no
modular arithmetic, so it shares no code path with the certified
multi-modular engine it checks.

The full truncated jet systems, web and multi-point pattern, built in one
piece at one order and solved by one certified nullspace: the systems that
the rank ladders of planarweb.jets prolong a degree at a time.  Their rows
come from this module's own builder, _jet_rows: full-width primitive
integer rows, one per monomial, read from the base point's jet blocks.  The
ladders share no row code with it, since each rung forms its small system
from the blocks directly.

The pattern rank with its sub-solutions read from the ladders of the
(N - 1)-subwebs and every span ranked in the web's nK jet columns, as
planarweb.jets computed it before it took them as sections of the web's
kernel, ranked on that kernel's pivot columns.

The truncated Taylor expansion of a RatFunc at a rational center, exact in
Q: a Fraction jet by binomial expansion of numerator and denominator and one
series division, the reference for the integer jet tables that the jet-rank
linear algebra reads (planarweb.web.BasePoint, built on RatFunc.translate).
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Dict, Tuple

from planarweb.errors import PoleAtCenter
from planarweb.jets import (
    KernelBasis,
    _embed,
    _jet_columns,
    _ladder_kernel,
    _pattern_systems,
    _stabilized_dims,
    jet_kernel,
)
from planarweb.linalg import exact_nullspace, exact_rank_of_span, independent_rows
from planarweb.poly import BivarPoly
from planarweb.ratfunc import RatFunc


class FractionSpan:
    """Echelon basis of a growing Q-span."""

    def __init__(self, vectors=()):
        self.rows = []
        self.pivots = []
        for v in vectors:
            self.add(v)

    def _reduce(self, v):
        w = [Fraction(x) for x in v]
        for row, pc in zip(self.rows, self.pivots):
            if w[pc]:
                f = w[pc]
                w = [a - f * b if b else a for a, b in zip(w, row)]
        return w

    def contains(self, v):
        return not any(self._reduce(v))

    def add(self, v):
        """Add v to the span; True iff it enlarged the span."""
        w = self._reduce(v)
        pc = next((c for c, a in enumerate(w) if a), None)
        if pc is None:
            return False
        f = w[pc]
        self.rows.append([a / f for a in w])
        self.pivots.append(pc)
        return True

    @property
    def rank(self):
        return len(self.rows)


def greedy_independent(vectors):
    """Indices of the vectors that enlarge the span of those before them."""
    span = FractionSpan()
    return [i for i, v in enumerate(vectors) if span.add(v)]


def assert_primitive(basis):
    """Check that every vector of a basis holds Python ints only and has gcd
    1, as the rank ladders of planarweb.jets give them.  A prolonged basis
    need not be in echelon form."""
    for v in basis:
        assert all(type(x) is int for x in v), v
        assert gcd(*v) == 1, v


def free_columns(basis):
    """Check that a kernel basis is in the integer contract of
    planarweb.linalg.exact_nullspace and return its free columns.  Every
    vector holds Python ints only and has gcd 1; its last nonzero entry is
    positive, and every other vector is zero there.  In the canonical basis
    that entry is the vector's free column, since a vector is zero right of
    it."""
    assert_primitive(basis)
    free = []
    for v in basis:
        last = max(c for c, x in enumerate(v) if x)
        assert v[last] > 0, v
        free.append(last)
    for i, f in enumerate(free):
        assert all(w[f] == 0 for j, w in enumerate(basis) if j != i), f
    return free


def _jet_rows(base, terms, degree, n_cols, first_power):
    """The degree-`degree` rows of sum over terms (i, m, col) of
    m * sum_k c_{col+k} v_i^k, k = first_power..degree, read from the base
    point's jet table: one row per monomial of that total degree with a
    nonzero coefficient.  The coefficients of a degree-n monomial in
    v_i^0..v_i^n are one block row over d0_i^(2n), so each row is the sum of
    m * block row times the lcm of the d0_i^(2n) it touches over d0_i^(2n),
    divided by its gcd: the primitive integer row proportional to the
    rational one.  Terms may share a col (a pattern's germ blocks), so
    their entries add."""
    blocks = [(base.jet_block(i, degree), m, col) for i, m, col in terms]
    rows = []
    for a in range(degree + 1):
        hits = [(den, m, col, cs[a]) for (den, cs), m, col in blocks if any(cs[a][first_power:])]
        if not hits:
            continue
        scale = lcm(*(den for den, _, _, _ in hits))
        row = [0] * n_cols
        for den, m, col, cs in hits:
            f = m * (scale // den)
            for k in range(first_power, degree + 1):
                row[col + k] += f * cs[k]
        g = gcd(*row)
        if g:
            rows.append([x // g for x in row] if g > 1 else row)
    return rows


class JetSystem:
    """Exact truncated linear system of a web at a base point, all degrees
    1..order at once, as primitive integer rows built from the base point's
    jet table, in the columns of jets._jet_columns."""

    def __init__(self, web, base, order):
        self.web = web
        self.base = base
        self.order = order
        self.unknown_index = _jet_columns(web.size, order)
        terms = [(i, 1, i * order - 1) for i in range(web.size)]
        n_cols = len(self.unknown_index)
        self.rows = [r for degree in range(order + 1) for r in _jet_rows(base, terms, degree, n_cols, 1)]

    def nullspace(self):
        return exact_nullspace(self.rows, n_cols=len(self.unknown_index))


def pattern_system(systems, n_blocks, order):
    """Rows and certified kernel of a multi-point pattern system at one
    order, all degrees 0..order at once: the (base point, terms) systems of
    jets._pattern_systems stacked, block j holding the columns k = 0..order."""
    n_cols = n_blocks * (order + 1)
    rows = []
    for base, terms in systems:
        cols = [(i, m, b * (order + 1)) for i, m, b in terms]
        for degree in range(order + 1):
            rows.extend(_jet_rows(base, cols, degree, n_cols, 0))
    return rows, exact_nullspace(rows, n_cols=n_cols)


def constrained_rank_by_subweb_ladders(web, pattern, base):
    """jets.constrained_rank's report computed the earlier way: the
    constants quotiented by a span rank at every order, the sub-solution
    jets from each (N - 1)-subweb's own ladder, embedded, and every span
    ranked in the web's nK jet columns."""
    slots = pattern.slots()
    n = web.size
    aux_pts, germ_keys, systems = _pattern_systems(web, pattern, base)
    ladder = []

    def dim_at(order):
        kernel = _ladder_kernel(ladder, systems, len(germ_keys), 0, order)
        width = order + 1
        return exact_rank_of_span([[c for j, c in enumerate(v) if j % width] for v in kernel])

    dims = _stabilized_dims(n, dim_at, "constrained system not stabilized: {dims}")
    order = list(dims)[-1]
    kernel = _ladder_kernel(ladder, systems, len(germ_keys), 0, order)
    col_of = {
        (ci, val, k): j * (order + 1) + k
        for j, (ci, val) in enumerate(germ_keys)
        for k in range(order + 1)
    }
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
    dim_image = exact_rank_of_span(projected)
    sub_jets = []
    for subset in combinations(range(1, n + 1), n - 1):
        jets = jet_kernel(base.restrict(subset), order)
        sub_jets.extend(_embed(v, subset, n, order) for v in jets)
    n_sub = len(sub_jets)
    genuine = [
        projected[i - n_sub] for i in independent_rows(sub_jets + projected) if i >= n_sub
    ]
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


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

JetTerms = Dict[Tuple[int, int], Fraction]


def taylor(f: RatFunc, center: Tuple[Fraction, Fraction], order: int) -> "SeriesJet":
    """Exact truncated Taylor expansion at a non-pole rational center."""
    cx, cy = Fraction(center[0]), Fraction(center[1])
    if f.den.evaluate(cx, cy) == 0:
        raise PoleAtCenter(f"denominator vanishes at ({cx}, {cy})")
    num_j = _poly_jet(f.num, cx, cy, order)
    den_j = _poly_jet(f.den, cx, cy, order)
    return SeriesJet((cx, cy), order, _jet_div(num_j, den_j, order))


class SeriesJet:
    """Truncated power series at a center, coefficients indexed by (i, j)
    with i + j <= order; absent keys are zero."""

    __slots__ = ("center", "order", "coeffs")

    def __init__(self, center, order: int, coeffs: JetTerms):
        self.center = (Fraction(center[0]), Fraction(center[1]))
        self.order = order
        self.coeffs = {e: c for e, c in coeffs.items() if c and e[0] + e[1] <= order}

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.coeffs.get((i, j), Fraction(0))

    def __eq__(self, other):
        return (
            isinstance(other, SeriesJet)
            and self.center == other.center
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def truncate(self, order: int) -> "SeriesJet":
        return SeriesJet(
            self.center,
            order,
            {e: c for e, c in self.coeffs.items() if e[0] + e[1] <= order},
        )

    def __mul__(self, other: "SeriesJet") -> "SeriesJet":
        assert self.center == other.center
        order = min(self.order, other.order)
        return SeriesJet(self.center, order, _jet_mul(self.coeffs, other.coeffs, order))

    def __repr__(self):
        return f"SeriesJet(center={self.center}, order={self.order}, {len(self.coeffs)} terms)"


def _jet_mul(a: JetTerms, b: JetTerms, order: int) -> JetTerms:
    out: JetTerms = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            i, j = i1 + i2, j1 + j2
            if i + j > order:
                continue
            e = (i, j)
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _jet_div(a: JetTerms, b: JetTerms, order: int) -> JetTerms:
    """a / b as jets; b must have nonzero constant term."""
    b0 = b.get((0, 0), Fraction(0))
    if b0 == 0:
        raise PoleAtCenter("jet division by a series vanishing at the center")
    # invert b by the graded recurrence inv_n = -(1/b0) * sum b_k inv_{n-k}
    inv: JetTerms = {(0, 0): 1 / b0}
    for n in range(1, order + 1):
        for i in range(n + 1):
            j = n - i
            s = Fraction(0)
            for (bi, bj), bc in b.items():
                if (bi, bj) == (0, 0) or bi > i or bj > j:
                    continue
                c = inv.get((i - bi, j - bj))
                if c:
                    s += bc * c
            if s:
                inv[(i, j)] = -s / b0
    return _jet_mul(a, inv, order)


def _poly_jet(p: BivarPoly, cx: Fraction, cy: Fraction, order: int) -> JetTerms:
    """Jet of a polynomial at (cx, cy): expand each monomial by binomials."""
    from math import comb

    out: JetTerms = {}
    for (ex, ey), c in p.terms.items():
        # (cx + u)^ex (cy + v)^ey
        for i in range(min(ex, order) + 1):
            pa = comb(ex, i) * cx ** (ex - i)
            if pa == 0 and ex - i > 0:
                continue
            for j in range(min(ey, order - i) + 1):
                pb = comb(ey, j) * cy ** (ey - j)
                if pb == 0 and ey - j > 0:
                    continue
                e = (i, j)
                s = out.get(e, 0) + c * pa * pb
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
    return out
