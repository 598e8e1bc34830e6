"""Test oracles.

A plain Fraction span reducer, independent of planarweb.linalg: membership
and greedy selection by incremental Gauss elimination over Q, with no
modular arithmetic, so it shares no code path with the certified
multi-modular engine it checks.

The full truncated jet systems, web and multi-point pattern, built in one
piece at one order and solved by one certified nullspace: the systems that
the rank ladders of planarweb.jets prolong a degree at a time.
"""

from fractions import Fraction
from math import gcd

from planarweb.jets import _jet_columns, _jet_rows
from planarweb.linalg import exact_nullspace


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
        self.rows = _jet_rows(base, terms, order, len(self.unknown_index), 1)

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
        rows.extend(_jet_rows(base, cols, order, n_cols, 0))
    return rows, exact_nullspace(rows, n_cols=n_cols)
