"""Plain Fraction span reducer: a test oracle independent of planarweb.linalg.

Membership and greedy selection by incremental Gauss elimination over Q,
with no modular arithmetic, so it shares no code path with the certified
multi-modular engine it checks.
"""

from fractions import Fraction
from math import gcd


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


def free_columns(basis):
    """Check that a kernel basis is in the integer contract of
    planarweb.linalg.exact_nullspace and return its free columns.  Every
    vector holds Python ints only and has gcd 1; its last nonzero entry is
    positive, and every other vector is zero there.  In the canonical basis
    that entry is the vector's free column, since a vector is zero right of
    it."""
    free = []
    for v in basis:
        assert all(type(x) is int for x in v), v
        assert gcd(*v) == 1, v
        last = max(c for c, x in enumerate(v) if x)
        assert v[last] > 0, v
        free.append(last)
    for i, f in enumerate(free):
        assert all(w[f] == 0 for j, w in enumerate(basis) if j != i), f
    return free
