"""Certified exact linear algebra over Q for the jet systems: integer
matrices in, primitive integer kernel vectors out.

One Gauss-Jordan elimination over Z, `_gauss_jordan`, serves every
question.  Each column in turn takes as pivot row the unused row whose
entry there is nonzero and smallest in absolute value, made positive (p);
every other row r with entry f there becomes (p/g) r - (f/g) pivot_row,
g = gcd(p, f), divided by its content.  Each step is invertible over Q
(p != 0), so the row space, and with it the kernel, is preserved exactly,
and the reduced rows are the reduced row echelon form over Q up to one
positive scalar per row.  The entries stay bounded by the pivot minors, as
in Bareiss's integer-preserving elimination.  The pivot columns are the
lex-first profile of the rank, whichever rows are chosen as pivots.

The kernel is read from the reduced rows, so it is a certificate by
construction: free column f has the vector v with v[f] = L, the lcm of the
pivot entries a_i of the rows with row_i[f] != 0, and v[piv_i] =
-row_i[f] (L / a_i), divided by its gcd.  That is the primitive integer
multiple of the canonical (RREF) kernel vector of f, positive on its free
column.

The same elimination answers span questions.  Put integer vectors in the
columns of a matrix: each kernel vector writes one free column as a
combination of earlier pivot columns only, so the pivot columns are
exactly the vectors that a greedy pass over Q keeps, and ranks of spans
and independent subsets are read off them.  Put d independent vectors in
the rows instead: their d pivot columns carry an invertible d x d minor
(the reduced rows are diagonal there), so restricting the vectors' span to
those columns is injective (invertible_columns).
"""

from __future__ import annotations

from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple


def _gauss_jordan(rows: Sequence[Sequence[int]], n: int) -> Tuple[List[int], List[List[int]]]:
    """(pivot columns, reduced rows) of an integer matrix with n columns:
    reduced row i is a positive multiple of the i-th row of the RREF over
    Q, positive at pivots[i] and zero at every other pivot column."""
    m = [list(r) for r in rows if any(r)]
    pivots: List[int] = []
    for c in range(n):
        r = len(pivots)
        if r == len(m):
            break
        candidates = [(abs(x[c]), k) for k, x in enumerate(m[r:], r) if x[c]]
        if not candidates:
            continue
        i = min(candidates)[1]
        row = m[i]
        if row[c] < 0:
            row = [-x for x in row]
        m[i] = m[r]
        m[r] = row
        p = row[c]
        kept = []
        for other in m:
            f = other[c]
            if f and other is not row:
                g = gcd(p, f)
                a, b = p // g, f // g
                other = [a * x - b * y for x, y in zip(other, row)]
                h = gcd(*other)
                if h == 0:
                    continue  # a row dependent on the pivot rows
                if h > 1:
                    other = [x // h for x in other]
            kept.append(other)
        m = kept
        pivots.append(c)
    return pivots, m[: len(pivots)]


class ExactKernel:
    """Certified nullspace: a basis of primitive integer vectors, each
    positive on its free column, and the pivot columns."""

    def __init__(self, basis: List[List[int]], pivot_cols: List[int]):
        self.basis = basis
        self.pivot_cols = pivot_cols

    @property
    def dimension(self) -> int:
        return len(self.basis)


def exact_nullspace(mat: Sequence[Sequence[int]], n_cols: Optional[int] = None) -> ExactKernel:
    """Certified exact nullspace of an integer matrix.  A matrix without a
    nonzero row has no pivots, so its basis is the identity."""
    n = n_cols if n_cols is not None else (len(mat[0]) if mat else 0)
    pivots, red = _gauss_jordan(mat, n)
    pivot_set = set(pivots)
    basis = []
    for f in range(n):
        if f in pivot_set:
            continue
        hits = [(c, row[c], row[f]) for c, row in zip(pivots, red) if row[f]]
        den = lcm(*(a for _, a, _ in hits))
        v = [0] * n
        v[f] = den
        for c, a, e in hits:
            v[c] = -e * (den // a)
        g = gcd(*v)
        basis.append([x // g for x in v] if g > 1 else v)
    return ExactKernel(basis, pivots)


def independent_rows(vectors: Sequence[Sequence[int]]) -> List[int]:
    """Indices of the vectors a greedy pass over Q keeps, in order.

    Vector i is kept iff it is not in the span of vectors 0..i-1.  These are
    the pivot columns of the certified nullspace of the matrix whose columns
    are the vectors (see the module docstring).
    """
    if not vectors:
        return []
    return exact_nullspace(list(zip(*vectors)), n_cols=len(vectors)).pivot_cols


def invertible_columns(vectors: Sequence[Sequence[int]]) -> List[int]:
    """d columns on which d independent integer vectors are invertible: the
    pivot columns of their elimination, where the d x d minor is nonzero, so
    restricting the vectors' span to those columns is injective."""
    if not vectors:
        return []
    pivots, _ = _gauss_jordan(vectors, len(vectors[0]))
    if len(pivots) < len(vectors):
        raise ValueError("the vectors are dependent")
    return pivots


def exact_rank_of_span(vectors: Sequence[Sequence[int]]) -> int:
    """Certified rank of the Q-span of the given vectors."""
    return len(independent_rows(vectors))
