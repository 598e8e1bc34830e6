"""Certified exact linear algebra over Q for the jet systems.

Nullspaces are computed by reduced row echelon form modulo several word-sized
primes, Chinese-remainder combination of the (canonical) echelon kernel
basis, rational reconstruction, and a final exact integer verification
M v = 0 of every basis vector.

This is a certificate, not a heuristic: rank mod p never exceeds the rank
over Q, so the mod-p nullity bounds the rational nullity from above, while
exactly verified independent kernel vectors bound it from below.  Once
verification succeeds the two bounds meet and the kernel is exact.

The same certificate answers span questions.  Put vectors in the columns of
a matrix: each verified kernel vector writes one free column as a combination
of earlier pivot columns only, so the pivot columns are exactly the vectors
that a greedy pass over Q keeps.  Ranks of spans and independent subsets are
read off those pivots; there is no second elimination engine.

Primes are 27-bit so the elimination fits int64 numpy arithmetic:
modp_rref reduces mod p after every row operation, so no intermediate
exceeds (p-1)^2 < 2^63.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import List, Optional, Sequence, Tuple

import numpy as np


# ---------------------------------------------------------------------------
# deterministic prime stream (27-bit)
# ---------------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_stream():
    """Deterministic decreasing stream of 27-bit primes."""
    n = (1 << 27) - 1
    while n > (1 << 26):
        if _is_prime(n):
            yield n
        n -= 2


# ---------------------------------------------------------------------------
# mod-p reduced row echelon form
# ---------------------------------------------------------------------------


def modp_rref(rows: Sequence[Sequence[int]], p: int):
    """(pivot columns, reduced rows) of the integer matrix modulo p."""
    if not rows:
        return [], []
    m = np.array([[v % p for v in row] for row in rows], dtype=np.int64)
    n_rows, n_cols = m.shape
    piv_cols: List[int] = []
    r = 0
    for c in range(n_cols):
        if r >= n_rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        m[r] = (m[r] * pow(int(m[r, c]), p - 2, p)) % p
        others = np.nonzero(m[:, c])[0]
        others = others[others != r]
        if others.size:
            m[others] = (m[others] - np.outer(m[others, c], m[r])) % p
        piv_cols.append(c)
        r += 1
    return piv_cols, m[: len(piv_cols)].tolist()


# ---------------------------------------------------------------------------
# rational reconstruction
# ---------------------------------------------------------------------------


def rational_reconstruct(a: int, m: int) -> Optional[Fraction]:
    """Unique n/d with a*d = n mod m, |n|, d <= sqrt(m/2), if it exists."""
    a %= m
    bound = isqrt(m // 2)
    r0, r1 = m, a
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    if gcd(abs(r1), abs(s1)) != 1:
        return None
    return Fraction(r1 * (1 if s1 > 0 else -1), abs(s1))


def _clear_rows(mat: Sequence[Sequence[Fraction]]) -> List[List[int]]:
    """Scale each row to coprime integers (kernel unchanged).  A row of
    Python ints is taken as it is."""
    out = []
    for row in mat:
        if all(type(v) is int for v in row):
            out.append(row)
            continue
        den = 1
        for v in row:
            if v:
                den = den * v.denominator // gcd(den, v.denominator)
        ints = [int(v * den) for v in row]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


class ExactKernel:
    """Certified nullspace: dimension, exact basis, pivot structure."""

    def __init__(self, dimension: int, basis: List[List[Fraction]], pivot_cols: List[int]):
        self.dimension = dimension
        self.basis = basis
        self.pivot_cols = pivot_cols


def exact_nullspace(
    mat: Sequence[Sequence[Fraction]], n_cols: Optional[int] = None
) -> ExactKernel:
    """Certified exact nullspace of a rational matrix."""
    rows = [list(r) for r in mat]
    if not rows or all(not any(r) for r in rows):
        n = n_cols if n_cols is not None else (len(rows[0]) if rows else 0)
        basis = [
            [Fraction(1) if i == j else Fraction(0) for i in range(n)] for j in range(n)
        ]
        return ExactKernel(n, basis, [])
    n = len(rows[0])
    int_rows = [r for r in _clear_rows(rows) if any(r)]

    primes_used: List[int] = []
    residues: List[dict] = []  # per prime: (free_col, piv_idx) -> residue
    best: Optional[Tuple[Tuple[int, ...], int]] = None  # (pivots, rank)
    stream = prime_stream()
    max_primes = 600

    while len(primes_used) < max_primes:
        p = next(stream)
        piv, red = modp_rref(int_rows, p)
        key = tuple(piv)
        if best is None or len(piv) > best[1]:
            best = (key, len(piv))
            primes_used, residues = [], []
        if key != best[0]:
            continue  # unlucky prime (lower or different rank profile)
        primes_used.append(p)
        piv_list = list(best[0])
        free_cols = sorted(set(range(n)).difference(piv_list))
        residues.append({(f, k): red[k][f] for f in free_cols for k in range(len(piv_list))})
        # try to reconstruct after every second prime
        if len(primes_used) % 2 == 0:
            kernel = _crt_reconstruct(primes_used, residues, piv_list, free_cols, n)
            if kernel is not None and _verify_kernel(int_rows, kernel):
                return ExactKernel(len(free_cols), kernel, piv_list)
    raise RuntimeError("kernel reconstruction did not converge (unexpected)")


def _crt_reconstruct(primes, residues, piv_list, free_cols, n):
    modulus = 1
    for p in primes:
        modulus *= p
    # precompute CRT multipliers
    mults = []
    for p in primes:
        mp = modulus // p
        mults.append(mp * pow(mp % p, p - 2, p))
    basis = []
    for f in free_cols:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for k, c in enumerate(piv_list):
            acc = 0
            for mult, res in zip(mults, residues):
                acc += mult * res[(f, k)]
            rec = rational_reconstruct((-acc) % modulus, modulus)
            if rec is None:
                return None
            v[c] = rec
        basis.append(v)
    return basis


def _verify_kernel(int_rows: List[List[int]], basis: List[List[Fraction]]) -> bool:
    """Exact integer check that every vector annihilates every row."""
    for v in basis:
        den = 1
        for x in v:
            if x:
                den = den * x.denominator // gcd(den, x.denominator)
        iv = [x.numerator * (den // x.denominator) for x in v]
        nz = [(c, val) for c, val in enumerate(iv) if val]
        for row in int_rows:
            s = 0
            for c, val in nz:
                rc = row[c]
                if rc:
                    s += rc * val
            if s:
                return False
    return True


# ---------------------------------------------------------------------------
# span ranks and independent subsets
# ---------------------------------------------------------------------------


def independent_rows(vectors: Sequence[Sequence[Fraction]]) -> List[int]:
    """Indices of the vectors a greedy pass over Q keeps, in order.

    Vector i is kept iff it is not in the span of vectors 0..i-1.  These are
    the pivot columns of the certified nullspace of the matrix whose columns
    are the vectors (see the module docstring).
    """
    if not vectors:
        return []
    return exact_nullspace(list(zip(*vectors)), n_cols=len(vectors)).pivot_cols


def exact_rank_of_span(vectors: Sequence[Sequence[Fraction]]) -> int:
    """Certified rank of the Q-span of the given vectors."""
    return len(independent_rows(vectors))
