"""Certified exact linear algebra over Q for the jet systems: integer
matrices in, primitive integer kernel vectors out.

Nullspaces are computed by reduced row echelon form modulo 62-bit primes,
Chinese-remainder combination of the (canonical) echelon kernel basis,
rational reconstruction, and a final exact integer verification M v = 0 of
every basis vector.  The kernel is reconstructed over Q, each entry as an
integer pair (n, d) in lowest terms with d > 0, with no Fraction, and each
basis vector is returned as the primitive integer multiple of the
canonical one, positive on its free column: the lcm of its entries' d
times each n/d.

This is a certificate, not a heuristic: rank mod p never exceeds the rank
over Q, so the mod-p nullity bounds the rational nullity from above, while
exactly verified independent kernel vectors bound it from below.  Once
verification succeeds the two bounds meet and the kernel is exact.  At
full column rank the lift has no entries, so the first prime's empty basis
verifies at once and certifies a zero kernel.

The primes are walked in one order, taken from a prime table that grows on
demand.  Each prime's pivot profile is compared as (rank, pivots): a higher
rank, or the same rank with lexicographically smaller pivots, is better and
restarts the lift, and a worse profile is skipped.  The pivots over Q are
the lex-first profile of their rank, since no prefix of columns has a larger
rank mod p than over Q.  The lift carries every kernel entry's residue from
prime to prime by one Garner step, checks an entry's reconstructed pair
(n, d) against each new prime, n + d r = 0 mod p for its echelon entry r,
and reconstructs only the entries that have none;
a candidate basis is verified after every prime once all entries have one.

The same certificate answers span questions.  Put integer vectors, kernel
vectors among them, in the columns of a matrix: each verified kernel vector
writes one free column as a combination of earlier pivot columns only, so
the pivot columns are exactly the vectors that a greedy pass over Q keeps.
Ranks of spans and independent subsets are read off those pivots; there is
no second elimination engine and no conversion of the vectors.  One prime
also certifies that a square minor is nonzero, since a minor nonzero mod p
is nonzero over Z: invertible_columns reads d columns on which d
independent vectors are invertible from a single elimination.

The primes are the primes just below 2^62, found by a Miller-Rabin test
with the twelve prime bases 2..37, which is a proof below 3.18 * 10^23.
One prime then reconstructs entries n/d with |n|, d <= 2^30.5, so most
kernels need a single prime.  modp_rref eliminates on Python ints and
reduces lazily: each pivot adds less than p^2 to an entry, so the entries
stay below (rank + 1) p^2 until one final reduction mod p.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm
from typing import List, Optional, Sequence, Tuple


# ---------------------------------------------------------------------------
# deterministic prime stream (62-bit)
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
    """Deterministic decreasing stream of the primes below 2^62."""
    n = (1 << 62) - 1
    while n > (1 << 61):
        if _is_prime(n):
            yield n
        n -= 2


# the primes of prime_stream() found so far, extended on demand (not at import)
_PRIMES: List[int] = []
_PRIME_SOURCE = prime_stream()
_MAX_PRIMES = 600  # primes tried per nullspace, lucky or not


def _prime(i: int) -> int:
    """The i-th prime of prime_stream()."""
    while len(_PRIMES) <= i:
        _PRIMES.append(next(_PRIME_SOURCE))
    return _PRIMES[i]


# ---------------------------------------------------------------------------
# mod-p reduced row echelon form
# ---------------------------------------------------------------------------


def modp_rref(rows: Sequence[Sequence[int]], p: int):
    """(pivot columns, reduced rows) of the integer matrix modulo p.

    Gauss-Jordan on lists of ints with lazy reduction: an entry is reduced
    when it is read as a pivot or a multiplier, and the rows only once at
    the end, since each pivot adds less than p^2 to an entry."""
    m = [[v % p for v in row] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    piv_cols: List[int] = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        for i in range(r, n_rows):
            a = m[i][c] % p
            if a:
                break
        else:
            continue
        row = m[i]
        m[i], m[r] = m[r], row
        inv = pow(a, -1, p)
        row[c] = 1
        nz = []
        for j in range(c + 1, n_cols):
            b = row[j] * inv % p
            row[j] = b
            if b:
                nz.append((j, b))
        for k, other in enumerate(m):
            if k != r:
                f = other[c] % p
                if f:
                    other[c] = 0
                    for j, b in nz:
                        other[j] -= f * b
        piv_cols.append(c)
        r += 1
    return piv_cols, [[v % p for v in row] for row in m[:r]]


# ---------------------------------------------------------------------------
# rational reconstruction
# ---------------------------------------------------------------------------


def rational_reconstruct(a: int, m: int) -> Optional[Tuple[int, int]]:
    """The pair (n, d), d > 0 and gcd(n, d) = 1, of the unique n/d with
    a*d = n mod m and |n|, d <= sqrt(m/2), if it exists."""
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
    return (r1, s1) if s1 > 0 else (-r1, -s1)


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
    int_rows = [r for r in mat if any(r)]

    best = None  # (-rank, pivots): the smallest profile seen so far is the best
    for i in range(_MAX_PRIMES):
        p = _prime(i)
        piv, red = modp_rref(int_rows, p)
        profile = (-len(piv), piv)
        if best is None or profile < best:
            best = profile
            lift = _KernelLift(piv, n)
        elif profile != best:
            continue  # unlucky prime: lower rank or a later pivot profile
        kernel = lift.add_prime(p, red)
        if kernel is not None and _verify_kernel(int_rows, kernel):
            return ExactKernel(kernel, piv)
    raise RuntimeError("kernel reconstruction did not converge (unexpected)")


class _KernelLift:
    """Kernel entries of one pivot profile, carried from prime to prime.

    Entry (f, k), for free column f and pivot index k, is v_f[piv[k]], which
    is -red[k][f] modulo each prime.  Its residue modulo the product of the
    primes so far grows by one Garner step per prime.  A reconstructed pair
    (n, d) is kept while every new prime agrees with it, (n + d red[k][f])
    mod p == 0; a kept candidate is also what reconstruction from scratch
    would give, since it already meets the smaller bound of an earlier
    modulus.
    """

    def __init__(self, piv: List[int], n: int):
        self.piv = piv
        self.n = n
        pivots = set(piv)
        self.free = [c for c in range(n) if c not in pivots]
        size = len(self.free) * len(piv)
        self.modulus = 1
        self.residues = [0] * size
        self.values: List[Optional[Tuple[int, int]]] = [None] * size

    def add_prime(self, p: int, red: List[List[int]]) -> Optional[List[List[int]]]:
        """Fold in one prime's echelon rows; return the candidate basis once
        every entry has a value.  Free column f's vector is L v_f, with L the
        lcm of its entries' denominators d_j, and it is primitive: a prime q
        dividing L divides some d_j as often as it divides L, so q divides
        neither L / d_j nor n_j (n_j / d_j is in lowest terms), and not that
        entry L n_j / d_j."""
        m = self.modulus
        inv = pow(m % p, -1, p)
        residues, values = self.residues, self.values
        i = 0
        for f in self.free:
            for row in red:
                r = row[f]
                a = residues[i]
                residues[i] = a + m * ((-r - a) * inv % p)
                v = values[i]
                if v is not None and (v[0] + v[1] * r) % p:
                    values[i] = None
                i += 1
        self.modulus = m = m * p
        for i, v in enumerate(values):
            if v is None:
                v = rational_reconstruct(residues[i], m)
                if v is None:
                    return None  # too few primes; try the rest after the next one
                values[i] = v
        basis = []
        k = len(self.piv)
        for i, f in enumerate(self.free):
            entries = values[i * k : (i + 1) * k]
            den = lcm(*(d for _, d in entries))
            v = [0] * self.n
            v[f] = den
            for c, (num, d) in zip(self.piv, entries):
                v[c] = num * (den // d)
            basis.append(v)
        return basis


def _verify_kernel(int_rows: List[List[int]], basis: List[List[int]]) -> bool:
    """Exact integer check that every vector annihilates every row."""
    for v in basis:
        nz = [(c, val) for c, val in enumerate(v) if val]
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
    pivots of modp_rref at the first prime where the vectors have rank d.
    That d x d minor is nonzero mod p, so it is nonzero over Z, and
    restricting the vectors' span to those columns is injective."""
    for i in range(_MAX_PRIMES):
        piv, _ = modp_rref(vectors, _prime(i))
        if len(piv) == len(vectors):
            return piv
    raise ValueError("the vectors are dependent")


def exact_rank_of_span(vectors: Sequence[Sequence[int]]) -> int:
    """Certified rank of the Q-span of the given vectors."""
    return len(independent_rows(vectors))
