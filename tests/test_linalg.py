import random
from fractions import Fraction
from itertools import islice
from math import gcd, isqrt, lcm, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from exact_oracle import free_columns, greedy_independent
from planarweb import linalg
from planarweb.linalg import (
    exact_nullspace,
    exact_rank_of_span,
    independent_rows,
    invertible_columns,
    prime_stream,
    rational_reconstruct,
)


def brute_nullspace_dim(rows, n):
    """Independent oracle: plain Fraction Gauss elimination."""
    m = [list(map(Fraction, r)) for r in rows]
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        pr[:] = [v / pr[c] for v in pr]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], pr)]
        rank += 1
    return n - rank


def cleared(rows):
    """Each rational row times the lcm of its denominators: the integer
    matrix that exact_nullspace takes, with the same kernel, and for span
    questions the same vectors up to positive scalars."""
    out = []
    for row in rows:
        den = lcm(*(Fraction(x).denominator for x in row))
        out.append([int(x * den) for x in row])
    return out


def random_matrix(rng, rows, cols, scale=10):
    return [
        [Fraction(rng.randrange(-scale, scale), rng.randrange(1, 5)) for _ in range(cols)]
        for _ in range(rows)
    ]


def test_nullspace_matches_brute_force():
    rng = random.Random(11)
    for _ in range(25):
        rows = rng.randrange(1, 8)
        cols = rng.randrange(1, 8)
        m = random_matrix(rng, rows, cols)
        kern = exact_nullspace(cleared(m), n_cols=cols)
        assert kern.dimension == brute_nullspace_dim(m, cols)
        for v in kern.basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0


def test_nullspace_with_designed_kernel():
    # rows annihilate (1, 2, 3)
    m = [
        [Fraction(2), Fraction(-1), Fraction(0)],
        [Fraction(0), Fraction(3), Fraction(-2)],
    ]
    kern = exact_nullspace(cleared(m))
    assert kern.dimension == 1
    v = kern.basis[0]
    ratio = [Fraction(v[1], v[0]), Fraction(v[2], v[0])]
    assert ratio == [2, 3]


def test_big_entries():
    big = Fraction(10**60 + 7, 3)
    m = [[big, -big], [Fraction(1), Fraction(-1)]]
    kern = exact_nullspace(cleared(m))
    assert kern.dimension == 1


def test_rank_of_span():
    vecs = [
        [Fraction(1), Fraction(0), Fraction(2)],
        [Fraction(0), Fraction(1), Fraction(1)],
        [Fraction(1), Fraction(1), Fraction(3)],
    ]
    assert exact_rank_of_span(cleared(vecs)) == 2


def test_rational_reconstruction_roundtrip():
    rng = random.Random(5)
    primes = []
    stream = prime_stream()
    for _ in range(4):
        primes.append(next(stream))
    m = 1
    for p in primes:
        m *= p
    for _ in range(50):
        q = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**6))
        a = q.numerator * pow(q.denominator, -1, m) % m
        assert rational_reconstruct(a, m) == (q.numerator, q.denominator)


# moduli that are products of one to three of the first six stream primes
STREAM_PRIMES = list(islice(prime_stream(), 6))
MODULI = st.lists(st.sampled_from(STREAM_PRIMES), min_size=1, max_size=3, unique=True).map(prod)


@settings(max_examples=200, deadline=None)
@given(m=MODULI, data=st.data())
def test_rational_reconstruction_returns_the_pair_within_the_bound(m, data):
    bound = isqrt(m // 2)
    # every n/d within the bound comes back as its pair, d > 0, gcd 1
    n = data.draw(st.integers(-bound, bound), label="n")
    d = data.draw(st.integers(1, bound), label="d")
    g = gcd(n, d)
    n, d = n // g, d // g
    assume(gcd(d, m) == 1)
    assert rational_reconstruct(n * pow(d, -1, m) % m, m) == (n, d)
    assert rational_reconstruct(0, m) == (0, 1)
    # a pair returned for any residue is a solution within the bound
    a = data.draw(st.integers(0, m - 1), label="a")
    pair = rational_reconstruct(a, m)
    if pair is not None:
        num, den = pair
        assert den > 0 and gcd(num, den) == 1
        assert abs(num) <= bound and den <= bound
        assert (num - a * den) % m == 0


def rank_deficient_vectors(rng, count, dim, big):
    """Vectors built from a few random generators, with zero and repeated
    vectors mixed in; entries reach 10^60 when big is set."""
    scale = 10**60 if big else 10
    gens = [
        [Fraction(rng.randrange(-scale, scale), rng.randrange(1, 5)) for _ in range(dim)]
        for _ in range(rng.randrange(1, dim + 1))
    ]
    vecs = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.15:
            vecs.append([Fraction(0)] * dim)
        elif kind < 0.3 and vecs:
            vecs.append(list(rng.choice(vecs)))
        else:
            coeffs = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in gens]
            vecs.append([sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(dim)])
    return vecs


def test_independent_rows_is_greedy_selection():
    rng = random.Random(17)
    for trial in range(40):
        dim = rng.randrange(1, 7)
        vecs = rank_deficient_vectors(rng, rng.randrange(1, 10), dim, big=trial % 2 == 1)
        assert independent_rows(cleared(vecs)) == greedy_independent(vecs)
        assert exact_rank_of_span(cleared(vecs)) == dim - brute_nullspace_dim(vecs, dim)


def test_independent_rows_degenerate_inputs():
    assert independent_rows([]) == []
    assert independent_rows(cleared([[Fraction(0)] * 3] * 2)) == []
    v = [Fraction(1), Fraction(-2), Fraction(10**60, 7)]
    assert independent_rows(cleared([v, [Fraction(0)] * 3, v, [2 * x for x in v]])) == [0]


def test_prime_stream_is_decreasing_62_bit_primes():
    sympy = pytest.importorskip("sympy")
    stream = linalg.prime_stream()
    primes = [next(stream) for _ in range(12)]
    assert primes == sorted(set(primes), reverse=True)
    assert all(2**61 < p < 2**62 and sympy.isprime(p) for p in primes)
    # no prime is skipped between the first and the last
    assert [q for q in range(primes[-1], 2**62) if sympy.isprime(q)] == primes[::-1]


def reference_rref(rows, p):
    """Reduced echelon form mod p, reduced after every operation."""
    m = [[v % p for v in row] for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [v * inv % p for v in m[r]]
        for k in range(len(m)):
            if k != r:
                f = m[k][c]
                m[k] = [(a - f * b) % p for a, b in zip(m[k], m[r])]
        pivots.append(c)
    return pivots, m[: len(pivots)]


@pytest.mark.parametrize("p", [linalg._prime(0), 7])
def test_modp_rref_matches_reference(p):
    # negative entries, multiples of p, zero rows, tall and rank-deficient
    # matrices; at p = 7 many pivots vanish mod p
    rng = random.Random(p % 1000)
    for trial in range(300):
        n_rows, n_cols = rng.randrange(0, 10), rng.randrange(1, 9)
        gens = [
            [rng.choice([0, p, -3 * p, rng.randrange(-p, p), rng.randrange(-20, 20)])
             for _ in range(n_cols)]
            for _ in range(rng.randrange(1, n_cols + 1))
        ]
        rows = []
        for _ in range(n_rows):
            if rng.random() < 0.15:
                rows.append([0] * n_cols)
            else:
                cs = [rng.randrange(-5, 6) for _ in gens]
                rows.append([sum(c * g[j] for c, g in zip(cs, gens)) for j in range(n_cols)])
        assert linalg.modp_rref(rows, p) == reference_rref(rows, p), (trial, rows)


def count_modp_rref(monkeypatch, limit=None):
    """Count exact_nullspace's mod-p eliminations; past `limit` calls fail
    the test instead of letting it run on."""
    calls = []
    real = linalg.modp_rref

    def counted(rows, p):
        calls.append(p)
        if limit is not None and len(calls) > limit:
            pytest.fail(f"more than {limit} primes")
        return real(rows, p)

    monkeypatch.setattr(linalg, "modp_rref", counted)
    return calls


def test_first_prime_dividing_an_entry(monkeypatch):
    # 2^62 - 57 is the first prime of the stream: modulo it the pivot is
    # column 1, modulo every later prime column 0 (the pivot over Q)
    p0 = next(linalg.prime_stream())
    assert p0 == 4611686018427387847
    count_modp_rref(monkeypatch, limit=20)
    kern = exact_nullspace([[p0, 1]])
    assert kern.dimension == 1
    assert kern.pivot_cols == [0]
    assert kern.basis == [[-1, p0]]
    assert independent_rows([[p0], [1]]) == [0]
    kern = exact_nullspace([[p0, 1], [0, 1]])
    assert (kern.dimension, kern.basis, kern.pivot_cols) == (0, [], [0, 1])


def test_invertible_columns_skip_a_prime_of_lower_rank(monkeypatch):
    # modulo the first prime p0 the rows [p0, 1] and [0, 1] have rank 1, so
    # their columns are read at the second prime, where the rank is 2
    p0 = next(linalg.prime_stream())
    calls = count_modp_rref(monkeypatch)
    assert invertible_columns([[p0, 1], [0, 1]]) == [0, 1]
    assert calls == [p0, linalg._prime(1)]
    assert invertible_columns([[0, 3, 1], [0, 6, 5]]) == [1, 2]
    assert invertible_columns([]) == []


def test_full_column_rank_needs_one_prime(monkeypatch):
    calls = count_modp_rref(monkeypatch)
    kern = exact_nullspace([[1, 2], [3, 4], [5, 6]])
    assert (kern.dimension, kern.basis, kern.pivot_cols) == (0, [], [0, 1])
    assert len(calls) == 1


def test_kernel_entries_of_300_bits():
    # adding multiples of earlier rows keeps the echelon form [I | B], so the
    # kernel entries are the entries of -B, ratios of about 300-bit integers
    rng = random.Random(23)
    rank, n = 4, 7

    def big():
        return Fraction(rng.getrandbits(300) - 2**299, rng.getrandbits(300) | 1)

    b = [[big() for _ in range(n - rank)] for _ in range(rank)]
    m = []
    for i in range(rank):
        row = [Fraction(int(i == j)) for j in range(rank)] + b[i]
        for earlier in m:
            c = rng.randrange(-3, 4)
            row = [x + c * y for x, y in zip(row, earlier)]
        m.append(row)
    kern = exact_nullspace(cleared(m))
    assert kern.dimension == brute_nullspace_dim(m, n) == n - rank
    assert kern.pivot_cols == list(range(rank))
    for f, v in enumerate(kern.basis):
        assert [Fraction(v[k], v[rank + f]) for k in range(rank)] == [-b[k][f] for k in range(rank)]
        for row in m:
            assert sum(a * x for a, x in zip(row, v)) == 0


def test_kernel_vectors_are_primitive_integer_vectors():
    # random integer matrices with zero rows and repeated rows, all-zero
    # matrices (the identity basis) and full column rank ones (no basis)
    rng = random.Random(29)
    for trial in range(60):
        rows, cols = rng.randrange(0, 7), rng.randrange(1, 8)
        if trial % 6 == 0:
            m = [[0] * cols for _ in range(rows)]
        else:
            scale = 10**40 if trial % 6 == 1 else 9
            m = [[rng.randrange(-scale, scale + 1) for _ in range(cols)] for _ in range(rows)]
            if m and trial % 3 == 2:
                m.append(list(rng.choice(m)))
                m.append([0] * cols)
        kern = exact_nullspace(m, n_cols=cols)
        assert kern.dimension == brute_nullspace_dim(m, cols), (trial, m)
        assert all(len(v) == cols for v in kern.basis)
        assert free_columns(kern.basis) == [c for c in range(cols) if c not in kern.pivot_cols]
        for v in kern.basis:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
        if not any(map(any, m)):
            assert kern.basis == [[int(i == j) for i in range(cols)] for j in range(cols)]
            assert kern.pivot_cols == []
    full = exact_nullspace([[2, 0, 1], [0, 3, 1], [1, 1, 5]])
    assert (full.basis, full.pivot_cols) == ([], [0, 1, 2])
