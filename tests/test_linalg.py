import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from exact_oracle import fraction_rref, free_columns, greedy_independent, rref_kernel
from planarweb import linalg
from planarweb.linalg import (
    exact_nullspace,
    exact_rank_of_span,
    independent_rows,
    invertible_columns,
)


def brute_nullspace_dim(rows, n):
    """Independent oracle: the nullity of the Fraction RREF."""
    return n - len(fraction_rref(rows, n)[0])


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


# the prime 2^62 - 57: modulo it the row [P0, 1] has its pivot at column 1,
# over Q at column 0
P0 = 4611686018427387847


def test_first_prime_dividing_an_entry():
    kern = exact_nullspace([[P0, 1]])
    assert kern.dimension == 1
    assert kern.pivot_cols == [0]
    assert kern.basis == [[-1, P0]]
    assert independent_rows([[P0], [1]]) == [0]
    kern = exact_nullspace([[P0, 1], [0, 1]])
    assert (kern.dimension, kern.basis, kern.pivot_cols) == (0, [], [0, 1])


def test_invertible_columns_skip_a_prime_of_lower_rank():
    # modulo P0 the rows [P0, 1] and [0, 1] have rank 1, over Q rank 2
    assert invertible_columns([[P0, 1], [0, 1]]) == [0, 1]
    assert invertible_columns([[0, 3, 1], [0, 6, 5]]) == [1, 2]
    assert invertible_columns([]) == []
    with pytest.raises(ValueError):
        invertible_columns([[1, 2, 3], [0, 0, 0]])
    with pytest.raises(ValueError):
        invertible_columns([[P0, 1], [2 * P0, 2]])


def test_full_column_rank_needs_one_prime():
    kern = exact_nullspace([[1, 2], [3, 4], [5, 6]])
    assert (kern.dimension, kern.basis, kern.pivot_cols) == (0, [], [0, 1])


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


@st.composite
def integer_matrices(draw):
    """(n, rows): up to 8 rows of n <= 8 integer entries of up to 300 bits,
    with zero rows, repeated rows and integer combinations of earlier rows
    mixed in, and zero entries common enough to leave columns free."""
    n = draw(st.integers(1, 8), label="n")
    bound = 2 ** draw(st.integers(1, 300), label="bits")
    entry = st.one_of(st.just(0), st.integers(-bound, bound))
    rows = []
    for _ in range(draw(st.integers(0, 8), label="rows")):
        kind = draw(st.sampled_from(["new", "zero", "repeat", "combination"]))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "new" or not rows:
            rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            cs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(cs, rows)) for j in range(n)])
    return n, rows


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_kernel_basis_is_the_primitive_rref_basis(matrix):
    n, rows = matrix
    pivots, red = fraction_rref(rows, n)
    # each reduced row is a positive multiple of its RREF row
    gj_pivots, gj_rows = linalg._gauss_jordan(rows, n)
    assert gj_pivots == pivots
    for c, row, ref in zip(pivots, gj_rows, red):
        assert row[c] > 0
        assert [Fraction(x, row[c]) for x in row] == ref
    # each basis vector is the primitive integer multiple of the RREF
    # kernel vector of its free column, positive there
    kern = exact_nullspace(rows, n_cols=n)
    assert kern.pivot_cols == pivots
    free = [c for c in range(n) if c not in pivots]
    assert len(kern.basis) == len(free)
    for f, v, ref in zip(free, kern.basis, rref_kernel(rows, n)):
        assert v[f] > 0 and gcd(*v) == 1
        assert [Fraction(x, v[f]) for x in v] == ref
    # independent rows are invertible on the RREF pivots; dependent ones fail
    independent = [rows[i] for i in greedy_independent(rows)]
    assert invertible_columns(independent) == pivots
    if len(independent) < len(rows):
        with pytest.raises(ValueError):
            invertible_columns(rows)
