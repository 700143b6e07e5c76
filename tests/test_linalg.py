import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rncsplit import linalg
from rncsplit.fields import FieldSpec, RATIONALS
from tests.helpers import (
    FractionRowSpace,
    ListRowSpaceMod,
    NumpyRowSpace,
    canonical_q,
    det,
    nullspace,
    nullspace_frac,
    rref,
    rref_frac,
    rref_list_mod,
    rref_mod,
    row_echelon_list_mod,
)

GF = FieldSpec(32003)


def rand_matrix(rnd, field, m, n, lo=-9, hi=9):
    return [[field.from_int(rnd.randrange(lo, hi + 1)) for _ in range(n)] for _ in range(m)]


@pytest.mark.parametrize("field", [RATIONALS, GF])
def test_rank_and_nullspace_known(field):
    one = field.one
    two = field.from_int(2)
    A = [[one, two], [two, field.from_int(4)]]
    assert linalg.rank(A, field) == 1
    ns = nullspace(A, field)
    assert len(ns) == 1
    x = ns[0]
    assert field.is_zero(field.add(field.mul(A[0][0], x[0]), field.mul(A[0][1], x[1])))


@pytest.mark.parametrize("field", [RATIONALS, GF])
def test_nullspace_annihilates_random(field):
    rnd = random.Random(17)
    for _ in range(25):
        m, n = rnd.randrange(1, 6), rnd.randrange(1, 7)
        A = rand_matrix(rnd, field, m, n)
        ns = nullspace(A, field)
        assert len(ns) == n - linalg.rank(A, field)
        for v in ns:
            for row in A:
                acc = field.zero
                for a, x in zip(row, v):
                    acc = field.add(acc, field.mul(a, x))
                assert field.is_zero(acc)


def test_rank_agrees_between_fields():
    rnd = random.Random(23)
    for _ in range(20):
        m, n = rnd.randrange(1, 6), rnd.randrange(1, 6)
        ints = [[rnd.randrange(-5, 6) for _ in range(n)] for _ in range(m)]
        rq = linalg.rank([[Fraction(x) for x in row] for row in ints], RATIONALS)
        rp = linalg.rank([[x % GF.p for x in row] for row in ints], GF)
        # entries are tiny compared to the prime, so no accidental rank drop
        assert rq == rp


@pytest.mark.parametrize("field", [RATIONALS, GF])
def test_det(field):
    A = [[field.from_int(2), field.from_int(1)], [field.from_int(7), field.from_int(4)]]
    assert det(A, field) == field.from_int(1)
    B = [[field.one, field.one], [field.one, field.one]]
    assert field.is_zero(det(B, field))
    # permutation sign
    P = [[field.zero, field.one], [field.one, field.zero]]
    assert det(P, field) == field.neg(field.one)


@pytest.mark.parametrize("field", [RATIONALS, GF])
def test_rowspace_incremental(field):
    rs = linalg.RowSpace(field, 3)
    v1 = [field.one, field.zero, field.one]
    v2 = [field.zero, field.one, field.zero]
    summed = [field.one, field.one, field.one]
    inserted = [rs.insert(v) is not None for v in (v1, v2, summed, [field.one, field.zero, field.zero])]
    assert inserted == [True, True, False, True]  # summed is dependent
    assert sum(inserted) == 3


def _rank_mod_p(rows, p):
    """Pure-Python Gaussian elimination mod p on Python ints."""
    A = [[x % p for x in row] for row in rows]
    r = 0
    for c in range(len(A[0])):
        piv = next((i for i in range(r, len(A)) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(A[r][c], p - 2, p)
        for i in range(len(A)):
            if i != r and A[i][c]:
                f = A[i][c] * inv % p
                A[i] = [(a - f * b) % p for a, b in zip(A[i], A[r])]
        r += 1
    return r


def test_rank_at_largest_allowed_prime():
    # products of random m x k and k x n factors with full-size entries mod
    # p = 2^31 - 1, dense enough that every row is nonzero in every column
    p = 2**31 - 1
    K = FieldSpec(p)
    rnd = random.Random(2**31)
    for _ in range(8):
        m, n, k = rnd.randrange(24, 33), rnd.randrange(24, 33), rnd.randrange(1, 24)
        U = [[rnd.randrange(p) for _ in range(k)] for _ in range(m)]
        V = [[rnd.randrange(p) for _ in range(n)] for _ in range(k)]
        A = [[sum(U[i][l] * V[l][j] for l in range(k)) % p for j in range(n)] for i in range(m)]
        r = _rank_mod_p(A, p)
        assert linalg.rank(A, K, n) == r
        assert rref(A, K, n) == rref_mod(A, n, p)
        basis = nullspace(A, K, n)
        assert len(basis) == n - r
        for v in basis:
            assert all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in A)


def test_empty_matrices():
    assert linalg.rank([], RATIONALS, 0) == 0
    assert nullspace([], RATIONALS, 3) == [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]
    # no rows, and rows of width 0, as section matrices at low twists have
    assert linalg.rank([], GF, 3) == 0
    assert nullspace([], GF, 3) == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]
    assert linalg.rank([[], [], []], GF, 0) == 0
    assert nullspace([[], [], []], GF, 0) == []
    assert linalg.rank([[], [], []], RATIONALS, 0) == 0
    assert nullspace([[], [], []], RATIONALS, 0) == []


# Rational entries: ints and Fractions, zeros, negatives, and huge numerators
# and denominators.
HUGE = Fraction(10**30, 7**20)
ENTRIES = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.sampled_from([HUGE, -HUGE, 1 / HUGE, Fraction(-(7**20), 3)]),
)


@st.composite
def rational_systems(draw):
    """(rows, width): up to 6 random rows of the given width, then up to
    three repeats or multiples of earlier rows."""
    width = draw(st.integers(0, 7))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=width, max_size=width), max_size=6))
    if rows:
        for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)):
            scale = draw(st.sampled_from([1, -1, Fraction(2, 3), HUGE]))
            rows.append([scale * x for x in rows[i]])
    return rows, width


def _all_canonical(vectors):
    return all(canonical_q(x) for v in vectors for x in v)


@settings(deadline=None)
@given(rational_systems())
@example(([], 0))
@example(([], 3))
@example(([[], [], []], 0))
@example(([[0, 0, 0], [0, 0, 0]], 3))
@example(([[HUGE, -1, 2], [HUGE, -1, 2], [0, 0, 0]], 3))
def test_integer_elimination_matches_fraction_oracle(system):
    rows, width = system
    R, pivots = rref(rows, RATIONALS, width)
    assert (R, pivots) == rref_frac([[Fraction(a) for a in row] for row in rows])
    assert _all_canonical(R)
    assert linalg.rank(rows, RATIONALS, width) == len(pivots)
    basis = nullspace(rows, RATIONALS, width)
    assert basis == nullspace_frac(rows, width)
    assert _all_canonical(basis)

    span, oracle = linalg.RowSpace(RATIONALS, width), FractionRowSpace(width)
    for v in rows + basis:
        res = span.insert(v)
        assert res == oracle.insert(v)
        assert res is None or _all_canonical([res])


@st.composite
def prime_field_systems(draw):
    """(field, rows, width): up to 6 random rows mod a small or large prime,
    then up to three multiples of earlier rows, so that ranks drop."""
    p = draw(st.sampled_from([2, 3, 7, 32003, 2**31 - 1]))
    width = draw(st.integers(0, 8))
    entry = st.one_of(st.just(0), st.integers(0, p - 1))
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=6))
    if rows:
        for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)):
            scale = draw(st.integers(0, p - 1))
            rows.insert(draw(st.integers(0, len(rows))), [scale * x % p for x in rows[i]])
    return FieldSpec(p), rows, width


@settings(deadline=None)
@given(rational_systems(), prime_field_systems())
@example(([], 0), (FieldSpec(2), [], 0))
@example(([[0, 0, 0], [0, 0, 0]], 3), (FieldSpec(3), [[0, 0], [0, 0]], 2))
def test_pivot_columns_match_rref(system, mod_system):
    # forward elimination finds the pivot columns of the reduced form
    rows, width = system
    R, pivots = rref(rows, RATIONALS, width)
    assert linalg.rank(rows, RATIONALS, width) == len(pivots)
    # the kept pivot rows: zero left of their pivots, with the same rref, from
    # the rows times their common denominator
    L = math.lcm(*(Fraction(a).denominator for row in rows for a in row))
    ints = [[int(a * L) for a in row] for row in rows]
    echelon, forward_pivots = linalg.row_echelon(ints, RATIONALS, width)
    assert forward_pivots == pivots
    assert all(not any(row[:c]) and row[c] for row, c in zip(echelon, pivots))
    assert rref(echelon, RATIONALS, width)[0] == R[: len(pivots)]
    K, rows, width = mod_system
    R, pivots = rref(rows, K, width)
    assert linalg.rank(rows, K, width) == len(pivots)
    echelon, forward_pivots = linalg.row_echelon([list(row) for row in rows], K, width)
    assert forward_pivots == pivots
    assert all(not any(row[:c]) and row[c] for row, c in zip(echelon, pivots))
    assert rref(echelon, K, width)[0] == R[: len(pivots)]
    # the reduced form is the identity on its pivot columns, zero past the rank
    identity = np.eye(len(rows), len(pivots), dtype=np.int64).tolist()
    assert [[row[c] for c in pivots] for row in R] == identity
    if rows:
        assert len(pivots) == _rank_mod_p(rows, K.p)


def _mod_matrix(p, dense, seed):
    """(rows, width, x): a random matrix mod p whose rows are its first r
    rows and random combinations of them, and a vector.  Dense ones have
    uniform entries, at least 36 x 36 of them and r >= m/2; sparse ones have
    at most 12 x 12."""
    rnd = random.Random(seed)
    lo, hi, share = (36, 44, 1.0) if dense else (0, 12, rnd.choice([0.15, 0.5]))
    m, width = rnd.randint(lo, hi), rnd.randint(lo, hi)
    r = rnd.randint(m // 2, m) if dense else rnd.randint(min(m, 1), m)
    rows = [[rnd.randrange(p) if rnd.random() < share else 0 for _ in range(width)] for _ in range(r)]
    basis = list(rows)
    for _ in range(m - r):
        coeffs = [rnd.randrange(p) if rnd.random() < share else 0 for _ in range(r)]
        combo = [sum(c * row[j] for c, row in zip(coeffs, basis)) % p for j in range(width)]
        rows.insert(rnd.randint(0, len(rows)), combo)
    return rows, width, [rnd.randrange(p) for _ in range(width)]


def _all_ints(*matrices):
    return all(type(x) is int for A in matrices for row in A for x in row)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([2, 3, 7, 32003, 2**31 - 1]), st.booleans(), st.integers(0, 2**32))
@example(2, True, 0)
@example(2**31 - 1, True, 1)
@example(3, False, 2)
def test_list_kernels_match_numpy_kernels(p, dense, seed):
    # the list kernels against the numpy Gauss-Jordan and row-space oracles
    K = FieldSpec(p)
    rows, width, _ = _mod_matrix(p, dense, seed)
    R, pivots = rref_mod(rows, width, p)
    assert not rows or len(pivots) == _rank_mod_p(rows, p)
    echelon, forward_pivots = linalg.row_echelon([list(row) for row in rows], K, width)
    assert forward_pivots == pivots and rref(echelon, K, width)[0] == R[: len(pivots)]
    assert linalg.rank(rows, K, width) == len(pivots)
    assert rref(rows, K, width) == (R, pivots) and _all_ints(R)

    basis = nullspace(rows, K, width)
    assert len(basis) == width - len(pivots) and _all_ints(basis)
    span, oracle = linalg.RowSpace(K, width), NumpyRowSpace(K)
    for v in rows + basis:
        res, want = span.insert(v), oracle.insert(v)
        assert (res is None) == (want is None)
        assert res is None or (_all_ints([res]) and res == want)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([2, 3, 32003, 2**31 - 1]), st.booleans(), st.integers(0, 2**32))
@example(2, True, 3)
@example(2**31 - 1, True, 4)
@example(3, False, 5)
@example(32003, False, 6)
def test_in_place_kernel_matches_list_oracle(p, dense, seed):
    # the in-place row operation, at the pivot row's nonzero columns, against
    # the list-rebuilding one, on the same rows in the same pivot order
    K = FieldSpec(p)
    rows, width, x = _mod_matrix(p, dense, seed)
    echelon = row_echelon_list_mod(rows, width, p)
    assert linalg.row_echelon([list(row) for row in rows], K, width) == echelon
    assert linalg.rank(rows, K, width) == len(echelon[1])
    assert rref(rows, K, width) == rref_list_mod(rows, width, p)
    span, oracle = linalg.RowSpace(K, width), ListRowSpaceMod(p)
    for v in rows + nullspace(rows, K, width) + [x]:
        assert span.insert(v) == oracle.insert(v)


@pytest.mark.parametrize("field", [RATIONALS, FieldSpec(2), GF, FieldSpec(2**31 - 1)])
def test_public_functions_leave_the_callers_rows_unchanged(field):
    # the mod-p row operation writes into rows: every public function must
    # eliminate copies, never the rows or vectors it was handed
    rnd = random.Random(31)
    for _ in range(20):
        m, n = rnd.randrange(1, 7), rnd.randrange(1, 7)
        rows = rand_matrix(rnd, field, m, n)
        rows += [list(rows[0])]  # a dependent row, so that a row is cleared
        before = [list(row) for row in rows]
        linalg.rank(rows, field, n)
        rref(rows, field, n)
        span = linalg.RowSpace(field, n)
        for row in rows:
            span.insert(row)
        assert rows == before
