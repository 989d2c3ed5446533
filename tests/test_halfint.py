"""Half-integral index matrices, compounds and the subset ordering."""

import random
import time
from fractions import Fraction
from math import comb

import pytest

from siegelq.halfint import (
    PRIME_LIMIT,
    HalfIntegralMatrix,
    block_count,
    compound,
    det,
    enumerate_indices,
    identity,
    is_int,
    key_sort,
    mat_inverse,
    mat_mul,
    require_odd_prime,
    subset_order,
    transpose,
)


def rand_matrix(rng, n, lo=-3, hi=3):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(n))


def rand_symmetric(rng, n, lo=-3, hi=3):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randint(lo, hi)
            m[i][j] = v
            m[j][i] = v
    return tuple(tuple(row) for row in m)


def is_odd_prime_by_division(p):
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def accepts(p):
    try:
        return require_odd_prime(p) == p
    except ValueError:
        return False


class TestRequireOddPrime:
    def test_matches_trial_division(self):
        for p in range(-3, 20000):
            assert accepts(p) == is_odd_prime_by_division(p), p

    def test_strong_pseudoprimes_rejected(self):
        # strong pseudoprimes to bases 2..7, 2..23 and 2..37 (the last one
        # is why base 41 is needed below the documented limit)
        for n in (3215031751, 3825123056546413051, 318665857834031151167461):
            assert not accepts(n)
        assert not accepts(399165290221 * 798330580441 * 3)

    def test_large_prime_accepted_quickly(self):
        start = time.perf_counter()
        assert accepts(2 ** 61 - 1) and accepts(2 ** 31 - 1)
        assert time.perf_counter() - start < 1.0

    def test_limit_and_types(self):
        for p in (PRIME_LIMIT, PRIME_LIMIT + 2, 2 ** 89 - 1):
            with pytest.raises(ValueError, match=str(PRIME_LIMIT)):
                require_odd_prime(p)
        for bad in (3.0, "3", True, None):
            assert not accepts(bad)


class TestHalfIntegralMatrix:
    def test_basic(self):
        t = HalfIntegralMatrix([[2, 1], [1, 4]])
        assert t.degree == 2
        assert t.trace == 3
        assert t.rational() == (
            (Fraction(1), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(2)),
        )

    def test_rejects_odd_diagonal(self):
        with pytest.raises(ValueError):
            HalfIntegralMatrix([[1, 0], [0, 2]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            HalfIntegralMatrix([[2, 1], [0, 2]])

    def test_rejects_nonint(self):
        for rows in ([[2.0, 0], [0, 2]], [[2, True], [True, 2]]):
            with pytest.raises(ValueError):
                HalfIntegralMatrix(rows)

    def test_psd(self):
        assert HalfIntegralMatrix([[2, 1], [1, 2]]).is_psd()
        assert not HalfIntegralMatrix([[2, 3], [3, 2]]).is_psd()
        assert HalfIntegralMatrix([[0, 0], [0, 0]]).is_psd()
        # all principal minors matter, not just leading ones
        assert not HalfIntegralMatrix([[0, 0], [0, -2]]).is_psd()

    def test_hashable(self):
        a = HalfIntegralMatrix([[2, 1], [1, 2]])
        b = HalfIntegralMatrix([[2, 1], [1, 2]])
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


class TestDet:
    def test_small(self):
        assert det([]) == 1
        assert det([[7]]) == 7
        assert det([[1, 2], [3, 4]]) == -2

    def test_int_stays_int(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(1, 5)
            m = rand_matrix(rng, n)
            d = det(m)
            assert isinstance(d, int)

    def test_matches_cofactor_expansion(self):
        rng = random.Random(12)

        def cofactor(m):
            if not m:
                return 1
            return sum(
                (-1) ** j * m[0][j] * cofactor([row[:j] + row[j + 1:] for row in m[1:]])
                for j in range(len(m))
            )

        for _ in range(40):
            n = rng.randint(1, 5)
            m = [list(row) for row in rand_matrix(rng, n)]
            assert det(m) == cofactor(m)
        for i in range(40):
            n = 1 + i % 5
            m = [[Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)]
                 for _ in range(n)]
            if i % 10 == 9:
                m[-1] = list(m[0])  # singular
            assert det(m) == cofactor(m)

    def test_fraction_entries(self):
        m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 2)]]
        assert det(m) == Fraction(5, 36)

    def test_inverse(self):
        rng = random.Random(13)
        done = 0
        while done < 20:
            n = rng.randint(1, 4)
            m = rand_matrix(rng, n)
            if det(m) == 0:
                continue
            inv = mat_inverse(m)
            prod = mat_mul(m, inv)
            assert prod == tuple(
                tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)
            )
            done += 1
        with pytest.raises(ValueError):
            mat_inverse([[1, 1], [1, 1]])


class TestSubsetOrder:
    def test_explicit(self):
        assert subset_order(3, 2) == ((0, 1), (0, 2), (1, 2))
        assert subset_order(3, 0) == ((),)
        assert subset_order(2, 2) == ((0, 1),)

    def test_lex_and_count(self):
        for n in range(1, 6):
            for r in range(n + 1):
                subs = subset_order(n, r)
                assert len(subs) == comb(n, r)
                assert list(subs) == sorted(subs)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            subset_order(3, 4)
        with pytest.raises(ValueError):
            subset_order(3, -1)
        for n, r in ((2, True), (True, 1), (2, 1.0)):
            with pytest.raises(ValueError):
                subset_order(n, r)


class TestCompound:
    def test_order_zero_and_full(self):
        m = ((1, 2), (3, 4))
        assert compound(m, 0) == ((1,),)
        assert compound(m, 2) == ((-2,),)
        assert compound(m, 1) == m
        for r in (True, False, 1.0):
            with pytest.raises(ValueError):
                compound(m, r)

    def test_identity(self):
        for n in range(1, 5):
            for r in range(n + 1):
                assert compound(identity(n), r) == identity(comb(n, r))

    def test_multiplicative(self):
        # Cauchy-Binet: compound(AB, r) = compound(A, r) compound(B, r)
        rng = random.Random(21)
        for _ in range(120):
            n = rng.randint(1, 4)
            r = rng.randint(0, n)
            a = rand_matrix(rng, n)
            b = rand_matrix(rng, n)
            assert compound(mat_mul(a, b), r) == mat_mul(
                compound(a, r), compound(b, r)
            )

    def test_transpose_compatible(self):
        rng = random.Random(22)
        for _ in range(60):
            n = rng.randint(1, 4)
            r = rng.randint(0, n)
            a = rand_matrix(rng, n)
            assert compound(transpose(a), r) == transpose(compound(a, r))

    def test_congruence_equivariance(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randint(1, 4)
            r = rng.randint(1, n)
            a = rand_matrix(rng, n)
            t = rand_symmetric(rng, n)
            lhs = compound(mat_mul(transpose(a), mat_mul(t, a)), r)
            ca = compound(a, r)
            rhs = mat_mul(transpose(ca), mat_mul(compound(t, r), ca))
            assert lhs == rhs

    def test_block_count(self):
        assert block_count(4, 2) == 6
        assert block_count(3, 1) == 3


class TestEnumerateIndices:
    def test_degree_one(self):
        got = enumerate_indices(1, 4)
        assert [t.doubled for t in got] == [((2 * k,),) for k in range(5)]

    def test_degree_two_counts(self):
        assert len(enumerate_indices(2, 2)) == 10
        assert len(enumerate_indices(2, 3)) == 22

    def test_all_psd_within_bound(self):
        for t in enumerate_indices(2, 3):
            assert t.is_psd()
            assert t.trace <= 3

    def test_sorted_and_deterministic(self):
        got = enumerate_indices(2, 2)
        keys = [key_sort(t.doubled) for t in got]
        assert keys == sorted(keys)
        assert got[0].doubled == ((0, 0), (0, 0))
        assert [t.doubled for t in enumerate_indices(2, 2)] == [
            t.doubled for t in got
        ]

    def test_complete_against_direct_scan(self):
        # independent completeness check: scan the raw entry box and test
        # positive semidefiniteness through 2x2 criteria directly
        n, bound = 2, 3
        keys = {t.doubled for t in enumerate_indices(n, bound)}
        direct = set()
        for d00 in range(0, 2 * bound + 1, 2):
            for d11 in range(0, 2 * bound + 1, 2):
                if (d00 + d11) // 2 > bound:
                    continue
                for d01 in range(-2 * bound - 1, 2 * bound + 2):
                    if d00 >= 0 and d11 >= 0 and d00 * d11 - d01 * d01 >= 0:
                        direct.add(((d00, d01), (d01, d11)))
        assert keys == direct

    def test_degree_range(self):
        with pytest.raises(ValueError):
            enumerate_indices(5, 1)
        with pytest.raises(ValueError):
            enumerate_indices(0, 1)
        with pytest.raises(ValueError):
            enumerate_indices(2, -1)
        # a bool is not a degree, and a non-integral bound is a
        # ValueError, not a TypeError from range()
        for degree, bound in ((True, 1), (1, True), (1, 1.5), (2.0, 1)):
            with pytest.raises(ValueError):
                enumerate_indices(degree, bound)

    def test_degree_three_spot(self):
        got = enumerate_indices(3, 1)
        assert all(t.trace <= 1 and t.is_psd() for t in got)
        assert got[0].doubled == ((0, 0, 0), (0, 0, 0), (0, 0, 0))
        # exactly the zero matrix plus the rank-one forms of trace 1
        assert len(got) == 1 + 3


def test_is_int_rejects_bool():
    assert is_int(0) and is_int(-7) and is_int(2 ** 100)
    for x in (True, False, 1.0, "1", None, Fraction(1)):
        assert not is_int(x)
