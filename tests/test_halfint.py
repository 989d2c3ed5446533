"""Half-integral index matrices, compounds, the subset ordering and
exact elimination."""

import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, prod

import pytest

from siegelq.halfint import (
    PRIME_LIMIT,
    SIZE_LIMIT,
    HalfIntegralMatrix,
    adjugate,
    bareiss,
    block_count,
    compound,
    det,
    enumerate_indices,
    from_blocks,
    identity,
    is_int,
    key_sort,
    mat_inverse,
    mat_mul,
    mat_scale,
    minor,
    power,
    psd_rows,
    require_odd_prime,
    row_reduce,
    subset_order,
    symmetric,
    transpose,
)
from siegelq.theta import GramLattice


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
        assert repr(a) == "HalfIntegralMatrix(((2, 1), (1, 2)))"


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

    def test_bareiss_swaps_only_at_a_zero_pivot(self):
        # H + H, H = [[0, 1], [1, 0]]: two swaps, determinant +1 and every
        # pivot positive, so the pivots alone do not show definiteness
        h2 = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        d, rows = bareiss(h2)
        assert d == 1 and [rows[i][i] for i in range(4)] == [1, 1, 1, 1]
        assert h2 == [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        assert bareiss([[0, 1], [1, 0]])[0] == -1
        assert bareiss([[2, 4], [1, 2]]) == (0, ((2, 4), (0, 0)))
        assert bareiss([[1, 2, 3], [0, 0, 4], [0, 0, 5]])[0] == 0

    def test_fraction_entries(self):
        m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 2)]]
        assert det(m) == Fraction(5, 36)

    def test_adjugate_is_det_times_inverse(self):
        # m = X^t X + 1 is positive definite; adj m is judged by
        # m adj = adj m = (det m) 1, det by bareiss
        rng = random.Random(14)
        for _ in range(100):
            n = rng.randint(1, 6)
            x = rand_matrix(rng, n)
            m = tuple(tuple(sum(r[i] * r[j] for r in x) + (i == j) for j in range(n))
                      for i in range(n))
            d, adj = adjugate(m)
            assert d == det(m)
            assert mat_mul(m, adj) == mat_mul(adj, m) == mat_scale(d, identity(n))


class TestEliminationOracle:
    """row_reduce, behind mat_inverse and the coset keys, judged by minors and
    determinants, which use cofactors or Bareiss and no Gauss-Jordan."""

    @staticmethod
    def rand_rows(rng, rows, cols, p):
        m = [[rng.randrange(-p, p) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.4:
            # a row that is a combination of the others keeps singular
            # and rank-deficient cases frequent
            i = rng.randrange(rows)
            c = [rng.randrange(p) for _ in range(rows)]
            m[i] = [sum(c[k] * m[k][j] for k in range(rows) if k != i)
                    for j in range(cols)]
        return m

    def test_rank_is_largest_nonzero_minor(self):
        rng = random.Random(16)
        for p in (3, 5, 7):
            for _ in range(60):
                rows, cols = rng.randint(1, 4), rng.randint(1, 5)
                m = self.rand_rows(rng, rows, cols, p)
                largest = max(
                    [k for k in range(1, min(rows, cols) + 1)
                     if any(minor(m, r, c) % p
                            for r in combinations(range(rows), k)
                            for c in combinations(range(cols), k))],
                    default=0)
                assert len(row_reduce(m, p)[1]) == largest

    def test_inverse_mod_p_iff_det_is_a_unit(self):
        rng = random.Random(17)
        for p in (3, 5, 7):
            seen = set()
            for _ in range(60):
                n = rng.randint(1, 4)
                a = self.rand_rows(rng, n, n, p)
                unit = det(a) % p != 0
                seen.add(unit)
                if unit:
                    inv = mat_inverse(a, p)
                    assert all(0 <= x < p for row in inv for x in row)
                    assert tuple(tuple(x % p for x in row)
                                 for row in mat_mul(inv, a)) == identity(n)
                else:
                    with pytest.raises(ValueError, match=r"^matrix is singular mod p$"):
                        mat_inverse(a, p)
            assert seen == {True, False}

    def test_inverse_over_q_singular_message(self):
        with pytest.raises(ValueError, match=r"^p must be an odd prime, got 4$"):
            mat_inverse([[1]], 4)


@lru_cache(maxsize=None)
def signed_permutations(n):
    return [(perm, (-1) ** sum(perm[i] > perm[j] for i in range(n)
                                for j in range(i + 1, n)))
            for perm in permutations(range(n))]


def leibniz_minor(m, rows):
    """det m[rows, rows] as the signed sum over all permutations."""
    return sum(sign * prod(m[rows[i]][rows[p]] for i, p in enumerate(perm))
               for perm, sign in signed_permutations(len(rows)))


class TestDefiniteness:
    """psd_rows, read by is_psd and GramLattice, judged by minors taken
    with the Leibniz formula and no elimination: T >= 0 iff every principal
    minor of 2T is >= 0, and Q > 0 iff every leading minor is > 0."""

    @staticmethod
    def rand_even_symmetric(rng, kind, n):
        """A symmetric n x n matrix with even diagonal of one of four kinds:
        2 X^t X with fewer rows than columns (psd of lower rank); 2 X^t X
        with up to n + 1 rows, one entry pair then moved by +-1 half the
        time; either of those with a zero row and column put in the middle;
        or a zero first row and column ahead of any matrix, so every leading
        minor is 0 and only a non-leading principal minor can be negative."""
        def gram(k, size):
            x = [[rng.randint(-2, 2) for _ in range(size)] for _ in range(k)]
            return [[2 * sum(r[i] * r[j] for r in x) for j in range(size)]
                    for i in range(size)]

        size = n if kind < 2 else n - 1
        if kind == 0:
            m = gram(rng.randint(1, max(1, n - 1)), n)
        elif kind == 3:
            m = [list(row) for row in rand_symmetric(rng, size, -3, 3)]
            for i in range(size):
                m[i][i] *= 2
        else:
            m = gram(rng.randint(1, size + 1), size)
            if size > 1 and rng.random() < 0.5:
                i, j = rng.sample(range(size), 2)
                m[i][j] = m[j][i] = m[i][j] + rng.choice((-1, 1))
        if kind >= 2:
            at = 0 if kind == 3 else rng.randint(1, max(1, size - 1))
            m = [row[:at] + [0] + row[at:] for row in m]
            m.insert(at, [0] * n)
        return tuple(map(tuple, m))

    def test_is_psd_is_every_principal_minor_nonnegative(self):
        rng = random.Random(21)
        seen = set()
        for trial in range(800):
            kind, n = trial % 4, rng.randint(1 if trial % 4 < 2 else 2, 6)
            m = self.rand_even_symmetric(rng, kind, n)
            want = all(leibniz_minor(m, rows) >= 0 for size in range(1, n + 1)
                       for rows in combinations(range(n), size))
            if kind == 3:
                assert all(leibniz_minor(m, range(k)) == 0 for k in range(1, n + 1))
            assert HalfIntegralMatrix(m).is_psd() == want, m
            assert (psd_rows(m) is not None) == want
            seen.add((kind, want))
        # every kind but the low-rank one shows both answers
        assert seen == {(0, True), (1, True), (1, False), (2, True), (2, False),
                        (3, True), (3, False)}

    def test_gram_lattice_is_every_leading_minor_positive(self):
        rng = random.Random(22)
        seen = set()
        for trial in range(800):
            kind, n = trial % 4, rng.randint(1 if trial % 4 < 2 else 2, 6)
            m = self.rand_even_symmetric(rng, kind, n)
            want = all(leibniz_minor(m, range(k)) > 0 for k in range(1, n + 1))
            try:
                GramLattice(m)
                got = True
            except ValueError as exc:
                assert str(exc) == "Gram matrix must be positive definite"
                got = False
            assert got == want, m
            seen.add(want)
        assert seen == {True, False}

    def test_hyperbolic_plane_sum_refused(self):
        # H + H, H = [[0, 1], [1, 0]]: bareiss's pivots are all positive
        # after its swaps, but the form is indefinite
        h2 = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
        assert not HalfIntegralMatrix(h2).is_psd()
        assert psd_rows(h2) is None
        with pytest.raises(ValueError, match="^Gram matrix must be positive definite$"):
            GramLattice(h2)

    def test_zero_pivots_passed_over(self):
        m = ((0, 0, 0), (0, 2, 2), (0, 2, 2))
        assert psd_rows(m) == ((0, 0, 0), (0, 2, 2), (0, 0, 0))
        assert psd_rows(((2, 0, 0), (0, 0, 0), (0, 0, -2))) is None
        assert psd_rows(((0, 2), (2, 4))) is None


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

    def test_width_limit(self):
        # no order asks for more than SIZE_LIMIT subsets: C(64, 1) and
        # C(64, 63) are at the limit, C(65, 1) and C(12, 2) = 66 past it
        assert len(subset_order(SIZE_LIMIT, 1)) == block_count(SIZE_LIMIT, 63) == SIZE_LIMIT
        for n, r, size in ((SIZE_LIMIT + 1, 1, SIZE_LIMIT + 1), (12, 2, 66), (20, 3, 1140)):
            message = "C(n, r) = C(%d, %d) = %d is more than the block size limit %d" % (
                n, r, size, SIZE_LIMIT)
            for call in (subset_order, block_count):
                with pytest.raises(ValueError) as info:
                    call(n, r)
                assert str(info.value) == message
        with pytest.raises(ValueError, match=r"C\(20, 3\) = 1140"):
            compound(identity(20), 3)


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


class TestBuilders:
    def test_power_counts_products(self):
        # bit_length - 1 squarings and popcount - 1 products
        for e in (1, 2, 3, 5, 8, 13, 2 ** 61 - 1, 2 ** 64):
            calls = []

            def mul(a, b):
                calls.append(None)
                return a * b % 1000003

            assert power(3, e, mul) == pow(3, e, 1000003)
            assert len(calls) == e.bit_length() - 1 + bin(e).count("1") - 1

    def test_power_of_matrices(self):
        s = ((0, -1), (1, -1))
        assert power(s, 3, mat_mul) == identity(2)
        assert power(s, 7, mat_mul) == s

    def test_symmetric(self):
        assert symmetric(0, ()) == ()
        assert symmetric(1, [5]) == ((5,),)
        assert symmetric(3, range(1, 7)) == ((1, 2, 3), (2, 4, 5), (3, 5, 6))

    def test_from_blocks(self):
        one, zero = identity(2), ((0, 0), (0, 0))
        assert from_blocks(one, zero, zero, one) == identity(4)
        # blocks need not be square: a 1 x 1 and a 2 x 2 block on the diagonal
        assert from_blocks(((2,),), ((0, 0),), ((0,), (0,)), one) == (
            (2, 0, 0), (0, 1, 0), (0, 0, 1))


def test_is_int_rejects_bool():
    assert is_int(0) and is_int(-7) and is_int(2 ** 100)
    for x in (True, False, 1.0, "1", None, Fraction(1)):
        assert not is_int(x)
