"""Lattices, isometries and exact representation numbers.

The independent oracle enumerates every integer matrix in the coordinate
box given by the diagonal of 2N Q^{-1} and tallies X^t Q X directly; the
library path goes through quadratic-completion backtracking instead, so
agreement is a two-route check.
"""

from fractions import Fraction
from itertools import product
from math import isqrt

import pytest

from siegelq.halfint import enumerate_indices, identity, mat_inverse
from siegelq.theta import (
    GramLattice,
    cycle_isometry,
    direct_sum,
    gram_a,
    gram_from_json,
    gram_to_json,
    is_free_isometry,
    rep_numbers,
)


def box_rep_oracle(gram, degree, bound):
    """Naive full-box enumeration of {X : X^t Q X = 2T, tr T <= bound}."""
    m = len(gram)
    inv = mat_inverse(gram)
    radius = [isqrt(int(2 * bound * inv[e][e])) for e in range(m)]
    candidates = list(product(*[range(-r, r + 1) for r in radius]))
    counts = {}
    for cols in product(candidates, repeat=degree):
        d = [[0] * degree for _ in range(degree)]
        ok = True
        for i in range(degree):
            for j in range(i, degree):
                v = sum(
                    cols[i][a] * gram[a][b] * cols[j][b]
                    for a in range(m)
                    for b in range(m)
                )
                d[i][j] = v
                d[j][i] = v
        if sum(d[i][i] for i in range(degree)) > 2 * bound:
            ok = False
        if ok:
            key = tuple(tuple(row) for row in d)
            counts[key] = counts.get(key, 0) + 1
    return counts


class TestGramLattice:
    def test_gram_a(self):
        assert gram_a(2).gram == ((2, -1), (-1, 2))
        assert gram_a(1).gram == ((2,),)
        for m in range(1, 7):
            assert gram_a(m).det() == m + 1

    def test_levels(self):
        # A_{p-1} and A_{p-1} + A_{p-1} both live at level p
        for p in (3, 5, 7):
            assert gram_a(p - 1).level() == p
            assert direct_sum(gram_a(p - 1), gram_a(p - 1)).level() == p

    def test_direct_sum(self):
        s = direct_sum(gram_a(2), gram_a(2))
        assert s.rank == 4
        assert s.det() == 9
        assert s.gram[0][2] == 0

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            GramLattice([[2, 3], [3, 2]])
        with pytest.raises(ValueError):
            GramLattice([[0]])

    def test_rejects_odd_diagonal(self):
        with pytest.raises(ValueError):
            GramLattice([[1]])

    def test_json_round_trip(self):
        lat = direct_sum(gram_a(2), gram_a(1))
        assert gram_from_json(gram_to_json(lat)) == lat
        for field, value in (("rank", 7), ("rank", 3.0), ("gram", [[2.9]])):
            bad = gram_to_json(lat)
            bad[field] = value
            with pytest.raises(ValueError):
                gram_from_json(bad)


class TestFreeIsometry:
    def test_cycle_isometries(self):
        for p in (3, 5, 7):
            lat = gram_a(p - 1)
            assert is_free_isometry(lat, cycle_isometry(p - 1), p)

    def test_identity_is_not_free(self):
        assert not is_free_isometry(gram_a(2), identity(2), 3)

    def test_negation_has_wrong_order(self):
        neg = ((-1, 0), (0, -1))
        assert not is_free_isometry(gram_a(2), neg, 3)

    def test_non_isometry_rejected(self):
        assert not is_free_isometry(gram_a(2), ((1, 1), (0, 1)), 3)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            is_free_isometry(gram_a(2), ((1,),), 3)

    def test_block_cycle_on_direct_sum(self):
        s = cycle_isometry(2)
        block = tuple(
            tuple((s[i % 2][j % 2] if (i < 2) == (j < 2) else 0) for j in range(4))
            for i in range(4)
        )
        assert is_free_isometry(direct_sum(gram_a(2), gram_a(2)), block, 3)


class TestRepNumbers:
    def test_theta_a2_series(self):
        th = rep_numbers(gram_a(2), 1, 4)
        vals = [th.coefficient(((2 * t,),)) for t in range(5)]
        assert vals == [1, 6, 0, 6, 6]

    def test_zero_coefficient_is_one(self):
        for lat in (gram_a(2), gram_a(4)):
            for n in (1, 2):
                th = rep_numbers(lat, n, 1)
                zero = tuple((0,) * n for _ in range(n))
                assert th.coefficient(zero) == 1

    def test_meta(self):
        th = rep_numbers(gram_a(4), 1, 2)
        assert th.weight == 2
        assert th.level == 5
        th2 = rep_numbers(direct_sum(gram_a(2), gram_a(2)), 2, 1)
        assert th2.weight == 2

    def test_against_box_oracle_degree_one(self):
        for lat in (gram_a(2), gram_a(4), direct_sum(gram_a(2), gram_a(2))):
            th = rep_numbers(lat, 1, 2)
            oracle = box_rep_oracle(lat.gram, 1, 2)
            for t in enumerate_indices(1, 2):
                assert th.coefficient(t.doubled) == oracle.get(t.doubled, 0)

    def test_against_box_oracle_degree_two(self):
        lat = gram_a(2)
        th = rep_numbers(lat, 2, 2)
        oracle = box_rep_oracle(lat.gram, 2, 2)
        for t in enumerate_indices(2, 2):
            assert th.coefficient(t.doubled) == oracle.get(t.doubled, 0)

    def test_degree_two_known_counts(self):
        th = rep_numbers(direct_sum(gram_a(2), gram_a(2)), 2, 2)
        assert th.coefficient(((2, 0), (0, 2))) == 72
        assert th.coefficient(((2, 1), (1, 2))) == 24
        assert th.coefficient(((2, 0), (0, 0))) == 12

    def test_unimodular_diagonal_counts(self):
        # Z^2 with Gram 2I: representations of t are lattice points of
        # norm 2t on a circle; classic values r_2 from sums of two squares
        lat = GramLattice([[2, 0], [0, 2]])
        th = rep_numbers(lat, 1, 5)
        assert [th.coefficient(((2 * t,),)) for t in range(6)] == [1, 4, 4, 0, 4, 8]

    def test_validation(self):
        with pytest.raises(ValueError):
            rep_numbers(gram_a(2), 4, 1)
        with pytest.raises(ValueError):
            rep_numbers(gram_a(2), 0, 1)
        with pytest.raises(ValueError):
            rep_numbers(gram_a(2), 1, -1)

    def test_trace_bound_respected(self):
        th = rep_numbers(gram_a(2), 2, 2)
        assert all(sum(k[i][i] for i in range(2)) // 2 <= 2 for k in th.coeffs)
