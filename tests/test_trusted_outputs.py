"""Series built from valid inputs skip the constructor's checks, so their
stored coefficients must be exactly what the checked constructor keeps.

Each output is rebuilt with FourierExpansion(...), which validates every
key (degree, trace bound, positive semidefinite) and drops zero values
and all-zero blocks; the rebuilt series must store the same dict, and
every stored value must be a nonzero Fraction or a block of Fractions of
the shape's size that is not all zero.
"""

import random
from fractions import Fraction
from math import comb

import pytest

from siegelq.diffops import BracketParams, leading_part, rankin_cohen, theta_operator
from siegelq.halfint import enumerate_indices
from siegelq.qexpansion import FourierExpansion, delta, eisenstein
from siegelq.theta import direct_sum, gram_a, rep_numbers


def assert_checked(f):
    rebuilt = FourierExpansion(f.degree, f.trace_bound, f.coeffs, f.shape,
                               weight=f.weight, level=f.level,
                               character=f.character)
    assert rebuilt.coeffs == f.coeffs
    size = 1 if f.shape == "scalar" else comb(f.degree, f.shape[1])
    for value in f.coeffs.values():
        if f.shape == "scalar":
            assert type(value) is Fraction and value != 0
        else:
            assert type(value) is tuple and len(value) == size
            assert all(type(row) is tuple and len(row) == size for row in value)
            assert all(type(x) is Fraction for row in value for x in row)
            assert any(x != 0 for row in value for x in row)
    return f


def rand_expansion(rng, degree, bound):
    coeffs = {t.doubled: Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
              for t in enumerate_indices(degree, bound)}
    return FourierExpansion(degree, bound, coeffs, weight=rng.randint(1, 6))


def test_theta_series_outputs():
    for lattice in (gram_a(1), gram_a(2), gram_a(3),
                    direct_sum(gram_a(2), gram_a(2))):
        for degree in (1, 2, 3):
            assert_checked(rep_numbers(lattice, degree, 2))


def test_theta_operator_outputs():
    rng = random.Random(5)
    for degree in (1, 2, 3):
        f = rand_expansion(rng, degree, 2)
        for r in range(1, degree + 1):
            assert_checked(theta_operator(f, r))


def test_theta_operator_drops_rank_deficient_keys():
    # A2 has rank 2, so every T it represents has det T = 0 at degree 3
    th = rep_numbers(gram_a(2), 3, 2)
    assert th.coeffs
    out = assert_checked(theta_operator(th, 3))
    assert out.coeffs == {}
    assert out.shape == ("compound", 3) and out.trace_bound == 2
    # at r = 2 only the keys of rank 2 keep a block
    kept = assert_checked(theta_operator(th, 2))
    assert 0 < len(kept.coeffs) < len(th.coeffs)


def test_theta_operator_rejects_non_integer_order():
    f = eisenstein(4, 2)
    for r in (1.0, Fraction(1), "1"):
        with pytest.raises(ValueError):
            theta_operator(f, r)


def test_bracket_outputs():
    rng = random.Random(11)
    for degree in (1, 2, 3):
        f = rand_expansion(rng, degree, 2)
        g = rand_expansion(rng, degree, 1 + rng.randint(0, 2))
        for r in range(1, degree + 1):
            params = BracketParams(degree, r, Fraction(rng.randint(1, 9), 2),
                                   rng.randint(1, 6))
            assert_checked(rankin_cohen(f, g, params))
            assert_checked(leading_part(f, g, params))


def test_bracket_whose_blocks_all_cancel():
    # at r = 1 and k = l the bracket is antisymmetric, so D(f, f) = 0
    rng = random.Random(3)
    for degree in (1, 2, 3):
        f = rand_expansion(rng, degree, 2)
        out = assert_checked(rankin_cohen(f, f, BracketParams(degree, 1, 5, 5)))
        assert out.coeffs == {}
        assert out.shape == ("compound", 1) and out.trace_bound == 2


def test_fixture_outputs():
    for bound in (0, 1, 60):
        for weight in (4, 6, 10, 12):
            assert_checked(eisenstein(weight, bound))
        assert_checked(delta(bound))


def test_ring_outputs():
    rng = random.Random(17)
    e4, e6 = eisenstein(4, 6), eisenstein(6, 6)
    assert_checked(e4 * e6)
    assert_checked(e4 ** 3 - e6 ** 2)
    assert_checked(delta(6))
    assert_checked(e4 - e4)
    assert_checked(e4.scale(0))
    for degree in (1, 2, 3):
        f = rand_expansion(rng, degree, 2)
        g = rand_expansion(rng, degree, 3)
        block = theta_operator(g, degree)
        for out in (f * g, f + g, f - g, -f, f.scale(Fraction(2, 3)), f ** 2,
                    block * f, f * block, block + block, block - block,
                    f.truncate(1), f.u_p(2), f.u_p(3), f.u_p(4), f.dilate(2)):
            assert_checked(out)
