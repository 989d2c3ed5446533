"""Minor theta operators, polarized compounds and the bracket."""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import siegelq
from siegelq import diffops, qexpansion
from siegelq.diffops import (
    _bracket_weights,
    half_rising,
    leading_part,
    polarize_compound,
    rankin_cohen,
    theta_operator,
)
from siegelq.halfint import (
    compound,
    det,
    enumerate_indices,
    mat_add,
    mat_scale,
    minor,
)
from siegelq.qexpansion import FourierExpansion, dumps, eisenstein
from siegelq.theta import gram_a, rep_numbers


def cramer_inverse(m):
    """m^{-1} by Cramer's rule, (m^{-1})_ij = (-1)^(i+j) det m[~j, ~i] / det m,
    from halfint's minors alone."""
    n = len(m)
    rest = [[k for k in range(n) if k != i] for i in range(n)]
    d = det(m)
    return [[Fraction((-1) ** (i + j) * minor(m, rest[j], rest[i]), d) for j in range(n)]
            for i in range(n)]


# Prints the number of series that rankin_cohen(th^2, th) and then
# theta_operator(th^2, r) build, for r = 1 and 2, th the degree-2 theta
# series of A4 at bound 3, counted at FourierExpansion.__new__.  It runs in
# a process of its own: once a class has had a Python __new__, deleting it
# leaves object.__new__ refusing the constructor's arguments.
SERIES_BUILT = """
from siegelq.diffops import rankin_cohen, theta_operator
from siegelq.qexpansion import FourierExpansion
from siegelq.theta import gram_a, rep_numbers

th = rep_numbers(gram_a(4), 2, 3)
f = th ** 2
built = []

def building(cls, *args, **kwargs):
    built.append(cls)
    return object.__new__(cls)

FourierExpansion.__new__ = staticmethod(building)
for r in (1, 2):
    for call in (lambda: rankin_cohen(f, th, r, 5, 2),
                 lambda: theta_operator(f, r)):
        built.clear()
        call()
        print(len(built))
"""


def rand_symmetric_rational(rng, n):
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2]))
            m[i][j] = v
            m[j][i] = v
    return tuple(tuple(row) for row in m)


def rand_expansion(rng, degree, bound):
    coeffs = {
        t: Fraction(rng.randint(-9, 9))
        for t in enumerate_indices(degree, bound)
    }
    return FourierExpansion(degree, bound, coeffs)


class TestHalfRising:
    def test_explicit(self):
        assert half_rising(5, 0) == 1
        assert half_rising(Fraction(3, 2), 2) == 3
        assert half_rising(2, 1) == 2
        assert half_rising(Fraction(1, 2), 3) == Fraction(3, 4)

    def test_recursion(self):
        rng = random.Random(61)
        for _ in range(40):
            s = Fraction(rng.randint(-8, 8), rng.choice([1, 2]))
            h = rng.randint(0, 6)
            assert half_rising(s, h + 1) == half_rising(s, h) * (s + Fraction(h, 2))

    def test_validation(self):
        with pytest.raises(ValueError):
            half_rising(1, -1)
        for s in (0.1, "1/2", True):
            with pytest.raises(ValueError):
                half_rising(s, 2)


class TestPolarizeCompound:
    def test_endpoints_are_compounds(self):
        rng = random.Random(62)
        for _ in range(60):
            n = rng.randint(1, 4)
            r = rng.randint(1, n)
            a = rand_symmetric_rational(rng, n)
            b = rand_symmetric_rational(rng, n)
            cs = polarize_compound(a, b, r)
            assert len(cs) == r + 1
            assert cs[0] == compound(a, r)
            assert cs[r] == compound(b, r)

    def test_lambda_evaluation(self):
        rng = random.Random(63)
        for _ in range(60):
            n = rng.randint(1, 3)
            r = rng.randint(1, n)
            a = rand_symmetric_rational(rng, n)
            b = rand_symmetric_rational(rng, n)
            cs = polarize_compound(a, b, r)
            for lam in (-2, -1, 0, 1, 2):
                pencil = tuple(
                    tuple(a[i][j] + lam * b[i][j] for j in range(n)) for i in range(n)
                )
                total = cs[0]
                for i in range(1, r + 1):
                    total = mat_add(total, mat_scale(Fraction(lam) ** i, cs[i]))
                assert compound(pencil, r) == total

    def test_two_by_two_mixed_term(self):
        # hand-derived: the lambda^1 coefficient of det(R + lambda S) is
        # r11 s22 + s11 r22 - 2 r12 s12 for symmetric R, S
        rng = random.Random(64)
        for _ in range(30):
            a = rand_symmetric_rational(rng, 2)
            b = rand_symmetric_rational(rng, 2)
            cs = polarize_compound(a, b, 2)
            expect = a[0][0] * b[1][1] + b[0][0] * a[1][1] - 2 * a[0][1] * b[0][1]
            assert cs[1] == ((expect,),)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            polarize_compound(((Fraction(1),),), ((Fraction(1), 0), (0, Fraction(1))), 1)
        with pytest.raises(ValueError):
            polarize_compound(((Fraction(1),),), ((Fraction(1),),), 2)
        for r in (True, 1.0):
            with pytest.raises(ValueError):
                polarize_compound(((Fraction(1),),), ((Fraction(1),),), r)
        # entries are ints or Fractions: no float or string is converted
        for bad in ([[0.1]], [["1/2"]]):
            with pytest.raises(ValueError):
                polarize_compound(bad, [[1]], 1)
            with pytest.raises(ValueError):
                polarize_compound([[1]], bad, 1)


class TestThetaOperator:
    def test_degree_one_is_q_derivative(self):
        e4 = eisenstein(4, 5)
        th = theta_operator(e4, 1)
        for t in range(6):
            key = ((2 * t,),)
            assert th.coefficient(key) == ((t * e4.coefficient(key),),)

    def test_degree_two_order_one_blocks(self):
        f = rep_numbers(gram_a(2), 2, 2)
        th = theta_operator(f, 1)
        key = ((2, 1), (1, 2))
        a = f.coefficient(key)
        assert th.coefficient(key) == (
            (a, a * Fraction(1, 2)),
            (a * Fraction(1, 2), a),
        )

    def test_full_order_is_determinant(self):
        f = rep_numbers(gram_a(2), 2, 2)
        th = theta_operator(f, 2)
        key = ((2, 1), (1, 2))
        det_t = Fraction(3, 4)
        assert th.coefficient(key) == ((f.coefficient(key) * det_t,),)

    def test_shape_and_validation(self):
        f = rep_numbers(gram_a(2), 2, 2)
        th = theta_operator(f, 1)
        assert th.shape == ("compound", 1)
        with pytest.raises(ValueError):
            theta_operator(f, 3)
        with pytest.raises(ValueError):
            theta_operator(th, 1)
        with pytest.raises(ValueError):
            theta_operator(f, True)

    def test_scalar_multiplication_both_sides(self):
        f = rep_numbers(gram_a(2), 2, 2)
        g = rep_numbers(gram_a(2), 2, 2)
        th = theta_operator(f, 1)
        assert th * g == g * th

    def test_block_times_block_rejected(self):
        th = theta_operator(rep_numbers(gram_a(2), 2, 2), 1)
        with pytest.raises(ValueError):
            th * th


@st.composite
def rational_series(draw):
    """A random rational series of degree 1-3 and a minor order r.  The
    key T = diag(1, ..., 1, 0) is always stored: its order-r block, r < n,
    has zero entries next to nonzero ones."""
    degree = draw(st.integers(1, 3))
    top = {1: 6, 2: 3, 3: 2}[degree]
    keys = enumerate_indices(degree, top)
    values = st.fractions(min_value=-50, max_value=50, max_denominator=60).filter(bool)
    coeffs = {k: draw(values)
              for k in draw(st.lists(st.sampled_from(keys), max_size=len(keys)))}
    coeffs[diag_key(degree)] = draw(values)
    return FourierExpansion(degree, top, coeffs), draw(st.integers(1, degree))


def diag_key(degree):
    return tuple(tuple(2 if i == j < degree - 1 else 0 for j in range(degree))
                 for i in range(degree))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(case=rational_series())
def test_theta_operator_is_compound_times_coefficient(case):
    """At every key, theta_operator(f, r) is compound(T, r) a(T) with T
    and its minors taken over the rationals; an all-zero block is not
    stored."""
    f, r = case
    expect = {}
    for key, value in f.coeffs.items():
        block = compound(mat_scale(Fraction(1, 2), key), r)
        if any(x for row in block for x in row):
            expect[key] = tuple(tuple(value * x for x in row) for row in block)
    th = theta_operator(f, r)
    assert (th.shape, th.trace_bound) == (("compound", r), f.trace_bound)
    assert th.coeffs == expect
    if r < f.degree:
        entries = [x for row in th.coeffs[diag_key(f.degree)] for x in row]
        assert 0 in entries and any(entries)


class TestBracket:
    def test_classical_shape_order_one(self):
        # n = r = 1 reduces to k f theta(g) - l theta(f) g
        rng = random.Random(65)
        for _ in range(10):
            f = rand_expansion(rng, 1, 4)
            g = rand_expansion(rng, 1, 4)
            k, l = rng.randint(1, 9), rng.randint(1, 9)
            got = rankin_cohen(f, g, 1, k, l)
            expect = (f * theta_operator(g, 1)).scale(k) + (
                theta_operator(f, 1) * g
            ).scale(-l)
            assert got == expect

    def test_bilinear(self):
        rng = random.Random(66)
        for n, r in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)):
            f1 = rand_expansion(rng, n, 2)
            f2 = rand_expansion(rng, n, 2)
            g = rand_expansion(rng, n, 2)
            lhs = rankin_cohen(f1 + f2, g, r, 3, 5)
            rhs = rankin_cohen(f1, g, r, 3, 5) + rankin_cohen(f2, g, r, 3, 5)
            assert lhs == rhs
            # and in the second slot, which thm41's D(f, g - 1) rests on
            lhs = rankin_cohen(g, f1 + f2, r, 3, 5)
            rhs = rankin_cohen(g, f1, r, 3, 5) + rankin_cohen(g, f2, r, 3, 5)
            assert lhs == rhs

    def test_constant_second_argument_is_leading_part(self):
        # with g constant only the derivative-free piece survives
        rng = random.Random(67)
        for n, r in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)):
            f = rand_expansion(rng, n, 2)
            g = FourierExpansion.constant(3, n, 2)
            k = Fraction(7, 2)
            assert rankin_cohen(f, g, r, k, 4) == leading_part(f, g, r, k, 4)
            # D(f, 1) = c theta^[r] f at thm41's weights l = (p - 1) p^(m - 1)
            one = FourierExpansion.constant(1, n, 2)
            for l in (2, 4, 6, 18):
                c = _bracket_weights(r, k, l)[r]
                assert rankin_cohen(f, one, r, k, l) == theta_operator(f, r).scale(c)

    def test_antisymmetry_small(self):
        rng = random.Random(68)
        for n, r in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)):
            f = rand_expansion(rng, n, 2)
            g = rand_expansion(rng, n, 2)
            k, l = rng.randint(1, 8), rng.randint(1, 8)
            fwd = rankin_cohen(f, g, r, k, l)
            bwd = rankin_cohen(g, f, r, l, k)
            assert fwd == bwd.scale((-1) ** r)

    def test_matches_pairwise_oracle(self):
        # the docstring formula evaluated pair by pair: the polarized pieces
        # are the lambda-coefficients of compound(T1 + lambda T2, r), read
        # off its values at lambda = 0..r through the inverse Vandermonde
        # matrix; rising products written out here
        def rising(s, h):
            return prod((s + Fraction(i, 2) for i in range(h)), start=Fraction(1))

        def oracle(f, g, n, r, k, l):
            half = Fraction(r - 1, 2)
            weights = [(-1) ** alpha * rising(l - half, alpha) * rising(k - half, r - alpha)
                       for alpha in range(r + 1)]
            vinv = cramer_inverse([[Fraction(lam) ** q for q in range(r + 1)]
                                for lam in range(r + 1)])
            bound = min(f.trace_bound, g.trace_bound)
            size = comb(n, r)
            out = {}
            for ka, va in f.coeffs.items():
                for kb, vb in g.coeffs.items():
                    key = tuple(tuple(x + y for x, y in zip(ra, rb))
                                for ra, rb in zip(ka, kb))
                    if sum(key[i][i] for i in range(n)) > 2 * bound:
                        continue
                    values = [compound(tuple(tuple(Fraction(x + lam * y, 2)
                                                   for x, y in zip(ra, rb))
                                             for ra, rb in zip(ka, kb)), r)
                              for lam in range(r + 1)]
                    block = out.setdefault(key, [[Fraction(0)] * size for _ in range(size)])
                    for alpha in range(r + 1):
                        q = r - alpha
                        for i in range(size):
                            for j in range(size):
                                piece = sum(vinv[q][lam] * values[lam][i][j]
                                            for lam in range(r + 1))
                                block[i][j] += va * vb * weights[alpha] * piece
            return FourierExpansion(n, bound, out, ("compound", r))

        rng = random.Random(71)
        for n, bounds in ((1, (5, 3)), (2, (3, 2)), (3, (2, 1))):
            for r in range(1, n + 1):
                vanishing = Fraction(r - 1, 2)
                for k, l in ((vanishing, Fraction(7, 2)), (Fraction(5, 3), vanishing),
                             (Fraction(-3, 2), Fraction(4))):
                    f = rand_expansion(rng, n, bounds[0]).scale(Fraction(1, rng.randint(2, 4)))
                    g = rand_expansion(rng, n, bounds[1])
                    got = rankin_cohen(f, g, r, k, l)
                    assert got == oracle(f, g, n, r, k, l)
                    assert got.trace_bound == bounds[1]

    def test_each_minor_encoded_once_and_each_entry_decoded_once(self, monkeypatch):
        # every minor weight of f and of g is encoded once, sizes 0..r, by
        # _numerators itself, and each of the C(n, r)^2 entries is one pair
        # loop, whether diffops calls the kernel or a ring product does; a
        # theta operator's entries are encodings; each result's grid of
        # packed entries is decoded by one _blocks call; the bytes are pinned
        th = rep_numbers(gram_a(4), 2, 3)
        f = th ** 2
        calls = {"_numerators": 0, "_pair_loop": 0, "_blocks": 0}
        for module in (diffops, qexpansion):
            for name in calls:
                def counting(*args, name=name, original=getattr(module, name)):
                    calls[name] += 1
                    return original(*args)
                monkeypatch.setattr(module, name, counting)
        digests = {1: "e01b0f74827f23fd99698956e22a729a3a54f50870455b3ebe1c28a76176c721",
                   2: "575e07ebad4a7d19b1ce12df94cef98c59407223aad9814e453661e7e9ebc2d1"}
        for r, minors, entries in ((1, 10, 4), (2, 12, 1)):
            calls.update(dict.fromkeys(calls, 0))
            b = rankin_cohen(f, th, r, 5, 2)
            assert calls == {"_numerators": minors, "_pair_loop": entries, "_blocks": 1}
            assert hashlib.sha256(dumps(b).encode()).hexdigest() == digests[r]
            calls.update(dict.fromkeys(calls, 0))
            theta_operator(f, r)
            assert calls == {"_numerators": entries, "_pair_loop": 0, "_blocks": 1}
        # so the bracket and the theta operator each build one series, their
        # block result: no entry series and no minor weight series
        src = os.path.dirname(os.path.dirname(os.path.abspath(siegelq.__file__)))
        done = subprocess.run([sys.executable, "-c", SERIES_BUILT], capture_output=True,
                              env=dict(os.environ, PYTHONPATH=src), check=True)
        assert done.stdout.decode().split() == ["1", "1", "1", "1"]

    def test_vanishing_weights_give_zero(self):
        # k = l = (r - 1)/2 makes every weight vanish: every entry sums no
        # product, and the bracket is the zero block series
        rng = random.Random(72)
        for n in (1, 2, 3):
            for r in range(1, n + 1):
                half = Fraction(r - 1, 2)
                f = rand_expansion(rng, n, 3)
                g = rand_expansion(rng, n, 2)
                got = rankin_cohen(f, g, r, half, half)
                assert got == FourierExpansion.zero(n, 2, ("compound", r))
                assert got.coeffs == {}

    def test_bound_is_min(self):
        rng = random.Random(69)
        f = rand_expansion(rng, 1, 5)
        g = rand_expansion(rng, 1, 3)
        assert rankin_cohen(f, g, 1, 4, 6).trace_bound == 3

    def test_rational_weights_accepted(self):
        rng = random.Random(70)
        f = rand_expansion(rng, 2, 2)
        g = rand_expansion(rng, 2, 2)
        rankin_cohen(f, g, 2, Fraction(1, 2), Fraction(3, 2))  # exactness only; no floats

    def test_params_validation(self):
        f = rep_numbers(gram_a(2), 2, 2)
        for bracket in (rankin_cohen, leading_part):
            with pytest.raises(ValueError):
                bracket(f, f, 3, 4, 6)
            # weights are exact: 0.1 is not 3602879701896397/2^55
            for k, l in ((0.1, 4), (4, 0.5), ("4", 6), (True, 6)):
                with pytest.raises(ValueError):
                    bracket(f, f, 1, k, l)
        th = theta_operator(f, 1)
        with pytest.raises(ValueError):
            rankin_cohen(th, f, 1, 1, 1)
        with pytest.raises(ValueError):
            rankin_cohen(eisenstein(4, 2), f, 1, 4, 1)

    def test_weight_metadata(self):
        e4 = eisenstein(4, 3)
        e6 = eisenstein(6, 3)
        b = rankin_cohen(e4, e6, 1, 4, 6)
        assert b.weight == 10

    def test_level_is_shared_or_none(self):
        # as for the ring product: a level f and g share, else None
        e4 = eisenstein(4, 3)
        th = rep_numbers(gram_a(2), 1, 3)
        assert (e4.level, th.level) == (1, 3)
        for bracket in (rankin_cohen, leading_part):
            assert bracket(e4, eisenstein(6, 3), 1, 4, 6).level == 1
            assert bracket(th, e4, 1, 1, 4).level is None
            assert bracket(th, th, 1, 1, 1).level == 3

    def test_bad_weight_refused_before_any_encoding(self, monkeypatch):
        # every argument is checked before the first _numerators call,
        # and leading_part checks the weights before theta_operator runs
        calls = []
        for module in (diffops, qexpansion):
            def counting(*args, original=getattr(module, "_numerators"), **kwargs):
                calls.append(args)
                return original(*args, **kwargs)
            monkeypatch.setattr(module, "_numerators", counting)
        e4 = eisenstein(4, 3)
        for bracket in (rankin_cohen, leading_part):
            with pytest.raises(ValueError) as info:
                bracket(e4, e4, 1, 0.1, 4)
            assert str(info.value) == "weight_f must be an integer or a Fraction, got 0.1"
            with pytest.raises(ValueError) as info:
                bracket(e4, e4, 1, 4, 0.1)
            assert str(info.value) == "weight_g must be an integer or a Fraction, got 0.1"
        assert calls == []
        leading_part(e4, e4, 1, 4, 4)
        assert calls
