"""Exact series arithmetic, the classical fixtures and JSON round trips.

Oracles: Eisenstein coefficients recomputed from raw divisor sums with
the Bernoulli recurrence written out independently; delta pinned against
the eta product q prod (1 - q^n)^24 expanded by plain list convolution,
against (E4^3 - E6^2) / 1728 and against Ramanujan's tau(1..10); the
integer product kernel against a pairwise Fraction product with its own
key addition, truncation and zero-dropping, and a power against the left
fold of that product; the degree-1 kernel on packed terms against a
schoolbook convolution in Fractions; the JSON writer against the stdlib's
json.dumps(obj, sort_keys=True, indent=2).
"""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import siegelq
from siegelq import qexpansion
from siegelq.halfint import HalfIntegralMatrix, enumerate_indices, zero_matrix
from siegelq.qexpansion import (
    FourierExpansion,
    bernoulli,
    delta,
    dumps,
    eisenstein,
    from_json_dict,
    json_parse,
    json_text,
    json_write,
    loads,
    rational_from_str,
    rational_to_str,
    to_json_dict,
)
from siegelq.theta import direct_sum, gram_a, rep_numbers


# Counts the series each block operation builds, in a fresh interpreter
# since FourierExpansion.__new__ is replaced: at r = 1 and 2, a block sum,
# difference, multiple and block times scalar, then leading_part.
BLOCK_SERIES_BUILT = """
from siegelq.diffops import leading_part, theta_operator
from siegelq.qexpansion import FourierExpansion
from siegelq.theta import gram_a, rep_numbers

th = rep_numbers(gram_a(4), 2, 3)
f = th ** 2
built = []

def building(cls, *args, **kwargs):
    built.append(cls)
    return object.__new__(cls)

blocks = {r: (theta_operator(f, r), theta_operator(th, r)) for r in (1, 2)}
FourierExpansion.__new__ = staticmethod(building)
for r, (a, b) in blocks.items():
    for call in (lambda: a + b, lambda: a - b, lambda: a.scale(3), lambda: a * th,
                 lambda: leading_part(f, th, r, 5, 2)):
        built.clear()
        call()
        print(len(built))
"""


# -- independent oracles ----------------------------------------------------


def oracle_bernoulli(n):
    # Akiyama-Tanigawa algorithm, a different recurrence from the library's
    row = [Fraction(1, m + 1) for m in range(n + 1)]
    for m in range(1, n + 1):
        for j in range(n + 1 - m):
            row[j] = (j + 1) * (row[j] - row[j + 1])
    return row[0]  # = B_n with B_1 = +1/2; equal to library for even n


def oracle_sigma(k, m):
    return sum(d ** k for d in range(1, m + 1) if m % d == 0)


def oracle_eta24(bound):
    """Coefficients of q prod_{n>=1} (1 - q^n)^24 up to q^bound."""
    poly = [1] + [0] * bound
    for n in range(1, bound + 1):
        factor = [0] * (bound + 1)
        factor[0] = 1
        if n <= bound:
            factor[n] = -1
        for _ in range(24):
            out = [0] * (bound + 1)
            for i, c in enumerate(poly):
                if c == 0:
                    continue
                for j, d in enumerate(factor):
                    if d and i + j <= bound:
                        out[i + j] += c * d
            poly = out
    return [0] + poly[: bound]  # shift by the leading q


def oracle_product(f, g):
    """The coefficients of f * g from every pair of stored terms: keys
    added entry by entry, sums past the smaller trace bound skipped, a
    block scaled entry by entry, and zero sums (all-zero blocks) dropped."""
    bound = min(f.trace_bound, g.trace_bound)

    def times(a, b):
        if isinstance(a, tuple):
            return tuple(tuple(x * b for x in row) for row in a)
        if isinstance(b, tuple):
            return tuple(tuple(a * x for x in row) for row in b)
        return a * b

    def plus(a, b):
        if isinstance(a, tuple):
            return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))
        return a + b

    out = {}
    for ka, va in f.coeffs.items():
        for kb, vb in g.coeffs.items():
            key = tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(ka, kb))
            if sum(key[i][i] for i in range(len(key))) > 2 * bound:
                continue
            term = times(va, vb)
            out[key] = plus(out[key], term) if key in out else term
    def nonzero(v):
        return any(x != 0 for row in v for x in row) if isinstance(v, tuple) else v != 0

    return {k: v for k, v in out.items() if nonzero(v)}


def key1(t):
    return ((2 * t,),)


def rand_expansion(rng, degree, bound, denominators=False):
    from siegelq.halfint import enumerate_indices

    coeffs = {}
    for t in enumerate_indices(degree, bound):
        num = rng.randint(-9, 9)
        den = rng.choice([1, 2, 3]) if denominators else 1
        coeffs[t.doubled] = Fraction(num, den)
    return FourierExpansion(degree, bound, coeffs)


# -- fixtures ---------------------------------------------------------------


class TestEisenstein:
    def test_bernoulli_against_oracle(self):
        # the tangent-number triangle against Akiyama-Tanigawa: every even
        # n <= 60, B_1 = -1/2 (the oracle's convention is +1/2) and the
        # odd zeros
        for n in range(0, 61, 2):
            assert bernoulli(n) == oracle_bernoulli(n)
        assert bernoulli(1) == Fraction(-1, 2) == -oracle_bernoulli(1)
        for n in range(3, 61, 2):
            assert bernoulli(n) == 0 == oracle_bernoulli(n)
        assert bernoulli(60) == Fraction(-1215233140483755572040304994079820246041491,
                                         56786730)

    def test_constants_against_bernoulli(self):
        for k, c in ((4, 240), (6, -504), (8, 480), (10, -264), (14, -24)):
            assert Fraction(-2 * k) / bernoulli(k) == c
            assert Fraction(-2 * k) / oracle_bernoulli(k) == c

    def test_coefficients_are_divisor_sums(self):
        for k in (4, 6, 8, 10, 14):
            e = eisenstein(k, 6)
            c = Fraction(-2 * k) / oracle_bernoulli(k)
            assert e.coefficient(key1(0)) == 1
            for m in range(1, 7):
                assert e.coefficient(key1(m)) == c * oracle_sigma(k - 1, m)

    def test_explicit_e4(self):
        e4 = eisenstein(4, 4)
        vals = [e4.coefficient(key1(m)) for m in range(5)]
        assert vals == [1, 240, 2160, 6720, 17520]

    def test_meta(self):
        e6 = eisenstein(6, 3)
        assert e6.weight == 6 and e6.level == 1

    def test_unsupported_weight(self):
        for bad in (2, 3, 5, 0, -4):
            with pytest.raises(ValueError):
                eisenstein(bad, 3)


class TestDelta:
    def test_matches_eta_product(self):
        bound = 10
        d = delta(bound)
        eta = oracle_eta24(bound + 1)
        for m in range(bound + 1):
            assert d.coefficient(key1(m)) == eta[m]

    def test_first_values(self):
        d = delta(4)
        assert [d.coefficient(key1(m)) for m in range(5)] == [0, 1, -24, 252, -1472]

    def test_weight(self):
        d = delta(3)
        assert (d.weight, d.level, d.character) == (12, 1, None)

    def test_matches_eisenstein_formula(self):
        # Delta = (E4^3 - E6^2) / 1728 shares no step with Jacobi's identity
        d = delta(60)
        old = (eisenstein(4, 60) ** 3 - eisenstein(6, 60) ** 2).scale(Fraction(1, 1728))
        assert d == old
        assert (d.weight, d.level) == (old.weight, old.level)

    def test_ramanujan_tau(self):
        tau = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]
        d = delta(10)
        assert [d.coefficient(key1(m)) for m in range(11)] == [0] + tau

    def test_small_bounds(self):
        assert delta(0).coeffs == {}
        assert delta(1).coeffs == {key1(1): 1}
        assert (delta(0).trace_bound, delta(1).trace_bound) == (0, 1)


# -- ring structure ---------------------------------------------------------


class TestRingLaws:
    def test_add_commutes_and_associates(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.choice([1, 2])
            f = rand_expansion(rng, n, 3, denominators=True)
            g = rand_expansion(rng, n, 3, denominators=True)
            h = rand_expansion(rng, n, 3, denominators=True)
            assert f + g == g + f
            assert (f + g) + h == f + (g + h)

    def test_mul_commutes_and_associates(self):
        rng = random.Random(32)
        for _ in range(12):
            n = rng.choice([1, 2])
            f = rand_expansion(rng, n, 3)
            g = rand_expansion(rng, n, 3)
            h = rand_expansion(rng, n, 3)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert (f + g) * h == f * h + g * h

    def test_neutral_elements(self):
        rng = random.Random(33)
        f = rand_expansion(rng, 2, 3)
        one = FourierExpansion.constant(1, 2, 3)
        zero = FourierExpansion.zero(2, 3)
        assert one * f == f
        assert f + zero == f
        assert f + f.scale(-1) == zero

    def test_pow(self):
        rng = random.Random(34)
        f = rand_expansion(rng, 1, 4)
        assert f ** 0 == FourierExpansion.constant(1, 1, 4)
        assert f ** 1 == f
        assert f ** 3 == f * f * f
        assert f ** 5 == f * f * f * f * f
        with pytest.raises(ValueError):
            f ** -1
        block = FourierExpansion(1, 4, {key1(1): [[1]]}, ("compound", 1))
        with pytest.raises(ValueError, match="^%s$" % re.escape(
                "base: expected a FourierExpansion with shape 'scalar', "
                "got degree 1 and shape ('compound', 1)")):
            block ** 2

    def test_pow_product_count_and_metadata(self, monkeypatch):
        # square and multiply from the lowest set bit on packed terms:
        # bit_length - 1 squarings and popcount - 1 products in the pair
        # loop, no product with the constant 1, and one encoding and one
        # decoding per power
        calls = {"_numerators": 0, "_pair_loop": 0, "_decode": 0}
        for name in calls:
            def counting(*args, name=name, original=getattr(qexpansion, name)):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(qexpansion, name, counting)
        rng = random.Random(37)
        coeffs = rand_expansion(rng, 1, 4).coeffs
        for weight in (Fraction(4), None):
            f = FourierExpansion(1, 4, coeffs, weight=weight, level=3, character="chi")
            for e, products in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3),
                                (7, 4), (8, 3)):
                calls.update(dict.fromkeys(calls, 0))
                g = f ** e
                coded = int(e > 0)
                assert calls == {"_numerators": coded, "_pair_loop": products,
                                 "_decode": coded}
                assert g is not f
                assert g.trace_bound == 4
                assert (g.weight, g.level, g.character) == (
                    None if weight is None else e * weight, 3, None)
            # a square through * encodes its operand once
            calls.update(dict.fromkeys(calls, 0))
            assert f * f == f ** 2
            assert calls == {"_numerators": 2, "_pair_loop": 2, "_decode": 2}
            # a fresh object: tagging the power leaves f as it was
            g = f ** 1
            g.weight = Fraction(99)
            assert g == f and g.coeffs is not f.coeffs
            assert f.weight == weight and f.character == "chi"

    def test_block_times_scalar_encodes_the_scalar_once(self, monkeypatch):
        # theta_operator(f, r) * g, as in leading_part: g is encoded once,
        # not once per block entry, each entry once, and the bytes are the
        # ones each entry's own scalar product gives
        from siegelq.diffops import theta_operator

        th = rep_numbers(gram_a(4), 2, 3)
        block = theta_operator(th, 1)
        encoded = []
        original = qexpansion._numerators

        def counting(f, bound, entry=None):
            encoded.append(f)
            return original(f, bound, entry=entry)

        monkeypatch.setattr(qexpansion, "_numerators", counting)
        products = [block * th, th * block]
        assert len(encoded) == 2 * (1 + 4)
        assert sum(f is th for f in encoded) == 2
        monkeypatch.undo()
        digest = "2d3c0779e721c2eecf46e2f2ae434bf6194d33784bd16e36a482783ecf498dbf"
        side = range(block.block_size)

        def entry_series(f):
            return [[FourierExpansion(2, 3, {k: v[i][j] for k, v in f.coeffs.items()})
                     for j in side] for i in side]

        for product in products:
            assert hashlib.sha256(dumps(product).encode()).hexdigest() == digest
            assert entry_series(product) == [[th * e for e in row]
                                             for row in entry_series(block)]

    def test_block_operations_build_one_series_each(self):
        # a block sum, multiple and block times scalar build their result
        # only, a difference the negation too: no entry series; leading_part
        # builds three, c theta^[r] f * g in the ring: the theta operator,
        # its multiple by c and the product
        src = os.path.dirname(os.path.dirname(os.path.abspath(siegelq.__file__)))
        done = subprocess.run([sys.executable, "-c", BLOCK_SERIES_BUILT],
                              capture_output=True, env=dict(os.environ, PYTHONPATH=src),
                              check=True)
        assert done.stdout.decode().split() == ["1", "2", "1", "1", "3"] * 2

    def test_mul_bound_is_min(self):
        rng = random.Random(35)
        f = rand_expansion(rng, 1, 5)
        g = rand_expansion(rng, 1, 3)
        assert (f * g).trace_bound == 3

    def test_truncation_consistency(self):
        # multiplying then truncating equals truncating then multiplying
        rng = random.Random(36)
        for _ in range(10):
            n = rng.choice([1, 2])
            f = rand_expansion(rng, n, 4)
            g = rand_expansion(rng, n, 4)
            for cut in (0, 1, 2, 3):
                assert (f * g).truncate(cut) == f.truncate(cut) * g.truncate(cut)

    def test_convolution_explicit(self):
        # (1 + 2 q^1)(3 + 5 q^1) = 3 + 11 q^1 + 10 q^2
        f = FourierExpansion(1, 2, {key1(0): 1, key1(1): 2})
        g = FourierExpansion(1, 2, {key1(0): 3, key1(1): 5})
        h = f * g
        assert h.coefficient(key1(0)) == 3
        assert h.coefficient(key1(1)) == 11
        assert h.coefficient(key1(2)) == 10


# Distinct large primes, so the common denominators of the kernel are
# products of several of them.
BIG_PRIMES = (1000003, 998244353, 2 ** 31 - 1, 2 ** 61 - 1)


def rand_rational(rng):
    return Fraction(rng.randint(-10 ** 6, 10 ** 6),
                    rng.choice((1, 2, 9)) * rng.choice(BIG_PRIMES) ** rng.randint(0, 2))


def rand_shaped(rng, degree, bound, shape, density=0.7):
    size = 1 if shape == "scalar" else comb(degree, shape[1])
    coeffs = {}
    for t in enumerate_indices(degree, bound):
        if rng.random() < density:
            coeffs[t.doubled] = (
                rand_rational(rng) if shape == "scalar"
                else [[rand_rational(rng) for _ in range(size)] for _ in range(size)])
    return FourierExpansion(degree, bound, coeffs, shape)


def assert_matches_oracle(f, g):
    h = f * g
    assert h.trace_bound == min(f.trace_bound, g.trace_bound)
    assert h.shape == (g.shape if f.shape == "scalar" else f.shape)
    assert h.coeffs == oracle_product(f, g)
    entries = [x for v in h.coeffs.values()
               for row in (v if isinstance(v, tuple) else ((v,),)) for x in row]
    assert all(type(x) is Fraction for x in entries)


class TestIntegerKernel:
    """The integer product against the pairwise Fraction oracle."""

    BOUNDS = {1: 9, 2: 4, 3: 2}

    def test_shapes_degrees_and_bounds(self):
        rng = random.Random(61)
        for degree in (1, 2, 3):
            top = self.BOUNDS[degree]
            for r in range(1, degree + 1):
                block = ("compound", r)
                for shapes in (("scalar", "scalar"), ("scalar", block),
                               (block, "scalar")):
                    for bounds in ((top, top), (top, top - 1), (1, top), (0, top),
                                   (top, 0), (0, 0)):
                        f = rand_shaped(rng, degree, bounds[0], shapes[0])
                        g = rand_shaped(rng, degree, bounds[1], shapes[1])
                        assert_matches_oracle(f, g)

    def test_sparse_and_empty_operands(self):
        rng = random.Random(62)
        for degree in (1, 2, 3):
            for density in (0.0, 0.1, 0.3):
                f = rand_shaped(rng, degree, self.BOUNDS[degree], "scalar", density)
                g = rand_shaped(rng, degree, self.BOUNDS[degree], ("compound", 1),
                                density)
                assert_matches_oracle(f, g)
                assert_matches_oracle(g, f)
                assert_matches_oracle(f, f)

    def test_cancelled_terms_are_absent(self):
        # (1 + q)(1/p - q/p) = 1/p - q^2/p: the q^1 sum cancels
        p = BIG_PRIMES[3]
        f = FourierExpansion(1, 3, {key1(0): 1, key1(1): 1})
        g = FourierExpansion(1, 3, {key1(0): Fraction(1, p), key1(1): Fraction(-1, p)})
        h = f * g
        assert h.coeffs == {key1(0): Fraction(1, p), key1(2): Fraction(-1, p)}
        assert h.coeffs == oracle_product(f, g)
        # a block cancels as a whole, or entry by entry
        b = [[Fraction(2, BIG_PRIMES[0]), Fraction(-3, BIG_PRIMES[1])],
             [Fraction(5, 7), Fraction(0)]]
        minus = [[-x for x in row] for row in b]
        half = [[x if i == 0 else -x for x in row] for i, row in enumerate(b)]
        k0, k1 = ((0, 0), (0, 0)), ((2, 1), (1, 2))
        s = FourierExpansion(2, 4, {k0: 1, k1: 1})
        for value, absent in ((minus, True), (half, False)):
            g = FourierExpansion(2, 4, {k0: b, k1: value}, ("compound", 1))
            for h in (s * g, g * s):
                assert (k1 in h.coeffs) is not absent
                assert h.coeffs == oracle_product(s, g)
        # two pairs cancelling at one degree-2 key: 1 * 15 + 5 * (-3)
        kc, kd, ke = ((2, 0), (0, 0)), ((0, 0), (0, 2)), ((2, 0), (0, 2))
        f = FourierExpansion(2, 2, {k0: 1, kc: 5})
        g = FourierExpansion(2, 2, {ke: 15, kd: -3})
        h = f * g
        assert set(h.coeffs) == {kd}
        assert h.coeffs == oracle_product(f, g)

    def test_keys_at_the_encoding_extremes(self):
        # diagonal entries of 2T reach 2N, off-diagonal ones +-N
        for degree, bound in ((1, 10), (2, 10), (2, 6), (3, 6), (3, 4)):
            n = degree
            extremes = []
            for i in range(n):
                extremes.append([(i, i, 2)])
                for j in range(i + 1, n):
                    extremes.append([(i, i, 1), (j, j, 1), (i, j, 1)])
                    extremes.append([(i, i, 1), (j, j, 1), (i, j, -1)])

            def key(entries, scale):
                m = [[0] * n for _ in range(n)]
                for i, j, x in entries:
                    m[i][j] = m[j][i] = x * scale
                return tuple(map(tuple, m))

            rng = random.Random(63 + degree + bound)
            for entries in extremes:
                # trace(T) = scale for each extreme shape above
                f = FourierExpansion(n, bound, {
                    key(entries, a): rand_rational(rng) for a in range(0, bound + 1, 2)})
                g = FourierExpansion(n, bound, {
                    key(entries, b): rand_rational(rng) for b in range(0, bound + 1, 2)})
                assert_matches_oracle(f, g)
                top = key(entries, bound)
                assert max(abs(x) for row in top for x in row) in (bound, 2 * bound)
                assert (f * g).coeffs[top] == sum(
                    f.coeffs[key(entries, a)] * g.coeffs[key(entries, bound - a)]
                    for a in range(0, bound + 1, 2))


def schoolbook(products, bound):
    """The slots 0..bound of sum c * left * right, the operands lists of
    (trace, numerator) over a denominator, by the schoolbook convolution in
    Fractions, zero slots dropped."""
    sums = [Fraction(0)] * (bound + 1)
    for c, (left, left_den), (right, right_den) in products:
        for i, a in left:
            for j, b in right:
                if i + j <= bound:
                    sums[i + j] += Fraction(c) * a * b / (left_den * right_den)
    return {k: s for k, s in enumerate(sums) if s}


def assert_dense(products, bound):
    """The degree-1 pair loop against the schoolbook convolution: slots
    sorted, zero sums absent, over the lcm of the products' denominators."""
    terms, den = qexpansion._pair_loop(products, 1, bound)
    assert den == lcm(*(Fraction(c).denominator * left_den * right_den
                        for c, (_, left_den), (_, right_den) in products))
    codes = [k for k, _ in terms]
    assert codes == sorted(set(codes))
    assert all(type(s) is int and s for _, s in terms)
    assert {k: Fraction(s, den) for k, s in terms} == schoolbook(products, bound)
    return terms


class TestDenseKernel:
    """The degree-1 pair loop, one integer product per operand pair,
    against the schoolbook convolution."""

    def test_numerators_at_slot_width_edges(self):
        rng = random.Random(71)
        edges = [x for k in (7, 8, 63, 64, 127) for x in (2 ** k - 1, 2 ** k)]
        for bound in (0, 1, 5, 12):
            for _ in range(20):
                left = [(t, rng.choice((1, -1)) * rng.choice(edges)) for t in range(bound + 1)]
                right = [(t, rng.choice((1, -1)) * rng.choice(edges)) for t in range(bound + 1)]
                assert_dense([(1, (left, 1), (right, 3))], bound)
                assert_dense([(Fraction(-1, 2), (left, 1), (left, 1))], bound)
        for x in edges:
            for sign in (1, -1):
                top = [(t, sign * x) for t in range(8)]
                # every slot 0..7 is sign^2 x^2 (t + 1)
                terms = assert_dense([(1, (top, 1), (top, 1))], 7)
                assert terms == [(t, x * x * (t + 1)) for t in range(8)]

    def test_sums_that_fill_the_slot_width(self):
        # equal-sign numerators at the edges, a large scale, long operands
        # and many products: slot t sums copies * c * x^2 * (t + 1), which
        # takes every term of the width
        for k in (7, 8, 63, 64, 127):
            for x in (2 ** k - 1, 2 ** k):
                for c, bound, copies in ((1, 600, 1), (-(2 ** 64 - 1), 255, 1),
                                         (2 ** 8, 40, 255), (-3, 12, 3)):
                    ones = [(t, -x) for t in range(bound + 1)]
                    products = [(c, (ones, 1), (ones, 1))] * copies
                    assert qexpansion._pair_loop(products, 1, bound) == (
                        [(t, copies * c * x * x * (t + 1)) for t in range(bound + 1)], 1)

    def test_all_negative_and_alternating_operands(self):
        rng = random.Random(72)
        for bound in (3, 20, 60):
            negative = [(t, -rng.randint(1, 10 ** 12)) for t in range(bound + 1)]
            alternating = [(t, (-1) ** t * rng.randint(1, 10 ** 12)) for t in range(bound + 1)]
            for left in (negative, alternating):
                for right in (negative, alternating):
                    assert_dense([(1, (left, 7), (right, 1))], bound)
                    assert_dense([(-3, (left, 1), (right, 1))], bound)

    def test_cancelled_slots_are_absent(self):
        # (1 + q)(1 - q) = 1 - q^2, and f g - g f = 0 slot by slot
        plus, minus = [(0, 1), (1, 1)], [(0, 1), (1, -1)]
        assert assert_dense([(1, (plus, 1), (minus, 1))], 3) == [(0, 1), (2, -1)]
        rng = random.Random(73)
        f = [(t, rng.randint(-2 ** 70, 2 ** 70)) for t in range(30)]
        g = [(t, rng.randint(-2 ** 70, 2 ** 70)) for t in range(30)]
        assert assert_dense([(1, (f, 1), (g, 1)), (-1, (g, 1), (f, 1))], 29) == []
        # slot 3 cancels between two products, the others do not
        a, b = [(0, 2), (3, 5)], [(0, 1)]
        assert assert_dense([(1, (a, 1), (b, 1)), (-1, ([(3, 5)], 1), (b, 1))], 4) == [(0, 2)]

    def test_empty_operands_and_bound_zero(self):
        some = [(0, -5), (1, 7)]
        for products in ([(1, ([], 1), (some, 1))], [(1, (some, 1), ([], 3))],
                         [(1, ([], 1), ([], 1))], [(0, (some, 1), (some, 1))]):
            assert assert_dense(products, 1) == []
        assert assert_dense([(1, ([], 1), (some, 1)), (2, (some, 1), (some, 1))], 1) == [
            (0, 50), (1, -140)]
        assert assert_dense([(1, ([(0, -(2 ** 64))], 1), ([(0, 2 ** 64 - 1)], 1))], 0) == [
            (0, -(2 ** 128) + 2 ** 64)]

    def test_branch_follows_the_pair_count(self, monkeypatch):
        # _kronecker packs bound + 1 slots, so it runs only when the pairs
        # of terms outnumber the bound; either branch matches schoolbook
        packed = []

        def counting_kronecker(products, bound):
            packed.append(bound)
            return kronecker(products, bound)

        kronecker = qexpansion._kronecker
        monkeypatch.setattr(qexpansion, "_kronecker", counting_kronecker)
        left, right = [(0, 3), (2, -1), (5, 4)], [(0, 1), (1, 2)]
        for bound in (5, 6, 7):
            assert_dense([(1, (left, 1), (right, 1))], bound)
        # 6 pairs: dense at bound 5 only; 6 + 6 pairs: dense at 6 and 7 too
        assert packed == [5]
        for bound in (6, 11, 12):
            assert_dense([(1, (left, 1), (right, 1)), (2, (right, 1), (left, 5))], bound)
        assert packed == [5, 6, 11]

    def test_sparse_operands_cost_their_pairs(self):
        # a dilated series has 11 terms up to trace 10^6: its square visits
        # 121 pairs and packs no 10^6 slots
        f = eisenstein(4, 10).dilate(10 ** 5)
        tracemalloc.start()
        try:
            square = f ** 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert square == eisenstein(8, 10).dilate(10 ** 5)
        assert peak < 2 ** 20

    def test_sparse_supports(self):
        rng = random.Random(74)
        bound = 40
        even = [(t, rng.randint(-10 ** 9, 10 ** 9) or 1) for t in range(0, bound + 1, 2)]
        top = [(bound, rng.randint(1, 10 ** 9))]
        low_top = [(0, 3), (bound, -(2 ** 100))]
        for left in (even, top, low_top):
            for right in (even, top, low_top):
                assert_dense([(1, (left, 1), (right, 1))], bound)
        # only the top trace: every pair sum lies past the bound
        assert assert_dense([(1, (top, 1), (top, 1))], bound) == []
        assert all(k % 2 == 0 for k, _ in assert_dense([(1, (even, 1), (even, 1))], bound))

    def test_weighted_products_as_in_a_bracket(self):
        # a degree-1 bracket entry: k f theta(g) - l theta(f) g with
        # half-integral weights, here several products of mixed sign
        rng = random.Random(75)
        bound = 30
        f = [(t, rng.randint(-10 ** 6, 10 ** 6)) for t in range(bound + 1)]
        g = [(t, rng.randint(-10 ** 6, 10 ** 6)) for t in range(bound + 1)]
        theta_f = [(t, 2 * t * a) for t, a in f if t]
        theta_g = [(t, 2 * t * b) for t, b in g if t]
        for weights in ((Fraction(7, 2), Fraction(-5, 2)), (Fraction(-1, 3), Fraction(4)),
                        (Fraction(9, 4), Fraction(9, 4))):
            assert_dense([(weights[0], (f, 5), (theta_g, 2)),
                          (weights[1], (theta_f, 2), (g, 3))], bound)
            assert_dense([(weights[0], (f, 1), (theta_g, 2)),
                          (weights[1], (theta_f, 2), (g, 1)),
                          (Fraction(-11, 6), (f, 1), (g, 1))], bound)

    def test_e4_power_against_the_oracle_fold(self):
        check_power(eisenstein(4, 200), 7)

    def test_degree_one_keys_are_read_off_the_trace(self):
        # a degree-1 code is the trace t, decoded to the key ((2t,),), by
        # the dense kernel and, for the sparse dilated product, the pair
        # loop; the oracle adds the operands' keys instead
        e4 = eisenstein(4, 60)
        sparse = eisenstein(4, 5).dilate(50)
        for f, g in ((e4, e4), (delta(60), eisenstein(6, 60)), (sparse, sparse)):
            bound = min(f.trace_bound, g.trace_bound)
            oracle = {}
            for (k,), v in f.coeffs.items():
                for (l,), w in g.coeffs.items():
                    if k[0] + l[0] <= 2 * bound:
                        t2 = ((k[0] + l[0],),)
                        oracle[t2] = oracle.get(t2, 0) + v * w
            product = f * g
            assert product.coeffs == {k: v for k, v in oracle.items() if v}
            for (row,) in product.coeffs:
                assert type(row) is tuple and type(row[0]) is int and row[0] % 2 == 0
        assert len(sparse.coeffs) ** 2 <= sparse.trace_bound  # the pair loop's branch


@st.composite
def expansion_triples(draw):
    degree = draw(st.integers(1, 3))
    top = {1: 6, 2: 3, 3: 2}[degree]
    keys = [t.doubled for t in enumerate_indices(degree, top)]
    values = st.fractions(min_value=-50, max_value=50, max_denominator=60)
    out = []
    for _ in range(3):
        bound = draw(st.integers(0, top))
        chosen = draw(st.lists(st.sampled_from(keys), max_size=len(keys)))
        coeffs = {k: draw(values) for k in chosen
                  if sum(k[i][i] for i in range(degree)) <= 2 * bound}
        out.append(FourierExpansion(degree, bound, coeffs))
    r = draw(st.integers(1, degree))
    size = comb(degree, r)
    block = {}
    for k in draw(st.lists(st.sampled_from(keys), max_size=len(keys))):
        block[k] = [[draw(values) for _ in range(size)] for _ in range(size)]
    return out, FourierExpansion(degree, top, block, ("compound", r))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(triple=expansion_triples())
def test_product_ring_laws_under_truncation(triple):
    """Commutativity and associativity hold with unequal bounds: every
    product is truncated to the smallest bound of its factors."""
    (f, g, h), b = triple
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert (f * g) * b == f * (g * b)
    assert f * b == b * f
    assert (f * b) * g == f * (b * g)
    cut = min(f.trace_bound, g.trace_bound)
    assert (f * g).truncate(cut // 2) == f.truncate(cut // 2) * g.truncate(cut // 2)


@st.composite
def powers(draw):
    degree = draw(st.integers(1, 3))
    bound = draw(st.integers(0, {1: 6, 2: 3, 3: 2}[degree]))
    keys = [t.doubled for t in enumerate_indices(degree, bound)]
    values = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    coeffs = {k: draw(values) for k in draw(st.lists(st.sampled_from(keys), max_size=len(keys)))}
    weight = draw(st.none() | st.integers(0, 6))
    return FourierExpansion(degree, bound, coeffs, weight=weight), draw(st.integers(0, 9))


def check_power(f, e):
    """f ** e against the left fold of * from the constant 1, and against
    the fold of oracle_product."""
    one = FourierExpansion.constant(1, f.degree, f.trace_bound)
    fold = one
    coeffs = one.coeffs
    for _ in range(e):
        fold = fold * f
        coeffs = oracle_product(FourierExpansion(f.degree, f.trace_bound, coeffs), f)
    g = f ** e
    assert g == fold
    assert g.coeffs == coeffs
    assert g.trace_bound == f.trace_bound
    assert g.weight == (None if f.weight is None else e * f.weight)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(case=powers())
def test_pow_is_a_fold_of_products(case):
    check_power(*case)


def test_pow_of_zero_and_of_a_series_without_constant_term():
    rng = random.Random(38)
    for degree, bound in ((1, 6), (2, 3), (3, 2)):
        coeffs = rand_expansion(rng, degree, bound, denominators=True).coeffs
        no_constant = FourierExpansion(degree, bound, {
            k: v for k, v in coeffs.items() if k != zero_matrix(degree)})
        for f in (FourierExpansion.zero(degree, bound), no_constant):
            for e in range(10):
                check_power(f, e)


class TestIndexOperators:
    def test_u_p_explicit(self):
        f = FourierExpansion(1, 6, {key1(t): 10 + t for t in range(7)})
        g = f.u_p(3)
        assert g.trace_bound == 2
        assert [g.coefficient(key1(t)) for t in range(3)] == [10, 13, 16]

    def test_u_p_even_prime_keeps_even_diagonals(self):
        # a(2m) of E4 is 240 sigma_3(2m); the keys 2T of odd T, such as
        # ((2,),), are not twice a key and are dropped
        g = eisenstein(4, 8).u_p(2)
        assert g.trace_bound == 4
        assert [g.coefficient(key1(t)) for t in range(5)] == [1, 2160, 17520, 60480,
                                                               140400]
        assert g.coeffs == {key1(t): g.coefficient(key1(t)) for t in range(5)}
        assert FourierExpansion(2, 4, {((4, 2), (2, 4)): 1}).u_p(2).coeffs == {
            ((2, 1), (1, 2)): 1}
        assert not FourierExpansion(2, 4, {((2, 2), (2, 6)): 1}).u_p(2).coeffs

    def test_dilate_round_trip(self):
        rng = random.Random(41)
        for _ in range(10):
            n = rng.choice([1, 2])
            f = rand_expansion(rng, n, 3)
            for p in (2, 3, 5):
                assert f.dilate(p).u_p(p) == f
            assert f.dilate(1) == f
            assert f.dilate(2).dilate(3) == f.dilate(6)

    def test_dilate_bound_grows(self):
        f = FourierExpansion(1, 2, {key1(1): 7})
        g = f.dilate(3)
        assert g.trace_bound == 6
        assert g.coefficient(key1(3)) == 7
        assert g.coefficient(key1(1)) == 0

    def test_u_p_degree_two(self):
        key = ((2, 1), (1, 2))
        scaled = ((6, 3), (3, 6))
        f = FourierExpansion(2, 6, {scaled: 4})
        g = f.u_p(3)
        assert g.trace_bound == 2
        assert g.coefficient(key) == 4

    def test_u_p_validation(self):
        f = FourierExpansion.zero(1, 3)
        with pytest.raises(ValueError):
            f.u_p(1)
        with pytest.raises(ValueError):
            f.dilate(0)


class TestValidation:
    def test_key_beyond_bound(self):
        # a zero value, which is dropped, does not excuse the key
        for value in (1, 0):
            with pytest.raises(ValueError):
                FourierExpansion(1, 2, {key1(3): value})

    def test_key_not_psd(self):
        for value, shape in ((1, "scalar"), (0, "scalar"), ([[0]], ("compound", 2))):
            with pytest.raises(ValueError):
                FourierExpansion(2, 3, {((2, 3), (3, 2)): value}, shape)

    def test_coefficient_beyond_bound(self):
        f = FourierExpansion.constant(1, 1, 2)
        with pytest.raises(ValueError):
            f.coefficient(key1(3))

    def test_cannot_extend(self):
        f = FourierExpansion.constant(1, 1, 2)
        # nor shrink to a negative or non-integral bound
        for bound in (5, -1, 2.5, True):
            with pytest.raises(ValueError):
                f.truncate(bound)
        assert eisenstein(4, 5).truncate(0).trace_bound == 0

    def test_degree_mismatch(self):
        f = FourierExpansion.constant(1, 1, 2)
        g = FourierExpansion.constant(1, 2, 2)
        with pytest.raises(ValueError):
            f + g
        with pytest.raises(ValueError):
            f * g
        with pytest.raises(ValueError, match="key degree mismatch"):
            f.coefficient(zero_matrix(2))
        with pytest.raises(TypeError, match="expected a FourierExpansion"):
            f + 1

    def test_aliased_keys_rejected(self):
        # a tuple and a HalfIntegralMatrix of one 2T are different dict
        # keys; the second no longer overwrites the first, even when one
        # of the two values is zero
        for first, second in ((1, 5), (0, 5), (1, 0), (0, 0)):
            with pytest.raises(ValueError, match=re.escape("duplicate key ((2,),)")):
                FourierExpansion(1, 2, {key1(1): first,
                                        HalfIntegralMatrix(key1(1)): second})
        with pytest.raises(ValueError, match="duplicate key"):
            FourierExpansion(1, 1, {key1(0): [[0]], HalfIntegralMatrix(key1(0)): [[1]]},
                             ("compound", 1))
        f = FourierExpansion(1, 2, {key1(1): 3, HalfIntegralMatrix(key1(2)): 0})
        assert f.coeffs == {key1(1): 3}

    def test_block_width_limit(self):
        # C(12, 2) = 66 rows is wider than SIZE_LIMIT, made or read;
        # C(12, 1) = 12 is not
        message = "^C\\(n, r\\) = C\\(12, 2\\) = 66 is more than the block size limit 64$"
        with pytest.raises(ValueError, match=message):
            FourierExpansion(12, 1, shape=("compound", 2))
        doc = to_json_dict(FourierExpansion(12, 1, shape=("compound", 1)))
        doc["shape"] = {"compound": 2}
        with pytest.raises(ValueError, match=message):
            from_json_dict(doc)

    def test_block_size_names_both_sizes(self):
        with pytest.raises(ValueError) as err:
            FourierExpansion(2, 1, {((0, 0), (0, 0)): [[1]]}, shape=("compound", 1))
        assert str(err.value) == (
            "block value must be 2 x 2 for ('compound', 1) at degree 2, got 1 x 1")
        d = to_json_dict(FourierExpansion(3, 1, {}, shape=("compound", 1)))
        d["coeffs"].append({"t2": [[0, 0, 0]] * 3, "value": [["1", "0"], ["0", "1"]]})
        with pytest.raises(ValueError, match=re.escape(
                "block value must be 3 x 3 for ('compound', 1) at degree 3, got 2 x 2")):
            from_json_dict(d)

    def test_zero_coefficients_dropped(self):
        f = FourierExpansion(1, 3, {key1(1): 0, key1(2): 5})
        assert list(f.coeffs) == [key1(2)]

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            FourierExpansion(2, 2, {}, shape=("compound", 3))
        with pytest.raises(ValueError) as info:
            FourierExpansion(1, 1, shape="bogus")
        assert str(info.value) == "shape must be 'scalar' or ('compound', r), got 'bogus'"

    def test_meta_not_coerced(self):
        # a float level or weight is rejected, not truncated or expanded
        for meta in ({"level": 2.7}, {"level": "2"}, {"weight": 0.1},
                     {"weight": "4"}):
            with pytest.raises(ValueError):
                FourierExpansion(1, 2, {key1(1): 1}, **meta)
        f = FourierExpansion(1, 2, {}, weight=Fraction(1, 2), level=4)
        assert (f.weight, f.level) == (Fraction(1, 2), 4)
        block = FourierExpansion(2, 3, {zero_matrix(2): [[1, 0], [0, 2]]}, ("compound", 1))
        assert repr(block) == (
            "FourierExpansion(degree=2, trace_bound=3, shape=('compound', 1), 1 terms)")

    def test_level_is_positive(self):
        for level in (0, -3, True):
            with pytest.raises(ValueError, match="level"):
                FourierExpansion(1, 2, {}, level=level)
        d = to_json_dict(eisenstein(4, 2))
        d["meta"]["level"] = -3
        with pytest.raises(ValueError, match="level"):
            from_json_dict(d)
        d["meta"]["level"] = 0
        with pytest.raises(ValueError, match="level"):
            loads(json.dumps(d))

    def test_values_are_exact(self):
        # a float is never read as its binary expansion, nor a string as
        # a rational: only ints and Fractions are exact values
        k0 = zero_matrix(1)
        for bad in (0.1, 1.0, "1/2", True):
            with pytest.raises(ValueError):
                FourierExpansion(1, 1, {k0: bad})
            with pytest.raises(ValueError):
                FourierExpansion(1, 1, {k0: [[bad]]}, ("compound", 1))
            with pytest.raises(ValueError):
                FourierExpansion.constant(bad, 1, 1)
            with pytest.raises(ValueError):
                eisenstein(4, 2).scale(bad)
            with pytest.raises(ValueError):
                eisenstein(4, 2) * bad
            with pytest.raises(ValueError):
                bad * eisenstein(4, 2)
        f = FourierExpansion.constant(Fraction(1, 10), 1, 1)
        assert f.scale(3).coefficient(k0) == Fraction(3, 10)

    def test_character_checked_at_construction(self):
        # a set would make dumps raise TypeError; a list would be written
        # as a document that cannot be read back
        for character in ({1}, [1], 1.5, True):
            with pytest.raises(ValueError, match="character"):
                FourierExpansion(1, 2, {key1(1): 1}, character=character)
        for character in ("chi_4", -4, None):
            f = FourierExpansion(1, 2, {key1(1): 1}, character=character)
            assert loads(dumps(f)).character == character

    def test_bools_are_not_integers(self):
        for args in ((True, 1), (1, True), (1, 2, {}, "scalar", True)):
            with pytest.raises(ValueError):
                FourierExpansion(*args)
        f = eisenstein(4, 3)
        for op in (lambda: f ** True,
                   lambda: f.u_p(True), lambda: f.dilate(True),
                   lambda: eisenstein(True, 3)):
            with pytest.raises(ValueError):
                op()


class TestMeta:
    def test_weight_adds_on_mul(self):
        e4 = eisenstein(4, 3)
        e6 = eisenstein(6, 3)
        assert (e4 * e6).weight == 10
        assert (e4 ** 3).weight == 12

    def test_products_drop_the_character(self):
        # a product of two forms with character chi has chi^2, not chi
        f = FourierExpansion(1, 3, {key1(0): 1, key1(1): 2}, character="chi")
        b = FourierExpansion(1, 3, {key1(1): [[3]]}, ("compound", 1), character="chi")
        assert (f * f).character is None
        assert (f * f).character == (f ** 2).character
        assert (f * b).character is None and (b * f).character is None
        assert f.scale(2).character == (f + f).character == "chi"

    def test_weight_drops_on_mixed_add(self):
        e4 = eisenstein(4, 3)
        e6 = eisenstein(6, 3)
        assert (e4 + e6).weight is None

    def test_theta_meta(self):
        th = rep_numbers(gram_a(2), 1, 3)
        assert th.weight == 1
        assert th.level == 3

    def test_dilate_scales_level(self):
        th = rep_numbers(gram_a(2), 1, 3)
        assert th.dilate(3).level == 9

    def test_u_p_level_is_the_lcm(self):
        # E4|U(5) = 126 E4 - 125 E4(5z), and E4(5z) has level 5
        e4 = eisenstein(4, 10)
        got = eisenstein(4, 50).u_p(5)
        assert got == (e4.scale(126) - e4.dilate(5).scale(125)).truncate(10)
        assert got.level == 5
        # a level that p divides stays
        th = rep_numbers(direct_sum(gram_a(2), gram_a(2)), 1, 6)
        assert th.level == 3
        assert th.u_p(3).level == 3
        assert FourierExpansion(1, 6).u_p(3).level is None

    def test_meta_not_in_equality(self):
        a = FourierExpansion(1, 2, {key1(1): 1}, weight=4)
        b = FourierExpansion(1, 2, {key1(1): 1}, weight=6)
        assert a == b


# -- serialization ----------------------------------------------------------


class TestJson:
    def test_rational_strings(self):
        assert rational_to_str(Fraction(-3, 4)) == "-3/4"
        assert rational_to_str(5) == "5/1"
        for bad in (0.1, "1/2", True):
            with pytest.raises(ValueError):
                rational_to_str(bad)
        assert rational_from_str("7/2") == Fraction(7, 2)
        assert rational_from_str("7") == 7
        with pytest.raises(ValueError):
            rational_from_str("x")

    def test_round_trip_scalar(self):
        rng = random.Random(51)
        for _ in range(10):
            n = rng.choice([1, 2])
            f = rand_expansion(rng, n, 3, denominators=True)
            f.weight = Fraction(rng.randint(1, 10), 2)
            assert loads(dumps(f)) == f
            back = loads(dumps(f))
            assert back.weight == f.weight

    def test_round_trip_block(self):
        from siegelq.diffops import theta_operator

        th = theta_operator(rep_numbers(gram_a(2), 2, 2), 1)
        back = loads(dumps(th))
        assert back == th
        assert back.shape == ("compound", 1)

    def test_deterministic_bytes(self):
        rng = random.Random(52)
        f = rand_expansion(rng, 2, 3, denominators=True)
        assert dumps(f) == dumps(loads(dumps(f)))

    def test_coefficients_sorted(self):
        rng = random.Random(53)
        f = rand_expansion(rng, 2, 3)
        d = to_json_dict(f)
        traces = [sum(row[i] for i, row in enumerate(e["t2"])) for e in d["coeffs"]]
        assert traces == sorted(traces)

    def test_schema_fields(self):
        d = to_json_dict(eisenstein(4, 2))
        assert set(d) == {"degree", "trace_bound", "shape", "meta", "coeffs"}
        assert d["shape"] == "scalar"
        assert d["meta"]["weight"] == "4/1"
        assert d["meta"]["level"] == 1
        for entry in d["coeffs"]:
            assert set(entry) == {"t2", "value"}

    def test_plain_integer_strings_accepted(self):
        d = to_json_dict(FourierExpansion(1, 1, {key1(1): 3}))
        d["coeffs"][0]["value"] = "3"
        assert from_json_dict(d).coefficient(key1(1)) == 3
        for text, want in (("+3", 3), ("-3/4", Fraction(-3, 4)), ("06/4", Fraction(3, 2))):
            d["coeffs"][0]["value"] = text
            assert from_json_dict(d).coefficient(key1(1)) == want
        for character in ("chi_4", -4, None):
            d["meta"]["character"] = character
            assert from_json_dict(d).character == character

    def test_meta_is_optional(self):
        # a null or missing meta reads as no weight, level or character
        d = to_json_dict(eisenstein(4, 2))
        for edit in (lambda d: d.update(meta=None), lambda d: d.pop("meta")):
            edit(d)
            f = from_json_dict(d)
            assert f == eisenstein(4, 2)
            assert (f.weight, f.level, f.character) == (None, None, None)

    def test_malformed_fields_rejected(self):
        # no truncation of non-integers, no booleans as integers, and no
        # silent overwrite by a repeated t2
        scalar = dumps(eisenstein(4, 2))
        block = dumps(FourierExpansion(2, 1, {}, shape=("compound", 1)))
        block1 = dumps(FourierExpansion(1, 1, {}, shape=("compound", 1)))
        edits = [
            (scalar, lambda d: d.update(degree=1.7)),
            (scalar, lambda d: d.update(degree=True)),
            (scalar, lambda d: d.update(trace_bound="2")),
            (scalar, lambda d: d["meta"].update(level=1.5)),
            (scalar, lambda d: d["coeffs"][1].update(t2=[[2.6]])),
            (scalar, lambda d: d["coeffs"].append(dict(d["coeffs"][1], value="5/1"))),
            (block, lambda d: d.update(shape={"compound": 1.5})),
            (scalar, lambda d: d.update(shape="bogus")),
            (scalar, lambda d: d.update(coeffs={})),
            # rationals are "num/den" or integer strings, nothing else
            (scalar, lambda d: d["coeffs"][1].update(value=0.1)),
            (scalar, lambda d: d["coeffs"][1].update(value=240)),
            (scalar, lambda d: d["coeffs"][1].update(value="2.5e3")),
            (scalar, lambda d: d["coeffs"][1].update(value="0.5")),
            (scalar, lambda d: d["coeffs"][1].update(value=" 240")),
            (scalar, lambda d: d["coeffs"][1].update(value="1/-2")),
            (scalar, lambda d: d["meta"].update(weight=4)),
            (scalar, lambda d: d["meta"].update(weight="4.0")),
            (scalar, lambda d: d["meta"].update(character=[{"a": 1}])),
            (scalar, lambda d: d["meta"].update(character=True)),
            (scalar, lambda d: d["meta"].update(character=1.5)),
            (scalar, lambda d: d.update(meta=[1])),
            (scalar, lambda d: d.update(meta="weight")),
            (block, lambda d: d["coeffs"].append(
                {"t2": [[0, 0], [0, 0]], "value": [["1/2", 0.5], ["0", "0"]]})),
            # a block value is an array of arrays, not a string or object
            (block, lambda d: d["coeffs"].append(
                {"t2": [[0, 0], [0, 0]], "value": ["11", "00"]})),
            (block1, lambda d: d["coeffs"].append({"t2": [[0]], "value": "1"})),
            (block1, lambda d: d["coeffs"].append({"t2": [[0]], "value": ["1"]})),
            (block1, lambda d: d["coeffs"].append({"t2": [[0]], "value": {"7": "x"}})),
        ]
        for text, edit in edits:
            d = json.loads(text)
            edit(d)
            with pytest.raises(ValueError):
                from_json_dict(d)

    def test_json_is_valid_json(self):
        json.loads(dumps(eisenstein(4, 3)))


# -- the JSON writer against the stdlib --------------------------------------

# quotes, backslashes, control characters, non-ASCII and astral characters
_json_strings = st.text(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f a0\xe9\u20ac\u2028\U0001d11e\U0001f600')
    | st.characters(), max_size=6)
_big_ints = st.integers() | st.integers(-10 ** 40, 10 ** 40)


@st.composite
def json_trees(draw):
    """Nested dicts, lists and tuples (empty ones too) of None, bools,
    big and negative ints and awkward strings; one drawn leaf array
    recurs at several depths so the writer's row memo is hit, and int
    arrays sit next to bool arrays of equal value."""
    row = draw(st.lists(_big_ints | _json_strings, max_size=4))
    flags = [bool(x) for x in row if isinstance(x, int)]
    leaves = (st.none() | st.booleans() | _big_ints | _json_strings
              | st.just(row) | st.just(tuple(row)) | st.just(flags)
              | st.just([int(x) for x in flags])
              | st.lists(st.booleans() | st.integers(-2, 2), max_size=4))
    return draw(st.recursive(
        leaves,
        lambda kids: (st.lists(kids, max_size=4)
                      | st.lists(kids, max_size=4).map(tuple)
                      | st.dictionaries(_json_strings, kids, max_size=4)),
        max_leaves=40))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(tree=json_trees())
def test_json_text_is_stdlib_indented_dumps(tree):
    assert json_text(tree) == json.dumps(tree, sort_keys=True, indent=2)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(tree=json_trees())
def test_json_write_streams_an_iterator_as_an_array(tree):
    items = tree if isinstance(tree, (list, tuple)) else [tree, tree]
    handle = io.StringIO()
    json_write(iter(items), lambda: contextlib.nullcontext(handle))
    assert handle.getvalue() == json.dumps(items, sort_keys=True, indent=2) + "\n"


class TestJsonWrite:
    def test_whole_values_and_empty_iterator(self):
        for obj, text in (({"a": [1, 2]}, '{\n  "a": [\n    1,\n    2\n  ]\n}'),
                          ([], "[]"), (iter([]), "[]"), (iter([[]]), "[\n  []\n]"),
                          ((x for x in (1, "a")), "[\n  1,\n  \"a\"\n]")):
            handle = io.StringIO()
            json_write(obj, lambda: contextlib.nullcontext(handle))
            assert handle.getvalue() == text + "\n"

    def test_unwritable_value_opens_nothing(self):
        opened = []
        with pytest.raises(TypeError):
            json_write({"a": 1.5}, lambda: opened.append(1))
        assert opened == []


class TestJsonText:
    def test_memo_keeps_ints_and_bools_apart(self):
        for tree in ([[1, 0], [True, False], [1, 0]],
                     [[True], {"a": [1]}, [[1], [True]]],
                     [["1"], [1], ("1",), (1,)],
                     # a tuple is its own memo key: its items are checked
                     # before the lookup, or (False,) would find (0,)
                     [(0,), (False,)], ((False,), (0,)), [[[0]], [(False,)]],
                     {"a": (1,), "b": (True,)}):
            assert json_text(tree) == json.dumps(tree, sort_keys=True, indent=2)

    @staticmethod
    def written(items):
        handle = io.StringIO()
        json_write(iter(items), lambda: contextlib.nullcontext(handle))
        return handle.getvalue()

    def test_memo_knows_a_written_tuple_only_at_its_depth(self):
        # the memo keeps one tuple per depth and value; a row written again
        # is known by identity, and only at the depth it was written at
        row = (1, "a")
        items = [(row,), {"m": (row, row)}, [[(row,)]], (row, (row,)), row, (row,)]
        assert self.written(items) == json.dumps(items, sort_keys=True, indent=2) + "\n"

    def test_an_equal_row_of_other_types_is_checked(self):
        # (True, 0) == (1, 0) and (False,) == (0,): an equal tuple that is
        # not the one the memo keeps is type-checked before its text is used
        row = (1, 0)
        for items in ([(row,), ((True, 0),), (row,), [row, (True, 0), row]],
                      [((0,),), ((False,),), ((0,),)], [((False,),), ((0,),)],
                      [row, (True, 0), row]):
            assert self.written(items) == json.dumps(items, sort_keys=True, indent=2) + "\n"

    def test_a_list_row_is_read_each_time(self):
        # a list never takes the identity shortcut: mutated between two
        # writes, it is written with its new items, also when they are
        # equal to the old ones, as True == 1
        row = [1, 0]

        def records():
            yield [row, (1, 0)]
            row[0] = True
            yield [row, (1, 0)]
            row[0] = 5
            yield [row]

        expected = [[[1, 0], [1, 0]], [[True, 0], [1, 0]], [[5, 0]]]
        assert self.written(records()) == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    def test_unhashable_items_in_a_tuple_row(self):
        # a matrix row that holds a list or a dict cannot be looked up; it
        # is written as nested arrays, every time it is written
        for row in (([1, 2], 3), ({"a": [1]},), (1, [(2,)]), ((1, [2]), (3,))):
            items = [(row,), (row, row), [row]]
            assert self.written(items) == json.dumps(items, sort_keys=True, indent=2) + "\n"

    def test_an_equal_row_of_bad_types_still_fails(self):
        class Text(str):
            pass

        for first, bad in (((1, 2), (1.0, 2)), (("a", 1), (Text("a"), 1)),
                           ((0,), (0.0,))):
            with pytest.raises(TypeError):
                self.written([(first,), (bad,)])
            with pytest.raises(TypeError):
                json_text([[first], [bad]])

    @pytest.mark.parametrize("obj", [
        1.5, [0, 0.0], {"a": [1, {"b": 2.5}]}, {1, 2}, {"a": {3}},
        {1: "a"}, {"a": {None: 1}}, {("t",): 1}, Fraction(1, 2), b"x"],
        ids=repr)
    def test_other_types_are_type_errors(self, obj):
        with pytest.raises(TypeError):
            json_text(obj)


class TestJsonParse:
    @pytest.mark.parametrize("text", [
        '{"a": 1, "a": 2}', '[{"b": {"c": 1, "c": 1}}]', '{"x": {}, "x": []}'])
    def test_duplicate_keys_rejected(self, text):
        with pytest.raises(ValueError, match="duplicate key"):
            json_parse(text)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_json_constants_rejected(self, token):
        for text in (token, '{"a": [1, %s]}' % token):
            with pytest.raises(ValueError, match="^%s is not a JSON value$" % token):
                json_parse(text)

    def test_deep_nesting_is_a_value_error(self):
        depth = 200000
        for text in ("[" * depth + "]" * depth, '{"a": ' * depth + "1" + "}" * depth):
            with pytest.raises(ValueError, match="nested too deeply"):
                loads(text)
