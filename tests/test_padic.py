"""Valuations, congruences and the constructive congruence pipelines."""

import math
import random
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelq import diffops, padic
from siegelq.diffops import _bracket_weights, rankin_cohen, theta_operator
from siegelq.halfint import enumerate_indices
from siegelq.padic import (
    CongruenceReport,
    bracket_theta_congruence,
    congruent,
    frobenius_descent,
    limit_profile,
    require_odd_prime,
    unit_ladder,
    vp,
    vp_expansion,
)
from siegelq.qexpansion import FourierExpansion, eisenstein
from siegelq.theta import direct_sum, gram_a, rep_numbers


def key1(t):
    return ((2 * t,),)


def rand_integral(rng, degree, bound):
    coeffs = {
        t: rng.randint(-20, 20) for t in enumerate_indices(degree, bound)
    }
    return FourierExpansion(degree, bound, coeffs)


class TestVp:
    def test_values(self):
        assert vp(18, 3) == 2
        assert vp(1, 3) == 0
        assert vp(Fraction(2, 9), 3) == -2
        assert vp(Fraction(-45, 7), 5) == 1
        assert vp(0, 3) == math.inf

    def test_requires_odd_prime(self):
        for bad in (2, 1, 9, 15, -3):
            with pytest.raises(ValueError):
                vp(6, bad)
        assert require_odd_prime(13) == 13

    def test_value_must_be_exact(self):
        # a float would be read as its binary expansion, 0.1 as
        # 3602879701896397/2^55
        for bad in (0.1, 5.0, "1/5", True):
            with pytest.raises(ValueError):
                vp(bad, 5)

    def test_multiplicative(self):
        rng = random.Random(71)
        for _ in range(60):
            a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            b = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            if a == 0 or b == 0:
                continue
            assert vp(a * b, 3) == vp(a, 3) + vp(b, 3)

    def test_expansion_valuation(self):
        f = FourierExpansion(1, 2, {key1(0): 9, key1(1): Fraction(1, 3)})
        assert vp_expansion(f, 3) == -1
        assert vp_expansion(FourierExpansion.zero(1, 2), 3) == math.inf
        th = theta_operator(FourierExpansion(1, 2, {key1(1): 6}), 1)
        assert vp_expansion(th, 3) == 1

    def test_submultiplicative_on_products(self):
        rng = random.Random(72)
        for _ in range(10):
            f = rand_integral(rng, 1, 3)
            g = rand_integral(rng, 1, 3)
            if not f.coeffs or not g.coeffs:
                continue
            assert vp_expansion(f * g, 3) >= vp_expansion(f, 3) + vp_expansion(g, 3)


class TestCongruent:
    def test_simple_holds(self):
        f = FourierExpansion(1, 2, {key1(0): 1, key1(1): 10})
        g = FourierExpansion(1, 2, {key1(0): 1, key1(1): 1})
        rep = congruent(f, g, 3, 2)
        assert rep.holds and rep.min_valuation == 2 and rep.witness == key1(1)

    def test_simple_fails_with_witness(self):
        f = FourierExpansion(1, 3, {key1(1): 1, key1(2): 3, key1(3): 4})
        g = FourierExpansion.zero(1, 3)
        rep = congruent(f, g, 3, 1)
        assert not rep.holds
        assert rep.min_valuation == 0
        assert rep.witness == key1(1)

    def test_witness_is_first_minimizer(self):
        f = FourierExpansion(1, 3, {key1(1): 9, key1(2): 1, key1(3): 2})
        g = FourierExpansion.zero(1, 3)
        rep = congruent(f, g, 3, 1)
        assert rep.witness == key1(2)

    def test_identical_gives_inf(self):
        f = eisenstein(4, 3)
        rep = congruent(f, f, 5, 4)
        assert rep.holds and rep.min_valuation == math.inf and rep.witness is None

    def test_bound_is_min(self):
        f = FourierExpansion(1, 5, {key1(5): 1})
        g = FourierExpansion.zero(1, 2)
        rep = congruent(f, g, 3, 1)
        assert rep.bound == 2
        assert rep.holds  # the offending key lies beyond the shared bound

    def test_equivalence_relation(self):
        rng = random.Random(73)
        p, m = 3, 2
        for _ in range(15):
            f = rand_integral(rng, 1, 3)
            noise1 = rand_integral(rng, 1, 3).scale(p ** m)
            noise2 = rand_integral(rng, 1, 3).scale(p ** m)
            g = f + noise1
            h = g + noise2
            assert congruent(f, f, p, m).holds
            assert congruent(f, g, p, m).holds == congruent(g, f, p, m).holds
            if congruent(f, g, p, m).holds and congruent(g, h, p, m).holds:
                assert congruent(f, h, p, m).holds

    def test_normalized_mode_scale_invariant(self):
        f = FourierExpansion(1, 2, {key1(0): 1, key1(1): 9})
        g = FourierExpansion(1, 2, {key1(0): 1})
        for scale in (1, 3, Fraction(1, 3), Fraction(2, 27)):
            rep = congruent(f.scale(scale), g.scale(scale), 3, 2, normalized=True)
            assert rep.holds
        # plain mode loses the congruence once the forms are rescaled down
        assert not congruent(
            f.scale(Fraction(1, 3)), g.scale(Fraction(1, 3)), 3, 2
        ).holds

    def test_block_shaped_congruence(self):
        # theta_operator kills constants and f has 3-divisible higher terms,
        # so both block-valued sides vanish mod 3 up to the shared bound
        f = rep_numbers(gram_a(2), 2, 2)
        a = theta_operator(f, 1)
        b = theta_operator(frobenius_descent(f.dilate(3), 3), 1)
        rep = congruent(a, b, 3, 1)
        assert rep.bound == 2
        assert rep.holds and rep.min_valuation == 1

    def test_shape_mismatch(self):
        f = rep_numbers(gram_a(2), 2, 2)
        with pytest.raises(ValueError):
            congruent(f, theta_operator(f, 1), 3, 1)

    def test_bad_power(self):
        f = eisenstein(4, 2)
        with pytest.raises(ValueError):
            congruent(f, f, 3, 0)

    def test_report_json(self):
        f = FourierExpansion(1, 2, {key1(1): 1})
        rep = congruent(f, FourierExpansion.zero(1, 2), 3, 1)
        d = rep.to_json_dict()
        assert set(d) == {
            "p", "m", "holds", "min_valuation", "witness_t2", "bound", "normalized"
        }
        assert d["min_valuation"] == 0
        assert d["witness_t2"] == [[2]]
        d2 = congruent(f, f, 3, 1).to_json_dict()
        assert d2["min_valuation"] == "inf" and d2["witness_t2"] is None

    def test_report_api(self):
        # field order, keyword and positional construction, repr, hash and
        # read-only attributes, as a frozen record had them
        f = FourierExpansion(1, 2, {key1(1): 1})
        rep = congruent(f, FourierExpansion.zero(1, 2), 3, 1)
        fields = (3, 1, False, 0, ((2,),), 2, False)
        assert rep == CongruenceReport(*fields) == CongruenceReport(
            prime=3, power=1, holds=False, min_valuation=0, witness=((2,),), bound=2,
            normalized=False)
        assert repr(rep) == ("CongruenceReport(prime=3, power=1, holds=False, min_valuation=0, "
                             "witness=((2,),), bound=2, normalized=False)")
        assert hash(rep) == hash(fields)
        assert (rep.prime, rep.power, rep.holds, rep.min_valuation, rep.witness, rep.bound,
                rep.normalized) == fields
        for name in ("holds", "witness", "other"):
            with pytest.raises(AttributeError):
                setattr(rep, name, True)
        assert rep.to_json_dict() == {"p": 3, "m": 1, "holds": False, "min_valuation": 0,
                                      "witness_t2": [[2]], "bound": 2, "normalized": False}


def reference_congruent(f, g, p, m, normalized):
    """The congruence report from a loop over the union of the stored keys
    within the shared bound, in (trace, entries) order, subtracting entry
    by entry with zero defaults: (holds, min_valuation, witness, bound)."""

    def trace(key):
        return sum(key[i][i] for i in range(len(key))) // 2

    def val(x):
        if x == 0:
            return math.inf
        count, num, den = 0, x.numerator, x.denominator
        while num % p == 0:
            num, count = num // p, count + 1
        while den % p == 0:
            den, count = den // p, count - 1
        return count

    def entries(value):
        return [value] if f.shape == "scalar" else [x for row in value for x in row]

    bound = min(f.trace_bound, g.trace_bound)
    keys = {k for e in (f, g) for k in e.coeffs if trace(k) <= bound}
    best, witness = math.inf, None
    for key in sorted(keys, key=lambda k: (trace(k), [x for row in k for x in row])):
        a = entries(f.coeffs[key]) if key in f.coeffs else None
        b = entries(g.coeffs[key]) if key in g.coeffs else None
        a = a or [Fraction(0)] * len(b)
        b = b or [Fraction(0)] * len(a)
        v = min(val(x - y) for x, y in zip(a, b))
        if v < best:
            best, witness = v, key
    threshold = m
    if normalized:
        threshold += min((val(x) for k, v in f.coeffs.items() if trace(k) <= bound
                          for x in entries(v)), default=math.inf)
    return best >= threshold, best, witness, bound


class TestCongruentAgainstReference:
    """congruent reads the valuations of f - g; the reference compares
    key by key without the ring's subtraction."""

    @staticmethod
    def random_pair(rng, degree, shape, p):
        size = 1 if shape == "scalar" else comb(degree, shape[1])
        # few valuations, so minima tie across keys and block entries
        units = [Fraction(a, b) for a in (1, -1, 2, 4) for b in (1, 2)]

        def value():
            return rng.choice((0, 1, p, p * p, Fraction(1, p))) * rng.choice(units)

        def series(bound):
            coeffs = {}
            for t in enumerate_indices(degree, bound):
                if rng.random() < 0.7:
                    coeffs[t] = (value() if shape == "scalar" else
                                 [[value() for _ in range(size)]
                                  for _ in range(size)])
            return FourierExpansion(degree, bound, coeffs, shape)

        bounds = (rng.randint(0, 3), rng.randint(0, 3))
        f = series(bounds[0])
        g = series(bounds[1])
        if rng.random() < 0.5:
            # g agrees with f on part of the shared support: cancellations
            common = {k: v for k, v in f.coeffs.items() if rng.random() < 0.6
                      and sum(k[i][i] for i in range(degree)) <= 2 * bounds[1]}
            g = FourierExpansion(degree, bounds[1], {**g.coeffs, **common}, shape)
        return f, g

    def test_random_pairs(self):
        rng = random.Random(2024)
        for _ in range(150):
            degree = rng.randint(1, 3)
            shape = ("scalar" if rng.random() < 0.5
                     else ("compound", rng.randint(1, degree)))
            p = rng.choice((3, 5))
            f, g = self.random_pair(rng, degree, shape, p)
            for m in (1, 2):
                for normalized in (False, True):
                    rep = congruent(f, g, p, m, normalized=normalized)
                    assert (rep.holds, rep.min_valuation, rep.witness, rep.bound) \
                        == reference_congruent(f, g, p, m, normalized)
                    assert rep.normalized is normalized


class TestFrobeniusDescent:
    def test_congruent_mod_p(self):
        rng = random.Random(74)
        cases = [
            rep_numbers(gram_a(2), 1, 6),
            rep_numbers(gram_a(4), 1, 6),
            rand_integral(rng, 1, 6),
            rand_integral(rng, 2, 3),
        ]
        for g in cases:
            for p in (3, 5):
                h = frobenius_descent(g, p)
                assert congruent(h, g, p, 1).holds

    def test_non_integral_rejected(self):
        g = FourierExpansion(1, 2, {key1(1): Fraction(1, 3)})
        with pytest.raises(ValueError):
            frobenius_descent(g, 3)

    def test_u_p_undoes_power_keys(self):
        g = FourierExpansion(1, 3, {key1(0): 1, key1(1): 2})
        h = frobenius_descent(g, 3)
        assert h.trace_bound == 1
        # (1 + 2q)^3 = 1 + 6q + 12q^2 + 8q^3 -> U(3) picks 1 and 8
        assert h.coefficient(key1(0)) == 1
        assert h.coefficient(key1(1)) == 8


    def test_bound_drops_to_n_over_p(self):
        g = eisenstein(4, 60)
        h = frobenius_descent(g, 7)
        assert h.trace_bound == 8
        report = congruent(h, g, 7, 1)
        assert report.holds
        assert report.bound == 8


@st.composite
def p_integral_series(draw):
    """A prime p in {3, 5, 7} and a degree-1 or degree-2 scalar series
    whose coefficients have denominators prime to p."""
    p = draw(st.sampled_from((3, 5, 7)))
    degree = draw(st.integers(1, 2))
    bound = draw(st.integers(0, {1: 30, 2: 7}[degree]))
    keys = enumerate_indices(degree, bound)
    values = st.builds(Fraction, st.integers(-50, 50),
                       st.integers(1, 30).filter(lambda d: d % p))
    coeffs = draw(st.dictionaries(st.sampled_from(keys), values))
    return p, FourierExpansion(degree, bound, coeffs)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(case=p_integral_series())
def test_frobenius_descent_congruent_on_random_series(case):
    p, g = case
    report = congruent(frobenius_descent(g, p), g, p, 1)
    assert report.holds
    assert report.bound == g.trace_bound // p


class TestUnitLadder:
    def test_weights_and_congruence(self):
        base = rep_numbers(direct_sum(gram_a(2), gram_a(2)), 1, 4)
        one = FourierExpansion.constant(1, 1, 4)
        for i in (1, 2, 3):
            e = unit_ladder(base, 1, i, 3)
            assert e.weight == 1 * (3 ** i - 1)
            assert congruent(e ** (3 ** (i - 1)), one, 3, i).holds

    def test_base_must_be_unit(self):
        th = rep_numbers(gram_a(2), 1, 4)  # 1 + 6q + ..., not 1 mod 5
        with pytest.raises(ValueError):
            unit_ladder(th, 1, 2, 5)

    def test_validation(self):
        base = rep_numbers(direct_sum(gram_a(2), gram_a(2)), 1, 2)
        with pytest.raises(ValueError):
            unit_ladder(base, 0, 1, 3)
        with pytest.raises(ValueError):
            unit_ladder(base, 1, 0, 3)


class TestLimitProfile:
    def test_increasing_powers(self):
        th = rep_numbers(gram_a(2), 1, 4)
        one = FourierExpansion.constant(1, 1, 4)
        seq = [th ** (3 ** m) for m in (1, 2, 3)]
        assert limit_profile(seq, one, 3) == [2, 3, 4]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            limit_profile([], FourierExpansion.constant(1, 1, 2), 3)

    def test_empty_generator_rejected(self):
        with pytest.raises(ValueError, match="^empty sequence$"):
            limit_profile((f for f in ()), FourierExpansion.constant(1, 1, 2), 3)

    def test_generator_gives_the_list_profile(self):
        th = rep_numbers(gram_a(2), 1, 4)
        one = FourierExpansion.constant(1, 1, 4)
        seq = [th ** (3 ** m) for m in (1, 2, 3)]
        assert limit_profile((f for f in seq), one, 3) == limit_profile(seq, one, 3)


def two_series_bracket_congruence(f, k, p, m, r, m_dilate):
    """thm41 as two series: the bracket D(f, g) against the unit power g,
    and the reference c theta^[r] f built on its own, compared by
    congruent."""
    n, l = f.degree, (p - 1) * p ** (m - 1)
    dil = p ** (m_dilate - 1)
    unit = rep_numbers(gram_a(p - 1), n, -(-f.trace_bound // dil)) ** 2
    g = (unit ** (p ** (m - 1))).dilate(dil)
    c = _bracket_weights(r, k, l)[r]
    return congruent(rankin_cohen(f, g, r, k, l), theta_operator(f, r).scale(c),
                     p, m + vp(c, p))


class TestBracketThetaCongruence:
    def test_equals_two_series_construction(self):
        # D(f, g) - c theta^[r] f = D(f, g - 1): the single bracket gives
        # the report of the bracket and reference built apart
        rng = random.Random(27)
        failing = 0
        for n, r in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)):
            bound = (4, 2, 1)[n - 1]
            theta_square = rep_numbers(gram_a(2), n, bound) ** 2
            for p in (3, 5, 7):
                for m in (1, 2):
                    for m_dilate in (1, 2):
                        k = rng.choice((1, 2, 4, Fraction(5, 2), 6, -1))
                        for f in (theta_square, rand_integral(rng, n, bound)):
                            new = bracket_theta_congruence(f, k, p, m, r, m_dilate)
                            old = two_series_bracket_congruence(f, k, p, m, r, m_dilate)
                            assert new.to_json_dict() == old.to_json_dict()
                            failing += not new.holds
        assert failing

    def test_one_bracket_and_no_theta_operator(self, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(padic, "rankin_cohen", counted("bracket", rankin_cohen))
        monkeypatch.setattr(diffops, "theta_operator", counted("theta", theta_operator))
        if hasattr(padic, "theta_operator"):
            monkeypatch.setattr(padic, "theta_operator", counted("theta", theta_operator))
        f = rep_numbers(gram_a(2), 2, 2) ** 2
        for r in (1, 2):
            calls.clear()
            bracket_theta_congruence(f, 4, 5, 1, r, 1)
            assert calls == ["bracket"]

    def test_no_first_power_and_no_dilation_by_one(self, monkeypatch):
        calls = []
        pow_, dilate = FourierExpansion.__pow__, FourierExpansion.dilate

        def counted_pow(self, exponent):
            calls.append(("pow", exponent))
            return pow_(self, exponent)

        def counted_dilate(self, c):
            calls.append(("dilate", c))
            return dilate(self, c)

        monkeypatch.setattr(FourierExpansion, "__pow__", counted_pow)
        monkeypatch.setattr(FourierExpansion, "dilate", counted_dilate)
        f = eisenstein(4, 4)
        for m, m_dilate, want in ((1, 1, [("pow", 2)]),
                                  (2, 1, [("pow", 2), ("pow", 3)]),
                                  (1, 2, [("pow", 2), ("dilate", 3)]),
                                  (2, 2, [("pow", 2), ("pow", 3), ("dilate", 3)])):
            calls.clear()
            rep = bracket_theta_congruence(f, 4, 3, m, 1, m_dilate)
            assert calls == want
            assert rep.to_json_dict() == two_series_bracket_congruence(
                f, 4, 3, m, 1, m_dilate).to_json_dict()

    def test_reference_factor_never_vanishes(self):
        # rep_numbers takes degree 1..3, so r <= 3, and l = (p - 1) p^(m-1) >= 2,
        # so each factor l - (r-1)/2 + i/2 of (-1)^r c is at least 1
        primes = [p for p in range(3, 68, 2) if all(p % q for q in range(3, p, 2))]
        assert primes[-1] == 67 and len(primes) == 18
        for r in (1, 2, 3):
            for p in primes:
                for m in (1, 2, 3):
                    c = _bracket_weights(r, 4, (p - 1) * p ** (m - 1))[r]
                    assert (-1) ** r * c >= 1

    def test_holds_degree_one(self):
        f = eisenstein(4, 4)
        for m in (1, 2):
            rep = bracket_theta_congruence(f, 4, 3, m, 1, m)
            assert rep.holds

    def test_dilation_depth_raises_valuation(self):
        f = eisenstein(4, 4)
        vals = []
        for m_dilate in (1, 2, 3):
            rep = bracket_theta_congruence(f, 4, 3, 2, 1, m_dilate)
            vals.append(rep.min_valuation)
        assert vals == sorted(vals)
        assert vals[1] >= rep.power

    def test_validation(self):
        f = eisenstein(4, 4)
        with pytest.raises(ValueError):
            bracket_theta_congruence(f, 4, 3, 0, 1, 1)
        with pytest.raises(ValueError):
            bracket_theta_congruence(f, 4, 3, 1, 2, 1)
        with pytest.raises(ValueError):
            bracket_theta_congruence(theta_operator(f, 1), 4, 3, 1, 1, 1)
        bad = FourierExpansion(1, 2, {key1(1): Fraction(1, 3)})
        with pytest.raises(ValueError):
            bracket_theta_congruence(bad, 4, 3, 1, 1, 1)

    def test_p7_degree_two_within_seconds(self):
        # the unit form A6 + A6 has 95,873 vectors of norm <= 8; its theta
        # series is the product of two copies of theta(A6)
        f = rep_numbers(gram_a(4), 2, 3) ** 2
        start = time.perf_counter()
        for r, witness in ((1, ((0, 0), (0, 2))), (2, ((2, -1), (-1, 4)))):
            rep = bracket_theta_congruence(f, 4, 7, 1, r, 1)
            assert rep.holds
            assert rep.min_valuation == 1
            assert rep.witness == witness
        assert time.perf_counter() - start < 5

    def test_report_is_congruence_report(self):
        rep = bracket_theta_congruence(eisenstein(4, 2), 4, 3, 1, 1, 1)
        assert isinstance(rep, CongruenceReport)
        assert rep.prime == 3
        assert rep.bound == 2
        assert not rep.normalized
