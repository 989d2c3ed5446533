"""Acceptance suite: one test per shipped guarantee, each printing a
single verdict line (run with -s to see them) and asserting it.

Every check here is exact; there are no tolerances anywhere.  Oracles are
computed inside this file from first principles (divisor sums, the eta
product, full-box lattice enumeration, brute-force SL2) and never share
code with the library paths they judge.

 1  theta series of A_{p-1} is 1 mod p          (p in 3,5,7; degrees 1,2)
 2  Frobenius descent (G^p)|U(p) = G mod p      (theta and random inputs)
 3  unit ladder powers: E_i^(p^(i-1)) = 1 mod p^i
 4  bracket of E4, E6 equals -3456 Delta exactly
 5  bracket congruence against the theta-operator reference
 6  compound equivariance, 500 random trials
 7  polarization evaluation (200 x 5) and bracket antisymmetry
 8  coset system: counts, pairwise distinctness, SL2(F_3) brute force
 9  representation numbers against naive full-box enumeration
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from math import isqrt

from siegelq.diffops import polarize_compound, rankin_cohen
from siegelq.halfint import (
    compound,
    det,
    enumerate_indices,
    mat_add,
    mat_mul,
    mat_scale,
    minor,
    transpose,
)
from siegelq.padic import bracket_theta_congruence, congruent, frobenius_descent, unit_ladder
from siegelq.qexpansion import FourierExpansion, eisenstein
from siegelq.symplectic import SymplecticModP, coset_reps, same_coset
from siegelq.theta import direct_sum, gram_a, rep_numbers


def cramer_inverse(m):
    """m^{-1} by Cramer's rule, (m^{-1})_ij = (-1)^(i+j) det m[~j, ~i] / det m,
    from halfint's minors alone."""
    n = len(m)
    rest = [[k for k in range(n) if k != i] for i in range(n)]
    d = det(m)
    return [[Fraction((-1) ** (i + j) * minor(m, rest[j], rest[i]), d) for j in range(n)]
            for i in range(n)]


@contextmanager
def criterion(num, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        print("acceptance %d %s: %s" % (num, label, "PASS" if ok else "FAIL"))


def key1(t):
    return ((2 * t,),)


def test_1_theta_unit_congruence():
    with criterion(1, "theta series of A_{p-1} is 1 mod p"):
        for p in (3, 5, 7):
            lat = gram_a(p - 1)
            for n, bound in ((1, 4), (2, 2)):
                th = rep_numbers(lat, n, bound)
                zero = tuple((0,) * n for _ in range(n))
                assert th.coefficient(zero) == 1
                for key, value in th.coeffs.items():
                    if key != zero:
                        assert value.denominator == 1
                        assert value.numerator % p == 0, (p, n, key)
                one = FourierExpansion.constant(1, n, bound)
                assert congruent(th, one, p, 1).holds


def test_2_frobenius_descent():
    with criterion(2, "Frobenius descent (G^p)|U(p) = G mod p"):
        rng = random.Random(1002)
        cases = [
            rep_numbers(gram_a(2), 1, 10),
            rep_numbers(gram_a(4), 1, 10),
            rep_numbers(direct_sum(gram_a(2), gram_a(2)), 1, 10),
            FourierExpansion(
                1, 10,
                {key1(t): rng.randint(-50, 50) for t in range(11)}),
            FourierExpansion(
                2, 5,
                {t: rng.randint(-50, 50)
                 for t in enumerate_indices(2, 5)}),
        ]
        for g in cases:
            for p in (3, 5):
                h = frobenius_descent(g, p)
                rep = congruent(h, g, p, 1)
                assert rep.bound == g.trace_bound // p
                assert rep.holds, (g, p, rep)


def test_3_unit_ladder_powers():
    with criterion(3, "unit ladder powers are 1 mod p^i"):
        p = 3
        base = rep_numbers(direct_sum(gram_a(2), gram_a(2)), 1, 4)
        one = FourierExpansion.constant(1, 1, 4)
        for i in (1, 2, 3):
            ladder = unit_ladder(base, 1, i, p)
            assert ladder.weight == (p ** i - 1)
            rep = congruent(ladder ** (p ** (i - 1)), one, p, i)
            assert rep.holds, (i, rep)


def test_4_classical_bracket_value():
    with criterion(4, "bracket of E4 and E6 equals -3456 Delta"):
        bound = 8

        # oracle Eisenstein coefficients straight from divisor sums
        def sigma(k, m):
            return sum(d ** k for d in range(1, m + 1) if m % d == 0)

        e4_oracle = [1] + [240 * sigma(3, m) for m in range(1, bound + 1)]
        e6_oracle = [1] + [-504 * sigma(5, m) for m in range(1, bound + 1)]

        # oracle Delta from the eta product q prod (1 - q^n)^24
        poly = [1] + [0] * bound
        for n in range(1, bound + 1):
            for _ in range(24):
                nxt = list(poly)
                for i in range(bound + 1 - n):
                    nxt[i + n] -= poly[i]
                poly = nxt
        delta_oracle = [0] + poly[:bound]

        # the constant comes out of the r = 1 bracket at q^1:
        # k a_f(0) a_g(1) - l a_f(1) a_g(0)
        constant = 4 * e6_oracle[1] - 6 * e4_oracle[1]
        assert constant == -3456

        e4 = eisenstein(4, bound)
        e6 = eisenstein(6, bound)
        for m in range(bound + 1):
            assert e4.coefficient(key1(m)) == e4_oracle[m]
            assert e6.coefficient(key1(m)) == e6_oracle[m]

        bracket = rankin_cohen(e4, e6, 1, 4, 6)
        for m in range(bound + 1):
            got = bracket.coefficient(key1(m))
            assert got == ((constant * delta_oracle[m],),), m


def test_5_bracket_theta_congruence():
    with criterion(5, "bracket congruence against the theta reference"):
        p = 3
        f_deg1 = eisenstein(4, 4)
        f_deg2 = rep_numbers(gram_a(2), 2, 4)
        for n, r, f, k in (
            (1, 1, f_deg1, 4),
            (2, 1, f_deg2, 1),
            (2, 2, f_deg2, 1),
        ):
            for m in (1, 2):
                rep = bracket_theta_congruence(f, k, p, m, r, m)
                assert rep.bound >= 2
                assert rep.holds, (n, r, m, rep)
                # margin of m over the reference's own p-content: the
                # modulus in the report is m plus that content already
                assert rep.min_valuation >= rep.power


def test_6_compound_equivariance():
    with criterion(6, "compound equivariance, 500 trials"):
        rng = random.Random(1006)
        for _ in range(500):
            n = rng.randint(1, 4)
            r = rng.randint(1, n)
            a = tuple(
                tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)
            )
            t = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    v = rng.randint(-3, 3)
                    t[i][j] = v
                    t[j][i] = v
            t = tuple(tuple(row) for row in t)
            lhs = compound(mat_mul(transpose(a), mat_mul(t, a)), r)
            ca = compound(a, r)
            rhs = mat_mul(transpose(ca), mat_mul(compound(t, r), ca))
            assert lhs == rhs, (a, t, r)


def test_7_polarization_and_antisymmetry():
    with criterion(7, "polarization evaluation and bracket antisymmetry"):
        rng = random.Random(1007)

        def rand_sym(n):
            m = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    v = Fraction(rng.randint(-6, 6), rng.choice([1, 2]))
                    m[i][j] = v
                    m[j][i] = v
            return tuple(tuple(row) for row in m)

        for _ in range(200):
            n = rng.randint(1, 3)
            r = rng.randint(1, n)
            big_r = rand_sym(n)
            big_s = rand_sym(n)
            pieces = polarize_compound(big_r, big_s, r)
            for lam in (-2, -1, 0, 1, 2):
                pencil = tuple(
                    tuple(big_r[i][j] + lam * big_s[i][j] for j in range(n))
                    for i in range(n)
                )
                total = pieces[0]
                for i in range(1, r + 1):
                    total = mat_add(total, mat_scale(Fraction(lam) ** i, pieces[i]))
                assert compound(pencil, r) == total

        def rand_expansion(n, bound):
            return FourierExpansion(
                n, bound,
                {t: Fraction(rng.randint(-9, 9))
                 for t in enumerate_indices(n, bound)})

        for _ in range(40):
            n = rng.randint(1, 2)
            r = rng.randint(1, n)
            f = rand_expansion(n, 2)
            g = rand_expansion(n, 2)
            k = Fraction(rng.randint(1, 12), rng.choice([1, 2]))
            l = Fraction(rng.randint(1, 12), rng.choice([1, 2]))
            fwd = rankin_cohen(f, g, r, k, l)
            bwd = rankin_cohen(g, f, r, l, k)
            assert fwd == bwd.scale((-1) ** r)


def test_8_coset_system():
    with criterion(8, "coset system counts and distinctness"):
        for n, p in ((1, 3), (1, 5), (2, 3), (2, 5), (3, 3)):
            reps = coset_reps(n, p)
            want = 1
            for i in range(1, n + 1):
                want *= p ** i + 1
            assert len(reps) == want, (n, p, len(reps))
            # same_coset compares coset keys, so distinct keys mean no two
            # representatives share a coset
            keys = {SymplecticModP(r["mat"], p).coset_key() for r in reps}
            assert len(keys) == want, (n, p, len(keys))

        # brute force cross-check for (1, 3): all 24 elements of SL2(F_3)
        # sort into the 4 cosets, 6 apiece
        reps13 = [SymplecticModP(r["mat"], 3) for r in coset_reps(1, 3)]
        tally = [0] * len(reps13)
        count = 0
        for a, b, c, d in product(range(3), repeat=4):
            if (a * d - b * c) % 3 != 1:
                continue
            count += 1
            m = SymplecticModP(((a, b), (c, d)), 3)
            hits = [i for i, r in enumerate(reps13) if same_coset(m, r)]
            assert len(hits) == 1, (a, b, c, d)
            tally[hits[0]] += 1
        assert count == 24
        assert tally == [6, 6, 6, 6]


def test_9_rep_numbers_against_box_oracle():
    with criterion(9, "representation numbers match naive enumeration"):
        bound = 2
        for lat in (gram_a(2), gram_a(4), direct_sum(gram_a(2), gram_a(2))):
            rank = lat.rank
            inv = cramer_inverse(lat.gram)
            radius = [isqrt(int(2 * bound * inv[e][e])) for e in range(rank)]
            box = list(product(*[range(-r, r + 1) for r in radius]))
            gram = lat.gram
            qv = {
                v: tuple(sum(gram[i][j] * v[j] for j in range(rank))
                         for i in range(rank))
                for v in box
            }
            norm = {v: sum(x * y for x, y in zip(v, qv[v])) for v in box}
            for degree in (1, 2):
                counts = {}
                for cols in product(box, repeat=degree):
                    tr2 = sum(norm[v] for v in cols)
                    if tr2 > 2 * bound:
                        continue
                    d = [[0] * degree for _ in range(degree)]
                    for i in range(degree):
                        d[i][i] = norm[cols[i]]
                        for j in range(i + 1, degree):
                            cross = sum(
                                x * y for x, y in zip(cols[i], qv[cols[j]]))
                            d[i][j] = cross
                            d[j][i] = cross
                    key = tuple(tuple(row) for row in d)
                    counts[key] = counts.get(key, 0) + 1
                th = rep_numbers(lat, degree, bound)
                for t in enumerate_indices(degree, bound):
                    assert th.coefficient(t) == counts.get(t, 0), (
                        lat, degree, t)
                # and nothing outside the enumerated index set was counted
                for key in th.coeffs:
                    assert key in counts
