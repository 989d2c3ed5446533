"""Lattices, isometries and exact representation numbers.

The independent oracles enumerate the integer vectors in the coordinate
box given by the diagonal of 2N Q^{-1} and tally X^t Q X directly, over
every ordered tuple of columns; the library path goes through
quadratic-completion backtracking and counts tuples up to signed column
permutations instead, so agreement is a two-route check.  A block-diagonal
Gram takes the product path of rep_numbers and a connected one the
enumeration, so comparing a block-diagonal Q with U^t Q U for a U that
mixes the blocks checks the two paths against each other.  Two structural
identities the enumerator does not use are checked as well: theta of E8
is the Siegel Eisenstein series E_4, and theta coefficients are
GL_n(Z)-invariant, a(U^t T U) = a(T); and Siegel's Phi operator restricts
degree n to degree n - 1.  The integer lattice level is judged against
the least l with l Q^{-1} even integral, Q^{-1} by Cramer's rule, and
against level(A + B) = lcm(level A, level B).
"""

import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import isqrt, lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from siegelq import theta
from siegelq.halfint import (bareiss, det, enumerate_indices, identity, mat_mul, minor,
                             psd_rows, transpose)
from siegelq.qexpansion import dumps
from siegelq.theta import (
    GramLattice,
    _components,
    _short_vectors,
    cycle_isometry,
    direct_sum,
    gram_a,
    gram_from_json,
    gram_to_json,
    is_free_isometry,
    rep_numbers,
)


def cramer_inverse(m):
    """m^{-1} by Cramer's rule, (m^{-1})_ij = (-1)^(i+j) det m[~j, ~i] / det m:
    minors by cofactors or bareiss, so it shares no code with psd_rows."""
    n = len(m)
    rest = [[k for k in range(n) if k != i] for i in range(n)]
    d = det(m)
    return [[Fraction((-1) ** (i + j) * minor(m, rest[j], rest[i]), d) for j in range(n)]
            for i in range(n)]


def box_rep_oracle(gram, degree, bound):
    """Naive full-box enumeration of {X : X^t Q X = 2T, tr T <= bound}."""
    m = len(gram)
    inv = cramer_inverse(gram)
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


def box_short_vectors(gram, bound):
    """Every integer v in the box |v_e| <= sqrt(N (Q^{-1})_ee) with
    v^t Q v <= N, as (norm, v) pairs, sorted by v."""
    m = len(gram)
    inv = cramer_inverse(gram)
    radius = [isqrt(int(bound * inv[e][e])) for e in range(m)]
    out = []
    for v in product(*[range(-r, r + 1) for r in radius]):
        norm = sum(v[a] * gram[a][b] * v[b] for a in range(m) for b in range(m))
        if norm <= bound:
            out.append((norm, v))
    return out


def box_tuple_oracle(gram, degree, bound):
    """Representation numbers by tallying X^t Q X over every ordered
    degree-tuple of box_short_vectors(gram, 2 bound) within the trace
    budget."""
    m = len(gram)
    short = box_short_vectors(gram, 2 * bound)
    counts = {}
    for cols in product(short, repeat=degree):
        if sum(norm for norm, _ in cols) > 2 * bound:
            continue
        key = tuple(
            tuple(sum(u[a] * gram[a][b] * w[b] for a in range(m) for b in range(m))
                  for _, w in cols)
            for _, u in cols)
        counts[key] = counts.get(key, 0) + 1
    return counts


def conjugate(gram, u):
    """U^t Q U."""
    return mat_mul(transpose(u), mat_mul(gram, u))


def permute(gram, perm):
    """The Gram matrix in the coordinate order perm."""
    return [[gram[i][j] for j in perm] for i in perm]


def dynkin_gram(m, edges):
    """The root lattice of a simply-laced Dynkin diagram on m nodes: 2 on
    the diagonal, -1 at each edge."""
    g = [[2 if i == j else 0 for j in range(m)] for i in range(m)]
    for i, j in edges:
        g[i][j] = g[j][i] = -1
    return GramLattice(g)


D4 = dynkin_gram(4, ((0, 1), (1, 2), (1, 3)))
# a chain of seven nodes, the eighth joined to the third
E8 = dynkin_gram(8, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)))


class TestGramLattice:
    def test_gram_a(self):
        assert gram_a(2).gram == ((2, -1), (-1, 2))
        assert gram_a(1).gram == ((2,),)
        for m in range(1, 7):
            assert gram_a(m).det() == m + 1
        # the tridiagonal, entry by entry
        for m in range(1, 9):
            want = [[0] * m for _ in range(m)]
            for i in range(m):
                want[i][i] = 2
            for i in range(m - 1):
                want[i][i + 1] = want[i + 1][i] = -1
            assert gram_a(m).gram == tuple(map(tuple, want))

    def test_levels(self):
        # A_{p-1} and A_{p-1} + A_{p-1} both live at level p
        for p in (3, 5, 7):
            assert gram_a(p - 1).level() == p
            assert direct_sum(gram_a(p - 1), gram_a(p - 1)).level() == p

    @staticmethod
    def level_oracle(gram):
        """The smallest l >= 1 with l Q^{-1} even integral, Q^{-1} by
        cramer_inverse.  2 det Q is such an l and they form a subgroup of
        Z, so the least one divides it."""
        inv = cramer_inverse(gram)
        twice = 2 * det(gram)
        return next(l for l in range(1, twice + 1) if twice % l == 0
                    and all((l * x).denominator == 1 for row in inv for x in row)
                    and all(l * inv[i][i] % 2 == 0 for i in range(len(gram))))

    @staticmethod
    def random_even_lattice(rng, rank):
        """A seeded even positive-definite lattice, definiteness decided by
        its leading minors (Sylvester)."""
        while True:
            g = [[0] * rank for _ in range(rank)]
            for i in range(rank):
                g[i][i] = 2 * rng.randint(1, 5)
                for j in range(i + 1, rank):
                    g[i][j] = g[j][i] = rng.randint(-3, 3)
            if all(minor(g, range(k), range(k)) > 0 for k in range(1, rank + 1)):
                return GramLattice(g)

    def test_level_against_cramer_oracle(self):
        named = [gram_a(m) for m in range(1, 9)]
        named += [direct_sum(gram_a(2), gram_a(4)), E8]
        assert [lat.level() for lat in named] == [4, 3, 8, 5, 12, 7, 16, 9, 15, 1]
        rng = random.Random(26)
        lattices = [self.random_even_lattice(rng, rng.randint(1, 5)) for _ in range(200)]
        for lat in named + lattices:
            assert lat.level() == self.level_oracle(lat.gram), lat.gram
        assert len({lat.level() for lat in lattices}) > 20

    def test_level_of_direct_sum_is_lcm(self):
        rng = random.Random(27)
        for _ in range(60):
            a, b = (self.random_even_lattice(rng, rng.randint(1, 4)) for _ in range(2))
            assert direct_sum(a, b).level() == lcm(a.level(), b.level())

    def test_level_in_integers_is_fast(self):
        start = time.perf_counter()
        assert gram_a(64).level() == 65
        assert time.perf_counter() - start < 1.0

    def test_direct_sum(self):
        s = direct_sum(gram_a(2), gram_a(2))
        assert s.rank == 4
        assert s.det() == 9
        assert s.gram[0][2] == 0
        assert repr(s) == "GramLattice(rank=4, det=9)"

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

    def test_cycle_isometry_validation(self):
        for m in (True, 0, -2, 2.0):
            with pytest.raises(ValueError):
                cycle_isometry(m)

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

    def test_large_prime_takes_logarithmically_many_products(self, monkeypatch):
        # the order check raises sigma to the p-th power by square and
        # multiply, so a 61-bit prime costs about 2 * 61 products, not p - 1
        calls = []

        def counting_mul(a, b):
            calls.append(None)
            return mat_mul(a, b)

        monkeypatch.setattr(theta, "mat_mul", counting_mul)
        # cycle_isometry(2) has order 3, and 2^61 - 1 = 1 mod 3
        assert not is_free_isometry(gram_a(2), cycle_isometry(2), 2 ** 61 - 1)
        assert len(calls) <= 2 * 61 + 2
        assert is_free_isometry(gram_a(2), cycle_isometry(2), 3)

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
                assert th.coefficient(t) == oracle.get(t, 0)

    def test_against_box_oracle_degree_two(self):
        lat = gram_a(2)
        th = rep_numbers(lat, 2, 2)
        oracle = box_rep_oracle(lat.gram, 2, 2)
        for t in enumerate_indices(2, 2):
            assert th.coefficient(t) == oracle.get(t, 0)

    def test_against_box_oracle_degree_three(self):
        # every coefficient, zero and off-diagonal signs included, against
        # the full box of ordered column triples
        for lat, bound in ((gram_a(1), 4), (gram_a(2), 3)):
            oracle = box_rep_oracle(lat.gram, 3, bound)
            assert any(x < 0 for k in oracle for row in k for x in row)
            assert rep_numbers(lat, 3, bound).coeffs == oracle

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


class TestBoxTuples:
    """Connected Grams against the ordered-tuple box oracle, at sizes whose
    keys include zero columns, repeated columns and negative off-diagonal
    entries, each of which the enumerator folds into an orbit."""

    def check(self, gram, degree, bound):
        oracle = box_tuple_oracle(gram, degree, bound)
        keys = list(oracle)
        assert any(0 in (k[i][i] for i in range(degree)) for k in keys)
        assert any(k[i] == k[j] != (0,) * degree
                   for k in keys for i in range(degree) for j in range(i))
        assert any(x < 0 for k in keys for row in k for x in row)
        assert rep_numbers(GramLattice(gram), degree, bound).coeffs == oracle

    def test_degree_three(self):
        for gram in (gram_a(3).gram, TestShortVectors.SKEWED[4]):
            assert len(_components(gram)) == 1
            self.check(gram, 3, 2)

    def test_degree_two_bound_three(self):
        for lat in (gram_a(4), D4):
            self.check(lat.gram, 2, 3)


def reduced_binary(t2):
    """The GL_2(Z)-reduced form (a, b, c), 0 <= b <= a <= c, of the psd
    binary form a x^2 + b xy + c y^2 with doubled matrix t2."""
    a, b, c = t2[0][0] // 2, t2[0][1], t2[1][1] // 2
    while True:
        if a > c:
            a, c = c, a
        if a == 0 or abs(b) <= a:
            return a, abs(b), c
        k = (b + a) // (2 * a)
        b, c = b - 2 * k * a, c - k * b + k * k * a


class TestE8:
    # E_4 of degree 2 at the reduced forms of trace <= 2: rank 1 of
    # content c gives 240 sigma_3(c); [[1, 1/2], [1/2, 1]] and 1_2 are
    # the classical 13440 and 30240
    E4 = {(0, 0, 0): 1, (0, 0, 1): 240, (0, 0, 2): 2160,
          (1, 1, 1): 13440, (1, 0, 1): 30240}

    def test_degree_two_is_eisenstein(self):
        assert E8.det() == 1 and E8.level() == 1
        th = rep_numbers(E8, 2, 2)
        indices = enumerate_indices(2, 2)
        assert len(th.support()) == len(indices) == 10
        for t in indices:
            assert th.coefficient(t) == self.E4[reduced_binary(t)]
        assert th.coefficient(((2, 2), (2, 2))) == 240


PHI_LATTICES = {
    "A2": gram_a(2),
    "A2+A2": direct_sum(gram_a(2), gram_a(2)),
    "D4": D4,
    "A4": gram_a(4),
    "E8": E8,
}


@pytest.mark.parametrize("name", sorted(PHI_LATTICES))
@pytest.mark.parametrize("degree", (2, 3))
def test_siegel_phi_restricts_degree(name, degree):
    """Siegel's Phi operator: the degree-n coefficient at diag(T', 0)
    equals the degree-(n - 1) coefficient at T', since Q is definite and
    X^t Q X = diag(2T', 0) forces the last column of X to vanish.  The
    restriction is written here, keys with a zero last row cut to their
    leading (n - 1) x (n - 1) block; dict equality checks both directions,
    every such key against degree n - 1 and every degree-(n - 1) key
    against degree n.  A2+A2 goes through the product path."""
    lattice = PHI_LATTICES[name]
    bound = 3 if degree == 2 else 1 if name == "E8" else 2
    high = rep_numbers(lattice, degree, bound)
    low = rep_numbers(lattice, degree - 1, bound)
    restricted = {tuple(row[:-1] for row in key[:-1]): value
                  for key, value in high.coeffs.items() if not any(key[-1])}
    assert len(restricted) > 1
    assert restricted == low.coeffs


class TestProductPath:
    """Block-diagonal Grams, possibly with interleaved coordinates, are
    split into components whose theta series are multiplied."""

    A1_A2_A1 = direct_sum(direct_sum(gram_a(1), gram_a(2)), gram_a(1))
    # coordinates (a1, a2_0, a2_1, a1') reordered to (a2_0, a1, a1', a2_1)
    INTERLEAVED = GramLattice(permute(A1_A2_A1.gram, (1, 0, 3, 2)))

    def test_components(self):
        assert _components(gram_a(3).gram) == [[0, 1, 2]]
        assert _components(direct_sum(gram_a(2), gram_a(1)).gram) == [[0, 1], [2]]
        assert _components(self.INTERLEAVED.gram) == [[0, 3], [1], [2]]

        def gram(m, edges):
            g = [[2 * (i == j) for j in range(m)] for i in range(m)]
            for i, j in edges:
                g[i][j] = g[j][i] = 1
            return g

        # a coordinate that links two earlier blocks merges them
        assert _components(gram(3, [(0, 2), (1, 2)])) == [[0, 1, 2]]
        assert _components(gram(4, [(0, 3), (1, 3)])) == [[0, 1, 3], [2]]
        # against a union-find that shares no code with theta
        def root(parent, i):
            while parent[i] != i:
                i = parent[i]
            return i

        rng = random.Random(37)
        for _ in range(200):
            m, density = rng.randint(1, 12), rng.random() / 2
            edges = [(i, j) for i in range(m) for j in range(i + 1, m)
                     if rng.random() < density]
            parent = list(range(m))
            for i, j in edges:
                parent[root(parent, i)] = root(parent, j)
            blocks = {}
            for i in range(m):
                blocks.setdefault(root(parent, i), []).append(i)
            assert _components(gram(m, edges)) == sorted(blocks.values())

    def test_block_diagonal_against_box_oracle(self):
        lattices = (direct_sum(gram_a(1), gram_a(1)),
                    direct_sum(gram_a(2), gram_a(1)),
                    self.A1_A2_A1, self.INTERLEAVED)
        for lat in lattices:
            for degree, bound in ((1, 4), (2, 2)):
                th = rep_numbers(lat, degree, bound)
                oracle = box_rep_oracle(lat.gram, degree, bound)
                assert th.coeffs == oracle
                assert th.weight == Fraction(lat.rank, 2)
                assert th.level == lat.level()


class TestShortVectors:
    # U^t Q U for unimodular U with large entries: skewed Grams whose
    # off-diagonal entries far exceed the diagonal of a reduced basis
    SKEWED = (
        conjugate(gram_a(2).gram, ((1, 7), (0, 1))),
        conjugate(gram_a(2).gram, ((5, 8), (3, 5))),
        conjugate(((2, 0), (0, 2)), ((2, 9), (1, 5))),
        conjugate(gram_a(3).gram, ((1, 4, -3), (0, 1, 5), (0, 0, 1))),
        conjugate(direct_sum(gram_a(2), gram_a(1)).gram,
                  ((1, 0, 3), (2, 1, -4), (0, 0, 1))),
        conjugate(gram_a(4).gram,
                  ((1, 2, 0, 0), (0, 1, -2, 0), (0, 0, 1, 2), (0, 0, 0, 1))),
    )

    def test_skewed_grams_against_box(self):
        for gram in self.SKEWED:
            GramLattice(gram)  # positive definite and even
            assert max(abs(x) for row in gram for x in row) >= 10
            box = box_short_vectors(gram, 8)
            for bound in range(9):
                # one of each pair +-v: zero, or last nonzero coordinate > 0
                want = sorted((norm, v) for norm, v in box if norm <= bound
                              and ((0,) + tuple(filter(None, v)))[-1] >= 0)
                assert _short_vectors(gram, bound) == want


ROOT_BLOCKS = {"A1": gram_a(1), "A2": gram_a(2), "A3": gram_a(3)}
BOUNDS = {1: 4, 2: 3, 3: 2}


@st.composite
def mixed_block_grams(draw):
    """A block-diagonal Gram Q of two or three root lattices and U^t Q U
    for a unimodular U, made of elementary column operations, whose
    Gram is connected, so it mixes every block."""
    names = draw(st.lists(st.sampled_from(sorted(ROOT_BLOCKS)),
                          min_size=2, max_size=3))
    lat = ROOT_BLOCKS[names[0]]
    for name in names[1:]:
        lat = direct_sum(lat, ROOT_BLOCKS[name])
    m = lat.rank
    u = [list(row) for row in identity(m)]
    ops = draw(st.lists(
        st.tuples(st.integers(0, m - 1), st.integers(0, m - 1),
                  st.sampled_from((-2, -1, 1, 2))),
        min_size=m, max_size=2 * m))
    for i, j, c in ops:
        if i != j:
            for row in u:
                row[j] += c * row[i]
    mixed = conjugate(lat.gram, u)
    assume(len(_components(mixed)) == 1)
    return lat, GramLattice(mixed)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(pair=mixed_block_grams(), degree=st.integers(1, 3))
def test_product_path_matches_enumeration(pair, degree):
    """theta(Q) by the product path equals theta(U^t Q U) by enumeration,
    byte for byte: theta coefficients and the level are GL_m(Z)-invariant."""
    blocks, mixed = pair
    assert len(_components(blocks.gram)) > 1
    bound = BOUNDS[degree]
    assert (dumps(rep_numbers(blocks, degree, bound))
            == dumps(rep_numbers(mixed, degree, bound)))


def leibniz_det(m):
    """det m as the signed sum over all permutations (small sizes only)."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(m[i][perm[i]] for i in range(n))
    return total


COMPLETION_BASES = {
    "A1": gram_a(1), "A2": gram_a(2), "A3": gram_a(3), "A4": gram_a(4),
    "A1+A1": direct_sum(gram_a(1), gram_a(1)), "A2+A1": direct_sum(gram_a(2), gram_a(1)),
    "A1+A3": direct_sum(gram_a(1), gram_a(3)), "A2+A2": direct_sum(gram_a(2), gram_a(2)),
    "A1+A1+A2": direct_sum(direct_sum(gram_a(1), gram_a(1)), gram_a(2)),
}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data(), name=st.sampled_from(sorted(COMPLETION_BASES)))
def test_bareiss_completion(data, name):
    """For Q = U^t B U with B a root lattice or a direct sum of them and U
    unimodular, bareiss's rows give the quadratic completion the short
    vector search uses: the leading minors D_i (by the Leibniz formula) on
    the diagonal, zeros below it, and
    v^t Q v = sum_i (sum_j a_ij v_j)^2 / (D_{i-1} D_i) for integer v.  The
    search itself agrees with the box enumeration, whose radii come from
    cramer_inverse, at every bound up to 6."""
    base = COMPLETION_BASES[name].gram
    m = len(base)
    gram = conjugate(base, data.draw(unimodular(m)))
    det, a = bareiss(gram)
    # the search reads psd_rows, which equals bareiss with no swap here
    assert psd_rows(gram) == a
    minors = [leibniz_det([row[:k] for row in gram[:k]]) for k in range(m + 1)]
    assert det == minors[m]
    assert [a[i][i] for i in range(m)] == minors[1:]
    assert all(a[i][j] == 0 for i in range(m) for j in range(i))
    vectors = data.draw(st.lists(st.lists(st.integers(-6, 6), min_size=m, max_size=m),
                                 min_size=1, max_size=8))
    for v in vectors:
        norm = sum(v[i] * gram[i][j] * v[j] for i in range(m) for j in range(m))
        completed = sum(Fraction(sum(a[i][j] * v[j] for j in range(m)) ** 2,
                                 minors[i] * minors[i + 1]) for i in range(m))
        assert completed == norm
    box = box_short_vectors(gram, 6)
    for bound in range(7):
        want = sorted((norm, v) for norm, v in box if norm <= bound
                      and ((0,) + tuple(filter(None, v)))[-1] >= 0)
        assert _short_vectors(gram, bound) == want


GL_LATTICES = {"A2": gram_a(2), "A3": gram_a(3), "D4": D4,
               "skewed": GramLattice(TestShortVectors.SKEWED[4])}


@lru_cache(maxsize=None)
def gl_theta(name, degree):
    return rep_numbers(GL_LATTICES[name], degree, BOUNDS[degree])


@st.composite
def unimodular(draw, n):
    """A matrix of GL_n(Z) made of elementary column operations: adding a
    multiple of one column to another, then possibly negating one."""
    u = [list(row) for row in identity(n)]
    ops = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.sampled_from((-1, 1))),
        min_size=1, max_size=n + 1))
    for i, j, c in ops:
        if i != j:
            for row in u:
                row[j] += c * row[i]
    flip = draw(st.sampled_from((None,) + tuple(range(n))))
    if flip is not None:
        for row in u:
            row[flip] = -row[flip]
    return u


@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data(), name=st.sampled_from(sorted(GL_LATTICES)),
       degree=st.sampled_from((2, 3)))
def test_gl_invariance(data, name, degree):
    """a(U^t T U) = a(T) for every key whose image stays within the bound:
    the columns X U represent U^t T U when X represents T."""
    u = data.draw(unimodular(degree))
    th = gl_theta(name, degree)
    bound = BOUNDS[degree]
    moved = 0  # nonzero coefficients checked at a key other than T
    for t in enumerate_indices(degree, bound):
        image = conjugate(t, u)
        if sum(image[i][i] for i in range(degree)) <= 2 * bound:
            assert th.coefficient(image) == th.coefficient(t)
            moved += image != t and th.coefficient(image) != 0
    assume(moved)
