"""Symplectic mod-p elements and the coset system."""

import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from siegelq import cli, symplectic
from siegelq.halfint import row_reduce, symmetric
from siegelq.symplectic import (
    MAX_LISTING,
    SymplecticModP,
    coset_count,
    coset_reps,
    gl_parabolic_reps,
    levi,
    partial_involution,
    same_coset,
    unipotent,
)


def gaussian_binomial(n, j, p):
    num = 1
    den = 1
    for i in range(j):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def rref_mod(rows, p):
    """Canonical reduced row echelon form over F_p (tuple of rows)."""
    a = [list(r) for r in rows]
    lead = 0
    for col in range(len(a[0]) if a else 0):
        pivot = None
        for i in range(lead, len(a)):
            if a[i][col] % p:
                pivot = i
                break
        if pivot is None:
            continue
        a[lead], a[pivot] = a[pivot], a[lead]
        inv = pow(a[lead][col], -1, p)
        a[lead] = [(x * inv) % p for x in a[lead]]
        for i in range(len(a)):
            if i != lead and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[lead])]
        lead += 1
    return tuple(tuple(r) for r in a)


def inverse_mod(m, p):
    """Inverse over F_p by Gauss-Jordan on (m | 1)."""
    n = len(m)
    aug = rref_mod([list(row) + [int(i == k) for k in range(n)]
                    for i, row in enumerate(m)], p)
    assert all(aug[i][i] == 1 for i in range(n)), "singular"
    return tuple(row[n:] for row in aug)


def same_coset_reference(m1, m2):
    """The defining test: the lower-left n x n block of m1 * m2^{-1}
    vanishes mod p."""
    n, p = m1.degree, m1.prime
    inv = inverse_mod(m2.mat, p)
    return all(
        sum(m1.mat[n + i][k] * inv[k][j] for k in range(2 * n)) % p == 0
        for i in range(n) for j in range(n)
    )


def is_symplectic(rows, p):
    """rows is a 2n x 2n tuple of row tuples of ints in range(p) with
    M^t J M = J mod p, J = [[0, 1], [-1, 0]] (n x n blocks): entry (i, k)
    of M^t J M is the form sum_a M[a][i] M[n + a][k] - M[n + a][i] M[a][k]
    on columns i and k, which must be 1 for k = i + n, -1 for i = k + n
    and 0 otherwise."""
    size = len(rows)
    n = size // 2
    if not (isinstance(rows, tuple) and size and size % 2 == 0 and all(
            isinstance(row, tuple) and len(row) == size
            and all(type(x) is int and 0 <= x < p for x in row) for row in rows)):
        return False
    return all(
        sum(rows[a][i] * rows[n + a][k] - rows[n + a][i] * rows[a][k]
            for a in range(n)) % p == ((k == i + n) - (i == k + n)) % p
        for i in range(size) for k in range(size))


def assert_checked(m):
    """m passes the checked constructor, which evaluates M^t J M = J."""
    assert SymplecticModP(m.mat, m.prime).mat == m.mat


def elements(n, p):
    """The listed coset representatives as group elements."""
    return [SymplecticModP(r["mat"], p) for r in coset_reps(n, p)]


# 1.9 and Fraction(3, 2) truncate to 1, "1" parses and True is 1: not
# integers, so every matrix input rejects them instead of coercing them
NON_INTEGERS = (1.9, "1", True, Fraction(3, 2))


def identity_element(n, p):
    return SymplecticModP([[int(i == k) for k in range(2 * n)]
                           for i in range(2 * n)], p)


class TestSymplecticModP:
    def test_identity_and_reduction(self):
        m = SymplecticModP([[1, 0], [0, 1]], 3)
        assert m.mat == ((1, 0), (0, 1))
        m2 = SymplecticModP([[4, 0], [0, 4]], 3)
        assert m2.mat == ((1, 0), (0, 1))

    def test_rejects_non_symplectic(self):
        with pytest.raises(ValueError):
            SymplecticModP([[1, 0], [0, 2]], 3)
        for odd in ([[1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]):
            with pytest.raises(ValueError) as err:
                SymplecticModP(odd, 3)
            assert str(err.value) == (
                "matrix must be 2n x 2n for a degree n >= 1, got %d x %d"
                % (len(odd), len(odd)))
        # entries that int(x) % p would turn into the identity
        for bad in NON_INTEGERS:
            with pytest.raises(ValueError):
                SymplecticModP([[bad, 0], [0, 1]], 3)

    def test_rejects_bad_prime(self):
        for bad in (2, 4, 9, 1):
            with pytest.raises(ValueError):
                SymplecticModP([[1, 0], [0, 1]], bad)

    def test_inverse_and_product(self):
        m = unipotent(((1,),), 3) * levi(((2,),), 3)
        assert (m * m.inverse()).mat == ((1, 0), (0, 1))
        with pytest.raises(TypeError):
            m * 5
        for other in (levi(((2,),), 5), partial_involution(2, 1, 3)):
            with pytest.raises(ValueError, match="^degree or prime mismatch$"):
                m * other

    def test_group_operations_pass_checked_constructor(self):
        # products, inverses and builder outputs come from the checked
        # constructor; re-check them, and m m^-1 = m^-1 m = 1
        rng = random.Random(84)
        for n, p in ((1, 3), (2, 3), (3, 3), (2, 5)):
            one = identity_element(n, p)
            built = [partial_involution(n, j, p) for j in range(n + 1)]
            b = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            built.append(unipotent([[b[min(i, k)][max(i, k)] for k in range(n)]
                                    for i in range(n)], p))
            built.append(levi(_rand_invertible(rng, n, p), p))
            group = built + elements(n, p)
            for m in group:
                assert_checked(m)
                inv = m.inverse()
                assert_checked(inv)
                assert m * inv == one and inv * m == one
            for _ in range(20):
                prod = rng.choice(group) * rng.choice(group)
                assert_checked(prod)
                assert_checked(prod.inverse())

    def test_blocks(self):
        m = partial_involution(2, 1, 3)
        assert m.block(0, 0) == ((1, 0), (0, 0))
        assert m.block(0, 1) == ((0, 0), (0, -1 % 3))
        assert m.block(1, 0) == ((0, 0), (0, 1))
        assert m.block(1, 1) == ((1, 0), (0, 0))

    def test_hashable(self):
        a = levi(((2,),), 5)
        b = levi(((2,),), 5)
        assert a == b and len({a, b}) == 1
        assert repr(a) == "SymplecticModP(degree=1, p=5)"


class TestGenerators:
    def test_levi_inverse_transpose(self):
        a = ((1, 2), (0, 1))
        m = levi(a, 3)
        assert m.block(0, 0) == a
        assert m.block(0, 1) == ((0, 0), (0, 0))

    def test_levi_rejects_singular(self):
        for a in (((1, 1), (2, 2)), ((3,),), ((1, 2, 0), (0, 1, 1)), (),
                  *(((bad,),) for bad in NON_INTEGERS),
                  ((1, 0), (0, 2.5))):
            with pytest.raises(ValueError):
                levi(a, 3)

    def test_unipotent_needs_symmetric(self):
        for b in (((0, 1), (2, 0)), ((0, 1, 0), (1, 0, 0)), ((0, 1), (1,)), (),
                  *(((bad,),) for bad in NON_INTEGERS),
                  *(((0, bad), (bad, 0)) for bad in NON_INTEGERS)):
            with pytest.raises(ValueError):
                unipotent(b, 3)
        m = unipotent(((0, 1), (1, 2)), 3)
        assert m.block(0, 1) == ((0, 1), (1, 2))

    def test_partial_involution_range(self):
        for n, j in ((2, 3), (0, 0), (2, -1), (True, 0), (2, True), (2, 1.5)):
            with pytest.raises(ValueError):
                partial_involution(n, j, 3)
        ident = partial_involution(2, 0, 3)
        assert ident.mat == SymplecticModP(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 3
        ).mat

    def test_builders_reject_bad_prime(self):
        for bad in (9, 1, 2):
            with pytest.raises(ValueError):
                partial_involution(2, 1, bad)
            with pytest.raises(ValueError):
                levi(((1, 0), (0, 1)), bad)
            with pytest.raises(ValueError):
                unipotent(((0, 1), (1, 0)), bad)


class TestGlParabolicReps:
    def test_counts_are_gaussian_binomials(self):
        for n in (1, 2, 3):
            for p in (3, 5):
                for j in range(n + 1):
                    got = gl_parabolic_reps(n, j, p)
                    assert len(got) == gaussian_binomial(n, j, p)

    def test_row_spaces_distinct(self):
        # bottom j rows must span pairwise different subspaces: compare
        # canonical echelon forms
        for n, j, p in ((2, 1, 3), (3, 1, 3), (3, 2, 3), (3, 2, 5)):
            reps = gl_parabolic_reps(n, j, p)
            forms = {rref_mod(r[n - j:], p) for r in reps}
            assert len(forms) == len(reps)

    def test_invertible(self):
        for r in gl_parabolic_reps(3, 2, 3):
            assert len(row_reduce(r, 3)[1]) == 3

    def test_oversized_refused_at_once(self):
        # [3 choose 1]_p = p^2 + p + 1 passes MAX_LISTING between 223 and 227
        assert len(gl_parabolic_reps(3, 1, 223)) == 49953
        start = time.perf_counter()
        for n, j, p, count in ((3, 1, 227, 51757), (3, 1, 10007, 100150057),
                               (3, 2, 10007, 100150057), (2, 1, 50021, 50022)):
            with pytest.raises(ValueError) as info:
                gl_parabolic_reps(n, j, p)
            assert str(info.value) == (
                "P_{%d,%d} has %d cosets in GL_%d(F_%d), more than the listing "
                "limit 50000" % (n, j, count, n, p))
        assert time.perf_counter() - start < 1.0

    def test_trivial_cells(self):
        assert gl_parabolic_reps(2, 0, 3) == [((1, 0), (0, 1))]
        assert len(gl_parabolic_reps(2, 2, 3)) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            gl_parabolic_reps(4, 1, 3)
        with pytest.raises(ValueError):
            gl_parabolic_reps(2, 3, 3)
        with pytest.raises(ValueError):
            gl_parabolic_reps(2, 1, 4)
        with pytest.raises(ValueError):
            gl_parabolic_reps(True, 0, 3)
        for j in (True, 1.5):
            with pytest.raises(ValueError):
                gl_parabolic_reps(2, j, 3)


COUNT_CASES = ((1, 3), (1, 5), (2, 3), (2, 5), (3, 3))
LISTING_CASES = ((1, 3), (1, 5), (2, 3), (2, 5), (2, 7), (3, 3))


class TestCosetSystem:
    def test_counts(self):
        for n, p in COUNT_CASES:
            want = 1
            for i in range(1, n + 1):
                want *= p ** i + 1
            reps = coset_reps(n, p)
            assert len(reps) == want == coset_count(n, p)
            assert len({m.coset_key() for m in elements(n, p)}) == want
            # cross-check the cell decomposition against the closed form
            by_cell = {}
            for r in reps:
                by_cell[r["cell"]] = by_cell.get(r["cell"], 0) + 1
            for j in range(n + 1):
                assert by_cell[j] == p ** (j * (j + 1) // 2) * gaussian_binomial(n, j, p)

    def test_cell_is_lower_left_rank(self):
        for r in coset_reps(2, 3):
            rank = len(row_reduce(SymplecticModP(r["mat"], 3).block(1, 0), 3)[1])
            assert rank == r["cell"]

    def test_deterministic_order(self):
        a = [r["mat"] for r in coset_reps(2, 3)]
        b = [r["mat"] for r in coset_reps(2, 3)]
        assert a == b
        cells = [r["cell"] for r in coset_reps(2, 3)]
        assert cells == sorted(cells)

    def test_rep_fields_consistent(self):
        # the closed-form blocks against the group product of the builders
        for n, p in LISTING_CASES:
            for r in coset_reps(n, p):
                assert len(r["b"]) == r["cell"]
                built = (
                    partial_involution(n, r["cell"], p)
                    * unipotent(_embed(r["b"], n), p)
                    * levi(r["a"], p)
                )
                assert built.mat == r["mat"]

    def test_iteration_yields_the_written_records(self, tmp_path):
        # each element is exactly the record cosets writes: a plain dict
        # with four keys whose matrices are tuples of row tuples, equal,
        # with tuples read as lists, to the parsed output
        def as_lists(x):
            return [as_lists(y) for y in x] if isinstance(x, tuple) else x

        for n, p in ((1, 3), (2, 3), (2, 5), (3, 3)):
            out = tmp_path / ("c%d_%d.json" % (n, p))
            assert cli.run(["cosets", "--degree", str(n), "--prime", str(p),
                            "-o", str(out)]) == 0
            records = list(coset_reps(n, p))
            for r in records:
                assert type(r) is dict and r.keys() == {"a", "b", "cell", "mat"}
                assert all(type(m) is tuple and all(type(row) is tuple for row in m)
                           for m in (r["a"], r["b"], r["mat"]))
            with open(out, encoding="utf-8") as handle:
                written = json.load(handle)
            assert [{k: as_lists(v) for k, v in r.items()} for r in records] == written

    def test_listed_rows_are_symplectic(self):
        # every listed element is a plain row tuple, judged by the oracle
        # above, which shares no code with the package
        for n, p in LISTING_CASES:
            for r in coset_reps(n, p):
                assert is_symplectic(r["mat"], p), (n, p, r["mat"])
        assert not is_symplectic(((1, 0), (0, 2)), 3)
        assert not is_symplectic(((1, 0), (0, 4)), 3)  # not reduced
        assert not is_symplectic([[1, 0], [0, 1]], 3)  # not row tuples
        assert is_symplectic(((0, 2), (1, 0)), 3)

    def test_listing_makes_no_group_element(self):
        # every SymplecticModP, checked or not, goes through __new__; the
        # count runs in a fresh interpreter, since a __new__ patched onto
        # a class cannot be taken off it again.  The last element is made
        # to show that the patch sees one.
        script = "\n".join([
            "from siegelq.symplectic import SymplecticModP, coset_reps",
            "made = []",
            "def counting_new(cls, *args):",
            "    made.append(args)",
            "    return object.__new__(cls)",
            "SymplecticModP.__new__ = counting_new",
            "listed = sum(1 for _ in coset_reps(3, 3))",
            "print(listed, len(made))",
            "SymplecticModP(((1, 0), (0, 1)), 3)",
            "print(len(made))",
        ])
        src = os.path.dirname(os.path.dirname(os.path.abspath(symplectic.__file__)))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              env=dict(os.environ, PYTHONPATH=src), check=True)
        assert done.stdout.decode("utf-8").split() == ["1120", "0", "1"]

    def test_listing_limit(self):
        assert coset_count(3, 5) <= MAX_LISTING < coset_count(3, 7)
        for n, p in ((3, 7), (2, 101), (3, 101)):
            with pytest.raises(ValueError, match="--count-only"):
                coset_reps(n, p)

    def test_len_builds_nothing(self, monkeypatch):
        built = []
        parabolic = symplectic.gl_parabolic_reps

        def counting_parabolic(*args):
            built.append(args)
            return parabolic(*args)

        monkeypatch.setattr(symplectic, "gl_parabolic_reps", counting_parabolic)
        s = coset_reps(3, 5)
        assert len(s) == coset_count(3, 5) == 19656
        assert built == []
        # the first element needs only cell 0's representatives
        assert next(iter(s))["cell"] == 0
        assert built == [(3, 0, 5)]

    def test_iterations_agree(self):
        # each pass rebuilds the cells' tables; two passes of one system
        # give equal elements in the same order
        for n, p in COUNT_CASES:
            s = coset_reps(n, p)
            first = list(s)
            assert list(s) == first
            assert len(first) == len(s)

    def test_listing_streams(self, tmp_path):
        # a listing is written element by element: the peak of memory
        # allocated during cosets -o stays a fraction of the output size
        out = tmp_path / "c.json"
        argv = ["cosets", "--degree", "3", "--prime", "3", "-o", str(out)]
        assert cli.run(argv) == 0  # builds the cached parser first
        tracemalloc.start()
        try:
            assert cli.run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.stat().st_size == 935691
        assert peak < 935691 // 2

    def test_b_blocks_are_rows_of_the_table(self):
        # B in the upper-triangle product order, each of its rows one of
        # the table's own tuples
        for p in (3, 5):
            for j in range(4):
                rows = list(product(range(p), repeat=j))
                ids = {id(r) for r in rows}
                blocks = list(symplectic._symmetric_blocks(j, p, rows))
                assert blocks == [symmetric(j, v)
                                  for v in product(range(p), repeat=j * (j + 1) // 2)]
                assert all(id(r) in ids for b in blocks for r in b)

    def test_equal_rows_are_one_tuple(self):
        # every row of a listing, in a, b or mat, is the one tuple of its
        # value, which the writer's memo then knows by identity
        for n, p in ((2, 5), (3, 3)):
            shared = {}
            for r in coset_reps(n, p):
                for m in (r["a"], r["b"], r["mat"]):
                    assert all(shared.setdefault(row, row) is row for row in m)

    @pytest.mark.parametrize("n, p, bound", [(3, 5, 1 << 20), (2, 31, 2 << 20)],
                             ids=["degree3-p5", "degree2-p31"])
    def test_largest_listings_stay_small(self, tmp_path, n, p, bound):
        # the two largest listings allowed, 16.6 and 14.6 MB of JSON,
        # allocate at most 1 and 2 MB at once
        out = tmp_path / "c.json"
        argv = ["cosets", "--degree", str(n), "--prime", str(p), "-o", str(out)]
        assert cli.run(argv) == 0
        tracemalloc.start()
        try:
            assert cli.run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_validation(self):
        for build in (coset_reps, coset_count):
            for n, p in ((4, 3), (0, 3), (2, 9), (2, 2), (True, 3), (1, True)):
                with pytest.raises(ValueError):
                    build(n, p)


def _embed(b_small, n):
    j = len(b_small)
    out = [[0] * n for _ in range(n)]
    for i in range(j):
        for k in range(j):
            out[n - j + i][n - j + k] = b_small[i][k]
    return out


class TestSameCoset:
    def test_reflexive_and_symmetric(self):
        reps = elements(2, 3)
        rng = random.Random(81)
        for _ in range(40):
            m1 = rng.choice(reps)
            m2 = rng.choice(reps)
            assert same_coset(m1, m1)
            assert same_coset(m1, m2) == same_coset(m2, m1)

    def test_parabolic_left_translation_preserved(self):
        # multiplying on the left by an upper-block element never moves
        # the coset
        rng = random.Random(82)
        reps = elements(2, 3)
        for _ in range(25):
            m = rng.choice(reps)
            b = [[rng.randrange(3) for _ in range(2)] for _ in range(2)]
            b[1][0] = b[0][1]
            q = unipotent(b, 3) * levi(_rand_invertible(rng, 2, 3), 3)
            assert same_coset(q * m, m)

    def test_every_element_in_exactly_one_coset(self):
        rng = random.Random(83)
        reps = elements(2, 3)
        for _ in range(20):
            m = rng.choice(reps)
            for _ in range(5):
                m = m * rng.choice(reps)
            hits = sum(1 for r in reps if same_coset(m, r))
            assert hits == 1

    def test_matches_block_reference(self):
        # key equality against the definition, with an inverse written here
        reps = elements(2, 3)
        for m1 in reps:
            for m2 in reps:
                assert same_coset(m1, m2) == same_coset_reference(m1, m2)
        rng = random.Random(85)
        gens = [partial_involution(2, j, 3) for j in range(3)] + [
            unipotent(((1, 2), (2, 0)), 3), levi(((1, 1), (0, 2)), 3)]
        words = []
        for _ in range(60):
            m = rng.choice(gens)
            for _ in range(rng.randrange(1, 6)):
                m = m * rng.choice(gens)
            words.append(m)
        for m in words:
            got = [same_coset(m, r) for r in reps]
            assert got == [same_coset_reference(m, r) for r in reps]
            assert got.count(True) == 1

    def test_mismatch_rejected(self):
        def first(n, p):
            return SymplecticModP(next(iter(coset_reps(n, p)))["mat"], p)

        with pytest.raises(ValueError):
            same_coset(first(1, 3), first(1, 5))
        with pytest.raises(ValueError):
            same_coset(first(1, 3), first(2, 3))
        m = first(1, 3)
        with pytest.raises(TypeError, match=r"^m2: expected a SymplecticModP, got 5$"):
            same_coset(m, 5)
        with pytest.raises(TypeError, match=r"^m1: expected a SymplecticModP, got \(\(1, 0\),"):
            same_coset(((1, 0), (0, 1)), m)


def _rand_invertible(rng, n, p):
    while True:
        a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if len(row_reduce(a, p)[1]) == n:
            return a


class TestRankMod:
    def test_values(self):
        assert len(row_reduce([[1, 2], [2, 4]], 3)[1]) == 1
        assert len(row_reduce([[1, 2], [2, 4]], 5)[1]) == 1
        assert len(row_reduce([[1, 0], [0, 1]], 3)[1]) == 2
        assert len(row_reduce([[3, 3], [3, 3]], 3)[1]) == 0

    def test_matches_brute_force_2x2(self):
        # rank over F_3 of a 2x2 equals 2 iff det != 0, 0 iff all zero
        for a, b, c, d in product(range(3), repeat=4):
            m = [[a, b], [c, d]]
            r = len(row_reduce(m, 3)[1])
            if (a * d - b * c) % 3:
                assert r == 2
            elif a == b == c == d == 0:
                assert r == 0
            else:
                assert r == 1
