"""Exact reference values that the benchmark judges the CLI's outputs by.

Nothing here imports siegelq.  Every expected value is recomputed from
first principles with plain integers (theta series by brute-force
counting in a box, q-series by list convolution, coset keys by row
reduction mod p), so a defect in the program cannot also hide in its
judge.  Each ``check_*`` function takes parsed JSON output and raises
``Mismatch`` with a short reason when the output is wrong.
"""

from fractions import Fraction
from itertools import product
from math import comb, prod


class Mismatch(Exception):
    """An emitted output disagrees with its exact reference."""


def require(condition, reason):
    if not condition:
        raise Mismatch(reason)


# -- expansions as {t2 key: Fraction} maps ----------------------------------


def coefficient_map(doc, degree, trace_bound, block=None):
    """Check the header of an expansion document and return its
    coefficients as {t2 tuple: Fraction}; block-shaped values (order-r
    compounds of size 1 here) are read as their single entry."""
    require(doc["degree"] == degree, "degree %r != %r" % (doc["degree"], degree))
    require(doc["trace_bound"] == trace_bound,
            "trace bound %r != %r" % (doc["trace_bound"], trace_bound))
    shape = "scalar" if block is None else {"compound": block}
    require(doc["shape"] == shape, "shape %r != %r" % (doc["shape"], shape))
    out = {}
    for entry in doc["coeffs"]:
        key = tuple(tuple(row) for row in entry["t2"])
        require(key not in out, "duplicate index %r" % (key,))
        value = entry["value"]
        if block is not None:
            require(len(value) == 1 and len(value[0]) == 1, "block size != 1")
            value = value[0][0]
        out[key] = Fraction(value)
    return out


def check_expansion(doc, expected, degree, trace_bound, block=None):
    """The document's coefficients equal ``expected`` ({t2: int or
    Fraction}, zeros allowed) exactly."""
    got = coefficient_map(doc, degree, trace_bound, block)
    want = {k: Fraction(v) for k, v in expected.items() if v != 0}
    if got != want:
        wrong = sorted(set(got) ^ set(want)) or sorted(
            k for k in got if got[k] != want[k])
        raise Mismatch("coefficients differ, first at t2=%r" % (wrong[0],))


def check_report(doc, expected):
    """A congruence report equals the expected dict field by field."""
    require(doc == expected, "report %r != expected %r" % (doc, expected))


# -- degree-1 q-series as integer lists, index n for q^n ---------------------

# E_k = 1 + c_k sum_{n>=1} sigma_{k-1}(n) q^n with c_k = -2k / B_k.
EISENSTEIN_CONSTANT = {4: 240, 6: -504, 8: 480, 10: -264, 14: -24}


def sigma(k, n):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def eisenstein(k, bound):
    c = EISENSTEIN_CONSTANT[k]
    return [1] + [c * sigma(k - 1, n) for n in range(1, bound + 1)]


def series_mul(a, b):
    n = min(len(a), len(b))
    out = [0] * n
    for i in range(n):
        if a[i]:
            for j in range(n - i):
                out[i + j] += a[i] * b[j]
    return out


def series_pow(a, e):
    out = [1] + [0] * (len(a) - 1)
    for _ in range(e):
        out = series_mul(out, a)
    return out


def delta(bound):
    """Delta = (E4^3 - E6^2) / 1728, the division checked to be exact."""
    diff = [x - y for x, y in zip(series_pow(eisenstein(4, bound), 3),
                                  series_pow(eisenstein(6, bound), 2))]
    require(all(x % 1728 == 0 for x in diff), "E4^3 - E6^2 not divisible")
    return [x // 1728 for x in diff]


def delta_product(bound):
    """Delta = q prod_{n>=1} (1 - q^n)^24, an independent cross-check of
    ``delta``."""
    out = [0, 1] + [0] * (bound - 1)
    for n in range(1, bound + 1):
        factor = [0] * (bound + 1)
        for j in range(25):
            if n * j > bound:
                break
            factor[n * j] = (-1) ** j * comb(24, j)
        out = series_mul(out, factor)
    return out[:bound + 1]


def series_keys(series):
    """{t2: coefficient} for a degree-1 series (2T = [[2n]])."""
    return {((2 * n,),): c for n, c in enumerate(series)}


def vp(x, p):
    """p-adic valuation of a nonzero rational."""
    x = Fraction(x)
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def congruence_report(f, g, p, m):
    """Expected plain report for f = g mod p^m on degree-1 series of equal
    length: the minimum valuation of the difference and the first index
    attaining it."""
    best, witness = "inf", None
    for n, (x, y) in enumerate(zip(f, g)):
        if x != y and (best == "inf" or vp(x - y, p) < best):
            best, witness = vp(x - y, p), [[2 * n]]
    return {"p": p, "m": m, "holds": best == "inf" or best >= m,
            "min_valuation": best, "witness_t2": witness,
            "bound": len(f) - 1, "normalized": False}


# -- degree-2 theta series by brute-force counting --------------------------


def theta2(gram, bound, radius):
    """Degree-2 theta series of an even Gram matrix up to trace ``bound``:
    {X^t Q X: #X} over integral X with two columns.

    Vectors are counted in the box |x_i| <= radius.  The caller picks a
    radius with |x|^2 <= radius^2 whenever x^t Q x <= 2 bound; the box
    shell is checked to hold no such vector, so a radius too small fails
    loudly instead of undercounting."""
    m = len(gram)
    budget = 2 * bound
    vectors = []
    for x in product(range(-radius, radius + 1), repeat=m):
        qx = [sum(gram[i][j] * x[j] for j in range(m)) for i in range(m)]
        norm = sum(a * b for a, b in zip(x, qx))
        if norm <= budget:
            require(max(map(abs, x)) < radius, "box radius too small")
            vectors.append((norm, x, qx))
    counts = {}
    for na, xa, _ in vectors:
        for nb, xb, qb in vectors:
            if na + nb <= budget:
                cross = sum(a * b for a, b in zip(xa, qb))
                key = ((na, cross), (cross, nb))
                counts[key] = counts.get(key, 0) + 1
    return counts


def keys_mul(a, b, bound):
    """Product of two expansions given as {t2: coefficient}, truncated at
    trace ``bound``."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(tuple(x + y for x, y in zip(ra, rb))
                        for ra, rb in zip(ka, kb))
            if sum(key[i][i] for i in range(len(key))) <= 2 * bound:
                out[key] = out.get(key, 0) + va * vb
    return out


# -- coset systems of Sp_n(F_p) ----------------------------------------------


def rref_mod(rows, p):
    """Reduced row echelon form over F_p, zero rows dropped; returns
    (tuple of rows, rank)."""
    a = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return tuple(tuple(row) for row in a[:rank]), rank


def coset_count(n, p):
    return prod(p ** i + 1 for i in range(1, n + 1))


def gaussian_binomial(n, j, p):
    return prod(p ** (n - i) - 1 for i in range(j)) // prod(
        p ** (i + 1) - 1 for i in range(j))


def check_coset_listing(doc, n, p):
    """Count, per-cell sizes, symplecticity of every representative, the
    rank of its C block equal to its cell, and distinctness of the cosets
    under the key RREF(C | D) mod p (the Lagrangian row space that fixes a
    right coset of the Siegel parabolic)."""
    require(len(doc) == coset_count(n, p),
            "%d cosets, expected %d" % (len(doc), coset_count(n, p)))
    size = 2 * n
    j_form = [[0] * size for _ in range(size)]
    for i in range(n):
        j_form[i][n + i] = 1
        j_form[n + i][i] = p - 1
    cells = {}
    keys = set()
    for rep in doc:
        mat = rep["mat"]
        require(len(mat) == size and all(len(r) == size for r in mat),
                "representative is not %dx%d" % (size, size))
        require(all(0 <= x < p for r in mat for x in r), "entries not reduced")
        jm = [[sum(j_form[i][k] * mat[k][c] for k in range(size)) % p
               for c in range(size)] for i in range(size)]
        mtjm = [[sum(mat[k][r] * jm[k][c] for k in range(size)) % p
                 for c in range(size)] for r in range(size)]
        require(mtjm == j_form, "representative is not symplectic mod p")
        _, c_rank = rref_mod([row[:n] for row in mat[n:]], p)
        require(c_rank == rep["cell"], "rank of C differs from the cell")
        key, rank = rref_mod(mat[n:], p)
        require(rank == n, "bottom block (C | D) has rank %d" % rank)
        require(key not in keys, "two representatives of one coset")
        keys.add(key)
        cells[rep["cell"]] = cells.get(rep["cell"], 0) + 1
    for j in range(n + 1):
        want = p ** (j * (j + 1) // 2) * gaussian_binomial(n, j, p)
        require(cells.get(j, 0) == want,
                "cell %d has %d cosets, expected %d" % (j, cells.get(j, 0), want))
