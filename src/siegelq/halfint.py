"""Exact linear algebra for half-integral symmetric matrices.

Matrices are immutable tuples of row tuples with int or Fraction entries,
so they can serve as dict keys.  A half-integral symmetric matrix T
(integral diagonal, half-integral off-diagonal) is stored through its
doubled matrix 2T, which is integral with even diagonal; all hashing,
ordering and serialization go through 2T so nothing ever leaves exact
integer arithmetic.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb, isqrt, lcm, prod


def freeze(rows):
    """Copy a nested sequence into a tuple-of-tuples matrix."""
    m = tuple(tuple(row) for row in rows)
    if any(len(row) != len(m) for row in m):
        raise ValueError("matrix must be square")
    return m


def is_int(x):
    """True iff x is an int and not a bool: True and False are ints to
    Python but never a valid degree, bound, prime or matrix entry here."""
    return isinstance(x, int) and not isinstance(x, bool)


def as_rational(x, name):
    """x as a Fraction if it is an int (not a bool) or a Fraction, else
    ValueError naming it: a float 0.1 never becomes a binary fraction."""
    if not (is_int(x) or isinstance(x, Fraction)):
        raise ValueError("%s must be an integer or a Fraction, got %r" % (name, x))
    return Fraction(x)


# Strong-probable-prime bases 2..41; every composite below PRIME_LIMIT fails
# one of them (Sorenson and Webster, Math. Comp. 2017: the smallest strong
# pseudoprime to all thirteen is PRIME_LIMIT itself).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def require_odd_prime(p):
    """Return p if it is an odd prime int below PRIME_LIMIT, else raise
    ValueError.  Deterministic Miller-Rabin; p < 41^2 is settled by
    division by the bases alone."""
    if not is_int(p) or p < 3:
        raise ValueError("p must be an odd prime")
    if p >= PRIME_LIMIT:
        raise ValueError("p must be below %d" % PRIME_LIMIT)
    for q in _PRIME_BASES:
        if p % q == 0:
            if p == q:
                return p
            raise ValueError("p must be an odd prime")
    if p < 41 * 41:
        return p
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise ValueError("p must be an odd prime")
    return p


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zero_matrix(n):
    return tuple((0,) * n for _ in range(n))


def transpose(m):
    return tuple(zip(*m))


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def det(m):
    """Exact determinant of a square int/Fraction matrix (det of the empty
    matrix is 1).  Small sizes use cofactor formulas, larger ones fraction-
    free Bareiss elimination after clearing denominators; int input gives
    an int result."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if n == 3:
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
    if all(isinstance(x, int) for row in m for x in row):
        return _det_bareiss([list(row) for row in m])
    # clear denominators row by row: det(m) = det(D m) / det(D)
    dens = [lcm(*(Fraction(x).denominator for x in row)) for row in m]
    scaled = [[int(x * d) for x in row] for row, d in zip(m, dens)]
    return Fraction(_det_bareiss(scaled), prod(dens))


def _det_bareiss(a):
    # fraction-free elimination; every division below is exact
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def mat_inverse(m):
    """Exact inverse as a Fraction matrix; raises ValueError if singular."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for k in range(n):
        pivot = None
        for i in range(k, n):
            if a[i][k] != 0:
                pivot = i
                break
        if pivot is None:
            raise ValueError("matrix is singular")
        a[k], a[pivot] = a[pivot], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                factor = a[i][k]
                a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
    return tuple(tuple(row[n:]) for row in a)


def subset_order(n, r):
    """All r-element subsets of {0..n-1} in lexicographic order.

    This ordering is the row/column convention for every compound matrix
    in the package; length is comb(n, r)."""
    if not (is_int(n) and is_int(r) and 0 <= r <= n):
        raise ValueError("need 0 <= r <= n")
    return tuple(combinations(range(n), r))


def compound(m, r):
    """r-th compound matrix: entry (I, J) is the minor det m[I, J], with
    subsets ordered by subset_order.  compound(m, 0) == ((1,),) and
    compound(m, n) == ((det m,),).  Multiplicative by Cauchy-Binet."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if not is_int(r) or not 0 <= r <= n:
        raise ValueError("minor order out of range")
    subs = subset_order(n, r)
    return tuple(
        tuple(det([[m[i][j] for j in cols] for i in rows]) for cols in subs)
        for rows in subs
    )


def even_symmetric(rows, name):
    """rows as a frozen matrix if it is nonempty, integral and symmetric
    with even diagonal (a doubled index 2T or an even Gram matrix), else
    ValueError naming the matrix."""
    d = freeze(rows)
    n = len(d)
    if n < 1:
        raise ValueError("%s must not be empty" % name)
    for i in range(n):
        for j in range(n):
            if not is_int(d[i][j]):
                raise ValueError("%s must have integer entries" % name)
            if d[i][j] != d[j][i]:
                raise ValueError("%s must be symmetric" % name)
        if d[i][i] % 2:
            raise ValueError("%s must have even diagonal" % name)
    return d


class HalfIntegralMatrix:
    """Fourier index T, stored via its doubled matrix 2T.

    The doubled matrix must be integral, symmetric, with even diagonal;
    equality and hashing use it directly, and key_sort orders it."""

    __slots__ = ("degree", "doubled")

    def __init__(self, doubled):
        self.doubled = even_symmetric(doubled, "2T")
        self.degree = len(self.doubled)

    @property
    def trace(self):
        return key_trace(self.doubled)

    def rational(self):
        """T itself, as a Fraction matrix."""
        return key_half(self.doubled)

    def is_psd(self):
        """True iff T >= 0, checked as nonnegativity of every principal
        minor of 2T (all subsets, not just leading ones)."""
        n = self.degree
        d = self.doubled
        for size in range(1, n + 1):
            for rows in combinations(range(n), size):
                sub = [[d[i][j] for j in rows] for i in rows]
                if det(sub) < 0:
                    return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, HalfIntegralMatrix) and self.doubled == other.doubled
        )

    def __hash__(self):
        return hash(self.doubled)

    def __repr__(self):
        return "HalfIntegralMatrix(%r)" % (self.doubled,)


def key_trace(key):
    """Trace of T from its doubled key matrix."""
    return sum(key[i][i] for i in range(len(key))) // 2


def key_half(key):
    """T itself, as a Fraction matrix, from its doubled key matrix."""
    return tuple(tuple(Fraction(x, 2) for x in row) for row in key)


def key_sort(key):
    """The (trace, row-major entries) order of doubled key matrices."""
    return (key_trace(key), tuple(x for row in key for x in row))


def enumerate_indices(degree, trace_bound):
    """All psd half-integral T of the given degree with trace(T) <= bound,
    sorted by (trace, row-major entries of 2T).  Degrees 1..4 supported.

    Candidates come from the box |2T_ij|^2 <= (2T_ii)(2T_jj) forced by the
    2x2 principal minors, then the full psd check filters."""
    n = degree
    if not is_int(n) or not 1 <= n <= 4:
        raise ValueError("degree out of supported range 1..4")
    if not is_int(trace_bound) or trace_bound < 0:
        raise ValueError("trace bound must be nonnegative")
    out = []
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for diag in product(range(trace_bound + 1), repeat=n):
        if sum(diag) > trace_bound:
            continue
        dd = [2 * t for t in diag]
        ranges = []
        for i, j in pairs:
            s = isqrt(dd[i] * dd[j])
            ranges.append(range(-s, s + 1))
        for off in product(*ranges):
            d = [[0] * n for _ in range(n)]
            for i in range(n):
                d[i][i] = dd[i]
            for (i, j), v in zip(pairs, off):
                d[i][j] = v
                d[j][i] = v
            t = HalfIntegralMatrix(d)
            if t.is_psd():
                out.append(t)
    out.sort(key=lambda t: key_sort(t.doubled))
    return out


def block_count(degree, r):
    """Side length of an order-r compound block in degree n."""
    return comb(degree, r)
