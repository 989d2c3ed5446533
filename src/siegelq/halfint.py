"""Exact linear algebra for half-integral symmetric matrices.

Matrices are immutable tuples of row tuples with int or Fraction entries,
so they can serve as dict keys.  A half-integral symmetric matrix T
(integral diagonal, half-integral off-diagonal) is stored through its
doubled matrix 2T, which is integral with even diagonal; all hashing,
ordering and serialization go through 2T so nothing ever leaves exact
integer arithmetic.

Every integer argument of the package (a degree, a trace bound, a level,
a weight, a minor order, a prime, a matrix entry) is checked by one rule,
require_int: it must be an int, not a bool, within its range, and
anything else is one ValueError of the form "<name> must be an integer
[>= lo | in lo..hi], got <repr of the value>".  An argument that must be
an instance of a class is read by require_instance, whose TypeError says
"<name>: expected a <class name>, got <repr>".

Every matrix argument is read by square_matrix, with one shape check and
one ValueError, "<name> must be a non-empty square array of arrays, got
<repr>".  There is one block builder, from_blocks, one upper-triangle
builder, symmetric, one power loop and three eliminations, one per
decision: row_reduce (Gauss-Jordan, over F_p only) for reduced forms and
inverses mod p, bareiss for determinants and psd_rows (no row swap) for
definiteness, completions and, through adjugate, a positive-definite
matrix's determinant and adjugate in integers.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb, isqrt, lcm, prod
from operator import getitem


def is_int(x):
    """True iff x is an int and not a bool: True and False are ints to
    Python but never a valid degree, bound, prime or matrix entry here."""
    return isinstance(x, int) and not isinstance(x, bool)


def require_int(x, name, lo=None, hi=None):
    """x if it is an int (not a bool) with lo <= x <= hi, a missing end
    unbounded; else a ValueError naming the argument, its range and x."""
    if is_int(x) and (lo is None or lo <= x) and (hi is None or x <= hi):
        return x
    if hi is not None:
        span = " in %d..%d" % (lo, hi)
    elif lo is not None:
        span = " >= %d" % lo
    else:
        span = ""
    raise ValueError("%s must be an integer%s, got %r" % (name, span, x))


def require_instance(x, cls, name):
    """x if it is an instance of cls, else a TypeError naming name, cls and x."""
    if isinstance(x, cls):
        return x
    raise TypeError("%s: expected a %s, got %r" % (name, cls.__name__, x))


def square_matrix(rows, name, entry=require_int):
    """rows as a tuple-of-tuples matrix of entry(x, name + " entry") if it
    is a non-empty list or tuple of lists or tuples, each len(rows) long,
    else a ValueError naming the matrix and quoting rows.  The shape is
    checked first, so a ragged matrix is reported as ragged."""
    if isinstance(rows, (list, tuple)) and rows:
        n = len(rows)
        for row in rows:
            if not isinstance(row, (list, tuple)) or len(row) != n:
                break
        else:
            label = name + " entry"
            return tuple([tuple([entry(x, label) for x in row]) for row in rows])
    raise ValueError("%s must be a non-empty square array of arrays, got %r" % (name, rows))


def require_exact(x, name):
    """x itself if it is an int (not a bool) or a Fraction, else ValueError
    naming it: a float is never converted, and int input stays int."""
    if is_int(x) or isinstance(x, Fraction):
        return x
    raise ValueError("%s must be an integer or a Fraction, got %r" % (name, x))


def as_rational(x, name):
    """x as a Fraction (x itself if it is one) if require_exact accepts it."""
    return x if isinstance(x, Fraction) else Fraction(require_exact(x, name))


# Strong-probable-prime bases 2..41; every composite below PRIME_LIMIT fails
# one of them (Sorenson and Webster, Math. Comp. 2017: the smallest strong
# pseudoprime to all thirteen is PRIME_LIMIT itself).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981

# The largest degree, A_m rank and block side: no one number asks for a huge matrix.
SIZE_LIMIT = 64


def require_odd_prime(p):
    """Return p if it is an odd prime int below PRIME_LIMIT, else raise
    ValueError.  Deterministic Miller-Rabin; p < 41^2 is settled by
    division by the bases alone."""
    require_int(p, "p", 3)
    if p >= PRIME_LIMIT:
        raise ValueError("p must be below %d, got %r" % (PRIME_LIMIT, p))
    for q in _PRIME_BASES:
        if p % q == 0:
            if p == q:
                return p
            raise ValueError("p must be an odd prime, got %r" % p)
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
            raise ValueError("p must be an odd prime, got %r" % p)
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


def from_blocks(a, b, c, d):
    """The block matrix [[A, B], [C, D]]: rows of A joined to rows of B,
    then rows of C joined to rows of D (rows are tuples)."""
    return tuple(ra + rb for ra, rb in zip(a, b)) + tuple(
        rc + rd for rc, rd in zip(c, d))


def symmetric(n, values):
    """The symmetric n x n matrix with upper triangle values, row by row."""
    m = [[0] * n for _ in range(n)]
    values = iter(values)
    for i in range(n):
        row = m[i]
        for j in range(i, n):
            row[j] = m[j][i] = next(values)
    return tuple(map(tuple, m))


def power(x, e, mul):
    """x to the power e >= 1 under the associative product mul, by square
    and multiply from the lowest set bit of e: bit_length - 1 squarings
    and popcount - 1 products, so about 2 log2(e) in all."""
    result = None
    while True:
        if e & 1:
            result = x if result is None else mul(result, x)
        e >>= 1
        if not e:
            return result
        x = mul(x, x)


def _exact_square(m, entry=require_exact):
    """m read by square_matrix(m, "matrix", entry), or () if m is empty."""
    return () if m in ((), []) else square_matrix(m, "matrix", entry)


def det(m):
    """Exact determinant of a square int/Fraction matrix read by
    square_matrix; det of the empty matrix is 1."""
    m = _exact_square(m)
    return minor(m, range(len(m)), range(len(m)))


def minor(m, rows, cols):
    """The minor det m[rows, cols] of a matrix already read; the empty
    minor is 1.  Sizes 1 and 2 use cofactor formulas, larger ones bareiss
    after clearing denominators; int input gives an int result."""
    m = [[m[i][j] for j in cols] for i in rows]
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if all(isinstance(x, int) for row in m for x in row):
        return bareiss(m)[0]
    # clear denominators row by row: det(m) = det(D m) / det(D)
    dens = [lcm(*(Fraction(x).denominator for x in row)) for row in m]
    scaled = [[int(x * d) for x in row] for row, d in zip(m, dens)]
    return Fraction(bareiss(scaled)[0], prod(dens))


def bareiss(rows):
    """Fraction-free (Bareiss) elimination of a square int matrix read by
    square_matrix, left unchanged: its determinant and its eliminated rows,
    swapping in a row only at a zero pivot.  With no swap, a_ij (from 0, j >= i) is the
    minor on rows 0..i and columns 0..i-1, j, so every division is exact and
    a_ii is the leading minor D_{i+1}; a_ij = 0 for j < i."""
    a = [list(row) for row in square_matrix(rows, "matrix")]
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
                return 0, tuple(map(tuple, a))
        for i in range(k + 1, n):
            f = a[i][k]
            for j in range(k, n):
                a[i][j] = (a[i][j] * a[k][k] - f * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1], tuple(map(tuple, a))


def psd_rows(m):
    """Fraction-free elimination of a symmetric int matrix already read, as
    bareiss but with no row swap: a zero pivot must head a zero row, which is
    passed over.  The rows, or None iff m is not psd (each pivot is a positive
    multiple of Gauss's); m > 0 iff no pivot is 0, and then they are bareiss's."""
    a = list(map(list, m))
    prev = 1
    for k, top in enumerate(a):
        pivot = top[k]
        if pivot < 0 or not pivot and any(top[k + 1:]):
            return None
        if pivot:
            for row in a[k + 1:]:
                f = row[k]
                row[k:] = [(x * pivot - f * y) // prev for x, y in zip(row[k:], top[k:])]
            prev = pivot
    return tuple(map(tuple, a))


def adjugate(m):
    """(d, adj) = (det m, det m * m^-1) of a positive-definite int matrix m
    already read.  psd_rows of (m | 1) swaps no row and ends at the pivot d,
    leaving (U | B) with U adj = d B; back substitution solves that, each
    division exact, as adj is integral."""
    n = len(m)
    a = psd_rows([row + e for row, e in zip(m, identity(n))])
    d, adj = a[-1][n - 1], []
    for i in reversed(range(n)):
        top = a[i]
        adj.insert(0, [(d * top[n + c] - sum(x * row[c] for x, row in zip(top[i + 1:n], adj)))
                       // top[i] for c in range(n)])
    return d, tuple(map(tuple, adj))


def row_reduce(rows, p):
    """Reduced row echelon form over F_p (p prime) by Gauss-Jordan
    elimination, entries in 0..p-1: returns (the reduced matrix, the list
    of pivot columns).  Each column's pivot is its first nonzero entry at
    or below the current row."""
    a = [[x % p for x in row] for row in rows]
    pivots = []
    for col in range(len(a[0]) if a else 0):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = top = [x * inv % p for x in a[rank]]
        a = [[(x - row[col] * y) % p for x, y in zip(row, top)] if row[col] and i != rank
             else row for i, row in enumerate(a)]
        pivots.append(col)
    return tuple(map(tuple, a)), pivots


def mat_inverse(m, p):
    """Inverse over F_p (p an odd prime) of a square int matrix read by
    square_matrix, read off the reduced row echelon form of (m | 1);
    ValueError if m is singular mod p."""
    require_odd_prime(p)
    m = _exact_square(m, require_int)
    n = len(m)
    a, pivots = row_reduce([row + e for row, e in zip(m, identity(n))], p)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular mod p")
    return tuple(row[n:] for row in a)


def subset_order(n, r):
    """All r-element subsets of {0..n-1} in lexicographic order.

    This ordering is the row/column convention for every compound matrix
    in the package; length is comb(n, r), at most SIZE_LIMIT."""
    require_int(n, "n", 0)
    require_int(r, "r", 0, n)
    if comb(n, r) > SIZE_LIMIT:
        raise ValueError("C(n, r) = C(%d, %d) = %d is more than the block size limit %d"
                         % (n, r, comb(n, r), SIZE_LIMIT))
    return tuple(combinations(range(n), r))


def compound(m, r):
    """r-th compound of m (read by square_matrix): entry (I, J) is the minor
    det m[I, J], subsets ordered by subset_order.  compound(m, 0) == ((1,),)
    and compound(m, n) == ((det m,),).  Multiplicative by Cauchy-Binet."""
    m = _exact_square(m)
    subs = subset_order(len(m), r)
    return tuple(tuple(minor(m, rows, cols) for cols in subs) for rows in subs)


def even_symmetric(d, name):
    """d, a square matrix already read, if it is symmetric with even
    diagonal (a doubled index 2T or an even Gram matrix), else ValueError
    naming the matrix."""
    if transpose(d) != d:
        raise ValueError("%s must be symmetric" % name)
    for i in range(len(d)):
        if d[i][i] % 2:
            raise ValueError("%s must have even diagonal" % name)
    return d


class HalfIntegralMatrix:
    """Fourier index T, stored via its doubled matrix 2T.

    The doubled matrix must be integral, symmetric, with even diagonal;
    equality and hashing use it directly, and key_sort orders it."""

    __slots__ = ("degree", "doubled")

    def __init__(self, doubled):
        self.doubled = even_symmetric(square_matrix(doubled, "2T"), "2T")
        self.degree = len(self.doubled)

    @property
    def trace(self):
        return key_trace(self.doubled)

    def rational(self):
        """T itself, as a Fraction matrix."""
        return key_half(self.doubled)

    def is_psd(self):
        """True iff T >= 0, decided by psd_rows on 2T."""
        return psd_rows(self.doubled) is not None

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
    return sum(map(getitem, key, range(len(key)))) // 2


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
    n = require_int(degree, "degree", 1, 4)
    require_int(trace_bound, "trace_bound", 0)
    out = []
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    for diag in product(range(trace_bound + 1), repeat=n):
        if sum(diag) > trace_bound:
            continue
        dd = [2 * t for t in diag]
        ranges = []
        for i, j in upper:
            s = isqrt(dd[i] * dd[j])
            # on the diagonal s is 2T_ii itself
            ranges.append((s,) if i == j else range(-s, s + 1))
        for values in product(*ranges):
            t = HalfIntegralMatrix(symmetric(n, values))
            if t.is_psd():
                out.append(t)
    out.sort(key=lambda t: key_sort(t.doubled))
    return out


def block_count(degree, r):
    """Side length of an order-r compound block in degree n, at most
    SIZE_LIMIT: the length of subset_order(degree, r)."""
    require_int(degree, "degree", 1)
    return len(subset_order(degree, r))
