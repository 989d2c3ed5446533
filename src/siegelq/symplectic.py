"""Symplectic groups over F_p and their theta-stable coset systems.

A group element is a SymplecticModP: a 2n x 2n int tuple with entries
reduced mod p, made only by its constructor, which checks M^t J M = J for
J = [[0, 1], [-1, 0]] (n x n blocks).  Products, inverses and the
builders return what that constructor made, so every element has passed
the check.  The coset system below U(p)-type operators is indexed by a
cell 0 <= j <= n and consists of

    partial_involution(n, j) * unipotent(B) * levi(A)

with B running over symmetric j x j matrices (embedded lower-right) and A
over representatives of the maximal-parabolic cosets in GL_n(F_p) with
j-dimensional echelon part.  The cell count is p^(j(j+1)/2) times the
Gaussian binomial [n choose j]_p, and the total is prod_{i=1..n} (p^i + 1).

With E = diag(1_{n-j}, 0_j), F = 1 - E and B_f the j x j block B
embedded lower-right, E B_f = 0 and F B_f = B_f, so each element is, in
closed form,

    [[E A, -F A^{-t}], [F A, (B_f + E) A^{-t}]]  mod p,

and coset_reps writes these blocks directly as rows instead of
multiplying; the listing makes no group element at all.
Only the bottom j rows depend on B, and row i of them only on B's row i:
it is A's row i followed by that row of B times the bottom j rows of
A^{-t}.  While it lists a cell, coset_reps keeps the table of all p^j
rows r of B and, per A and per bottom row, a table of that row for each
r, so an element is assembled from kept rows with no arithmetic: B's row
i is a row r that begins with column i of the rows above it.  Equal rows
are one tuple throughout a listing, so the writer knows a row it has
written by identity.  It returns a CosetSystem, a sized iterable that
builds each element as the iteration reaches it and yields it as the
JSON record the cosets command writes,

    {"a": A, "b": B, "cell": j, "mat": rows of the element},

every matrix a tuple of row tuples, so the CLI writes a listing one
record at a time and never holds it whole; SymplecticModP(record["mat"],
p) makes a record's element a group element.  It refuses, at once, a
system of more than MAX_LISTING elements, as gl_parabolic_reps refuses
more than MAX_LISTING representatives.  The limit bounds time and output
size, not memory: the largest listings allowed (degree 3 at p = 5,
degree 2 at p = 31) write 16.6 and 14.6 MB of JSON in 0.3 to 0.65 s and
peak at 17.3 to 18.1 MB of RSS (README gives the host and the method).
coset_count gives the size of any system.

A (Siegel-parabolic) coset is keyed by the reduced row echelon form of
the bottom rows (C | D) mod p.  Keys agree iff the lower-left n x n block
of M1 M2^{-1} vanishes mod p: both say (C1 | D1) = g (C2 | D2), g in GL_n.
Keys come from halfint.row_reduce and inverses from its mat_inverse,
both over F_p, as every Gauss-Jordan elimination of the package is.
"""

from functools import reduce
from itertools import combinations, product
from math import prod
from operator import getitem

from .halfint import (SIZE_LIMIT, from_blocks, identity, mat_inverse, mat_mul, mat_scale,
                      require_instance, require_int, require_odd_prime, row_reduce,
                      square_matrix, transpose, zero_matrix)

MAX_LISTING = 50_000


def _freeze_mod(rows, p):
    """rows reduced mod p as a tuple matrix; ValueError unless
    square_matrix reads it as a matrix of ints (not a bool, float, string
    or Fraction, which would otherwise be coerced)."""
    return tuple(tuple(x % p for x in row) for row in square_matrix(rows, "matrix"))


class SymplecticModP:
    """Element of Sp_n(F_p), stored as a reduced 2n x 2n int tuple."""

    __slots__ = ("degree", "prime", "mat")

    def __init__(self, mat, p):
        require_odd_prime(p)
        m = _freeze_mod(mat, p)
        if len(m) % 2:
            raise ValueError("matrix must be 2n x 2n for a degree n >= 1, got %d x %d"
                             % (len(m), len(m)))
        n = len(m) // 2
        one, zero = identity(n), zero_matrix(n)
        j = _freeze_mod(from_blocks(zero, one, mat_scale(-1, one), zero), p)
        if _freeze_mod(mat_mul(mat_mul(transpose(m), j), m), p) != j:
            raise ValueError("matrix is not symplectic mod p")
        self.degree = n
        self.prime = p
        self.mat = m

    def __mul__(self, other):
        if not isinstance(other, SymplecticModP):
            return NotImplemented
        if other.degree != self.degree or other.prime != self.prime:
            raise ValueError("degree or prime mismatch")
        return SymplecticModP(mat_mul(self.mat, other.mat), self.prime)

    def inverse(self):
        """J^{-1} M^t J = [[D^t, -B^t], [-C^t, A^t]], the inverse of a
        symplectic M."""
        a, b, c, d = (transpose(self.block(i, k)) for i in (0, 1) for k in (0, 1))
        inv = from_blocks(d, mat_scale(-1, b), mat_scale(-1, c), a)
        return SymplecticModP(inv, self.prime)

    def coset_key(self):
        """RREF of the bottom rows (C | D) mod p, computed on each call; the
        same for two elements iff they lie in the same right coset of the
        Siegel parabolic."""
        return row_reduce(self.mat[self.degree:], self.prime)[0]

    def block(self, row, col):
        """n x n block: (0,0)=A, (0,1)=B, (1,0)=C, (1,1)=D."""
        n = self.degree
        return tuple(
            tuple(self.mat[row * n + i][col * n + j] for j in range(n))
            for i in range(n)
        )

    def __eq__(self, other):
        return (
            isinstance(other, SymplecticModP)
            and self.prime == other.prime
            and self.mat == other.mat
        )

    def __hash__(self):
        return hash((self.prime, self.mat))

    def __repr__(self):
        return "SymplecticModP(degree=%d, p=%d)" % (self.degree, self.prime)


def partial_involution(n, j, p):
    """The element with A = D = diag(1_{n-j}, 0_j), the lower-right j x j
    of B equal to -1, and of C equal to +1; j = 0 gives the identity and
    j = n the standard symplectic involution (up to sign convention)."""
    require_int(n, "degree", 1, SIZE_LIMIT)
    require_int(j, "cell", 0, n)
    require_odd_prime(p)
    one, zero = identity(n), zero_matrix(n)
    a = one[:n - j] + zero[n - j:]
    c = zero[:n - j] + one[n - j:]
    return SymplecticModP(from_blocks(a, mat_scale(-1, c), c, a), p)


def levi(a, p):
    """Levi element diag(A, A^{-t}); A must be square and invertible mod p."""
    ait = transpose(mat_inverse(a, p))
    zero = zero_matrix(len(ait))
    return SymplecticModP(from_blocks(_freeze_mod(a, p), zero, zero, ait), p)


def unipotent(b, p):
    """Translation block [[1, B], [0, 1]]; B must be symmetric mod p."""
    require_odd_prime(p)
    b = _freeze_mod(b, p)
    if b != transpose(b):
        raise ValueError("B must be symmetric mod p")
    one, zero = identity(len(b)), zero_matrix(len(b))
    return SymplecticModP(from_blocks(one, b, zero, one), p)


def gl_parabolic_reps(n, j, p):
    """Coset representatives for the maximal parabolic P_{n,j} in
    GL_n(F_p): one invertible matrix per j-dimensional row space, its
    bottom j rows the reduced row echelon basis of the space and its top
    rows the standard vectors of the non-pivot columns.  Ordered by
    (pivot columns, echelon free entries), both lexicographic; the count
    is the Gaussian binomial [n choose j]_p.  ValueError, at once and
    naming the count, if it exceeds MAX_LISTING."""
    require_int(n, "degree", 1, 3)
    require_int(j, "cell", 0, n)
    require_odd_prime(p)
    one = identity(n)
    shapes = [
        (pivots, [(row, col) for row in range(j)
                  for col in range(pivots[row] + 1, n) if col not in pivots])
        for pivots in combinations(range(n), j)]
    count = sum(p ** len(free) for _, free in shapes)
    if count > MAX_LISTING:
        raise ValueError("P_{%d,%d} has %d cosets in GL_%d(F_%d), more than the "
                         "listing limit %d" % (n, j, count, n, p, MAX_LISTING))
    out = []
    for pivots, free in shapes:
        top = tuple(one[c] for c in range(n) if c not in pivots)
        for values in product(range(p), repeat=len(free)):
            ech = [list(one[c]) for c in pivots]
            for (row, col), v in zip(free, values):
                ech[row][col] = v
            out.append(top + tuple(map(tuple, ech)))
    return out


def coset_reps(n, p):
    """The full coset system as a CosetSystem of JSON records {"a": A,
    "b": B, "cell": j, "mat": rows}, one per element partial_involution(n,
    j) * unipotent(B) * levi(A) mod p: cells j = 0..n, within a cell
    ordered by (B entries, A representative); prod_{i=1..n} (p^i + 1)
    elements in total.  The lower-left block of every element has rank j,
    which is a coset invariant.  ValueError, at once, if the count exceeds
    MAX_LISTING.  len() builds nothing, and iterating builds each element
    in turn."""
    return CosetSystem(n, p)


class CosetSystem:
    """The coset system of Sp_n(F_p) as a sized iterable whose elements
    are built as they are iterated, each yielded as the JSON record that
    coset_reps describes, so a listing never exists whole.

    len() is coset_count(n, p) and builds nothing.  Iterating computes
    nothing per element: per cell, the rows that do not depend on B are
    built once per A, each row that does is looked up by B's row in a
    table built once per (A, row), and B is made of rows of the cell's
    table of all p^j rows (_symmetric_blocks).  The tables hold at most j
    times as many rows as the cell has elements; one tuple per distinct
    row is kept until the iteration ends, as the writer's memo keeps it."""

    def __init__(self, n, p):
        count = coset_count(n, p)
        if count > MAX_LISTING:
            raise ValueError(
                "the degree-%d coset system at p = %d has %d elements, more "
                "than the listing limit %d; coset_count (cosets --count-only) "
                "gives the count without a listing"
                % (n, p, count, MAX_LISTING))
        self.degree = n
        self.prime = p
        self._count = count

    def __len__(self):
        return self._count

    def __iter__(self):
        n, p = self.degree, self.prime
        zero = (0,) * n
        share = {}.setdefault  # one tuple per row value, for the writer
        for j in range(n + 1):
            h = n - j
            rows = [share(r, r) for r in product(range(p), repeat=j)]
            # per A: the rows that do not depend on B and, per bottom row i of A, a
            # table from each row r of B to A's row i, then r A^{-t}[h:] mod p
            cell = []
            for a in gl_parabolic_reps(n, j, p):
                ait = transpose(mat_inverse(a, p))
                head = (
                    tuple(row + zero for row in a[:h])
                    + tuple(zero + tuple(-x % p for x in row) for row in ait[h:])
                    + tuple(zero + row for row in ait[:h]))
                cols = tuple(zip(*ait[h:]))
                right = [tuple(sum(x * y for x, y in zip(r, col)) % p for col in cols)
                         for r in rows]
                tails = tuple(dict(zip(rows, [share(r, r) for r in (left + x for x in right)]))
                              for left in a[h:])
                cell.append((tuple(map(share, a, a)), tuple(map(share, head, head)), tails))
            for b in _symmetric_blocks(j, p, rows):
                for a, head, tails in cell:
                    yield {"a": a, "b": b, "cell": j, "mat": head + tuple(map(getitem, tails, b))}


def _symmetric_blocks(j, p, rows):
    """Every symmetric j x j matrix over range(p), in the product order of
    its upper-triangle entries row by row, as a tuple of rows of the table
    rows = list(product(range(p), repeat=j)): row i is one of the p^(j-i)
    consecutive rows that begin with column i of the rows above it."""
    def extend(blocks, i):
        size = p ** (j - i)
        for b in blocks:
            start = 0
            for row in b:
                start = start * p + row[i]
            for row in rows[start * size:(start + 1) * size]:
                yield b + (row,)
    return reduce(extend, range(j), iter(((),)))


def coset_count(n, p):
    """prod_{i=1..n} (p^i + 1), the length of coset_reps(n, p), computed
    without building the system."""
    require_int(n, "degree", 1, 3)
    require_odd_prime(p)
    return prod(p ** i + 1 for i in range(1, n + 1))


def same_coset(m1, m2):
    """True iff m1 and m2 have equal coset keys, i.e. the lower-left n x n
    block of m1 * m2^{-1} vanishes mod p.  Each call row-reduces both
    elements, so comparing many elements pair by pair is quadratic in row
    reductions: compare one coset_key per element instead."""
    require_instance(m1, SymplecticModP, "m1")
    require_instance(m2, SymplecticModP, "m2")
    if m1.degree != m2.degree or m1.prime != m2.prime:
        raise ValueError("degree or prime mismatch")
    return m1.coset_key() == m2.coset_key()
