"""Symplectic groups over F_p and their theta-stable coset systems.

Matrices are 2n x 2n int tuples with entries reduced mod p, wrapped in
SymplecticModP, whose constructor checks M^t J M = J for J = [[0, 1],
[-1, 0]] (n x n blocks).  Products, inverses and the builders, which check
their own inputs, are symplectic by construction and skip that check.
The coset system below U(p)-type operators is indexed by a cell
0 <= j <= n and consists of

    partial_involution(n, j) * unipotent(B) * levi(A)

with B running over symmetric j x j matrices (embedded lower-right) and A
over representatives of the maximal-parabolic cosets in GL_n(F_p) with
j-dimensional echelon part.  The cell count is p^(j(j+1)/2) times the
Gaussian binomial [n choose j]_p, and the total is prod_{i=1..n} (p^i + 1).

With E = diag(1_{n-j}, 0_j), F = 1 - E and B_f the j x j block B
embedded lower-right, E B_f = 0 and F B_f = B_f, so each element is, in
closed form,

    [[E A, -F A^{-t}], [F A, (B_f + E) A^{-t}]]  mod p,

and coset_reps writes these blocks directly instead of multiplying.  It
returns a CosetSystem, a sequence that builds each element only when it
is asked for, so the CLI writes a listing one element at a time and
never holds it whole.  It refuses, at once, a system of more than
MAX_LISTING elements.  The limit bounds time and output size, not
memory: the largest listings allowed (degree 3 at p = 5, degree 2 at
p = 31) write 16.6 and 14.6 MB of JSON in about 0.5 s and peak at 17 to
18 MB of RSS (README gives the host and the method).  coset_count gives
the size of any system.

A (Siegel-parabolic) coset is keyed by the reduced row echelon form of
the bottom rows (C | D) mod p.  Keys agree iff the lower-left n x n block
of M1 M2^{-1} vanishes mod p: both say (C1 | D1) = g (C2 | D2), g in GL_n.
Keys come from halfint.row_reduce and inverses from its mat_inverse,
both over F_p, as every Gauss-Jordan elimination of the package is.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations, product
from math import prod

from .halfint import (SIZE_LIMIT, from_blocks, identity, mat_inverse, mat_mul, mat_scale,
                      require_instance, require_int, require_odd_prime, row_reduce,
                      square_matrix, symmetric, transpose, zero_matrix)

MAX_LISTING = 50_000


def _freeze_mod(rows, p):
    """rows reduced mod p as a tuple matrix; ValueError unless
    square_matrix reads it as a matrix of ints (not a bool, float, string
    or Fraction, which would otherwise be coerced)."""
    return tuple(tuple(x % p for x in row) for row in square_matrix(rows, "matrix"))


class SymplecticModP:
    """Element of Sp_n(F_p), stored as a reduced 2n x 2n int tuple."""

    __slots__ = ("degree", "prime", "mat", "_key")

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
        self._key = None

    def __mul__(self, other):
        if not isinstance(other, SymplecticModP):
            return NotImplemented
        if other.degree != self.degree or other.prime != self.prime:
            raise ValueError("degree or prime mismatch")
        return _trusted(_freeze_mod(mat_mul(self.mat, other.mat), self.prime), self.prime)

    def inverse(self):
        """J^{-1} M^t J = [[D^t, -B^t], [-C^t, A^t]], the inverse of a
        symplectic M."""
        a, b, c, d = (transpose(self.block(i, k)) for i in (0, 1) for k in (0, 1))
        inv = from_blocks(d, mat_scale(-1, b), mat_scale(-1, c), a)
        return _trusted(_freeze_mod(inv, self.prime), self.prime)

    def coset_key(self):
        """RREF of the bottom rows (C | D) mod p, the same for two elements
        iff they lie in the same right coset of the Siegel parabolic."""
        if self._key is None:
            self._key = row_reduce(self.mat[self.degree:], self.prime)[0]
        return self._key

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


def _trusted(mat, p):
    """Wrap a reduced matrix that is symplectic by construction, without
    the constructor's checks."""
    out = SymplecticModP.__new__(SymplecticModP)
    out.degree = len(mat) // 2
    out.prime = p
    out.mat = mat
    out._key = None
    return out


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
    return _trusted(_freeze_mod(from_blocks(a, mat_scale(-1, c), c, a), p), p)


def levi(a, p):
    """Levi element diag(A, A^{-t}); A must be square and invertible mod p."""
    ait = transpose(mat_inverse(a, p))
    zero = zero_matrix(len(ait))
    return _trusted(from_blocks(_freeze_mod(a, p), zero, zero, ait), p)


def unipotent(b, p):
    """Translation block [[1, B], [0, 1]]; B must be symmetric mod p."""
    require_odd_prime(p)
    b = _freeze_mod(b, p)
    if b != transpose(b):
        raise ValueError("B must be symmetric mod p")
    one, zero = identity(len(b)), zero_matrix(len(b))
    return _trusted(from_blocks(one, b, zero, one), p)


def gl_parabolic_reps(n, j, p):
    """Coset representatives for the maximal parabolic P_{n,j} in
    GL_n(F_p): one invertible matrix per j-dimensional row space, its
    bottom j rows the reduced row echelon basis of the space and its top
    rows the standard vectors of the non-pivot columns.  Ordered by
    (pivot columns, echelon free entries), both lexicographic; the count
    is the Gaussian binomial [n choose j]_p."""
    require_int(n, "degree", 1, 3)
    require_int(j, "cell", 0, n)
    require_odd_prime(p)
    one = identity(n)
    out = []
    for pivots in combinations(range(n), j):
        free = [
            (row, col)
            for row in range(j)
            for col in range(pivots[row] + 1, n)
            if col not in pivots
        ]
        top = tuple(one[c] for c in range(n) if c not in pivots)
        for values in product(range(p), repeat=len(free)):
            ech = [list(one[c]) for c in pivots]
            for (row, col), v in zip(free, values):
                ech[row][col] = v
            out.append(top + tuple(map(tuple, ech)))
    return out


@dataclass(frozen=True)
class CosetRep:
    """One coset: its cell j, the symmetric j x j block B, the GL part A,
    and the assembled group element."""

    cell: int
    b: tuple
    a: tuple
    mat: SymplecticModP

    def to_json_dict(self):
        return {
            "cell": self.cell,
            "b": self.b,
            "a": self.a,
            "mat": self.mat.mat,
        }


def coset_reps(n, p):
    """The full coset system as a CosetSystem: cells j = 0..n, within a
    cell ordered by (B entries, A representative); prod_{i=1..n} (p^i + 1)
    elements in total.  The lower-left block of every element has rank j,
    which is a coset invariant.  ValueError, at once, if the count exceeds
    MAX_LISTING.  No element is built until it is asked for."""
    return CosetSystem(n, p)


class CosetSystem(Sequence):
    """The coset system of Sp_n(F_p) as a read-only sequence whose
    elements are built when asked for, so a listing never exists whole.

    len() is coset_count(n, p).  Iterating builds the elements in order;
    s[i] decodes i into (cell j, B, A) and builds that one element.  Both
    go through one builder, which computes per element only B times the
    bottom j rows of A^{-t}; every other row is built once per (cell, A)
    and kept."""

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
        self._cells = {}

    def __len__(self):
        return self._count

    def _cell(self, j):
        """For each A of cell j, in order: (A, the rows that do not depend
        on B, the bottom j rows of A, the columns of the bottom j rows of
        A^{-t})."""
        fixed = self._cells.get(j)
        if fixed is None:
            n, p = self.degree, self.prime
            h = n - j
            zero = (0,) * n
            fixed = self._cells[j] = []
            for a in gl_parabolic_reps(n, j, p):
                ait = transpose(mat_inverse(a, p))
                head = (
                    tuple(row + zero for row in a[:h])
                    + tuple(zero + tuple(-x % p for x in row) for row in ait[h:])
                    + tuple(zero + row for row in ait[:h]))
                fixed.append((a, head, a[h:], tuple(zip(*ait[h:]))))
        return fixed

    def _element(self, j, b, fixed):
        """The element of cell j with symmetric block b and the A that
        fixed (an entry of _cell(j)) describes."""
        a, head, lower_a, cols = fixed
        p = self.prime
        tail = tuple(
            left + tuple(sum(x * y for x, y in zip(b_row, col)) % p
                         for col in cols)
            for b_row, left in zip(b, lower_a))
        return CosetRep(cell=j, b=b, a=a, mat=_trusted(head + tail, p))

    def __iter__(self):
        p = self.prime
        for j in range(self.degree + 1):
            cell = self._cell(j)
            for values in product(range(p), repeat=j * (j + 1) // 2):
                b = symmetric(j, values)
                for fixed in cell:
                    yield self._element(j, b, fixed)

    def __getitem__(self, index):
        """The element at index, or the list of those a slice selects; the
        index is read as range(len(self)) reads it."""
        try:
            i = range(self._count)[index]
        except IndexError:
            raise IndexError("coset index out of range") from None
        if isinstance(i, range):
            return [self[k] for k in i]
        p = self.prime
        for j in range(self.degree + 1):
            cell = self._cell(j)
            entries = j * (j + 1) // 2
            size = p ** entries * len(cell)
            if i < size:
                break
            i -= size
        # B's upper-triangle entries are the base-p digits of b_index, the
        # first entry most significant, as product(range(p)) orders them
        b_index, a_index = divmod(i, len(cell))
        values = [0] * entries
        for pos in reversed(range(entries)):
            b_index, values[pos] = divmod(b_index, p)
        return self._element(j, symmetric(j, values), cell[a_index])


def coset_count(n, p):
    """prod_{i=1..n} (p^i + 1), the length of coset_reps(n, p), computed
    without building the system."""
    require_int(n, "degree", 1, 3)
    require_odd_prime(p)
    return prod(p ** i + 1 for i in range(1, n + 1))


def same_coset(m1, m2):
    """True iff m1 and m2 have equal coset keys, i.e. the lower-left n x n
    block of m1 * m2^{-1} vanishes mod p."""
    require_instance(m1, SymplecticModP, "m1")
    require_instance(m2, SymplecticModP, "m2")
    if m1.degree != m2.degree or m1.prime != m2.prime:
        raise ValueError("degree or prime mismatch")
    return m1.coset_key() == m2.coset_key()
