"""Symplectic groups over F_p and their theta-stable coset systems.

Matrices are 2n x 2n int tuples with entries reduced mod p, wrapped in
SymplecticModP which enforces M^t J M = J for J = [[0, 1], [-1, 0]]
(n x n blocks).  The coset system below U(p)-type operators is indexed by
a cell 0 <= j <= n and consists of

    partial_involution(n, j) * unipotent(B) * levi(A)

with B running over symmetric j x j matrices (embedded lower-right) and A
over representatives of the maximal-parabolic cosets in GL_n(F_p) with
j-dimensional echelon part.  The cell count is p^(j(j+1)/2) times the
Gaussian binomial [n choose j]_p, and the total is prod_{i=1..n} (p^i + 1).

Two group elements lie in the same (Siegel-parabolic) coset iff the
lower-left n x n block of M1 M2^{-1} vanishes mod p.
"""

from dataclasses import dataclass
from itertools import combinations, product

from .halfint import identity, require_odd_prime, transpose


def _freeze_mod(rows, p):
    return tuple(tuple(int(x) % p for x in row) for row in rows)


def _mat_mul_mod(a, b, p):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p for col in bt) for row in a
    )


def _rref_mod(rows, p):
    """Reduced row echelon form over F_p by Gauss-Jordan elimination:
    returns (reduced rows, pivot columns)."""
    a = [[x % p for x in row] for row in rows]
    pivots = []
    cols = len(a[0]) if a else 0
    for col in range(cols):
        rank = len(pivots)
        if rank == len(a):
            break
        pivot = None
        for i in range(rank, len(a)):
            if a[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [(x * inv) % p for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        pivots.append(col)
    return a, pivots


def _inverse_mod(m, p):
    """Inverse over F_p, read off the RREF of (m | 1); ValueError if
    singular."""
    n = len(m)
    aug = [list(row) + list(e) for row, e in zip(m, identity(n))]
    a, pivots = _rref_mod(aug, p)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular mod p")
    return tuple(tuple(row[n:]) for row in a)


def rank_mod(m, p):
    """Row rank of an integer matrix over F_p."""
    return len(_rref_mod(m, p)[1])


def _symplectic_j(n):
    j = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        j[i][n + i] = 1
        j[n + i][i] = -1
    return tuple(tuple((x) for x in row) for row in j)


class SymplecticModP:
    """Element of Sp_n(F_p), stored as a reduced 2n x 2n int tuple."""

    __slots__ = ("degree", "prime", "mat", "_inv")

    def __init__(self, mat, p):
        require_odd_prime(p)
        m = _freeze_mod(mat, p)
        if len(m) % 2 or any(len(row) != len(m) for row in m):
            raise ValueError("matrix must be square of even size")
        n = len(m) // 2
        if n < 1:
            raise ValueError("degree must be at least 1")
        j = _freeze_mod(_symplectic_j(n), p)
        if _mat_mul_mod(_mat_mul_mod(transpose(m), j, p), m, p) != j:
            raise ValueError("matrix is not symplectic mod p")
        self.degree = n
        self.prime = p
        self.mat = m
        self._inv = None

    def __mul__(self, other):
        if not isinstance(other, SymplecticModP):
            return NotImplemented
        if other.degree != self.degree or other.prime != self.prime:
            raise ValueError("degree or prime mismatch")
        return SymplecticModP(_mat_mul_mod(self.mat, other.mat, self.prime),
                              self.prime)

    def inverse(self):
        if self._inv is None:
            self._inv = _inverse_mod(self.mat, self.prime)
        return SymplecticModP(self._inv, self.prime)

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
    if not 0 <= j <= n:
        raise ValueError("cell index out of range")
    m = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n - j):
        m[i][i] = 1
        m[n + i][n + i] = 1
    for i in range(n - j, n):
        m[i][n + i] = -1
        m[n + i][i] = 1
    return SymplecticModP(m, p)


def levi(a, p):
    """Levi element diag(A, A^{-t}); A must be invertible mod p."""
    a = _freeze_mod(a, p)
    n = len(a)
    ait = transpose(_inverse_mod(a, p))
    m = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for k in range(n):
            m[i][k] = a[i][k]
            m[n + i][n + k] = ait[i][k]
    return SymplecticModP(m, p)


def unipotent(b, p):
    """Translation block [[1, B], [0, 1]]; B must be symmetric mod p."""
    b = _freeze_mod(b, p)
    n = len(b)
    if any(b[i][j] != b[j][i] for i in range(n) for j in range(n)):
        raise ValueError("B must be symmetric mod p")
    m = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        m[i][i] = 1
        m[n + i][n + i] = 1
        for k in range(n):
            m[i][n + k] = b[i][k]
    return SymplecticModP(m, p)


def gl_parabolic_reps(n, j, p):
    """Coset representatives for the maximal parabolic P_{n,j} in
    GL_n(F_p): one invertible matrix per j-dimensional row space, its
    bottom j rows the reduced row echelon basis of the space and its top
    rows the standard vectors of the non-pivot columns.  Ordered by
    (pivot columns, echelon free entries), both lexicographic; the count
    is the Gaussian binomial [n choose j]_p."""
    if not isinstance(n, int) or not 1 <= n <= 3:
        raise ValueError("degree out of supported range 1..3")
    if not 0 <= j <= n:
        raise ValueError("cell index out of range")
    require_odd_prime(p)
    if j == 0:
        return [identity(n)]
    out = []
    for pivots in combinations(range(n), j):
        free = [
            (row, col)
            for row in range(j)
            for col in range(pivots[row] + 1, n)
            if col not in pivots
        ]
        nonpivots = [c for c in range(n) if c not in pivots]
        for values in product(range(p), repeat=len(free)):
            ech = [[0] * n for _ in range(j)]
            for row in range(j):
                ech[row][pivots[row]] = 1
            for (row, col), v in zip(free, values):
                ech[row][col] = v
            rep = [[1 if c == k else 0 for c in range(n)] for k in nonpivots]
            rep.extend(ech)
            out.append(tuple(tuple(row) for row in rep))
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
            "b": [list(row) for row in self.b],
            "a": [list(row) for row in self.a],
            "mat": [list(row) for row in self.mat.mat],
        }


def _symmetric_mats(j, p):
    """Symmetric j x j matrices over F_p, upper-triangle entries running
    lexicographically (row-major)."""
    positions = [(i, k) for i in range(j) for k in range(i, j)]
    for values in product(range(p), repeat=len(positions)):
        b = [[0] * j for _ in range(j)]
        for (i, k), v in zip(positions, values):
            b[i][k] = v
            b[k][i] = v
        yield tuple(tuple(row) for row in b)


def coset_reps(n, p):
    """The full coset system: cells j = 0..n, within a cell ordered by
    (B entries, A representative); prod_{i=1..n} (p^i + 1) elements in
    total.  The lower-left block of every element has rank j, which is a
    coset invariant."""
    if not isinstance(n, int) or not 1 <= n <= 3:
        raise ValueError("degree out of supported range 1..3")
    require_odd_prime(p)
    out = []
    for j in range(n + 1):
        omega = partial_involution(n, j, p)
        gl = gl_parabolic_reps(n, j, p)
        for b_small in _symmetric_mats(j, p):
            b_full = [[0] * n for _ in range(n)]
            for i in range(j):
                for k in range(j):
                    b_full[n - j + i][n - j + k] = b_small[i][k]
            trans = unipotent(b_full, p)
            base = omega * trans
            for a in gl:
                out.append(CosetRep(cell=j, b=b_small, a=a, mat=base * levi(a, p)))
    return out


def same_coset(m1, m2):
    """True iff m1 and m2 represent the same coset, i.e. the lower-left
    n x n block of m1 * m2^{-1} vanishes mod p."""
    if not isinstance(m1, SymplecticModP) or not isinstance(m2, SymplecticModP):
        raise ValueError("expected SymplecticModP elements")
    if m1.degree != m2.degree or m1.prime != m2.prime:
        raise ValueError("degree or prime mismatch")
    n = m1.degree
    p = m1.prime
    if m2._inv is None:
        m2.inverse()
    inv = m2._inv
    rows = m1.mat[n:]
    for i in range(n):
        row = rows[i]
        for jcol in range(n):
            s = 0
            for k in range(2 * n):
                s += row[k] * inv[k][jcol]
            if s % p:
                return False
    return True
