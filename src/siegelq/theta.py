"""Even positive-definite lattices and their degree-n theta series.

A lattice is its Gram matrix Q (integral, symmetric, even diagonal,
positive definite).  The theta series of degree n collects the exact
representation numbers a(T) = #{X integral m x n : X^t Q X = 2T}, which
is a Fourier expansion of weight m/2 over half-integral indices.

The series is built from the structure of Q.  Its Gram matrix splits
into the connected components of its nonzero off-diagonal entries, and
theta of an orthogonal direct sum is the product of the summands' series
(permuting coordinates changes nothing), so each distinct component is
enumerated once and the factors are multiplied.

A component's short vectors are found by backtracking, in the style of
Fincke-Pohst.  The quadratic completion (Cholesky without square roots)
Q = sum_i c_i (x_i + sum_{j>i} u_ij x_j)^2, c_i > 0, is computed once and
scaled to integer coefficients, so the search itself uses only integer
arithmetic: each coordinate range is an exact integer interval bounded
with math.isqrt, and neither Fraction nor floating point enters the
recursion.

The n-tuples of short vectors (the columns of X) are then counted up to
signed permutations: permuting or negating columns of X permutes or
negates rows and columns of X^t Q X alike.  So only non-decreasing tuples
of representatives of the pairs +-v are visited, each tallied with the
number of orderings it stands for, and at the end each tallied Gram
matrix is spread over its orbit under those moves.
"""

from fractions import Fraction
from itertools import permutations, product
from math import factorial, isqrt, lcm
from operator import mul

from .halfint import (det, even_symmetric, freeze, identity, is_int, mat_inverse,
                      mat_mul, transpose)
from .qexpansion import _trusted, json_fields, json_int, json_rows


class GramLattice:
    """Even positive-definite Gram matrix with exact invariants."""

    __slots__ = ("rank", "gram")

    def __init__(self, gram):
        g = even_symmetric(gram, "Gram matrix")
        m = len(g)
        # Sylvester: positive leading minors suffice for definiteness (all
        # principal minors would be 255 determinants at rank 8)
        for k in range(1, m + 1):
            sub = [row[:k] for row in g[:k]]
            if det(sub) <= 0:
                raise ValueError("Gram matrix must be positive definite")
        self.rank = m
        self.gram = g

    def det(self):
        return det(self.gram)

    def inverse(self):
        return mat_inverse(self.gram)

    def level(self):
        """Smallest positive integer l with l * Q^{-1} even integral."""
        inv = self.inverse()
        l = lcm(*[x.denominator for row in inv for x in row])
        if any((l * inv[i][i]) % 2 for i in range(self.rank)):
            l *= 2
        return l

    def __eq__(self, other):
        return isinstance(other, GramLattice) and self.gram == other.gram

    def __repr__(self):
        return "GramLattice(rank=%d, det=%d)" % (self.rank, self.det())


def gram_a(m):
    """Root lattice A_m: tridiagonal Gram with 2 on the diagonal and -1 off
    it; rank m, determinant m + 1."""
    if not is_int(m) or m < 1:
        raise ValueError("rank must be a positive integer")
    g = [[0] * m for _ in range(m)]
    for i in range(m):
        g[i][i] = 2
        if i + 1 < m:
            g[i][i + 1] = -1
            g[i + 1][i] = -1
    return GramLattice(g)


def direct_sum(a, b):
    """Orthogonal direct sum of two lattices (block-diagonal Gram)."""
    m, k = a.rank, b.rank
    g = [[0] * (m + k) for _ in range(m + k)]
    for i in range(m):
        for j in range(m):
            g[i][j] = a.gram[i][j]
    for i in range(k):
        for j in range(k):
            g[m + i][m + j] = b.gram[i][j]
    return GramLattice(g)


def cycle_isometry(m):
    """The coordinate (m+1)-cycle of A_m in the root basis: order m + 1,
    fixes only the origin.  Columns: e_i -> e_{i+1} for i < m - 1 and
    e_{m-1} -> -(e_0 + ... + e_{m-1})."""
    if not is_int(m) or m < 1:
        raise ValueError("rank must be a positive integer")
    s = [[0] * m for _ in range(m)]
    for i in range(m):
        s[i][m - 1] = -1
        if i + 1 < m:
            s[i + 1][i] = 1
    return freeze(s)


def is_free_isometry(lattice, sigma, p):
    """True iff sigma is an isometry of the Gram form of exact order p
    whose only fixed vector is zero (det(sigma - 1) != 0).

    A lattice carrying such an isometry for an odd prime p has every
    theta coefficient at T != 0 divisible by p: the isometry acts freely
    on nonzero representations, cutting them into orbits of size p."""
    s = freeze(sigma)
    m = lattice.rank
    if len(s) != m:
        raise ValueError("size mismatch")
    if any(not is_int(x) for row in s for x in row):
        raise ValueError("the isometry must be integral")
    q = lattice.gram
    if mat_mul(transpose(s), mat_mul(q, s)) != q:
        return False
    power = s
    for _ in range(p - 1):
        power = mat_mul(power, s)
    if power != identity(m):
        return False
    if s == identity(m):
        return False
    shifted = [[s[i][j] - (1 if i == j else 0) for j in range(m)] for i in range(m)]
    return det(shifted) != 0


def _quadratic_completion(gram):
    """Exact c_i > 0 and u_ij (j > i) with
    v^t Q v = sum_i c_i (v_i + sum_{j>i} u_ij v_j)^2."""
    m = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    cs = []
    us = []
    for i in range(m):
        c = a[i][i]
        cs.append(c)
        row = [a[i][j] / c for j in range(m)]
        us.append(row)
        for k in range(i + 1, m):
            for l in range(i + 1, m):
                a[k][l] -= a[i][k] * a[i][l] / c
    return cs, us


def _short_vectors(gram, norm_bound):
    """All integer vectors v with v^t Q v <= norm_bound, sorted, by
    backtracking on the quadratic completion from the last coordinate down.

    The completion is scaled to integers once: with d_i the common
    denominator of row i of u, U_ij = d_i u_ij, and K the common
    denominator of the c_i / d_i^2, the weights w_i = K c_i / d_i^2 are
    integers and K v^t Q v = sum_i w_i (d_i v_i + sum_{j>i} U_ij v_j)^2.
    So the search runs on integers only: coordinate i ranges over the v
    with |d_i v + s_i| <= isqrt(R // w_i), where s_i = sum_{j>i} U_ij v_j
    and R is the scaled norm still left."""
    m = len(gram)
    cs, us = _quadratic_completion(gram)
    dens = [lcm(*[us[i][j].denominator for j in range(i + 1, m)])
            for i in range(m)]
    scales = [cs[i] / dens[i] ** 2 for i in range(m)]
    k = lcm(*[s.denominator for s in scales])
    weights = [int(k * s) for s in scales]
    rows = [[(j, int(dens[i] * us[i][j])) for j in range(i + 1, m)]
            for i in range(m)]
    out = []
    coords = [0] * m

    def descend(i, remaining):
        shift = sum(u * coords[j] for j, u in rows[i])
        d, w = dens[i], weights[i]
        r = isqrt(remaining // w)
        # the integers v with -r <= d v + shift <= r
        lo, hi = -((r + shift) // d), (r - shift) // d
        if i == 0:
            rest = tuple(coords[1:])
            out.extend((v,) + rest for v in range(lo, hi + 1))
            return
        for v in range(lo, hi + 1):
            coords[i] = v
            t = d * v + shift
            descend(i - 1, remaining - w * t * t)

    descend(m - 1, k * norm_bound)
    return sorted(out)


def _components(gram):
    """Coordinates of each connected component of the graph whose edges
    are the nonzero off-diagonal Gram entries, each list sorted, the lists
    in order of their first coordinate.  The components are mutually
    orthogonal, so the lattice is their direct sum."""
    m = len(gram)
    seen = [False] * m
    out = []
    for first in range(m):
        if seen[first]:
            continue
        seen[first] = True
        stack, block = [first], []
        while stack:
            i = stack.pop()
            block.append(i)
            for j in range(m):
                if gram[i][j] and not seen[j]:
                    seen[j] = True
                    stack.append(j)
        out.append(sorted(block))
    return out


def _enumerate_theta(gram, n, trace_bound):
    """Degree-n representation numbers of the Gram matrix, counting each
    n-tuple of short vectors once per orbit of signed column permutations;
    no metadata.

    Every short vector is +-r for one representative r >= 0
    (lexicographically; zero is its own).  Columns e_i r_i (signs e_i) put
    in the order of a permutation P give X^t Q X = P (e G e) P^t, with G
    the Gram of r_1..r_n.  So the walk visits only non-decreasing tuples
    of representatives, sorted by norm, within the trace budget, computing
    each new column's inner products with the earlier columns as it is
    placed.  It tallies the flat key of G (diagonal norms, then upper inner
    products column by column) with weight n!/|stabiliser|, the stabiliser
    being the permutations within runs of equal columns.  Then each
    distinct key is spread over all n! permutations and the signs of its
    nonzero columns (a zero column has one sign only), and the sums are
    divided by n! exactly."""
    m = len(gram)
    budget = 2 * trace_bound
    vectors = _short_vectors(gram, budget)
    rows = []
    # sorted, so the representatives are the tail from the zero vector on
    for v in vectors[vectors.index((0,) * m):]:
        qv = tuple(sum(map(mul, row, v)) for row in gram)
        rows.append((sum(map(mul, v, qv)), v, qv))
    norms, reps, qvs = zip(*sorted(rows))
    size = len(reps)
    full = factorial(n)
    tally = {}

    def walk(start, used, cols, diag, cross, stab, run):
        last = n - 1 == len(cols)
        prev = cols[-1] if cols else -1
        for pos in range(start, size):
            norm = norms[pos]
            if used + norm > budget:
                break
            v = reps[pos]
            key_cross = cross + tuple(sum(map(mul, v, qvs[c])) for c in cols)
            r = run + 1 if pos == prev else 1
            if last:
                key = diag + (norm,) + key_cross
                tally[key] = tally.get(key, 0) + full // (stab * r)
            else:
                walk(pos, used + norm, cols + (pos,), diag + (norm,),
                     key_cross, stab * r, r)

    walk(0, 0, (), (), (), 1, 0)
    counts = {}
    for key, weight in tally.items():
        g = [[0] * n for _ in range(n)]
        at = n
        for j in range(n):
            g[j][j] = key[j]
            for i in range(j):
                g[i][j] = g[j][i] = key[at]
                at += 1
        signs = [(1, -1) if g[i][i] else (1,) for i in range(n)]
        for perm in permutations(range(n)):
            for e in product(*signs):
                t = tuple(tuple(e[a] * e[b] * g[a][b] for b in perm) for a in perm)
                counts[t] = counts.get(t, 0) + weight
    return _trusted(n, trace_bound, {t: Fraction(c, full) for t, c in counts.items()})


def rep_numbers(lattice, degree, trace_bound):
    """Degree-n theta series of the lattice, exact to the trace bound.

    Coefficient at T counts integral m x n matrices X with X^t Q X = 2T.
    Degrees 1..3 supported; weight metadata m/2, level the Gram level.

    Theta is unchanged by permuting coordinates, and the theta series of
    an orthogonal direct sum is the product of the summands' series.  So
    the Gram matrix is split into its connected components (see
    _components; they may interleave), each distinct component Gram is
    enumerated once, and the factors are multiplied."""
    n = degree
    if not is_int(n) or not 1 <= n <= 3:
        raise ValueError("degree out of supported range 1..3")
    if not is_int(trace_bound) or trace_bound < 0:
        raise ValueError("trace bound must be a nonnegative integer")
    q = lattice.gram
    thetas = {}
    result = None
    for block in _components(q):
        sub = tuple(tuple(q[i][j] for j in block) for i in block)
        if sub not in thetas:
            thetas[sub] = _enumerate_theta(sub, n, trace_bound)
        result = thetas[sub] if result is None else result * thetas[sub]
    result.weight = Fraction(lattice.rank, 2)
    result.level = lattice.level()
    return result


def gram_to_json(lattice):
    return {"rank": lattice.rank, "gram": [list(row) for row in lattice.gram]}


def gram_from_json(d):
    (rows,) = json_fields(d, "Gram", "gram")
    g = [[json_int(x, "gram entry") for x in row] for row in json_rows(rows, "gram")]
    lattice = GramLattice(g)
    if "rank" in d and json_int(d["rank"], "rank") != lattice.rank:
        raise ValueError("rank field disagrees with the Gram matrix")
    return lattice
