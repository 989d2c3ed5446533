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
Fincke-Pohst, on the quadratic completion of Q, which halfint.psd_rows,
the symmetric fraction-free elimination that also decides definiteness,
gives with integer coefficients.  So the search uses only integer
arithmetic: each coordinate range is an exact integer interval bounded
with math.isqrt, and neither Fraction nor floating point enters it.

The n-tuples of short vectors (the columns of X) are then counted up to
signed permutations: permuting or negating columns of X permutes or
negates rows and columns of X^t Q X alike.  So only non-decreasing tuples
of representatives of the pairs +-v are visited, each tallied with the
number of orderings it stands for, and at the end each tallied Gram
matrix is spread over its orbit under those moves.
"""

from fractions import Fraction
from itertools import permutations, product
from math import factorial, gcd, isqrt, lcm
from operator import mul

from .halfint import (SIZE_LIMIT, adjugate, det, even_symmetric, from_blocks, identity,
                      mat_add, mat_mul, mat_scale, power, psd_rows, require_instance,
                      require_int, require_odd_prime, square_matrix, symmetric, transpose)
from .qexpansion import _trusted, json_fields


class GramLattice:
    """Even positive-definite Gram matrix with exact invariants.  The
    matrix is read once, by square_matrix as name; its rank is at most
    SIZE_LIMIT, checked before definiteness."""

    __slots__ = ("rank", "gram")

    def __init__(self, gram, name="Gram matrix"):
        g = square_matrix(gram, name)
        require_int(len(g), "rank", 1, SIZE_LIMIT)
        even_symmetric(g, name)
        a = psd_rows(g)
        if a is None or not all(a[i][i] for i in range(len(g))):
            raise ValueError("Gram matrix must be positive definite")
        self.rank = len(g)
        self.gram = g

    def det(self):
        return det(self.gram)

    def level(self):
        """Smallest positive integer l with l * Q^{-1} even integral, in
        integers: 2d / gcd(2d, adj_ii, 2 adj_ij), (d, adj) = adjugate(Q)."""
        d, adj = adjugate(self.gram)
        diagonal = [adj[i][i] for i in range(self.rank)]
        return 2 * d // gcd(2 * d, *diagonal, *(2 * x for row in adj for x in row))

    def __eq__(self, other):
        return isinstance(other, GramLattice) and self.gram == other.gram

    def __repr__(self):
        return "GramLattice(rank=%d, det=%d)" % (self.rank, self.det())


def gram_a(m):
    """Root lattice A_m: tridiagonal Gram with 2 on the diagonal and -1 off
    it; rank m, determinant m + 1."""
    require_int(m, "rank", 1, SIZE_LIMIT)
    upper = ({0: 2, 1: -1}.get(j - i, 0) for i in range(m) for j in range(i, m))
    return GramLattice(symmetric(m, upper))


def direct_sum(a, b):
    """Orthogonal direct sum of two lattices (block-diagonal Gram)."""
    m = require_instance(a, GramLattice, "a").rank
    k = require_instance(b, GramLattice, "b").rank
    return GramLattice(from_blocks(a.gram, ((0,) * k,) * m, ((0,) * m,) * k, b.gram))


def cycle_isometry(m):
    """The coordinate (m+1)-cycle of A_m in the root basis: order m + 1,
    fixes only the origin.  Columns: e_i -> e_{i+1} for i < m - 1 and
    e_{m-1} -> -(e_0 + ... + e_{m-1})."""
    require_int(m, "rank", 1, SIZE_LIMIT)
    s = [[0] * m for _ in range(m)]
    for i in range(m):
        s[i][m - 1] = -1
        if i + 1 < m:
            s[i + 1][i] = 1
    return tuple(map(tuple, s))


def is_free_isometry(lattice, sigma, p):
    """True iff sigma is an isometry of the Gram form of exact order p
    whose only fixed vector is zero (det(sigma - 1) != 0).

    A lattice carrying such an isometry for an odd prime p has every
    theta coefficient at T != 0 divisible by p: the isometry acts freely
    on nonzero representations, cutting them into orbits of size p."""
    require_odd_prime(p)
    s = square_matrix(sigma, "sigma")
    m = require_instance(lattice, GramLattice, "lattice").rank
    if len(s) != m:
        raise ValueError("sigma must be %d x %d like the Gram matrix, got %d x %d"
                         % (m, m, len(s), len(s)))
    q = lattice.gram
    if mat_mul(transpose(s), mat_mul(q, s)) != q:
        return False
    if power(s, p, mat_mul) != identity(m):
        return False
    if s == identity(m):
        return False
    return det(mat_add(s, mat_scale(-1, identity(m)))) != 0


def _short_vectors(gram, norm_bound):
    """(v^t Q v, v) for one representative v of each pair +-v of integer
    vectors with v^t Q v <= norm_bound, sorted: v = 0 and the v whose last
    nonzero coordinate is positive.  Found by backtracking on the
    quadratic completion from the last coordinate down.

    The completion is read in integers off halfint.psd_rows: Q is positive
    definite, so every pivot is positive; with its rows a_ij, the leading
    minors D_0 = 1, D_i = a_ii (from 1), K = lcm(D_{i-1} D_i) and the integer
    weights w_i = K / (D_{i-1} D_i), K v^t Q v = sum_i w_i (sum_{j>=i} a_ij v_j)^2.
    Coordinate i ranges over the v with |D_i v + s_i| <= isqrt(R // w_i),
    s_i = sum_{j>i} a_ij v_j and R the scaled norm still left; a vector's
    norm is what its search used of the scaled budget, divided by K."""
    m = len(gram)
    a = psd_rows(gram)
    dens = [a[i][i] for i in range(m)]
    denominators = [d * e for d, e in zip([1] + dens, dens)]
    k = lcm(*denominators)
    weights = [k // x for x in denominators]
    rows = [[(j, a[i][j]) for j in range(i + 1, m)] for i in range(m)]
    out = []
    coords = [0] * m
    budget = k * norm_bound

    def descend(i, remaining, signed):
        shift = sum(u * coords[j] for j, u in rows[i])
        d, w = dens[i], weights[i]
        r = isqrt(remaining // w)
        # the integers v with -r <= d v + shift <= r; unless signed (some
        # later coordinate is nonzero), shift is 0 and only v >= 0 is kept
        lo, hi = -((r + shift) // d), (r - shift) // d
        if not signed:
            lo = 0
        if i == 0:
            rest = tuple(coords[1:])
            used = budget - remaining
            out.extend(((used + w * (d * v + shift) ** 2) // k, (v,) + rest)
                       for v in range(lo, hi + 1))
            return
        for v in range(lo, hi + 1):
            coords[i] = v
            t = d * v + shift
            descend(i - 1, remaining - w * t * t, signed or v != 0)

    descend(m - 1, budget, False)
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

    Every short vector is +-r for one representative r that _short_vectors
    returns with its norm (zero is its own).  Columns e_i r_i (signs e_i)
    put in the order of a permutation P give X^t Q X = P (e G e) P^t, with G
    the Gram of r_1..r_n.  So the walk visits only non-decreasing tuples
    of representatives, sorted by norm, within the trace budget.  As each
    column is placed, its inner products with the earlier columns and then
    its norm extend the key, so a tuple's key is G's upper triangle column
    by column; it is tallied with weight n!/|stabiliser|, the stabiliser
    being the permutations within runs of equal columns.  Reversed, the key
    is the upper triangle, row by row, of G with its coordinates reversed,
    a point of G's orbit.  Each distinct key is spread from that point over
    all n! permutations and the signs of its nonzero columns (a zero column
    has one sign only), and the sums are divided by n! exactly."""
    budget = 2 * trace_bound
    norms, reps = zip(*_short_vectors(gram, budget))
    # Qv gives the inner products with later columns; degree 1 has none
    qvs = [tuple(sum(map(mul, row, v)) for row in gram) for v in reps] if n > 1 else ()
    size = len(reps)
    full = factorial(n)
    tally = {}

    def walk(start, used, cols, key, stab, run):
        last = n - 1 == len(cols)
        prev = cols[-1] if cols else -1
        for pos in range(start, size):
            norm = norms[pos]
            if used + norm > budget:
                break
            v = reps[pos]
            next_key = key + tuple(sum(map(mul, v, qvs[c])) for c in cols) + (norm,)
            r = run + 1 if pos == prev else 1
            if last:
                tally[next_key] = tally.get(next_key, 0) + full // (stab * r)
            else:
                walk(pos, used + norm, cols + (pos,), next_key, stab * r, r)

    walk(0, 0, (), (), 1, 0)
    counts = {}
    for key, weight in tally.items():
        # G with its coordinates reversed: the same orbit, spread in full
        g = symmetric(n, reversed(key))
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
    n = require_int(degree, "degree", 1, 3)
    require_int(trace_bound, "trace_bound", 0)
    q = require_instance(lattice, GramLattice, "lattice").gram
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
    require_instance(lattice, GramLattice, "lattice")
    return {"rank": lattice.rank, "gram": [list(row) for row in lattice.gram]}


def gram_from_json(d):
    (rows,) = json_fields(d, "Gram", "gram")
    lattice = GramLattice(rows, "gram")
    if "rank" in d and require_int(d["rank"], "rank") != lattice.rank:
        raise ValueError("rank field disagrees with the Gram matrix")
    return lattice
