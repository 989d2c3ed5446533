"""Minor-valued theta operators and the exact Rankin-Cohen bracket.

theta_operator of order r multiplies each coefficient by the r-th
compound of its index, a(T) -> T^[r] a(T); the normalization (2 pi i)^{-r}
is absorbed so everything stays rational.  The bracket D(f, g) combines
the two polarized pieces of (T1 + lambda T2)^[r] with half-integral
Pochhammer weights; c, the alpha = r weight, gives D(f, 1) = c theta^[r] f,
so by linearity in g padic checks D(f, g) = c theta^[r] f as D(f, g - 1) = 0.

The polarized pieces split by the generalized Laplace expansion into
products of minors det T1[A, B] det T2[C, D], so each entry of the bracket
is one qexpansion._pair_loop over weighted products of minor weights
a(T) -> det T[A, B] a(T), each encoded in integers by qexpansion._numerators;
no polynomial arithmetic.  A theta operator's entry is such an encoding.
Both hand their grid of packed entries to qexpansion._blocks, which
decodes each key once and builds the one block series of the result.
leading_part, the alpha = r term alone, is c theta^[r] f * g in the ring.
"""

from fractions import Fraction
from itertools import combinations

from .halfint import as_rational, minor, require_int, square_matrix, subset_order
from .qexpansion import SCALAR, _blocks, _numerators, _pair_loop, require_expansion


def _laplace_split(rows, cols, q):
    """Generalized Laplace expansion of the lambda^q coefficient of the
    minor det (R + lambda S)[rows, cols]: yields (sign, r_rows, r_cols,
    s_rows, s_cols) such that the coefficient is

        sum sign * det R[r_rows, r_cols] * det S[s_rows, s_cols]

    over the q-subsets s_rows of rows and s_cols of cols, r_rows and
    r_cols being their complements and sign (-1)^(positions of s_rows and
    s_cols within rows and cols)."""
    for pk in combinations(range(len(rows)), q):
        for pl in combinations(range(len(cols)), q):
            yield (
                (-1) ** (sum(pk) + sum(pl)),
                tuple(x for i, x in enumerate(rows) if i not in pk),
                tuple(x for j, x in enumerate(cols) if j not in pl),
                tuple(rows[i] for i in pk),
                tuple(cols[j] for j in pl),
            )


def half_rising(s, h):
    """Rising product with half-integer steps:
    s (s + 1/2) (s + 1) ... (s + (h-1)/2); the empty product is 1."""
    require_int(h, "h", 0)
    out = Fraction(1)
    s = as_rational(s, "rising product base")
    for i in range(h):
        out *= s + Fraction(i, 2)
    return out


def polarize_compound(r_mat, s_mat, r):
    """Coefficient matrices of the compound of the pencil R + lambda S:

        compound(R + lambda S, r) = sum_i coeffs[i] * lambda^i

    returned as a list of r + 1 rational matrices.  coeffs[0] is
    compound(R, r) and coeffs[r] is compound(S, r)."""
    r_mat = square_matrix(r_mat, "first matrix", as_rational)
    s_mat = square_matrix(s_mat, "second matrix", as_rational)
    n = len(r_mat)
    if len(s_mat) != n:
        raise ValueError("second matrix must be %d x %d like the first matrix, "
                         "got %d x %d" % (n, n, len(s_mat), len(s_mat)))
    require_int(r, "minor_order", 1, n)
    subs = subset_order(n, r)

    def piece(rows, cols, q):
        return sum((sign * minor(r_mat, rr, rc) * minor(s_mat, sr, sc)
                    for sign, rr, rc, sr, sc in _laplace_split(rows, cols, q)),
                   Fraction(0))

    return [tuple(tuple(piece(rows, cols, q) for cols in subs) for rows in subs)
            for q in range(r + 1)]


def _bracket_weights(r, weight_f, weight_g):
    """The weights of the bracket's polarized pieces, alpha = 0..r (see
    rankin_cohen); alpha = r gives the factor of the derivative-free part."""
    half = Fraction(r - 1, 2)
    kp = as_rational(weight_f, "weight_f") - half
    lp = as_rational(weight_g, "weight_g") - half
    return [(-1) ** alpha * half_rising(lp, alpha) * half_rising(kp, r - alpha)
            for alpha in range(r + 1)]


def _checked_weights(f, g, r, weight_f, weight_g):
    """_bracket_weights after checking f, g (of f's degree) and r, in order."""
    n = require_expansion(f, "f", shape=SCALAR).degree
    require_expansion(g, "g", n, SCALAR)
    require_int(r, "minor_order", 1, n)
    return _bracket_weights(r, weight_f, weight_g)


def theta_operator(f, r):
    """Order-r minor theta operator: a(T) -> compound(T, r) a(T), with the
    (2 pi i)^{-r} normalization absorbed.  Takes scalar input; the result
    is ('compound', r)-shaped and keeps f's weight: as for rankin_cohen,
    the weight records the power of det and the shape carries the rest.
    Entry (I, J) is the encoding _numerators(f, bound, I, J), and _blocks
    decodes the grid of entries."""
    n, bound = require_expansion(f, "f", shape=SCALAR).degree, f.trace_bound
    require_int(r, "minor_order", 1, n)
    subs = subset_order(n, r)
    return _blocks([[_numerators(f, bound, rows, cols) for cols in subs] for rows in subs],
                   n, bound, ("compound", r), f.weight, f.level, f.character)


def rankin_cohen(f, g, r, weight_f, weight_g):
    """Exact Rankin-Cohen bracket D(f, g) of minor order r of scalar f and g
    of one degree, k = weight_f and l = weight_g (ints or Fractions).

    The coefficient at T sums, over splittings T = T1 + T2 with T1 in the
    support of f and T2 in that of g,

        a_f(T1) a_g(T2) * sum_alpha (-1)^alpha
            * half_rising(l - (r-1)/2, alpha)
            * half_rising(k - (r-1)/2, r - alpha)
            * P_alpha(T1, T2)

    where P_alpha is the lambda^(r-alpha) coefficient of
    compound(T1 + lambda T2, r), i.e. the polarized piece of degree alpha
    in T1.  For n = r = 1 this is k f theta(g) - l theta(f) g.  Result
    shape ('compound', r), exact to the shared trace bound.

    The result's weight is f.weight + g.weight, the weights the series
    carry and not the k and l given here, and None unless both carry one.
    It is the power of det in the automorphy factor; the ('compound', r)
    shape carries the rest.  So at degree 1, where each order adds a
    factor (c z + d)^2, [E4, E6] = -3456 Delta records weight 10 although
    Delta has weight 12 = 10 + 2r.  The level is a shared one, as for the
    ring product, and there is no character.

    Computed entry by entry through _laplace_split: entry (I, J) is one
    _pair_loop over the signed, weighted products M_(I-K, J-L) f * M_(K, L) g
    of the minor weights M_(A, B) h: a(T) -> det T[A, B] a(T) (M_() h = h),
    each encoded once, by _numerators(h, bound, A, B); _blocks decodes the
    grid of entries.  Every argument is checked before any of this."""
    weights = _checked_weights(f, g, r, weight_f, weight_g)
    n, bound = f.degree, min(f.trace_bound, g.trace_bound)
    minors = [{(rows, cols): _numerators(h, bound, rows, cols)
               for s in range(r + 1)
               for rows in subset_order(n, s) for cols in subset_order(n, s)}
              for h in (f, g)]

    def entry(rows, cols):
        products = [(sign * weights[r - q], minors[0][fr, fc], minors[1][gr, gc])
                    for q in range(r + 1) if weights[r - q]
                    for sign, fr, fc, gr, gc in _laplace_split(rows, cols, q)]
        return _pair_loop(products, n, bound)

    weight = None if None in (f.weight, g.weight) else f.weight + g.weight
    level = f.level if f.level == g.level else None
    subs = subset_order(n, r)
    return _blocks([[entry(rows, cols) for cols in subs] for rows in subs],
                   n, bound, ("compound", r), weight, level, None)


def leading_part(f, g, r, weight_f, weight_g):
    """Derivative-free part of rankin_cohen, the alpha = r term alone: the ring
    product c theta_operator(f, r) * g, c = (-1)^r half_rising(l - (r-1)/2, r)."""
    c = _checked_weights(f, g, r, weight_f, weight_g)[r]
    return theta_operator(f, r).scale(c) * g
