"""Minor-valued theta operators and the exact Rankin-Cohen bracket.

theta_operator of order r multiplies each coefficient by the r-th
compound of its index, a(T) -> T^[r] a(T); the normalization (2 pi i)^{-r}
is absorbed so everything stays rational.  The bracket D(f, g) combines
the two polarized pieces of (T1 + lambda T2)^[r] with half-integral
Pochhammer weights; its derivative-free part is the classical reference
term the congruence pipeline compares against.

The polarized pieces split by the generalized Laplace expansion into
products of minors det T1[A, B] det T2[C, D], so each entry of the bracket
is a signed sum of ring products of minor-weighted series
a(T) -> det T[A, B] a(T); no polynomial arithmetic is needed.  Every
minor is taken by _minor; each block result, a theta operator's too, is
assembled from scalar entry series by qexpansion._blocks.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .halfint import as_rational, det, is_int, subset_order
from .qexpansion import SCALAR, FourierExpansion, _blocks, _trusted


def _minor(m, rows, cols):
    """The minor det m[rows, cols]; the empty minor is 1."""
    return det([[m[i][j] for j in cols] for i in rows])


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
    if not is_int(h) or h < 0:
        raise ValueError("step count must be a nonnegative integer")
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
    n = len(r_mat)
    if any(len(row) != n for row in r_mat):
        raise ValueError("first matrix must be square")
    if len(s_mat) != n or any(len(row) != n for row in s_mat):
        raise ValueError("size mismatch")
    if not is_int(r) or not 1 <= r <= n:
        raise ValueError("minor order out of range")
    subs = subset_order(n, r)
    r_mat, s_mat = ([[Fraction(x) for x in row] for row in m] for m in (r_mat, s_mat))

    def piece(rows, cols, q):
        return sum((sign * _minor(r_mat, rr, rc) * _minor(s_mat, sr, sc)
                    for sign, rr, rc, sr, sc in _laplace_split(rows, cols, q)),
                   Fraction(0))

    return [tuple(tuple(piece(rows, cols, q) for cols in subs) for rows in subs)
            for q in range(r + 1)]


@dataclass(frozen=True)
class BracketParams:
    """Degree, minor order and the two scalar weights of a bracket."""

    degree: int
    minor_order: int
    weight_f: Fraction
    weight_g: Fraction

    def __post_init__(self):
        if not is_int(self.degree) or self.degree < 1:
            raise ValueError("degree must be a positive integer")
        if not is_int(self.minor_order) or not 1 <= self.minor_order <= self.degree:
            raise ValueError("minor order out of range")
        object.__setattr__(self, "weight_f", as_rational(self.weight_f, "weight_f"))
        object.__setattr__(self, "weight_g", as_rational(self.weight_g, "weight_g"))


def _bracket_weights(params):
    """The weights of the bracket's polarized pieces, alpha = 0..r (see
    rankin_cohen); alpha = r gives the factor of the derivative-free part."""
    r = params.minor_order
    half = Fraction(r - 1, 2)
    kp = params.weight_f - half
    lp = params.weight_g - half
    return [(-1) ** alpha * half_rising(lp, alpha) * half_rising(kp, r - alpha)
            for alpha in range(r + 1)]


def theta_operator(f, r):
    """Order-r minor theta operator: a(T) -> compound(T, r) a(T), with the
    (2 pi i)^{-r} normalization absorbed.  Takes scalar input; the result
    is ('compound', r)-shaped and keeps f's weight: as for rankin_cohen,
    the weight records the power of det and the shape carries the rest."""
    if f.shape != SCALAR:
        raise ValueError("theta operator needs a scalar expansion")
    if not is_int(r) or not 1 <= r <= f.degree:
        raise ValueError("minor order out of range")
    subs = subset_order(f.degree, r)
    return _blocks([[_minor_weighted(f, rows, cols) for cols in subs] for rows in subs],
                   ("compound", r), f.trace_bound, f.weight, f.level, f.character)


def _minor_weighted(h, rows, cols):
    """The scalar series a(T) -> det T[rows, cols] a(T), the minor taken
    as det 2T[rows, cols] / 2^|rows|; the empty minor is 1."""
    scale = Fraction(1, 2 ** len(rows))
    coeffs = {}
    for key, value in h.coeffs.items():
        m = _minor(key, rows, cols)
        if m:
            coeffs[key] = value * m * scale
    return _trusted(h.degree, h.trace_bound, coeffs)


def rankin_cohen(f, g, params):
    """Exact Rankin-Cohen bracket D(f, g) of minor order r.

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

    The result's weight is k + l, the power of det in its automorphy
    factor; the ('compound', r) shape carries the rest.  So at degree 1,
    where each order adds a factor (c z + d)^2, [E4, E6] = -3456 Delta
    records weight 10 although Delta has weight 12 = 10 + 2r.  The weight
    is None unless both f and g carry one.

    Computed entry by entry through _laplace_split: entry (I, J) is the
    weighted, signed sum of the ring products M_(I-K, J-L) f * M_(K, L) g
    of minor-weighted series (see _minor_weighted)."""
    if f.shape != SCALAR or g.shape != SCALAR:
        raise ValueError("bracket needs scalar expansions")
    n = params.degree
    r = params.minor_order
    if f.degree != n or g.degree != n:
        raise ValueError("degree mismatch")
    weights = _bracket_weights(params)
    minors = [
        {(rows, cols): _minor_weighted(h, rows, cols)
         for s in range(r + 1)
         for rows in subset_order(n, s) for cols in subset_order(n, s)}
        for h in (f, g)
    ]
    zero = FourierExpansion.zero(n, min(f.trace_bound, g.trace_bound))

    def entry(rows, cols):
        return sum(((minors[0][fr, fc] * minors[1][gr, gc]).scale(sign * weights[r - q])
                    for q in range(r + 1) if weights[r - q]
                    for sign, fr, fc, gr, gc in _laplace_split(rows, cols, q)),
                   zero)

    weight = None
    if f.weight is not None and g.weight is not None:
        weight = f.weight + g.weight
    subs = subset_order(n, r)
    return _blocks([[entry(rows, cols) for cols in subs] for rows in subs],
                   ("compound", r), zero.trace_bound, weight, None, None)


def leading_part(f, g, params):
    """Derivative-free part of the bracket: the alpha = r term alone,
    (-1)^r half_rising(l - (r-1)/2, r) * theta_operator(f, r) * g."""
    r = params.minor_order
    if f.degree != params.degree or g.degree != params.degree:
        raise ValueError("degree mismatch")
    return (theta_operator(f, r) * g).scale(_bracket_weights(params)[r])
