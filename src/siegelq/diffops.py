"""Minor-valued theta operators and the exact Rankin-Cohen bracket.

theta_operator of order r multiplies each coefficient by the r-th
compound of its index, a(T) -> T^[r] a(T); the normalization (2 pi i)^{-r}
is absorbed so everything stays rational.  The bracket D(f, g) combines
the two polarized pieces of (T1 + lambda T2)^[r] with half-integral
Pochhammer weights; its derivative-free part is the classical reference
term the congruence pipeline compares against.

All polynomial work is univariate over Fraction, done with plain
coefficient lists; matrices of such polynomials only ever reach size
comb(n, r) <= 6, so cofactor expansion is exact and cheap.
"""

from dataclasses import dataclass
from fractions import Fraction

from .halfint import compound, key_half, key_trace, mat_add, subset_order
from .qexpansion import SCALAR, FourierExpansion, term_pairs

# -- univariate polynomials over Q as low-to-high coefficient lists --------


def _padd(a, b):
    n = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
        for i in range(n)
    ]


def _psub(a, b):
    n = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
        for i in range(n)
    ]


def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_det(m):
    n = len(m)
    if n == 0:
        return [Fraction(1)]
    if n == 1:
        return list(m[0][0])
    total = [Fraction(0)]
    for j in range(n):
        entry = m[0][j]
        if all(c == 0 for c in entry):
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = _pmul(entry, _poly_det(minor))
        total = _padd(total, term) if j % 2 == 0 else _psub(total, term)
    return total


def half_rising(s, h):
    """Rising product with half-integer steps:
    s (s + 1/2) (s + 1) ... (s + (h-1)/2); the empty product is 1."""
    if not isinstance(h, int) or h < 0:
        raise ValueError("step count must be a nonnegative integer")
    out = Fraction(1)
    s = Fraction(s)
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
    if not 1 <= r <= n:
        raise ValueError("minor order out of range")
    subs = subset_order(n, r)
    polys = [
        [
            _poly_det([
                [[Fraction(r_mat[i][j]), Fraction(s_mat[i][j])] for j in cols]
                for i in rows
            ])
            for cols in subs
        ]
        for rows in subs
    ]
    coeffs = []
    for i in range(r + 1):
        coeffs.append(tuple(
            tuple(p[i] if i < len(p) else Fraction(0) for p in row)
            for row in polys
        ))
    return coeffs


@dataclass(frozen=True)
class BracketParams:
    """Degree, minor order and the two scalar weights of a bracket."""

    degree: int
    minor_order: int
    weight_f: Fraction
    weight_g: Fraction

    def __post_init__(self):
        if not isinstance(self.degree, int) or self.degree < 1:
            raise ValueError("degree must be a positive integer")
        if not isinstance(self.minor_order, int) or not 1 <= self.minor_order <= self.degree:
            raise ValueError("minor order out of range")
        object.__setattr__(self, "weight_f", Fraction(self.weight_f))
        object.__setattr__(self, "weight_g", Fraction(self.weight_g))


def theta_operator(f, r):
    """Order-r minor theta operator: a(T) -> compound(T, r) a(T), with the
    (2 pi i)^{-r} normalization absorbed.  Takes scalar input; the result
    is ('compound', r)-shaped."""
    if f.shape != SCALAR:
        raise ValueError("theta operator needs a scalar expansion")
    if not 1 <= r <= f.degree:
        raise ValueError("minor order out of range")
    coeffs = {}
    for key, value in f.coeffs.items():
        block = compound(key_half(key), r)
        coeffs[key] = tuple(tuple(value * x for x in row) for row in block)
    return FourierExpansion(
        f.degree, f.trace_bound, coeffs, ("compound", r),
        weight=f.weight, level=f.level, character=f.character)


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
    shape ('compound', r), exact to the shared trace bound."""
    if f.shape != SCALAR or g.shape != SCALAR:
        raise ValueError("bracket needs scalar expansions")
    n = params.degree
    r = params.minor_order
    if f.degree != n or g.degree != n:
        raise ValueError("degree mismatch")
    half = Fraction(r - 1, 2)
    kp = params.weight_f - half
    lp = params.weight_g - half
    weights = [
        (-1) ** alpha * half_rising(lp, alpha) * half_rising(kp, r - alpha)
        for alpha in range(r + 1)
    ]
    bound = min(f.trace_bound, g.trace_bound)
    half = {k: key_half(k) for e in (f, g) for k in e.coeffs
            if key_trace(k) <= bound}
    acc = {}
    for ka, va, kb, vb in term_pairs(f, g, bound):
        pieces = polarize_compound(half[ka], half[kb], r)
        scale = va * vb
        block = None
        for alpha in range(r + 1):
            w = weights[alpha] * scale
            if w == 0:
                continue
            piece = pieces[r - alpha]
            term = tuple(tuple(w * x for x in row) for row in piece)
            block = term if block is None else mat_add(block, term)
        if block is None:
            continue
        key = mat_add(ka, kb)
        acc[key] = block if key not in acc else mat_add(acc[key], block)
    weight = None
    if f.weight is not None and g.weight is not None:
        weight = f.weight + g.weight
    return FourierExpansion(n, bound, acc, ("compound", r), weight=weight)


def leading_part(f, g, params):
    """Derivative-free part of the bracket: the alpha = r term alone,
    (-1)^r half_rising(l - (r-1)/2, r) * theta_operator(f, r) * g."""
    r = params.minor_order
    if f.degree != params.degree or g.degree != params.degree:
        raise ValueError("degree mismatch")
    c = (-1) ** r * half_rising(params.weight_g - Fraction(r - 1, 2), r)
    return (theta_operator(f, r) * g).scale(c)
