"""Truncated generalized q-expansions sum_T a(T) q^T.

Coefficients live in Q (Fraction); keys are doubled index matrices 2T as
produced by halfint.  An expansion of degree n with trace bound N stores
exactly the coefficients with trace(T) <= N, zeros omitted.  Since traces
add under matrix addition, products of expansions are exact up to the
minimum of the two bounds, which is the bound every binary operation
returns.  Every series argument is read by require_expansion.

Values are scalars, or square blocks of size comb(n, r) for the image of
an order-r minor theta operator; the shape field is "scalar" or
("compound", r).  Sums and multiples act on block values; any other
block result is a grid of packed entries, which _blocks decodes.

Keys are checked once, at the boundary.  FourierExpansion(...) is for outside
input (user code, constant, zero, JSON): it checks the metadata, then reads
its (key, value) pairs in one private loop, _terms, which from_json_dict runs
too on a document's (t2, value) entries.  That loop reads each key once, by
square_matrix (2T integral; an exact int entry costs no call), and checks it
symmetric with even diagonal, of the degree, within the bound, not a repeat
and positive semidefinite, in that order; it reads each value once, by the
caller's rule (as_rational for int or Fraction values, rational_from_str for
a document's strings, an "n/1" with no gcd), and drops zeros.  A series
computed from valid series (the ring operations, _decode, _blocks, theta
series) or from an integer closed form (eisenstein, delta) is wrapped by the
private _trusted without checks; each such builder stores only nonzero
Fraction values and blocks that are not all zero.

A product of scalar series is three steps: both operands are encoded
(_numerators), one pair loop over Python ints multiplies them
(_pair_loop), and the result is decoded (_decode); a block times a
scalar is one pair loop per block entry (i, j), which _numerators
encodes from the block, the scalar encoded once.  The pair loop sums
weighted products c * left * right, so a product is a list of one and a
bracket entry (diffops, which passes packed terms unread) one loop over
many.  Encoding scales an operand's values to integer numerators over
the lcm of its value denominators, times det 2T[I, J] for a minor weight
a(T) -> det T[I, J] a(T) of the bracket or a theta operator, and codes
each key 2T as one int: its signed digits in base 4N + 1, N the
product's trace bound, least significant first, are the entries of the
upper triangle of 2T row by row, except that the last one, 2T_nn, is
replaced by trace(T).  For T >= 0 with trace(T) <= N, the diagonal of 2T
lies in [0, 2N], |2T_ij| <= 2 sqrt(T_ii T_jj) <= N off it and the trace
in [0, N]; a sum of two keys whose traces add to at most N is such a key
again.  So every digit stays in [-2N, 2N], the code of a sum is the sum
of the codes, and codes sort by trace, the most significant digit.  The
pair loop returns packed terms as an encoding does: (code, numerator)
sorted by code, over the lcm of its products' denominators.  So a power
encodes its base once, runs its square-and-multiply chain on packed
terms and decodes once, and a square f * f encodes f once.  Only output
keys are decoded, once each, also those of a block result.

At degree 1 a code is the trace itself, so a product is a polynomial
product.  When its pairs of terms outnumber the N + 1 slots of 0..N,
_kronecker packs each operand into one int, numerator i in the i-th
slot of w bits, and multiplies once in C (Kronecker substitution); its
cost follows N, so an operand with few terms up to a large bound, such
as a dilated series, takes the pair loop instead, whose cost follows
the pairs.  At degree 2 and up the codes are sparse (22 keys among 676
codes at degree 2, bound 3), and a pair whose traces add past N can
alias onto a valid code, so the pair loop runs over the pairs of terms
and stops each row at the bound.
"""

import json
import re
import sys
from collections.abc import Iterator
from fractions import Fraction
from math import lcm
from operator import add, itemgetter

from .halfint import (
    SIZE_LIMIT,
    HalfIntegralMatrix,
    as_rational,
    block_count,
    even_symmetric,
    is_int,
    key_sort,
    key_trace,
    mat_add,
    mat_scale,
    minor,
    power,
    psd_rows,
    require_instance,
    require_int,
    square_matrix,
    symmetric,
    zero_matrix,
)

SCALAR = "scalar"


def _digits(x):
    """The number of decimal digits of the int x, counted without
    converting it to a string."""
    x = abs(x)
    d = x.bit_length() * 1233 >> 12  # 1233 / 4096 < log10(2)
    while 10 ** d <= x:
        d += 1
    return max(d, 1)


# Python 3.10 before 3.10.7 has no limit; 0 means none
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _require_digits(name, part, digits):
    """Raise a ValueError naming the field, the digit count and the limit
    if the part (numerator or denominator) of a rational has more digits
    than Python converts between int and string.  The limit stays: it
    keeps a hostile document from making int parsing quadratic."""
    limit = _int_max_str_digits()
    if limit and digits > limit:
        raise ValueError("%s: the %s has %d digits, more than the %d that Python "
                         "converts between integers and strings" % (name, part, digits, limit))


def rational_to_str(x, name="value"):
    f = as_rational(x, name)
    try:
        return "%d/%d" % (f.numerator, f.denominator)
    except ValueError:
        _require_digits(name, "numerator", _digits(f.numerator))
        _require_digits(name, "denominator", _digits(f.denominator))
        raise


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def rational_from_str(s, name="rational"):
    """Parse 'a/b' or a plain integer string, read once: the numerator and
    denominator are the groups of one match, and the value is one Fraction of
    their ints, with no gcd for a denominator of 1.  Anything else, including
    decimals, exponents and non-strings, is a ValueError that names the field
    and quotes s, and so is a numerator or denominator longer than Python's
    limit on integer strings, looked at only when s itself is longer; a zero
    denominator is a ZeroDivisionError that names the field and quotes s."""
    match = _RATIONAL.fullmatch(s) if isinstance(s, str) else None
    if match is None:
        raise ValueError("%s must be a 'num/den' or integer string, got %r" % (name, s))
    numerator, denominator = match.groups()
    limit = _int_max_str_digits()
    if limit and len(s) > limit:
        _require_digits(name, "numerator", len(numerator.lstrip("+-")))
        _require_digits(name, "denominator", len(denominator or ""))
    den = int(denominator) if denominator else 1
    if not den:
        raise ZeroDivisionError("%s has a zero denominator, got %r" % (name, s))
    return Fraction(int(numerator)) if den == 1 else Fraction(int(numerator), den)


def _normalize_shape(shape, degree):
    if shape == SCALAR:
        return shape
    if isinstance(shape, tuple) and len(shape) == 2 and shape[0] == "compound":
        require_int(shape[1], "compound", 1, degree)
        block_count(degree, shape[1])
        return shape
    raise ValueError("shape must be 'scalar' or ('compound', r), got %r"
                     % (shape,))


def _coded(n):
    """The positions (i, j) of the upper triangle of an n x n key, row by
    row, whose entries are digits of its code: all but the last, the
    place of the trace (see the module docstring)."""
    return [(i, j) for i in range(n) for j in range(i, n)][:-1]


def _numerators(f, bound, rows=(), cols=(), entry=None):
    """The packed terms of a(T) -> det T[rows, cols] a(T), f scalar, or of
    entry (i, j) of f's blocks, with trace at most bound: (code, integer
    numerator) pairs sorted by code, so by trace, over 2^|rows| times the
    lcm of the kept value denominators.  A nonzero value's numerator is
    multiplied by det 2T[rows, cols], never computed for the empty minor 1,
    then scaled to that lcm; a 0 minor drops the key."""
    coded = _coded(f.degree)[::-1]
    key_base = 4 * bound + 1
    terms = []
    for k, v in f.coeffs.items():
        code = key_trace(k)
        v = v if entry is None else v[entry[0]][entry[1]]
        if code <= bound and v:
            m = minor(k, rows, cols) if rows else 1
            if m:
                for i, j in coded:
                    code = code * key_base + k[i][j]
                terms.append((code, m * v.numerator, v.denominator))
    den = lcm(*(d for _, _, d in terms))
    terms.sort(key=itemgetter(0))
    return [(c, num * (den // d)) for c, num, d in terms], den << len(rows)


def _pair_loop(products, degree, bound):
    """The packed sum of the products c * left * right (c rational, left
    and right packed), over the lcm of the products' denominators.  At
    degree 1 a code is its trace, and when the pairs of terms number more
    than bound, each product is one integer multiplication (_kronecker)
    over the slots 0..bound.  Otherwise, and at every degree 2 and up,
    where codes are sparse, one loop over the pairs of terms whose traces
    add to at most bound (at degree 1 a code's place is 1)."""
    den = lcm(*(c.denominator * f_den * g_den for c, (_, f_den), (_, g_den) in products))
    scaled = [(c.numerator * (den // (c.denominator * f_den * g_den)), left, right)
              for c, (left, f_den), (right, g_den) in products]
    if degree == 1 and sum(len(left) * len(right) for _, left, right in scaled) > bound:
        return _kronecker(scaled, bound), den
    place = (4 * bound + 1) ** len(_coded(degree))
    half = place // 2
    acc = {}
    get = acc.get
    for scale, left, right in scaled:
        for ca, na in left:
            # the largest code of a key whose trace is at most bound - trace(ca)
            room = (bound - (ca + half) // place) * place + half
            na *= scale
            for cb, nb in right:
                if cb > room:
                    break
                code = ca + cb
                acc[code] = get(code, 0) + na * nb
    return [(c, s) for c, s in sorted(acc.items()) if s], den


def _kronecker(products, bound):
    """The nonzero slots 0..bound of the sum of scale * left * right over
    degree-1 packed terms, by Kronecker substitution: an operand is the int
    with numerator i at bits [w i, w (i + 1)).  The slot width w, a whole
    number of bytes, has 2^(w - 1) above every slot's sum.  So adding
    2^(w - 1) to each slot 0..bound makes it a w-bit digit, and the terms
    past bound are a multiple of 2^(w (bound + 1)), which the mask drops."""
    products = [(s, left, right) for s, left, right in products if left and right]
    bits = max((abs(s).bit_length() + max(abs(n) for _, n in left).bit_length()
                + max(abs(n) for _, n in right).bit_length()
                + min(len(left), len(right)).bit_length() for s, left, right in products),
               default=0)
    size = (bits + len(products).bit_length()) // 8 + 1
    offset = 1 << (8 * size - 1)
    fill = offset.to_bytes(size, "little")
    slots = bound + 1
    offsets = int.from_bytes(fill * slots, "little")

    def pack(terms):
        digits = [fill] * slots
        for code, n in terms:
            digits[code] = (n + offset).to_bytes(size, "little")
        return int.from_bytes(b"".join(digits), "little") - offsets

    total = 0
    for s, left, right in products:
        a = pack(left)
        total += s * (a * (a if right is left else pack(right)))
    data = ((total + offsets) & ((1 << (8 * size * slots)) - 1)).to_bytes(size * slots, "little")
    return [(i, int.from_bytes(d, "little") - offset) for i, d in
            enumerate(data[j:j + size] for j in range(0, size * slots, size)) if d != fill]


def _keys(codes, degree, bound):
    """The keys 2T of the degree coded, at the bound, by the codes, in
    their order: each code's signed digits, least significant first, are
    the entries at _coded(degree) of its key; what is left is the trace,
    which gives the last diagonal entry (at degree 1, the only one)."""
    if degree == 1:
        yield from [((2 * c,),) for c in codes]
        return
    coded = _coded(degree)
    key_base = 4 * bound + 1
    half = key_base // 2
    diagonal = [d for d, (i, j) in enumerate(coded) if i == j]
    for c in codes:
        digits = []
        for _ in coded:
            d = (c + half) % key_base - half
            digits.append(d)
            c = (c - d) // key_base
        digits.append(2 * c - sum([digits[d] for d in diagonal]))
        yield symmetric(degree, digits)


def _decode(packed, degree, bound, weight, level):
    """The scalar series of the degree at the bound with the packed terms,
    each code decoded once by _keys."""
    terms, den = packed
    keys = _keys([c for c, _ in terms], degree, bound)
    coeffs = {k: Fraction(s, den) for k, (_, s) in zip(keys, terms)}
    return _trusted(degree, bound, coeffs, SCALAR, weight, level)


class FourierExpansion:
    """Exact truncated Fourier expansion over half-integral indices.

    Arithmetic (+, -, *, **) tracks trace bounds; metadata (weight, level,
    character) is informational, propagated when determined and dropped
    otherwise, and never takes part in equality."""

    __slots__ = ("degree", "trace_bound", "shape", "coeffs", "weight", "level", "character")

    def __init__(self, degree, trace_bound, coeffs=None, shape=SCALAR,
                 weight=None, level=None, character=None):
        require_int(degree, "degree", 1, SIZE_LIMIT)
        require_int(trace_bound, "trace_bound", 0)
        weight = None if weight is None else as_rational(weight, "weight")
        if level is not None:
            require_int(level, "level", 1)
        if not (character is None or is_int(character) or isinstance(character, str)):
            raise ValueError("character must be null, an integer or a string, got %r"
                             % (character,))
        self.degree = degree
        self.trace_bound = trace_bound
        self.shape = _normalize_shape(shape, degree)
        self.weight = weight
        self.level = level
        self.character = character
        coeffs = {} if coeffs is None else require_instance(coeffs, dict, "coeffs")
        self.coeffs = self._terms(coeffs.items(), "key", as_rational)

    def _terms(self, pairs, name, rule):
        """The coefficients to store from the (key, value) pairs, each
        read once.  A key is read by _index under the field name name, then
        checked not a repeat and positive semidefinite; a value is
        rule(value, "value"), or a block of this shape's size whose entries
        rule reads.  Zero values are dropped."""
        scalar = self.shape == SCALAR
        size = self.block_size
        stored = {}
        for key, value in pairs:
            t = self._index(key, name)
            # a tuple and a HalfIntegralMatrix of one 2T are two dict keys
            if t in stored:
                raise ValueError("duplicate %s %r" % (name, t))
            if psd_rows(t) is None:
                raise ValueError("keys must be positive semidefinite, got 2T %r" % (t,))
            if scalar:
                v = rule(value, "value")
            else:
                v = square_matrix(value, "block value", rule)
                if len(v) != size:
                    raise ValueError(
                        "block value must be %d x %d for %r at degree %d, got %d x %d"
                        % (size, size, self.shape, self.degree, len(v), len(v)))
            stored[t] = v
        # zeros go last, so a repeated 2T is caught with a zero value too
        return {k: v for k, v in stored.items() if (v if scalar else any(map(any, v)))}

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, degree, trace_bound, shape=SCALAR):
        return cls(degree, trace_bound, {}, shape)

    @classmethod
    def constant(cls, value, degree, trace_bound, weight=None, level=None):
        key = zero_matrix(degree)
        return cls(degree, trace_bound, {key: value},
                   weight=weight, level=level)

    # -- basic access ---------------------------------------------------

    @property
    def block_size(self):
        return 1 if self.shape == SCALAR else block_count(self.degree, self.shape[1])

    def support(self):
        """Keys with nonzero coefficient, sorted by (trace, entries)."""
        return sorted(self.coeffs, key=key_sort)

    def _index(self, key, name="2T"):
        """The key (2T as nested ints, or a HalfIntegralMatrix) as its
        doubled matrix, read once (by square_matrix as name, unless it is a
        HalfIntegralMatrix) and checked, in this order, symmetric with even
        diagonal, of this degree and with trace within the bound."""
        if isinstance(key, HalfIntegralMatrix):
            t = key.doubled
        else:
            t = even_symmetric(square_matrix(key, name), name)
        if len(t) != self.degree:
            raise ValueError("key degree mismatch: 2T %r has degree %d, the series %d"
                             % (t, len(t), self.degree))
        trace = key_trace(t)
        if trace > self.trace_bound:
            raise ValueError("key beyond the trace bound: 2T %r has trace %d > %d"
                             % (t, trace, self.trace_bound))
        return t

    def coefficient(self, key):
        """Coefficient at T (doubled matrix, nested sequence of ints, or a
        HalfIntegralMatrix).  Asking beyond the trace bound is an error."""
        t = self._index(key)
        if self.shape == SCALAR:
            return self.coeffs.get(t, Fraction(0))
        size = self.block_size
        return self.coeffs.get(t, ((Fraction(0),) * size,) * size)

    def truncate(self, new_bound):
        """Forget coefficients above new_bound (<= current bound)."""
        require_int(new_bound, "new_bound", 0, self.trace_bound)
        kept = {k: v for k, v in self.coeffs.items() if key_trace(k) <= new_bound}
        return _trusted(self.degree, new_bound, kept, self.shape,
                        self.weight, self.level, self.character)

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        require_expansion(other, "other", self.degree, self.shape)
        bound = min(self.trace_bound, other.trace_bound)
        weight = self.weight if self.weight == other.weight else None
        level = self.level if self.level == other.level else None
        character = self.character if self.character == other.character else None
        scalar = self.shape == SCALAR
        plus = add if scalar else mat_add
        acc = {k: v for k, v in self.coeffs.items() if key_trace(k) <= bound}
        for k, v in other.coeffs.items():
            if key_trace(k) <= bound:
                acc[k] = plus(acc[k], v) if k in acc else v
        coeffs = {k: v for k, v in acc.items() if (v if scalar else any(map(any, v)))}
        return _trusted(self.degree, bound, coeffs, self.shape, weight, level, character)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + -require_expansion(other, "other")

    def scale(self, c):
        """Multiply every coefficient, or every block entry, by the rational c."""
        c = as_rational(c, "scale factor")
        scalar = self.shape == SCALAR
        coeffs = {k: c * v if scalar else mat_scale(c, v)
                  for k, v in self.coeffs.items()} if c else {}
        return _trusted(self.degree, self.trace_bound, coeffs, self.shape,
                        self.weight, self.level, self.character)

    def __mul__(self, other):
        """The ring product, or the multiple by a rational: encoded at the
        smaller bound, one pair loop, decoded, and a square encoded once.  A
        block times a scalar is one pair loop per entry, the scalar encoded
        once, decoded by _blocks.  No character: for chi it would be chi^2."""
        if not isinstance(other, FourierExpansion):
            return self.scale(other)
        require_expansion(other, "other", self.degree)
        if self.shape != SCALAR and other.shape != SCALAR:
            raise ValueError("cannot multiply two block-valued expansions")
        block, scalar = (self, other) if other.shape == SCALAR else (other, self)
        n, bound = self.degree, min(self.trace_bound, other.trace_bound)
        weight = None if None in (self.weight, other.weight) else self.weight + other.weight
        level = self.level if self.level == other.level else None
        right = _numerators(scalar, bound)
        if block.shape == SCALAR:
            left = right if block is scalar else _numerators(block, bound)
            return _decode(_pair_loop([(1, left, right)], n, bound), n, bound, weight, level)
        side = range(block.block_size)
        return _blocks([[_pair_loop([(1, _numerators(block, bound, entry=(i, j)), right)],
                                    n, bound) for j in side] for i in side],
                       n, bound, block.shape, weight, level, None)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, exponent):
        """A new expansion, by square and multiply from the lowest set bit
        of exponent on packed terms: one encoding, bit_length - 1 squarings
        and popcount - 1 products in the pair loop, one decoding.  It has
        weight exponent * weight (or None), this level and no character;
        exponent 0 gives the constant 1."""
        require_expansion(self, "base", shape=SCALAR)
        require_int(exponent, "exponent", 0)
        if exponent == 0:
            return FourierExpansion.constant(
                1, self.degree, self.trace_bound,
                weight=0 if self.weight is not None else None,
                level=self.level)
        n, bound = self.degree, self.trace_bound
        packed = power(_numerators(self, bound), exponent,
                       lambda f, g: _pair_loop([(1, f, g)], n, bound))
        weight = None if self.weight is None else exponent * self.weight
        return _decode(packed, n, bound, weight, self.level)

    # -- index reparametrizations ----------------------------------------

    def u_p(self, p):
        """Coefficient extraction a(T) -> a(pT); the bound drops to N // p.
        A level L becomes lcm(L, p): f has level lcm(L, p) too, and U(p)
        keeps a level that p divides (E4|U(5) = 126 E4 - 125 E4(5z) has
        level 5).  A key 2pT is p times a key 2T: every entry divisible
        by p and every diagonal entry by 2p, which an odd p leaves
        implied."""
        require_int(p, "p", 2)
        coeffs = {}
        for k, v in self.coeffs.items():
            if (all(x % p == 0 for row in k for x in row)
                    and all(k[i][i] % (2 * p) == 0 for i in range(len(k)))):
                coeffs[tuple(tuple(x // p for x in row) for row in k)] = v
        level = None if self.level is None else lcm(self.level, p)
        return _trusted(self.degree, self.trace_bound // p, coeffs, self.shape,
                        self.weight, level, self.character)

    def dilate(self, c):
        """Substitution q^T -> q^(cT); the bound grows to c * N."""
        require_int(c, "factor", 1)
        coeffs = {
            tuple(tuple(c * x for x in row) for row in k): v
            for k, v in self.coeffs.items()
        }
        level = None if self.level is None else c * self.level
        return _trusted(self.degree, c * self.trace_bound, coeffs, self.shape,
                        self.weight, level, self.character)

    # -- comparison -------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FourierExpansion)
            and self.degree == other.degree
            and self.shape == other.shape
            and self.trace_bound == other.trace_bound
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return "FourierExpansion(degree=%d, trace_bound=%d, shape=%r, %d terms)" % (
            self.degree, self.trace_bound, self.shape, len(self.coeffs))


def require_expansion(f, name, degree=None, shape=None):
    """f if it is a FourierExpansion of the degree and shape, None meaning
    any; else an error naming the argument, what it must be and what it is."""
    require_instance(f, FourierExpansion, name)
    if (degree is None or f.degree == degree) and (shape is None or f.shape == shape):
        return f
    of_degree = "" if degree is None else " of degree %d" % degree
    with_shape = "" if shape is None else " with shape %r" % (shape,)
    raise ValueError("%s: expected a FourierExpansion%s%s, got degree %d and shape %r"
                     % (name, of_degree, with_shape, f.degree, f.shape))


def _blocks(grid, degree, bound, shape, weight, level, character):
    """The series of the shape ("compound", r), degree and bound whose entry
    (i, j) has the packed terms grid[i][j]: a key is stored wherever some
    entry is nonzero, and each code is decoded once, by _keys.  The one
    place where block values are built from entries."""
    entries = [[(dict(terms), den) for terms, den in row] for row in grid]
    codes = sorted(set().union(*(e for row in entries for e, _ in row)))
    zero = Fraction(0)
    coeffs = {k: tuple(tuple(Fraction(e[c], den) if c in e else zero for e, den in row)
                       for row in entries)
              for c, k in zip(codes, _keys(codes, degree, bound))}
    return _trusted(degree, bound, coeffs, shape, weight, level, character)


def _trusted(degree, trace_bound, coeffs, shape=SCALAR,
             weight=None, level=None, character=None):
    """Wrap coefficients that are valid by construction, without the
    constructor's checks: psd keys 2T of the degree within the bound,
    nonzero Fraction values (or Fraction blocks of the shape's size, not
    all zero), a normalized shape and Fraction or None weight."""
    out = FourierExpansion.__new__(FourierExpansion)
    out.degree = degree
    out.trace_bound = trace_bound
    out.shape = shape
    out.coeffs = coeffs
    out.weight = weight
    out.level = level
    out.character = character
    return out


# -- classical degree-1 fixtures ------------------------------------------

def bernoulli(n):
    """Bernoulli number B_n (B_1 = -1/2 convention).  B_n = 0 for odd
    n > 1, and B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) with the tangent
    number T_k from Brent and Harvey's integer triangle (2011)."""
    require_int(n, "n", 0)
    if n < 2:
        return Fraction((1, -1)[n], n + 1)
    if n % 2:
        return Fraction(0)
    k = n // 2
    t = [1]
    for j in range(1, k):
        t.append(j * t[-1])
    for i in range(1, k):
        for j in range(i, k):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    return Fraction((-1) ** (k - 1) * n * t[-1], 4 ** k * (4 ** k - 1))


def eisenstein(weight, trace_bound):
    """Degree-1 Eisenstein series E_k = 1 - (2k/B_k) sum sigma_{k-1}(m) q^m,
    for even weight k >= 4; every sigma_{k-1}(m) with m <= trace_bound
    comes from one divisor sieve."""
    require_int(weight, "weight", 4)
    if weight % 2:
        raise ValueError("weight must be even, got %r" % weight)
    require_int(trace_bound, "trace_bound", 0)
    sigma = [0] * (trace_bound + 1)
    for d in range(1, trace_bound + 1):
        power_d = d ** (weight - 1)
        for m in range(d, trace_bound + 1, d):
            sigma[m] += power_d
    c = Fraction(-2 * weight) / bernoulli(weight)
    coeffs = {((0,),): Fraction(1)}
    for m in range(1, trace_bound + 1):
        coeffs[((2 * m,),)] = c * sigma[m]
    return _trusted(1, trace_bound, coeffs, SCALAR, Fraction(weight), 1)


def delta(trace_bound):
    """The degree-1 cusp form of weight 12, Delta = eta^24 = q P^8, where
    P = sum_{j >= 0} (-1)^j (2j + 1) q^(j(j+1)/2) at trace bound
    trace_bound - 1 is eta^3 / q^(1/8) by Jacobi's identity
    eta^3 = sum_{j >= 0} (-1)^j (2j + 1) q^((2j+1)^2 / 8)."""
    require_int(trace_bound, "trace_bound", 0)
    bound = max(trace_bound - 1, 0)
    jacobi = {}
    j = 0
    while j * (j + 1) // 2 <= bound:
        jacobi[((j * (j + 1),),)] = Fraction((-1) ** j * (2 * j + 1))
        j += 1
    p8 = _trusted(1, bound, jacobi) ** 8
    # the shift by q; at trace bound 0 nothing is left
    coeffs = {((k[0][0] + 2,),): v for k, v in p8.coeffs.items()
              if k[0][0] < 2 * trace_bound}
    return _trusted(1, trace_bound, coeffs, SCALAR, Fraction(12), 1)


# -- JSON serialization ----------------------------------------------------

_escape = json.encoder.encode_basestring_ascii


def json_text(obj):
    """obj as JSON text, exactly json.dumps(obj, sort_keys=True, indent=2):
    two-space indent, keys sorted, non-ASCII as \\u escapes (through the
    stdlib's own string escaper).  obj is built of dicts with str keys,
    lists, tuples, strs, ints, bools and None, not their subclasses;
    anything else is a TypeError.

    The stdlib writes indented JSON with one Python generator per nesting
    level and one chunk per token.  Here each container is one join, and
    a leaf array in an array, one of exact ints and strs (a matrix row),
    is formatted once per call for each depth and content, since rows
    repeat (a coset listing mod p has at most p^(2n) distinct rows).  The
    memo keeps the first tuple of each value, which is known again by one
    lookup and an identity test, any other array by one pass over its
    items, in the call that writes the array holding it."""
    return _json_text(obj, "\n", {})


def json_write(obj, opener):
    """Write json_text(obj) and a newline to the text handle that the
    context manager opener() gives.

    An iterator is written as the JSON array of its elements, one element
    at a time, so the array is never held whole: each element is
    formatted by _json_text, with one memo for the whole array, and the
    bytes are those of json_text(list(obj)).  Any other value is formatted
    whole before opener is called, so a value that cannot be written
    opens nothing."""
    if not isinstance(obj, Iterator):
        text = json_text(obj) + "\n"
        with opener() as handle:
            handle.write(text)
        return
    memo = {}
    with opener() as handle:
        start = "[\n  "
        for x in obj:
            handle.write(start + _json_text(x, "\n  ", memo))
            start = ",\n  "
        handle.write("[]\n" if start == "[\n  " else "\n]\n")


def _json_text(obj, newline, memo):
    """obj at the depth whose line break and indent is newline; memo maps
    a depth's newline to a dict from the items, as a tuple, of a leaf row
    in an array to (the first such tuple, its text).  Other arrays are
    type-checked first, since (False,) == (0,) and (1.0,) == (1,)."""
    kind = type(obj)
    if kind is str:
        return _escape(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = newline + "  "
        rows = memo.get(inner) or memo.setdefault(inner, {})
        deeper = inner + "  "
        items = []
        for x in obj:
            kind = type(x)
            if (kind is tuple or kind is list) and x:
                key = x if kind is tuple else tuple(x)
                try:
                    hit = rows.get(key)
                except TypeError:  # an unhashable item, so not a leaf
                    hit = None
                if hit is not None and hit[0] is x:  # never true of a list
                    items.append(hit[1])
                    continue
                for y in x:
                    if type(y) is not int and type(y) is not str:
                        break
                else:
                    if hit is None:
                        hit = rows[key] = (key, _leaf_text(x, inner, deeper))
                    items.append(hit[1])
                    continue
            items.append(_escape(x) if kind is str else int.__repr__(x) if kind is int
                         else _json_text(x, inner, memo))
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict:
        if not obj:
            return "{}"
        try:
            keys = sorted(obj)
        except TypeError:
            keys = obj
        for k in keys:
            if type(k) is not str:
                bad = next(k for k in obj if type(k) is not str)
                raise TypeError("JSON object keys must be str, not %s"
                                % type(bad).__name__)
        inner = newline + "  "
        items = []
        for k in keys:
            v = obj[k]  # a str or int value is written here, not by a call
            items.append(_escape(k) + ": " + (_escape(v) if type(v) is str else int.__repr__(v)
                                              if type(v) is int else _json_text(v, inner, memo)))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    raise TypeError("Object of type %s is not JSON serializable" % kind.__name__)


def _leaf_text(items, newline, inner):
    """A leaf array at the depth of newline, inner its items' indent."""
    return ("[" + inner + ("," + inner).join(
        [_escape(x) if type(x) is str else int.__repr__(x) for x in items])
        + newline + "]")


def _unique_keys(pairs):
    """A JSON object's (key, value) pairs as a dict; a repeated key is a
    ValueError naming it, not a silent last-wins overwrite."""
    out = dict(pairs)
    if len(out) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError("duplicate key %r in a JSON object" % key)
            seen.add(key)
    return out


def _no_constant(token):
    """Python reads NaN, Infinity and -Infinity; RFC 8259 has no such token."""
    raise ValueError("%s is not a JSON value" % token)


def json_parse(text):
    """The JSON value in text.  Duplicate object keys, the tokens NaN,
    Infinity and -Infinity, and nesting too deep for the parser are
    ValueErrors, like any other malformed input."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys, parse_constant=_no_constant)
    except RecursionError:
        raise ValueError("JSON document nested too deeply") from None


def json_fields(d, what, *fields):
    """The named fields of the JSON object d, in order.  A d that is not
    an object, or lacks a field, is a ValueError naming what d should be
    and the field."""
    if not isinstance(d, dict):
        raise ValueError("%s: expected a JSON object, got %s" % (what, type(d).__name__))
    out = []
    for field in fields:
        if field not in d:
            raise ValueError("%s object has no %r field" % (what, field))
        out.append(d[field])
    return out


def _shape_to_json(shape):
    if shape == SCALAR:
        return SCALAR
    return {"compound": shape[1]}


def _shape_from_json(obj):
    if obj == SCALAR:
        return SCALAR
    if isinstance(obj, dict) and set(obj) == {"compound"}:
        return ("compound", obj["compound"])
    raise ValueError('shape must be "scalar" or {"compound": r}, got %r' % (obj,))


def to_json_dict(f):
    """Schema: degree, trace_bound, shape, meta, and coeffs as a list of
    {"t2": the row tuples of 2T, "value": "a/b" | [["a/b", ...], ...]}
    sorted by (trace, entries)."""
    entries = []
    for k in f.support():
        v = f.coeffs[k]
        if f.shape == SCALAR:
            value = rational_to_str(v)
        else:
            value = [[rational_to_str(x) for x in row] for row in v]
        entries.append({"t2": k, "value": value})
    return {
        "degree": f.degree,
        "trace_bound": f.trace_bound,
        "shape": _shape_to_json(f.shape),
        "meta": {
            "weight": None if f.weight is None else rational_to_str(f.weight, "weight"),
            "level": f.level,
            "character": f.character,
        },
        "coeffs": entries,
    }


def from_json_dict(d):
    """The series of a document in to_json_dict's schema.  The constructor
    checks the metadata (degree, trace bound, shape, meta) before any entry
    is read; then each entry's t2 and value are read once, by the loop the
    constructor runs on its own keys and values, with rational_from_str
    for the values."""
    shape, degree, bound, entries = json_fields(
        d, "expansion", "shape", "degree", "trace_bound", "coeffs")
    shape = _shape_from_json(shape)
    if not isinstance(entries, list):
        raise ValueError("coeffs must be an array, got %r" % (entries,))
    meta = d.get("meta")
    if meta is None:
        meta = {}
    elif not isinstance(meta, dict):
        raise ValueError("meta must be an object or null, got %r" % (meta,))
    weight = meta.get("weight")
    f = FourierExpansion(
        degree, bound, None, shape,
        weight=None if weight is None else rational_from_str(weight, "weight"),
        level=meta.get("level"), character=meta.get("character"))
    f.coeffs = f._terms(
        (json_fields(entry, "coefficient entry", "t2", "value") for entry in entries),
        "t2", rational_from_str)
    return f


def dumps(f):
    return json_text(to_json_dict(f)) + "\n"


def loads(text):
    return from_json_dict(json_parse(text))
