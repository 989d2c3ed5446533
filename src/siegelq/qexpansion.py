"""Truncated generalized q-expansions sum_T a(T) q^T.

Coefficients live in Q (Fraction); keys are doubled index matrices 2T as
produced by halfint.  An expansion of degree n with trace bound N stores
exactly the coefficients with trace(T) <= N, zeros omitted.  Since traces
add under matrix addition, products of expansions are exact up to the
minimum of the two bounds, which is the bound every binary operation
returns.

Values are scalars, or square blocks of size comb(n, r) for the image of
an order-r minor theta operator; the shape field is "scalar" or
("compound", r).  All arithmetic is on scalar series: a block result is
computed as scalar entry series, which one function, _blocks, assembles.

Keys are checked once, at the boundary.  FourierExpansion(...) is for
outside input (JSON, user code, constant, zero, eisenstein): it checks
every key (2T integral, symmetric, even diagonal, of the degree, within
the bound, positive semidefinite) and the metadata, takes int or
Fraction values and drops zeros.  A series computed from valid series (the
ring operations, theta_operator, rankin_cohen, theta series) is wrapped
by the private _trusted without checks; each such builder stores only
nonzero Fraction values and blocks that are not all zero.

A product of scalar series runs one pair loop over Python ints; a block
times a scalar is C(n, r)^2 such products, one per entry.  Each operand's
values are scaled to integer numerators over one common denominator, the
lcm of its value denominators.  Each key 2T is coded as one int: the
signed digits of its upper triangle in base 4N + 1, N the product's trace
bound.  For T >= 0 with trace(T) <= N, the diagonal of 2T lies in
[0, 2N] and |2T_ij| <= 2 sqrt(T_ii T_jj) <= N off it; a sum of two keys
whose traces add to at most N is such a key again.  So every digit stays
in [-2N, 2N], and the code of a sum is the sum of the codes.  Only the
output keys are decoded, once each.
"""

import json
import re
from collections.abc import Iterator
from fractions import Fraction
from math import comb, lcm
from operator import itemgetter

from .halfint import (
    HalfIntegralMatrix,
    as_rational,
    block_count,
    freeze,
    is_int,
    key_sort,
    key_trace,
    zero_matrix,
)

SCALAR = "scalar"


def rational_to_str(x):
    f = Fraction(x)
    return "%d/%d" % (f.numerator, f.denominator)


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def rational_from_str(s):
    """Parse 'a/b' or a plain integer string.  Anything else, including
    decimals, exponents and non-strings, is a ValueError; a zero
    denominator raises ZeroDivisionError."""
    if not isinstance(s, str) or not _RATIONAL.fullmatch(s):
        raise ValueError("rational must be a 'num/den' or integer string, got %r" % (s,))
    return Fraction(s)


def _normalize_shape(shape, degree):
    if shape == SCALAR:
        return shape
    if (
        isinstance(shape, tuple)
        and len(shape) == 2
        and shape[0] == "compound"
        and is_int(shape[1])
        and 1 <= shape[1] <= degree
    ):
        return shape
    raise ValueError("shape must be 'scalar' or ('compound', r) with 1 <= r <= degree")


def _pack(digits, base):
    """The int with the given signed digits in base, least significant
    first."""
    code = 0
    for d in reversed(digits):
        code = code * base + d
    return code


def _unpack(code, base, count):
    """The count signed digits of code in the odd base, least significant
    first, each in [-(base // 2), base // 2]; the inverse of _pack on such
    digits."""
    half = base // 2
    digits = []
    for _ in range(count):
        d = (code + half) % base - half
        digits.append(d)
        code = (code - d) // base
    return digits


def _numerators(f, bound, upper, key_base):
    """The terms of the scalar series f with trace at most bound as
    (trace, code of the key's entries at upper in key_base, integer
    numerator), sorted by trace, and the lcm of the value denominators."""
    terms = []
    for k, v in f.coeffs.items():
        t = key_trace(k)
        if t <= bound:
            terms.append((t, _pack([k[i][j] for i, j in upper], key_base), v))
    den = lcm(*(v.denominator for _, _, v in terms))
    terms.sort(key=itemgetter(0))
    return [(t, c, v.numerator * (den // v.denominator)) for t, c, v in terms], den


class FourierExpansion:
    """Exact truncated Fourier expansion over half-integral indices.

    Arithmetic (+, -, *, **) tracks trace bounds; metadata (weight, level,
    character) is informational, propagated when determined and dropped
    otherwise, and never takes part in equality."""

    __slots__ = ("degree", "trace_bound", "shape", "coeffs", "weight", "level", "character")

    def __init__(self, degree, trace_bound, coeffs=None, shape=SCALAR,
                 weight=None, level=None, character=None):
        if not is_int(degree) or degree < 1:
            raise ValueError("degree must be a positive integer")
        if not is_int(trace_bound) or trace_bound < 0:
            raise ValueError("trace bound must be a nonnegative integer")
        weight = None if weight is None else as_rational(weight, "weight")
        if not (level is None or is_int(level) and level >= 1):
            raise ValueError("level must be a positive integer, got %r" % (level,))
        if not (character is None or is_int(character) or isinstance(character, str)):
            raise ValueError("character must be null, an integer or a string, got %r"
                             % (character,))
        self.degree = degree
        self.trace_bound = trace_bound
        self.shape = _normalize_shape(shape, degree)
        self.weight = weight
        self.level = level
        self.character = character
        size = self.block_size
        stored = {}
        for key, value in (coeffs or {}).items():
            t = self._index(key)
            if not t.is_psd():
                raise ValueError("keys must be positive semidefinite")
            if self.shape == SCALAR:
                v = as_rational(value, "coefficient")
                if v == 0:
                    continue
            else:
                v = freeze([[as_rational(x, "coefficient") for x in row] for row in value])
                if len(v) != size:
                    raise ValueError("block size mismatch")
                if all(x == 0 for row in v for x in row):
                    continue
            stored[t.doubled] = v
        self.coeffs = stored

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

    def _index(self, key):
        """The key (2T as nested ints, or a HalfIntegralMatrix) as a
        HalfIntegralMatrix, checked to have this degree and trace within
        the bound."""
        t = key if isinstance(key, HalfIntegralMatrix) else HalfIntegralMatrix(key)
        if t.degree != self.degree:
            raise ValueError("key degree mismatch")
        if t.trace > self.trace_bound:
            raise ValueError("key beyond the trace bound")
        return t

    def coefficient(self, key):
        """Coefficient at T (doubled matrix, nested sequence of ints, or a
        HalfIntegralMatrix).  Asking beyond the trace bound is an error."""
        t = self._index(key).doubled
        if self.shape == SCALAR:
            return self.coeffs.get(t, Fraction(0))
        size = self.block_size
        return self.coeffs.get(t, ((Fraction(0),) * size,) * size)

    def truncate(self, new_bound):
        """Forget coefficients above new_bound (<= current bound)."""
        if not is_int(new_bound) or new_bound < 0:
            raise ValueError("trace bound must be a nonnegative integer")
        if new_bound > self.trace_bound:
            raise ValueError("cannot extend a truncated expansion")
        kept = {k: v for k, v in self.coeffs.items() if key_trace(k) <= new_bound}
        return _trusted(self.degree, new_bound, kept, self.shape,
                        self.weight, self.level, self.character)

    # -- ring operations ------------------------------------------------

    def _require_compatible(self, other):
        if not isinstance(other, FourierExpansion):
            raise TypeError("expected a FourierExpansion")
        if other.degree != self.degree:
            raise ValueError("degree mismatch")

    def __add__(self, other):
        self._require_compatible(other)
        if other.shape != self.shape:
            raise ValueError("shape mismatch")
        bound = min(self.trace_bound, other.trace_bound)
        weight = self.weight if self.weight == other.weight else None
        level = self.level if self.level == other.level else None
        character = self.character if self.character == other.character else None
        if self.shape != SCALAR:
            sums = [[a + b for a, b in zip(*rows)]
                    for rows in zip(self._entries(), other._entries())]
            return _blocks(sums, self.shape, bound, weight, level, character)
        acc = {k: v for k, v in self.coeffs.items() if key_trace(k) <= bound}
        for k, v in other.coeffs.items():
            if key_trace(k) <= bound:
                acc[k] = acc.get(k, 0) + v
        coeffs = {k: v for k, v in acc.items() if v}
        return _trusted(self.degree, bound, coeffs, SCALAR, weight, level, character)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Multiply every coefficient by the rational c."""
        c = as_rational(c, "scale factor")
        if self.shape != SCALAR:
            return _blocks([[e.scale(c) for e in row] for row in self._entries()],
                           self.shape, self.trace_bound, self.weight, self.level,
                           self.character)
        coeffs = {k: c * v for k, v in self.coeffs.items()} if c else {}
        return _trusted(self.degree, self.trace_bound, coeffs, SCALAR,
                        self.weight, self.level, self.character)

    def __mul__(self, other):
        """The ring product, or the multiple by a rational.  A block-valued
        factor is multiplied entry by entry."""
        if not isinstance(other, FourierExpansion):
            return self.scale(other)
        self._require_compatible(other)
        if self.shape == SCALAR and other.shape == SCALAR:
            return self._convolve(other)
        if self.shape != SCALAR and other.shape != SCALAR:
            raise ValueError("cannot multiply two block-valued expansions")
        block, scalar = (self, other) if other.shape == SCALAR else (other, self)
        products = [[scalar._convolve(e) for e in row] for row in block._entries()]
        first = products[0][0]
        return _blocks(products, block.shape, first.trace_bound, first.weight,
                       first.level, None)

    def __rmul__(self, other):
        return self.scale(other)

    def _entries(self):
        """The entry series of a block series, with its bound and metadata."""
        size = self.block_size
        return [[_trusted(self.degree, self.trace_bound,
                          {k: v[i][j] for k, v in self.coeffs.items() if v[i][j]},
                          SCALAR, self.weight, self.level, self.character)
                 for j in range(size)] for i in range(size)]

    def _convolve(self, other):
        """The product of two scalar series, truncated at the smaller
        bound, by one pair loop over integer key codes and numerators (see
        the module docstring).  No character: for chi it would be chi^2."""
        bound = min(self.trace_bound, other.trace_bound)
        n = self.degree
        upper = [(i, j) for i in range(n) for j in range(i, n)]
        key_base = 4 * bound + 1
        left, f_den = _numerators(self, bound, upper, key_base)
        right, g_den = _numerators(other, bound, upper, key_base)
        acc = {}
        get = acc.get
        for ta, ca, na in left:
            room = bound - ta
            for tb, cb, nb in right:
                if tb > room:
                    break
                c = ca + cb
                acc[c] = get(c, 0) + na * nb
        den = f_den * g_den
        coeffs = {}
        for c, s in acc.items():
            if not s:
                continue
            key = [[0] * n for _ in range(n)]
            for (i, j), x in zip(upper, _unpack(c, key_base, len(upper))):
                key[i][j] = key[j][i] = x
            coeffs[tuple(map(tuple, key))] = Fraction(s, den)
        weight = None
        if self.weight is not None and other.weight is not None:
            weight = self.weight + other.weight
        level = self.level if self.level == other.level else None
        return _trusted(n, bound, coeffs, SCALAR, weight, level)

    def __pow__(self, exponent):
        """A new expansion, by square and multiply from the lowest set bit
        of exponent: bit_length - 1 squarings and popcount - 1 products.
        It has weight exponent * weight (or None), this level and no
        character; exponent 0 gives the constant 1."""
        if self.shape != SCALAR:
            raise ValueError("powers are defined for scalar expansions only")
        if not is_int(exponent) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if exponent == 0:
            return FourierExpansion.constant(
                1, self.degree, self.trace_bound,
                weight=0 if self.weight is not None else None,
                level=self.level)
        result = None
        base = self
        e = exponent
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                break
            base = base * base
        if result is self:
            result = _trusted(self.degree, self.trace_bound, dict(self.coeffs))
        result.weight = None if self.weight is None else exponent * self.weight
        result.level = self.level
        return result

    # -- index reparametrizations ----------------------------------------

    def u_p(self, p):
        """Coefficient extraction a(T) -> a(pT); the bound drops to N // p."""
        if not is_int(p) or p < 2:
            raise ValueError("p must be an integer >= 2")
        coeffs = {}
        for k, v in self.coeffs.items():
            if all(x % p == 0 for row in k for x in row):
                coeffs[tuple(tuple(x // p for x in row) for row in k)] = v
        return _trusted(self.degree, self.trace_bound // p, coeffs, self.shape,
                        self.weight, self.level, self.character)

    def dilate(self, c):
        """Substitution q^T -> q^(cT); the bound grows to c * N."""
        if not is_int(c) or c < 1:
            raise ValueError("dilation factor must be a positive integer")
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


def _blocks(entries, shape, bound, weight, level, character):
    """The ("compound", r) series whose entry (i, j) is the scalar series
    entries[i][j], a C(n, r) x C(n, r) array: a key is stored wherever some
    entry is nonzero.  The one place where scalar entries become blocks."""
    keys = dict.fromkeys(k for row in entries for e in row for k in e.coeffs)
    zero = Fraction(0)
    coeffs = {k: tuple(tuple(e.coeffs.get(k, zero) for e in row) for row in entries)
              for k in keys}
    return _trusted(entries[0][0].degree, bound, coeffs, shape,
                    weight, level, character)


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

_BERNOULLI = [Fraction(1)]


def bernoulli(n):
    """Bernoulli number B_n (B_1 = -1/2 convention), by the standard
    recurrence over exact rationals."""
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        s = sum(comb(m + 1, k) * _BERNOULLI[k] for k in range(m))
        _BERNOULLI.append(-s / (m + 1))
    return _BERNOULLI[n]


def divisor_power_sum(k, m):
    return sum(d ** k for d in range(1, m + 1) if m % d == 0)


def eisenstein(weight, trace_bound):
    """Degree-1 Eisenstein series E_k = 1 - (2k/B_k) sum sigma_{k-1}(m) q^m,
    for even weight k >= 4."""
    if not is_int(weight) or weight < 4 or weight % 2:
        raise ValueError("unsupported Eisenstein weight")
    c = Fraction(-2 * weight) / bernoulli(weight)
    coeffs = {((0,),): Fraction(1)}
    for m in range(1, trace_bound + 1):
        coeffs[((2 * m,),)] = c * divisor_power_sum(weight - 1, m)
    return FourierExpansion(1, trace_bound, coeffs, weight=weight, level=1)


def delta(trace_bound):
    """The degree-1 cusp form of weight 12, as (E4^3 - E6^2) / 1728."""
    e4 = eisenstein(4, trace_bound)
    e6 = eisenstein(6, trace_bound)
    out = (e4 ** 3 - e6 ** 2).scale(Fraction(1, 1728))
    out.weight = Fraction(12)
    out.level = 1
    return out


# -- JSON serialization ----------------------------------------------------

_escape = json.encoder.encode_basestring_ascii
_LEAF_TYPES = {int, str}
_STR_TYPE = {str}


def json_text(obj):
    """obj as JSON text, exactly json.dumps(obj, sort_keys=True, indent=2):
    two-space indent, keys sorted, non-ASCII as \\u escapes (through the
    stdlib's own string escaper).  obj is built of dicts with str keys,
    lists, tuples, strs, ints, bools and None, not their subclasses;
    anything else is a TypeError.

    The stdlib writes indented JSON with one Python generator per nesting
    level and one chunk per token.  Here each container is one join, and
    an array of ints and strs (a matrix row, a row of rationals) is
    formatted once per call for each depth and content, since rows repeat
    (a coset listing mod p has at most p^(2n) distinct rows)."""
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
    (newline, items) to the text of a leaf array."""
    kind = type(obj)
    if kind is str:
        return _escape(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        if set(map(type, obj)) <= _LEAF_TYPES:
            key = (newline, tuple(obj))
            text = memo.get(key)
            if text is None:
                inner = newline + "  "
                items = [_escape(x) if type(x) is str else int.__repr__(x)
                         for x in obj]
                text = memo[key] = (
                    "[" + inner + ("," + inner).join(items) + newline + "]")
            return text
        inner = newline + "  "
        items = [_json_text(x, inner, memo) for x in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict:
        if not obj:
            return "{}"
        if not set(map(type, obj)) <= _STR_TYPE:
            bad = next(k for k in obj if type(k) is not str)
            raise TypeError("JSON object keys must be str, not %s"
                            % type(bad).__name__)
        inner = newline + "  "
        items = [_escape(k) + ": " + _json_text(v, inner, memo)
                 for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    raise TypeError("Object of type %s is not JSON serializable" % kind.__name__)


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


def json_parse(text):
    """The JSON value in text.  Duplicate object keys and nesting too deep
    for the parser are ValueErrors, like any other malformed input."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("JSON document nested too deeply") from None


def json_int(x, field):
    """A JSON integer field as an int.  Non-integral numbers, strings and
    booleans are rejected, not truncated or coerced."""
    if not is_int(x):
        raise ValueError("%s must be an integer, got %r" % (field, x))
    return x


def json_fields(d, what, *fields):
    """The named fields of the JSON object d, in order.  A d that is not
    an object, or lacks a field, is a ValueError naming what d should be
    and the field."""
    if not isinstance(d, dict):
        raise ValueError("%s: expected a JSON object, got %s" % (what, type(d).__name__))
    for field in fields:
        if field not in d:
            raise ValueError("%s object has no %r field" % (what, field))
    return [d[field] for field in fields]


def json_rows(x, field):
    """A JSON array of arrays, else ValueError naming the field."""
    if not (isinstance(x, list) and all(isinstance(row, list) for row in x)):
        raise ValueError("%s must be an array of arrays, got %r" % (field, x))
    return x


def _shape_to_json(shape):
    if shape == SCALAR:
        return SCALAR
    return {"compound": shape[1]}


def _shape_from_json(obj):
    if obj == SCALAR:
        return SCALAR
    if isinstance(obj, dict) and set(obj) == {"compound"}:
        return ("compound", json_int(obj["compound"], "compound"))
    raise ValueError("bad shape field")


def to_json_dict(f):
    """Schema: degree, trace_bound, shape, meta, and coeffs as a list of
    {"t2": rows of 2T, "value": "a/b" | [["a/b", ...], ...]} sorted by
    (trace, entries)."""
    entries = []
    for k in f.support():
        v = f.coeffs[k]
        if f.shape == SCALAR:
            value = rational_to_str(v)
        else:
            value = [[rational_to_str(x) for x in row] for row in v]
        entries.append({"t2": [list(row) for row in k], "value": value})
    return {
        "degree": f.degree,
        "trace_bound": f.trace_bound,
        "shape": _shape_to_json(f.shape),
        "meta": {
            "weight": None if f.weight is None else rational_to_str(f.weight),
            "level": f.level,
            "character": f.character,
        },
        "coeffs": entries,
    }


def from_json_dict(d):
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
    level = meta.get("level")
    character = meta.get("character")
    coeffs = {}
    for entry in entries:
        t2, value = json_fields(entry, "coefficient entry", "t2", "value")
        key = tuple(tuple(json_int(x, "t2 entry") for x in row)
                    for row in json_rows(t2, "t2"))
        if key in coeffs:
            raise ValueError("duplicate t2 %r" % (t2,))
        if shape == SCALAR:
            coeffs[key] = rational_from_str(value)
        else:
            coeffs[key] = [[rational_from_str(x) for x in row]
                           for row in json_rows(value, "block value")]
    return FourierExpansion(
        json_int(degree, "degree"), json_int(bound, "trace_bound"), coeffs, shape,
        weight=None if weight is None else rational_from_str(weight),
        level=level, character=character)


def dumps(f):
    return json_text(to_json_dict(f)) + "\n"


def loads(text):
    return from_json_dict(json_parse(text))
