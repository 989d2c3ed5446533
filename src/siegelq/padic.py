"""p-adic valuations and congruences of Fourier expansions.

Valuations are exact integers (or +inf for zero); congruence F = G mod p^m
means every coefficient difference up to the shared trace bound has
valuation >= m, optionally shifted by the valuation of F itself
(normalized mode, which makes the relation scale-invariant).  Following
Serre, the differences are the coefficients of the ring's F - G: it
truncates to the shared bound and drops zero coefficients, so the report
reads the valuations of the terms F - G stores, in (trace, entries)
order; G must have the degree and shape of F.  The prime is checked once
per call, not per coefficient.

The module also carries the two constructive congruence pipelines: the
Frobenius descent (G^p)|U(p) = G mod p for p-integral G, and the bracket
congruence D(f, g) = c theta^[r] f modulo a prescribed p-power, g a
dilated power of the unit theta series theta_{A_{p-1}}^2; as the bracket
is linear in g and D(f, 1) = c theta^[r] f, it checks D(f, g - 1) = 0.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .diffops import BracketParams, _bracket_weights, rankin_cohen
from .halfint import SIZE_LIMIT, as_rational, require_instance, require_int, require_odd_prime
from .qexpansion import SCALAR, FourierExpansion, require_expansion
from .theta import gram_a, rep_numbers


def vp(x, p):
    """p-adic valuation of a rational: vp(p) = 1, vp(0) = +inf."""
    require_odd_prime(p)
    return _vp(as_rational(x, "value"), p)


def _vp(x, p):
    """vp of the Fraction x, p already checked."""
    if x == 0:
        return math.inf
    count = 0
    num = x.numerator
    while num % p == 0:
        num //= p
        count += 1
    den = x.denominator
    while den % p == 0:
        den //= p
        count -= 1
    return count


def valuation_to_json(v):
    """A valuation as JSON: the int itself, or "inf" for +inf."""
    return "inf" if v == math.inf else int(v)


def _valuations(f, p):
    """(key, valuation) for each stored coefficient of f in (trace,
    entries) order, a block valued by its least entry; p already
    checked."""
    for key in f.support():
        value = f.coeffs[key]
        if f.shape == SCALAR:
            yield key, _vp(value, p)
        else:
            yield key, min(_vp(x, p) for row in value for x in row)


def vp_expansion(f, p):
    """Minimum valuation over all stored coefficients (block entries
    included); +inf for the zero expansion."""
    require_odd_prime(p)
    require_expansion(f, "f")
    return min((v for _, v in _valuations(f, p)), default=math.inf)


@dataclass(frozen=True)
class CongruenceReport:
    """Outcome of a congruence check mod p^m up to a trace bound.

    min_valuation is the smallest valuation of a coefficient difference
    (math.inf when they all vanish), witness the first key in
    (trace, entries) order attaining it, bound the trace bound actually
    compared, normalized whether the threshold was shifted by vp(F)."""

    prime: int
    power: int
    holds: bool
    min_valuation: object
    witness: object
    bound: int
    normalized: bool

    def to_json_dict(self):
        return {
            "p": self.prime,
            "m": self.power,
            "holds": self.holds,
            "min_valuation": valuation_to_json(self.min_valuation),
            "witness_t2": (
                None if self.witness is None else [list(row) for row in self.witness]
            ),
            "bound": self.bound,
            "normalized": self.normalized,
        }


def congruent(f, g, p, m, normalized=False):
    """Check f = g mod p^m coefficientwise up to the shared trace bound.

    Plain mode requires vp(a_f(T) - a_g(T)) >= m for every T; normalized
    mode requires vp(a_f(T) - a_g(T)) >= m + vp_expansion(f) instead, so
    it is invariant under rescaling both sides.  A zero f in normalized
    mode sets the threshold to +inf, reachable only by g vanishing up to
    the bound as well."""
    require_odd_prime(p)
    require_int(m, "m", 1)
    require_instance(normalized, bool, "normalized")
    require_expansion(f, "f")
    diff = f - require_expansion(g, "g", f.degree, f.shape)
    bound = diff.trace_bound
    witness, best = min(_valuations(diff, p), key=itemgetter(1),
                        default=(None, math.inf))
    threshold = m
    if normalized:
        threshold = m + vp_expansion(f.truncate(bound), p)
    return CongruenceReport(
        prime=p, power=m, holds=best >= threshold,
        min_valuation=best, witness=witness, bound=bound,
        normalized=normalized)


def frobenius_descent(g, p):
    """(g^p)|U(p), congruent to g mod p for p-integral scalar g; U(p)
    drops the trace bound N of g to N // p, so a congruence against g is
    checked only that far.  (Raising to the p-th power puts every cross
    term of the multinomial in p Z, and U(p) picks the diagonal back
    out.)"""
    require_odd_prime(p)
    require_expansion(g, "g", shape=SCALAR)
    if vp_expansion(g, p) < 0:
        raise ValueError("expansion is not p-integral")
    return (g ** p).u_p(p)


def unit_ladder(base, k, i, p):
    """Product of the weight-k(p-1)p^j powers of a unit form for j < i:
    base ** (k (p^i - 1) / (p - 1)), tagged with weight k (p^i - 1).

    If base = 1 mod p and carries weight p - 1, each factor is = 1 mod p,
    and the whole ladder satisfies ladder^(p^(i-1)) = 1 mod p^i."""
    require_odd_prime(p)
    require_int(k, "k", 1)
    require_int(i, "i", 1)
    require_expansion(base, "base", shape=SCALAR)
    one = FourierExpansion.constant(1, base.degree, base.trace_bound)
    if not congruent(base, one, p, 1).holds:
        raise ValueError("base must be congruent to 1 mod p")
    exponent = k * (p ** i - 1) // (p - 1)
    out = base ** exponent
    out.weight = Fraction(k * (p ** i - 1))
    return out


def limit_profile(seq, target, p):
    """Valuation profile of a sequence against its target: entry m is the
    min_valuation of seq[m] - target up to the shared bound; seq is any
    iterable, read once.  A p-adically convergent sequence shows a profile
    increasing without bound."""
    require_odd_prime(p)
    seq = list(seq)
    if not seq:
        raise ValueError("empty sequence")
    return [congruent(member, target, p, 1).min_valuation for member in seq]


def bracket_theta_congruence(f, k, p, m, r, m_dilate):
    """Congruence D(f, g) = c theta^[r] f for g a dilated unit theta power.

    With F = theta_{A_{p-1}}^2, the square of the degree-n theta series of
    A_{p-1} (a unit form: F = 1 mod p, weight p - 1, level p), set

        g = (F ** p^(m-1)) dilated by p^(m_dilate - 1),
        l = (p - 1) p^(m-1)  (the weight of g),
        c = (-1)^r half_rising(l - (r-1)/2, r)  (the alpha = r weight).

    The report checks D(f, g) = c theta_operator(f, r) mod p^(m + vp(c)),
    up to f's trace bound, as D(f, g - 1) = 0: the bracket is linear in g,
    and at T2 = 0 only the alpha = r piece, compound(T1, r), survives, so
    D(f, 1) = c theta_operator(f, r).  F is built at bound
    ceil(N_f / p^(m_dilate - 1)), so the dilation covers N_f exactly;
    A_{p-1} needs p - 1 <= SIZE_LIMIT."""
    require_odd_prime(p)
    require_int(p, "p", 3, SIZE_LIMIT + 1)
    require_expansion(f, "f", shape=SCALAR)
    require_int(m, "m", 1)
    require_int(m_dilate, "m_dilate", 1)
    n = f.degree
    params = BracketParams(n, r, k, (p - 1) * p ** (m - 1))
    if vp_expansion(f, p) < 0:
        raise ValueError("expansion is not p-integral")
    dil = p ** (m_dilate - 1)
    base_bound = -(-f.trace_bound // dil)
    unit = rep_numbers(gram_a(p - 1), n, base_bound) ** 2
    one = FourierExpansion.constant(1, n, base_bound)
    if not congruent(unit, one, p, 1).holds:
        raise ValueError("theta series failed the unit congruence")
    diff = rankin_cohen(f, (unit ** (p ** (m - 1)) - one).dilate(dil), params)
    c = _bracket_weights(params)[r]
    if c == 0:
        raise ValueError("vanishing reference factor")
    zero = FourierExpansion.zero(n, diff.trace_bound, diff.shape)
    return congruent(diff, zero, p, m + vp(c, p))
