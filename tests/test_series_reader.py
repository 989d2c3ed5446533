"""One reader for series input: the checked FourierExpansion constructor
and from_json_dict share one term loop.

Each key is read once, by square_matrix, and checked symmetric with even
diagonal, of the degree and within the bound by one ordered pass,
halfint.series_key, then not a repeat and positive semidefinite; each
value is read once, by as_rational (constructor) or rational_from_str
(document), and a document entry's t2 and value are taken from it
directly.  So a malformed key is refused the same way by both, a valid
document reads back the series it was written from, and
rational_from_str agrees with Fraction on every string it accepts.
series_key is checked against the chain of checks it replaced
(even_symmetric, the degree, key_trace against the bound) on every small
matrix, and psd_rows's sign test of a 1 x 1 key against the elimination.
"""

import itertools
import json
import random
import sys
from fractions import Fraction
from math import comb

import pytest

from siegelq import halfint, qexpansion
from siegelq.diffops import rankin_cohen
from siegelq.halfint import enumerate_indices
from siegelq.qexpansion import (
    FourierExpansion,
    dumps,
    eisenstein,
    json_text,
    loads,
    rational_from_str,
    to_json_dict,
)

# (name, degree, trace bound, keys): each key list holds one malformed key,
# or a 2T given twice; the constructor gets tuples, the document the same
# rows as lists.  A dict holds a 2T once, so only a document can repeat one.
MALFORMED_KEYS = [
    ("ragged", 2, 1, [((0, 0), (0,))]),
    ("bool entry", 1, 1, [((True,),)]),
    ("float entry", 1, 1, [((2.0,),)]),
    ("str entry", 1, 1, [(("2",),)]),
    ("asymmetric", 2, 2, [((2, 1), (0, 2))]),
    ("odd diagonal", 1, 1, [((1,),)]),
    ("not psd", 2, 3, [((2, 3), (3, 2))]),
    ("wrong degree", 1, 1, [((2, 0), (0, 2))]),
    ("past the bound", 1, 1, [((4,),)]),
    ("duplicate", 1, 2, [((2,),), ((2,),)]),
]

# (name, degree, trace bound, keys, message): a key with two faults is
# refused for the first in the documented order.  A repeated key that is
# not psd is refused at its first copy, so the reader never reads the
# second and the case is not one of MALFORMED_KEYS, which reads every key.
TWO_FAULTS = [
    ("bool entry, asymmetric", 2, 2, [((2, True), (0, 2))],
     "key entry must be an integer, got True"),
    ("odd diagonal, past the bound", 1, 1, [((5,),)], "key must have even diagonal"),
    ("wrong degree, not psd", 1, 1, [((2, 3), (3, 2))],
     "key degree mismatch: 2T ((2, 3), (3, 2)) has degree 2, the series 1"),
    ("duplicate, not psd", 2, 3, [((2, 3), (3, 2)), ((2, 3), (3, 2))],
     "keys must be positive semidefinite, got 2T ((2, 3), (3, 2))"),
]
MALFORMED_KEYS += [case[:4] for case in TWO_FAULTS[:3]]


def as_lists(key):
    return [list(row) for row in key]


def document(degree, bound, keys):
    doc = to_json_dict(FourierExpansion(degree, bound))
    doc["coeffs"] = [{"t2": as_lists(k), "value": "1"} for k in keys]
    return json.dumps(doc)


@pytest.mark.parametrize("case", MALFORMED_KEYS, ids=[c[0] for c in MALFORMED_KEYS])
def test_constructor_and_reader_refuse_alike(case, monkeypatch):
    name, degree, bound, keys = case
    reads = []
    original = qexpansion.square_matrix

    def counting(rows, *args):
        reads.append(rows)
        return original(rows, *args)

    monkeypatch.setattr(qexpansion, "square_matrix", counting)
    with pytest.raises(ValueError) as read:
        loads(document(degree, bound, keys))
    assert reads == [as_lists(k) for k in keys]
    if len(keys) == 2:
        assert str(read.value) == "duplicate t2 ((2,),)"
        return
    reads.clear()
    with pytest.raises(ValueError) as built:
        FourierExpansion(degree, bound, dict.fromkeys(keys, 1))
    assert reads == keys
    # one message, with the key named as the caller's field and quoted as
    # the caller gave it (tuples or lists)
    assert same_text(str(read.value)) == same_text(str(built.value))


def same_text(message):
    """message with the key field named "key" and brackets as parentheses."""
    for old, new in (("t2", "key"), ("[", "("), ("]", ")"), (",)", ")")):
        message = message.replace(old, new)
    return message


@pytest.mark.parametrize("case", TWO_FAULTS, ids=[c[0] for c in TWO_FAULTS])
def test_two_faults_give_the_first_message(case, monkeypatch):
    name, degree, bound, keys, message = case
    with pytest.raises(ValueError) as built:
        FourierExpansion(degree, bound, dict.fromkeys(keys, 1))
    assert str(built.value) == message
    reads = []
    original = qexpansion.square_matrix

    def counting(rows, *args):
        reads.append(rows)
        return original(rows, *args)

    monkeypatch.setattr(qexpansion, "square_matrix", counting)
    with pytest.raises(ValueError) as read:
        loads(document(degree, bound, keys))
    assert same_text(str(read.value)) == message
    assert reads == [as_lists(keys[0])]


def test_each_key_and_value_is_read_once(monkeypatch):
    text = dumps(eisenstein(4, 12))
    counts = {"square_matrix": 0, "rational_from_str": 0, "as_rational": 0}
    for name in counts:
        def counting(*args, name=name, original=getattr(qexpansion, name)):
            counts[name] += 1
            return original(*args)
        for module in (qexpansion, halfint):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    f = loads(text)
    # 13 keys and values read once each; the weight string is read, and
    # its Fraction checked by the constructor
    assert counts == {"square_matrix": 13, "rational_from_str": 14, "as_rational": 1}
    assert f == eisenstein(4, 12)


def chained_key_check(t, name, degree, bound):
    """The checks series_key replaced, one after another: even_symmetric,
    the degree and key_trace against the bound."""
    halfint.even_symmetric(t, name)
    if len(t) != degree:
        raise ValueError("key degree mismatch: 2T %r has degree %d, the series %d"
                         % (t, len(t), degree))
    trace = halfint.key_trace(t)
    if trace > bound:
        raise ValueError("key beyond the trace bound: 2T %r has trace %d > %d"
                         % (t, trace, bound))
    return t


def small_matrices():
    """Every 1 x 1 and 2 x 2 matrix with entries in -3..3, and a seeded
    sample of 3 x 3 ones."""
    entries = range(-3, 4)
    rng = random.Random(4001)
    for n in (1, 2):
        for flat in itertools.product(entries, repeat=n * n):
            yield tuple(flat[i:i + n] for i in range(0, n * n, n))
    for _ in range(3000):
        upper = [rng.choice(entries) for _ in range(6)]
        t = halfint.symmetric(3, upper)
        if rng.random() < 0.3:  # break the symmetry of some
            t = (t[0], (t[1][0] + 1,) + t[1][1:], t[2])
        yield t


def test_series_key_agrees_with_the_chain_it_replaced():
    outcomes = {}
    for t in small_matrices():
        for degree in (1, 2, 3):
            for bound in range(4):
                try:
                    want = chained_key_check(t, "t2", degree, bound)
                except ValueError as error:
                    with pytest.raises(ValueError) as got:
                        halfint.series_key(t, "t2", degree, bound)
                    assert str(got.value) == str(error)
                    outcome = str(error).split(":")[0]
                else:
                    assert halfint.series_key(t, "t2", degree, bound) is want
                    outcome = "accepted"
                outcomes[outcome] = outcomes.get(outcome, 0) + 1
    # every check is the first to refuse some keys, and some pass them all
    assert sorted(outcomes) == ["accepted", "key beyond the trace bound",
                                "key degree mismatch", "t2 must be symmetric",
                                "t2 must have even diagonal"]
    assert min(outcomes.values()) > 100


def test_psd_rows_decides_a_1x1_key_by_its_sign():
    # the 1 x 1 key (x) is psd iff diag(x, 0) and diag(x, 2) are, which
    # the elimination decides; a psd key's rows are the key itself
    for x in range(-6, 7):
        t = ((x,),)
        rows = halfint.psd_rows(t)
        for other in (0, 2):
            assert (rows is None) == (halfint.psd_rows(((x, 0), (0, other))) is None)
        assert rows is None if x < 0 else rows == t
    # a 1 x 2 augmented row is not a 1 x 1 key: adjugate still eliminates it
    assert halfint.adjugate(((6,),)) == (6, ((1,),))


def random_series(rng, degree, shape):
    bound = rng.randint(0, 3 if degree < 3 else 2)
    size = 1 if shape == "scalar" else comb(degree, shape[1])

    def value():
        return Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7]))

    coeffs = {}
    for t in enumerate_indices(degree, bound):
        if rng.random() < 0.7:
            coeffs[t] = (value() if shape == "scalar" else
                         [[value() for _ in range(size)] for _ in range(size)])
    return FourierExpansion(
        degree, bound, coeffs, shape,
        weight=rng.choice([None, Fraction(rng.randint(1, 20), rng.choice([1, 2]))]),
        level=rng.choice([None, rng.randint(1, 12)]),
        character=rng.choice([None, "chi_4", -4]))


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_round_trip_keeps_series_and_metadata(degree):
    rng = random.Random(220 + degree)
    shapes = ["scalar"] + [("compound", r) for r in range(1, degree + 1)]
    for _ in range(6):
        for shape in shapes:
            f = random_series(rng, degree, shape)
            back = loads(dumps(f))
            assert back == f
            assert (back.shape, back.weight, back.level, back.character) == (
                f.shape, f.weight, f.level, f.character)
            assert dumps(back) == dumps(f)


def random_rational_string(rng):
    def digits():
        return "0" * rng.randint(0, 3) + str(rng.randint(0, 10 ** rng.randint(1, 30)))

    text = rng.choice(["", "+", "-"]) + digits()
    if rng.random() < 0.6:
        den = digits()
        text += "/" + (den if int(den) else den + "1")
    return text


def test_rational_from_str_agrees_with_fraction():
    rng = random.Random(2207)
    strings = [random_rational_string(rng) for _ in range(500)]
    strings += ["+6/4", "-0", "0/5", "-06/004", "+0/1", "7", "-12/8"]
    for s in strings:
        got = rational_from_str(s, "value")
        assert type(got) is Fraction
        assert got == Fraction(s), s
        assert (got.numerator, got.denominator) == (Fraction(s).numerator,
                                                    Fraction(s).denominator)


def test_integer_strings_read_as_fraction_does():
    # the writer's "n/1" is read with no gcd step; the result is Fraction(s)
    limit = sys.get_int_max_str_digits()
    for s in ("-0/1", "+7/1", "0007/1", "3/01", "9" * limit + "/1"):
        got, want = rational_from_str(s, "value"), Fraction(s)
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_key_sort_is_trace_then_row_major_entries(degree):
    keys = enumerate_indices(degree, (8, 3, 2)[degree - 1])
    random.Random(degree).shuffle(keys)

    def row_major(key):
        return (sum(key[i][i] for i in range(degree)) // 2,
                tuple(x for row in key for x in row))

    assert sorted(keys, key=halfint.key_sort) == sorted(keys, key=row_major)


def primes(count):
    out = []
    n = 2
    while len(out) < count:
        if all(n % p for p in out):
            out.append(n)
        n += 1
    return out


def long_documents():
    """A degree-1 series at bound 200 with ~100-digit numerators over distinct
    prime denominators, and a degree-2 order-1 bracket (2 x 2 blocks) at bound 4."""
    rng = random.Random(340)
    wide = FourierExpansion(1, 200, {
        ((2 * t,),): Fraction(rng.choice((-1, 1)) * rng.randrange(10 ** 99, 10 ** 100), p)
        for t, p in enumerate(primes(201))}, weight=Fraction(7, 2), level=4)

    def integral():
        return FourierExpansion(2, 4, {t: rng.randint(-9, 9)
                                       for t in enumerate_indices(2, 4)})

    return [wide, rankin_cohen(integral(), integral(), 1, 4, 6)]


@pytest.mark.parametrize("f", long_documents(), ids=["degree 1", "degree 2 bracket"])
def test_long_documents_survive_a_byte_round_trip(f):
    text = dumps(f)
    assert len(f.coeffs) > 40
    assert dumps(loads(text)) == text
    assert loads(text) == f
    doc = to_json_dict(f)
    assert json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)


def test_rational_from_str_refusals():
    for s in ("1/0", "-7/000"):
        with pytest.raises(ZeroDivisionError) as info:
            rational_from_str(s, "value")
        assert str(info.value) == "value has a zero denominator, got %r" % s
    for s in ("1.5", " 3", "1_0", "٣", "1/-2", "", "/2", 3, None):
        with pytest.raises(ValueError) as info:
            rational_from_str(s, "value")
        assert str(info.value) == (
            "value must be a 'num/den' or integer string, got %r" % (s,))
    limit = sys.get_int_max_str_digits()
    over = "7" * (limit + 1)
    for s, part in ((over, "numerator"), ("-" + over + "/3", "numerator"),
                    ("3/" + over, "denominator")):
        with pytest.raises(ValueError) as info:
            rational_from_str(s, "value")
        assert str(info.value) == (
            "value: the %s has %d digits, more than the %d that Python converts "
            "between integers and strings" % (part, limit + 1, limit))
    # at the limit, with the sign and the other part making s longer
    at = "9" * limit
    assert rational_from_str("-" + at + "/" + at, "value") == -1
