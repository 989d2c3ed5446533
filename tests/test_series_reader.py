"""One reader for series input: the checked FourierExpansion constructor
and from_json_dict share one term loop.

Each key is read once, by square_matrix, and checked symmetric with even
diagonal, of the degree, within the bound, not a repeat and positive
semidefinite; each value is read once, by as_rational (constructor) or
rational_from_str (document).  So a malformed key is refused the same way
by both, a valid document reads back the series it was written from, and
rational_from_str agrees with Fraction on every string it accepts.
"""

import json
import random
import sys
from fractions import Fraction
from math import comb

import pytest

from siegelq import halfint, qexpansion
from siegelq.halfint import HalfIntegralMatrix, enumerate_indices
from siegelq.qexpansion import (
    FourierExpansion,
    dumps,
    eisenstein,
    loads,
    rational_from_str,
    to_json_dict,
)

# (name, degree, trace bound, keys): each key list holds one malformed key,
# or a 2T given twice; the constructor gets tuples (a repeat as a tuple and
# a HalfIntegralMatrix, two dict keys), the document the same rows as lists
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


def as_lists(key):
    return [list(row) for row in key]


def document(degree, bound, keys):
    doc = to_json_dict(FourierExpansion(degree, bound))
    doc["coeffs"] = [{"t2": as_lists(k), "value": "1"} for k in keys]
    return json.dumps(doc)


@pytest.mark.parametrize("case", MALFORMED_KEYS, ids=[c[0] for c in MALFORMED_KEYS])
def test_constructor_and_reader_refuse_alike(case, monkeypatch):
    name, degree, bound, keys = case
    coeffs = dict.fromkeys(keys, 1)
    if len(keys) == 2:
        coeffs = {keys[0]: 1, HalfIntegralMatrix(keys[1]): 1}
    reads = []
    original = qexpansion.square_matrix

    def counting(rows, *args):
        reads.append(rows)
        return original(rows, *args)

    monkeypatch.setattr(qexpansion, "square_matrix", counting)
    with pytest.raises(ValueError) as built:
        FourierExpansion(degree, bound, coeffs)
    # the HalfIntegralMatrix of a repeat is not read again
    assert reads == [keys[0]]
    reads.clear()
    with pytest.raises(ValueError) as read:
        loads(document(degree, bound, keys))
    assert reads == [as_lists(k) for k in keys]
    # one message, with the key named as the caller's field and quoted as
    # the caller gave it (tuples or lists)
    assert same_text(str(read.value)) == same_text(str(built.value))


def same_text(message):
    """message with the key field named "key" and brackets as parentheses."""
    for old, new in (("t2", "key"), ("[", "("), ("]", ")"), (",)", ")")):
        message = message.replace(old, new)
    return message


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


def random_series(rng, degree, shape):
    bound = rng.randint(0, 3 if degree < 3 else 2)
    size = 1 if shape == "scalar" else comb(degree, shape[1])

    def value():
        return Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7]))

    coeffs = {}
    for t in enumerate_indices(degree, bound):
        if rng.random() < 0.7:
            coeffs[t.doubled] = (value() if shape == "scalar" else
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


def test_rational_from_str_refusals():
    with pytest.raises(ZeroDivisionError):
        rational_from_str("1/0", "value")
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
