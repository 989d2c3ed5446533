"""One rule for series arguments: qexpansion.require_expansion.

Every reader of a series argument accepts a FourierExpansion of the
degree and shape it needs and rejects anything else with one error that
names the argument.  Something that is not an expansion is a TypeError,
"<name>: expected a FourierExpansion, got <repr>"; an expansion of
another degree or shape is a ValueError, "<name>: expected a
FourierExpansion[ of degree d][ with shape s], got degree d' and shape
s'", naming only the bounds that reader sets.  The table lists each
reader as (call with the series argument set to x, name in the message,
degree it needs, shape it needs), None meaning any; the other arguments
are valid.  Each reader gets the three bad inputs that break its bounds:
5, a degree-2 series where degree 1 is due and a block where a scalar
is due.
"""

import pytest

from siegelq.diffops import leading_part, rankin_cohen, theta_operator
from siegelq.padic import (
    bracket_theta_congruence,
    congruent,
    frobenius_descent,
    limit_profile,
    unit_ladder,
    vp_expansion,
)
from siegelq.qexpansion import SCALAR, FourierExpansion, eisenstein, require_expansion

E4 = eisenstein(4, 2)
DEGREE_TWO = FourierExpansion.constant(1, 2, 2)
BLOCK = FourierExpansion(1, 2, {((2,),): [[1]]}, ("compound", 1))

TABLE = {
    "__add__": (lambda x: E4 + x, "other", 1, SCALAR),
    "__sub__": (lambda x: E4 - x, "other", 1, SCALAR),
    "__mul__": (lambda x: E4 * x, "other", 1, None),
    "__pow__": (lambda x: FourierExpansion.__pow__(x, 2), "base", None, SCALAR),
    "theta_operator": (lambda x: theta_operator(x, 1), "f", None, SCALAR),
    # f sets the degree that g must have
    "rankin_cohen f": (lambda x: rankin_cohen(x, E4, 1, 4, 4), "f", None, SCALAR),
    "rankin_cohen g": (lambda x: rankin_cohen(E4, x, 1, 4, 4), "g", 1, SCALAR),
    "leading_part f": (lambda x: leading_part(x, E4, 1, 4, 4), "f", None, SCALAR),
    "leading_part g": (lambda x: leading_part(E4, x, 1, 4, 4), "g", 1, SCALAR),
    "frobenius_descent": (lambda x: frobenius_descent(x, 3), "g", None, SCALAR),
    "bracket_theta_congruence": (
        lambda x: bracket_theta_congruence(x, 4, 3, 1, 1, 1), "f", None, SCALAR),
    "unit_ladder": (lambda x: unit_ladder(x, 1, 1, 3), "base", None, SCALAR),
    "vp_expansion": (lambda x: vp_expansion(x, 3), "f", None, None),
    "congruent f": (lambda x: congruent(x, E4, 3, 1), "f", None, None),
    "congruent g": (lambda x: congruent(E4, x, 3, 1), "g", 1, SCALAR),
    "limit_profile member": (lambda x: limit_profile([x], E4, 3), "f", None, None),
    "limit_profile target": (lambda x: limit_profile([E4], x, 3), "g", 1, SCALAR),
}
# a product with a non-series is the multiple by a rational, not an error
SCALES = {"__mul__"}
WANTED = {
    (1, SCALAR): " of degree 1 with shape 'scalar'",
    (1, None): " of degree 1",
    (None, SCALAR): " with shape 'scalar'",
}


@pytest.mark.parametrize("case", sorted(TABLE))
def test_bad_series_named_in_message(case):
    call, name, degree, shape = TABLE[case]
    if case not in SCALES:
        with pytest.raises(TypeError) as info:
            call(5)
        assert str(info.value) == "%s: expected a FourierExpansion, got 5" % name
    wanted = WANTED.get((degree, shape))
    if degree is not None:
        with pytest.raises(ValueError) as info:
            call(DEGREE_TWO)
        assert str(info.value) == (
            "%s: expected a FourierExpansion%s, got degree 2 and shape 'scalar'"
            % (name, wanted))
    if shape is not None:
        with pytest.raises(ValueError) as info:
            call(BLOCK)
        assert str(info.value) == (
            "%s: expected a FourierExpansion%s, got degree 1 and shape ('compound', 1)"
            % (name, wanted))


def test_every_reader_accepts_a_valid_series():
    for call, _, _, _ in TABLE.values():
        call(E4)


def test_require_expansion():
    assert require_expansion(E4, "f") is E4
    assert require_expansion(BLOCK, "f", 1, ("compound", 1)) is BLOCK
    assert require_expansion(DEGREE_TWO, "f", shape=SCALAR) is DEGREE_TWO
    with pytest.raises(ValueError) as info:
        require_expansion(E4, "g", 1, ("compound", 1))
    assert str(info.value) == ("g: expected a FourierExpansion of degree 1 with shape "
                               "('compound', 1), got degree 1 and shape 'scalar'")
    # the value quoted is the one given, not its negation
    with pytest.raises(TypeError) as info:
        E4 - 1
    assert str(info.value) == "other: expected a FourierExpansion, got 1"
    with pytest.raises(TypeError) as info:
        require_expansion([E4], "seq")
    assert str(info.value) == "seq: expected a FourierExpansion, got [%r]" % E4
