"""One rule for arguments that must be an object of the package:
halfint.require_instance.

A lattice argument must be a GramLattice, congruent's normalized flag a
bool, same_coset's elements SymplecticModP and a series' coefficients a
dict; anything else is one TypeError, "<name>: expected a <class name>,
got <repr>", raised before any attribute of the argument is read.  The
table lists each reader as (call with the argument set to x, name in the
message, class name); the other arguments are valid.  A bracket's order
and weights are plain numbers, checked by require_int and as_rational.
"""

import pytest

from siegelq.halfint import require_instance
from siegelq.padic import congruent
from siegelq.qexpansion import FourierExpansion, eisenstein
from siegelq.symplectic import SymplecticModP, coset_reps, same_coset
from siegelq.theta import (
    GramLattice,
    cycle_isometry,
    direct_sum,
    gram_a,
    gram_to_json,
    is_free_isometry,
    rep_numbers,
)

E4 = eisenstein(4, 2)
A1 = gram_a(1)
M = SymplecticModP(next(iter(coset_reps(1, 3)))["mat"], 3)

TABLE = {
    "rep_numbers": (lambda x: rep_numbers(x, 2, 3), "lattice", "GramLattice"),
    "is_free_isometry": (
        lambda x: is_free_isometry(x, cycle_isometry(2), 3), "lattice", "GramLattice"),
    "gram_to_json": (gram_to_json, "lattice", "GramLattice"),
    "direct_sum a": (lambda x: direct_sum(x, A1), "a", "GramLattice"),
    "direct_sum b": (lambda x: direct_sum(A1, x), "b", "GramLattice"),
    "congruent": (lambda x: congruent(E4, E4, 5, 1, normalized=x), "normalized", "bool"),
    "same_coset m1": (lambda x: same_coset(x, M), "m1", "SymplecticModP"),
    "same_coset m2": (lambda x: same_coset(M, x), "m2", "SymplecticModP"),
    "FourierExpansion coeffs": (lambda x: FourierExpansion(1, 2, x), "coeffs", "dict"),
}


@pytest.mark.parametrize("case", sorted(TABLE))
def test_wrong_type_named_in_message(case):
    call, name, cls = TABLE[case]
    with pytest.raises(TypeError) as info:
        call(5)
    assert str(info.value) == "%s: expected a %s, got 5" % (name, cls)


def test_readers_accept_their_class():
    assert gram_to_json(A1) == {"rank": 1, "gram": [[2]]}
    assert direct_sum(A1, A1).gram == ((2, 0), (0, 2))
    assert is_free_isometry(gram_a(2), cycle_isometry(2), 3)
    assert rep_numbers(A1, 1, 1).coefficient(((2,),)) == 2
    assert congruent(E4, E4, 5, 1, normalized=True).normalized is True
    assert same_coset(M, M) is True
    assert FourierExpansion(1, 2, {((2,),): 3}).coefficient(((2,),)) == 3
    # an empty list is refused too, not read as no coefficients
    with pytest.raises(TypeError, match=r"^coeffs: expected a dict, got \[\]$"):
        FourierExpansion(1, 2, [])


def test_require_instance():
    assert require_instance(A1, GramLattice, "lattice") is A1
    assert require_instance(True, int, "flag") is True
    with pytest.raises(TypeError, match=r"^lattice: expected a GramLattice, got \[\[2\]\]$"):
        require_instance([[2]], GramLattice, "lattice")
    with pytest.raises(TypeError, match="^f: expected a FourierExpansion, got 5$"):
        require_instance(5, FourierExpansion, "f")
