"""One rule for matrix arguments: halfint.square_matrix.

Every public reader of a matrix accepts a non-empty list or tuple of
lists or tuples, each as long as the matrix, and rejects anything else
with one ValueError, "<name> must be a non-empty square array of arrays,
got <repr of the value>".  The table lists each reader as (call with the
matrix argument set to x, name in the message); the other arguments are
valid.  The JSON readers get the malformed matrix inside a document,
where it arrives as the same lists.  det, compound and mat_inverse also
take the empty matrix, with the values in EMPTY.
"""

from fractions import Fraction

import pytest

from siegelq import diffops, halfint, qexpansion, symplectic, theta
from siegelq.halfint import identity, square_matrix

A2 = theta.gram_a(2)
ZERO2 = ((0, 0), (0, 0))


def loads_with(entry, shape="scalar"):
    """loads of a degree-2 document with one more coefficient entry."""
    doc = qexpansion.to_json_dict(qexpansion.FourierExpansion(2, 1, shape=shape))
    doc["coeffs"].append(entry)
    return qexpansion.loads(qexpansion.json_text(doc))


TABLE = {
    "GramLattice": (theta.GramLattice, "Gram matrix"),
    "FourierExpansion.coefficient": (
        lambda x: qexpansion.FourierExpansion(2, 1).coefficient(x), "2T"),
    "FourierExpansion block value": (
        lambda x: qexpansion.FourierExpansion(2, 1, {ZERO2: x}, shape=("compound", 1)),
        "block value"),
    "SymplecticModP": (lambda x: symplectic.SymplecticModP(x, 3), "matrix"),
    "levi": (lambda x: symplectic.levi(x, 3), "matrix"),
    "unipotent": (lambda x: symplectic.unipotent(x, 3), "matrix"),
    "is_free_isometry": (lambda x: theta.is_free_isometry(A2, x, 3), "sigma"),
    "polarize_compound first": (
        lambda x: diffops.polarize_compound(x, identity(2), 1), "first matrix"),
    "polarize_compound second": (
        lambda x: diffops.polarize_compound(identity(2), x, 1), "second matrix"),
    "loads t2": (lambda x: loads_with({"t2": x, "value": "1"}), "t2"),
    "loads block value": (
        lambda x: loads_with({"t2": [[0, 0], [0, 0]], "value": x}, ("compound", 1)),
        "block value"),
    "gram_from_json": (lambda x: theta.gram_from_json({"gram": x}), "gram"),
    "det": (halfint.det, "matrix"),
    "compound": (lambda x: halfint.compound(x, 0), "matrix"),
    "mat_inverse mod p": (lambda x: halfint.mat_inverse(x, 3), "matrix"),
    "bareiss": (halfint.bareiss, "matrix"),
}
EMPTY = {"det": 1, "compound": ((1,),), "mat_inverse mod p": ()}

MALFORMED = ([[1, 0], [0]], [], 5, ["ab", "cd"])


@pytest.mark.parametrize("case", sorted(TABLE))
def test_malformed_matrix_named_in_message(case):
    call, name = TABLE[case]
    for x in MALFORMED:
        if case in EMPTY and x == []:
            assert call(x) == call(()) == EMPTY[case]
            continue
        with pytest.raises(ValueError) as info:
            call(x)
        assert str(info.value) == (
            "%s must be a non-empty square array of arrays, got %r" % (name, x))


def test_square_matrix():
    assert square_matrix([[1, 2], (3, 4)], "m") == ((1, 2), (3, 4))
    assert square_matrix(((5,),), "m") == ((5,),)
    # the entry rule converts each entry and names it after the matrix
    half = square_matrix([["1/2"]], "m", qexpansion.rational_from_str)
    assert half == ((Fraction(1, 2),),)
    with pytest.raises(ValueError, match=r"^m entry must be an integer, got 1\.5$"):
        square_matrix([[1, 1.5], [0, 1]], "m")
    for bad in ([[1, 2]], [[1], [2]], [[]], [(1, 2), "ab"], {0: [1]}, range(1)):
        with pytest.raises(ValueError, match=r"^m must be a non-empty square array"):
            square_matrix(bad, "m")


def test_exact_matrix_helpers():
    # det and compound take ints and Fractions only, mat_inverse (over F_p)
    # ints only, and a non-square matrix is refused, not answered
    for call in (halfint.det, lambda x: halfint.compound(x, 1)):
        with pytest.raises(ValueError, match=r"^matrix entry must be an integer or "
                                             r"a Fraction, got 1\.5$"):
            call([[1.5]])
        with pytest.raises(ValueError, match=r"^matrix must be a non-empty square"):
            call([[1, 2]])
    with pytest.raises(ValueError, match=r"^matrix entry must be an integer, got "):
        halfint.mat_inverse([[Fraction(1, 2)]], 3)
    # int input keeps an int result
    assert type(halfint.det([[2, 1], [1, 2]])) is int
    assert halfint.compound([[1, 2], [3, 4]], 1) == ((1, 2), (3, 4))
    assert halfint.det([[Fraction(1, 2)]]) == Fraction(1, 2)


def test_size_mismatch_names_both_matrices():
    with pytest.raises(ValueError) as info:
        theta.is_free_isometry(A2, [[1]], 3)
    assert str(info.value) == "sigma must be 2 x 2 like the Gram matrix, got 1 x 1"
    with pytest.raises(ValueError) as info:
        diffops.polarize_compound([[1]], identity(2), 1)
    assert str(info.value) == (
        "second matrix must be 1 x 1 like the first matrix, got 2 x 2")
