"""One rule for integer arguments: halfint.require_int.

Every public function with an integer argument rejects a bool, a
non-integral number and each value just outside the argument's range
with one ValueError, "<name> must be ..., got <repr of the value>".  The
table lists each such argument as (call with the argument set to x,
name in the message, lowest and highest valid value, None where the
range is open); the other arguments are valid.
"""

import pytest

from siegelq import diffops, halfint, padic, qexpansion, symplectic, theta
from siegelq.halfint import PRIME_LIMIT, SIZE_LIMIT, identity, require_int

E4 = qexpansion.eisenstein(4, 2)
A2 = theta.gram_a(2)
P = (3, PRIME_LIMIT - 1)

TABLE = {
    "subset_order n": (lambda x: halfint.subset_order(x, 0), "n", 0, None),
    "subset_order r": (lambda x: halfint.subset_order(2, x), "r", 0, 2),
    "compound r": (lambda x: halfint.compound(identity(2), x), "r", 0, 2),
    "block_count degree": (lambda x: halfint.block_count(x, 0), "degree", 1, None),
    "block_count r": (lambda x: halfint.block_count(2, x), "r", 0, 2),
    "enumerate_indices degree": (
        lambda x: halfint.enumerate_indices(x, 1), "degree", 1, 4),
    "enumerate_indices trace_bound": (
        lambda x: halfint.enumerate_indices(1, x), "trace_bound", 0, None),
    "require_odd_prime p": (halfint.require_odd_prime, "p", *P),
    "mat_inverse entry": (
        lambda x: halfint.mat_inverse([[x]], 3), "matrix entry", None, None),
    "mat_inverse p": (lambda x: halfint.mat_inverse([[1]], x), "p", *P),
    "HalfIntegralMatrix entry": (
        lambda x: halfint.HalfIntegralMatrix([[x]]), "2T entry", None, None),
    "FourierExpansion degree": (
        lambda x: qexpansion.FourierExpansion(x, 1), "degree", 1, SIZE_LIMIT),
    "FourierExpansion trace_bound": (
        lambda x: qexpansion.FourierExpansion(1, x), "trace_bound", 0, None),
    "FourierExpansion level": (
        lambda x: qexpansion.FourierExpansion(1, 1, level=x), "level", 1, None),
    "FourierExpansion shape": (
        lambda x: qexpansion.FourierExpansion(2, 1, shape=("compound", x)),
        "compound", 1, 2),
    "coefficient key entry": (lambda x: E4.coefficient([[x]]), "2T entry", None, None),
    "truncate": (lambda x: E4.truncate(x), "new_bound", 0, 2),
    "pow": (lambda x: E4 ** x, "exponent", 0, None),
    "u_p": (lambda x: E4.u_p(x), "p", 2, None),
    "dilate": (lambda x: E4.dilate(x), "factor", 1, None),
    "eisenstein weight": (lambda x: qexpansion.eisenstein(x, 2), "weight", 4, None),
    "eisenstein trace_bound": (
        lambda x: qexpansion.eisenstein(4, x), "trace_bound", 0, None),
    "delta": (qexpansion.delta, "trace_bound", 0, None),
    "bernoulli": (qexpansion.bernoulli, "n", 0, None),
    "GramLattice entry": (lambda x: theta.GramLattice([[x]]), "Gram matrix entry",
                          None, None),
    "gram_a": (theta.gram_a, "rank", 1, SIZE_LIMIT),
    "cycle_isometry": (theta.cycle_isometry, "rank", 1, SIZE_LIMIT),
    "is_free_isometry p": (
        lambda x: theta.is_free_isometry(A2, theta.cycle_isometry(2), x), "p", *P),
    "is_free_isometry entry": (
        lambda x: theta.is_free_isometry(A2, [[x, 0], [0, 1]], 3), "sigma entry",
        None, None),
    "rep_numbers degree": (lambda x: theta.rep_numbers(A2, x, 1), "degree", 1, 3),
    "rep_numbers trace_bound": (
        lambda x: theta.rep_numbers(A2, 1, x), "trace_bound", 0, None),
    "gram_from_json entry": (
        lambda x: theta.gram_from_json({"gram": [[x]]}), "gram entry", None, None),
    "gram_from_json rank": (
        lambda x: theta.gram_from_json({"rank": x, "gram": [[2]]}), "rank",
        None, None),
    "half_rising": (lambda x: diffops.half_rising(1, x), "h", 0, None),
    "polarize_compound": (
        lambda x: diffops.polarize_compound(identity(2), identity(2), x),
        "minor_order", 1, 2),
    "BracketParams degree": (
        lambda x: diffops.BracketParams(x, 1, 4, 4), "degree", 1, None),
    "BracketParams minor_order": (
        lambda x: diffops.BracketParams(2, x, 4, 4), "minor_order", 1, 2),
    "theta_operator": (lambda x: diffops.theta_operator(E4, x), "minor_order", 1, 1),
    "vp": (lambda x: padic.vp(3, x), "p", *P),
    "vp_expansion": (lambda x: padic.vp_expansion(E4, x), "p", *P),
    "congruent p": (lambda x: padic.congruent(E4, E4, x, 1), "p", *P),
    "congruent m": (lambda x: padic.congruent(E4, E4, 3, x), "m", 1, None),
    "frobenius_descent": (lambda x: padic.frobenius_descent(E4, x), "p", *P),
    "unit_ladder k": (lambda x: padic.unit_ladder(E4, x, 1, 3), "k", 1, None),
    "unit_ladder i": (lambda x: padic.unit_ladder(E4, 1, x, 3), "i", 1, None),
    "unit_ladder p": (lambda x: padic.unit_ladder(E4, 1, 1, x), "p", *P),
    "limit_profile": (lambda x: padic.limit_profile([E4], E4, x), "p", *P),
    "bracket_theta_congruence p": (
        lambda x: padic.bracket_theta_congruence(E4, 4, x, 1, 1, 1), "p", *P),
    "bracket_theta_congruence m": (
        lambda x: padic.bracket_theta_congruence(E4, 4, 3, x, 1, 1), "m", 1, None),
    "bracket_theta_congruence r": (
        lambda x: padic.bracket_theta_congruence(E4, 4, 3, 1, x, 1),
        "minor_order", 1, 1),
    "bracket_theta_congruence m_dilate": (
        lambda x: padic.bracket_theta_congruence(E4, 4, 3, 1, 1, x),
        "m_dilate", 1, None),
    "SymplecticModP p": (lambda x: symplectic.SymplecticModP(identity(2), x), "p", *P),
    "SymplecticModP entry": (
        lambda x: symplectic.SymplecticModP([[x, 0], [0, 1]], 3), "matrix entry",
        None, None),
    "partial_involution n": (
        lambda x: symplectic.partial_involution(x, 0, 3), "degree", 1, SIZE_LIMIT),
    "partial_involution j": (
        lambda x: symplectic.partial_involution(2, x, 3), "cell", 0, 2),
    "partial_involution p": (
        lambda x: symplectic.partial_involution(1, 0, x), "p", *P),
    "levi entry": (lambda x: symplectic.levi([[x]], 3), "matrix entry", None, None),
    "levi p": (lambda x: symplectic.levi([[1]], x), "p", *P),
    "unipotent entry": (
        lambda x: symplectic.unipotent([[x]], 3), "matrix entry", None, None),
    "unipotent p": (lambda x: symplectic.unipotent([[1]], x), "p", *P),
    "gl_parabolic_reps n": (
        lambda x: symplectic.gl_parabolic_reps(x, 0, 3), "degree", 1, 3),
    "gl_parabolic_reps j": (
        lambda x: symplectic.gl_parabolic_reps(2, x, 3), "cell", 0, 2),
    "gl_parabolic_reps p": (
        lambda x: symplectic.gl_parabolic_reps(1, 0, x), "p", *P),
    "coset_reps n": (lambda x: symplectic.coset_reps(x, 3), "degree", 1, 3),
    "coset_reps p": (lambda x: symplectic.coset_reps(1, x), "p", *P),
    "coset_count n": (lambda x: symplectic.coset_count(x, 3), "degree", 1, 3),
    "coset_count p": (lambda x: symplectic.coset_count(1, x), "p", *P),
}


@pytest.mark.parametrize("case", sorted(TABLE))
def test_rejected_value_named_in_message(case):
    call, name, lo, hi = TABLE[case]
    bad = [True, 1.5]
    bad += [] if lo is None else [lo - 1]
    bad += [] if hi is None else [hi + 1]
    for x in bad:
        with pytest.raises(ValueError) as info:
            call(x)
        message = str(info.value)
        assert message.startswith(name + " must be "), message
        assert message.endswith(", got %r" % (x,)), message
    # the ends of the range pass the integer check (a later check may
    # still refuse them, as a composite p or an odd weight)
    for x in (lo, hi):
        if x is not None and x < 10 ** 6:
            try:
                call(x)
            except ValueError as exc:
                assert not str(exc).startswith(name + " must be an integer"), exc


def test_require_int_message():
    assert require_int(5, "k") == 5
    assert require_int(0, "k", 0) == 0
    assert require_int(3, "k", 1, 3) == 3
    for args, message in (
            ((False, "k"), "k must be an integer, got False"),
            (("7", "k", 0), "k must be an integer >= 0, got '7'"),
            ((-1, "k", 0), "k must be an integer >= 0, got -1"),
            ((4, "k", 1, 3), "k must be an integer in 1..3, got 4"),
            ((None, "level", 1), "level must be an integer >= 1, got None")):
        with pytest.raises(ValueError) as info:
            require_int(*args)
        assert str(info.value) == message


def test_free_isometry_prime_checked():
    # cycle_isometry(2) has order 3: it is no isometry of order 9
    with pytest.raises(ValueError, match="p must be an odd prime, got 9"):
        theta.is_free_isometry(A2, theta.cycle_isometry(2), 9)
    assert theta.is_free_isometry(A2, theta.cycle_isometry(2), 3)
