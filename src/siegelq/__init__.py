"""Exact arithmetic for truncated Fourier expansions of Siegel modular
forms: lattice theta series, minor theta operators, Rankin-Cohen brackets,
p-adic congruence verification, and symplectic coset systems mod p."""

from .halfint import (
    block_count,
    compound,
    enumerate_indices,
    subset_order,
)
from .qexpansion import FourierExpansion, delta, eisenstein
from .theta import (
    GramLattice,
    cycle_isometry,
    direct_sum,
    gram_a,
    is_free_isometry,
    rep_numbers,
)
from .diffops import (
    half_rising,
    leading_part,
    polarize_compound,
    rankin_cohen,
    theta_operator,
)
from .padic import (
    CongruenceReport,
    bracket_theta_congruence,
    congruent,
    frobenius_descent,
    limit_profile,
    unit_ladder,
    vp,
    vp_expansion,
)
from .symplectic import (
    CosetSystem,
    SymplecticModP,
    coset_count,
    coset_reps,
    gl_parabolic_reps,
    levi,
    partial_involution,
    same_coset,
    unipotent,
)

__all__ = [
    "block_count",
    "compound",
    "enumerate_indices",
    "subset_order",
    "FourierExpansion",
    "delta",
    "eisenstein",
    "GramLattice",
    "cycle_isometry",
    "direct_sum",
    "gram_a",
    "is_free_isometry",
    "rep_numbers",
    "half_rising",
    "leading_part",
    "polarize_compound",
    "rankin_cohen",
    "theta_operator",
    "CongruenceReport",
    "bracket_theta_congruence",
    "congruent",
    "frobenius_descent",
    "limit_profile",
    "unit_ladder",
    "vp",
    "vp_expansion",
    "CosetSystem",
    "SymplecticModP",
    "coset_count",
    "coset_reps",
    "gl_parabolic_reps",
    "levi",
    "partial_involution",
    "same_coset",
    "unipotent",
]

__version__ = "0.1.0"
