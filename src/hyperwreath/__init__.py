"""Exact symbolic computation in iterated wreath products of the integers.

The package realizes the group of layered integer-polynomial translations,
its Lie ring of partitions, the transfinite degree grading, the normalizer
chain growing out of the translation subgroup, and the parametric regular
abelian families, all in exact arithmetic.
"""

from .ordinals import OrdinalCNF, parse_ordinal, tdeg_of_monomial
from .partitions import (
    EMPTY,
    Partition,
    enumerate_partitions,
    sequences_abc,
)
from .polyring import Poly, parse_poly
from .wreath import (
    GroupElement,
    MonomialElement,
    comm,
    comm_formula,
    conjugate,
    leading_of_monomial_comm,
    parse_element,
    taylor_comm,
)
from .liering import LieElement, bracket, parse_lie, phi
from .chains import (
    ChainReport,
    SaturatedSet,
    center_membership,
    check_chain_step,
    enumerate_N,
    growth_counts,
    h_func,
    idealizes,
    lev,
    normalizes,
    r_func,
    saturated_closure,
    verify_growth,
    wdd,
)
from .regular import (
    RegularFamily,
    conjugate_family,
    is_abelian,
    is_normal_in_N0,
    make_family,
    membership_solve,
    orbit_injectivity,
)

__version__ = "0.1.0"

__all__ = [
    "OrdinalCNF",
    "Partition",
    "EMPTY",
    "Poly",
    "GroupElement",
    "MonomialElement",
    "LieElement",
    "SaturatedSet",
    "ChainReport",
    "RegularFamily",
    "tdeg_of_monomial",
    "enumerate_partitions",
    "sequences_abc",
    "comm",
    "comm_formula",
    "taylor_comm",
    "conjugate",
    "leading_of_monomial_comm",
    "bracket",
    "phi",
    "h_func",
    "r_func",
    "wdd",
    "lev",
    "enumerate_N",
    "growth_counts",
    "verify_growth",
    "saturated_closure",
    "normalizes",
    "idealizes",
    "center_membership",
    "check_chain_step",
    "make_family",
    "is_abelian",
    "is_normal_in_N0",
    "membership_solve",
    "orbit_injectivity",
    "conjugate_family",
    "parse_poly",
    "parse_element",
    "parse_lie",
    "parse_ordinal",
]
