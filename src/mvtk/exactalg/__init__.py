"""Exact commutative-algebra kernel: polynomials, Groebner bases, multidegrees.

Linear algebra over Q and F_p lives in the submodule `linalg`.
"""

from .poly import GREVLEX, LEX, MultiPoly, TermOrder, poly_ring
from .groebner import (
    GroebnerBasis,
    eliminate,
    groebner,
    homogenize,
    ideal_contains,
    ideals_equal,
    in_ideal,
    normal_form,
    saturate,
)
from .mdeg import (
    MonomialIdealSummary,
    WeightAssignment,
    dimension,
    minimal_primes,
    monomial_ideal_summary,
    multidegree,
    multidegree_monomial,
    multigraded_hilbert,
)

__all__ = [
    "GREVLEX",
    "LEX",
    "MultiPoly",
    "TermOrder",
    "poly_ring",
    "GroebnerBasis",
    "groebner",
    "normal_form",
    "in_ideal",
    "ideal_contains",
    "ideals_equal",
    "eliminate",
    "saturate",
    "homogenize",
    "WeightAssignment",
    "MonomialIdealSummary",
    "minimal_primes",
    "monomial_ideal_summary",
    "multidegree",
    "multidegree_monomial",
    "multigraded_hilbert",
    "dimension",
]
