"""Exact commutative-algebra kernel: polynomials, Groebner bases, multidegrees.

Two monomial orders: grevlex, 0 as a GroebnerBasis's `block`, and the
elimination block order of `eliminate`.  Linear algebra over Q and F_p
lives in the submodule `linalg`.
"""

from .poly import MultiPoly, poly_ring
from .groebner import (
    GroebnerBasis,
    eliminate,
    groebner,
    homogenize,
    ideals_equal,
    normal_form,
    saturate,
)
from .mdeg import (
    HilbertNumerator,
    WeightAssignment,
    dimension,
    hilbert_numerator,
    multidegree,
    multigraded_hilbert,
)

__all__ = [
    "MultiPoly",
    "poly_ring",
    "GroebnerBasis",
    "groebner",
    "normal_form",
    "ideals_equal",
    "eliminate",
    "saturate",
    "homogenize",
    "WeightAssignment",
    "HilbertNumerator",
    "hilbert_numerator",
    "multidegree",
    "multigraded_hilbert",
    "dimension",
]
