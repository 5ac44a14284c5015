"""Dimensions, multidegrees and multigraded Hilbert functions from K-polynomials.

All three are read off one invariant of the initial ideal J = in(I): the
K-polynomial of S/J, the numerator of H(S/J; t) = K(t) / prod_i (1 - t^{g_i})
when x_i has degree g_i.  `_k_polynomial` computes it with integer
coefficients by Bigatti's pivot algorithm (Bigatti 1997, *Computation of
Hilbert-Poincare series*, JPAA 119; Miller-Sturmfels, *Combinatorial
Commutative Algebra*, ch. 1-2):

    K(J) = K(J + <x>) + t^{g(x)} K(J : x),

down to generators with pairwise disjoint supports, where K is the product
of the factors (1 - t^{deg m}).  Variables are graded by (1, weight):

- the codimension c of J is the order of vanishing of K at t = 1, read on
  the total-degree projection;
- substituting t^{(d, beta)} = exp(-<beta, alpha>) leaves a power series
  whose lowest terms, of degree c, are the multidegree (Miller-Sturmfels,
  ch. 8): mdeg(J) = ((-1)^c / c!) * sum_beta c_beta <beta, alpha>^c, where
  c_beta sums the coefficients of K of weight beta;
- the degree-n weight histogram is the degree-n part of
  K / prod_i (1 - t^{(1, w_i)}), taken by a DP over the variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import comb, factorial
from operator import add, mul
from typing import Mapping, Sequence

from .groebner import GroebnerBasis, groebner
from .poly import GREVLEX, MultiPoly, TermOrder


class WeightAssignment:
    """Torus weights of the coordinates, with their linear-form images.

    `weights` maps each variable to a lattice weight exposing
    ``linear_form(names)`` (a MultiPoly in the alpha variables),
    ``is_zero()``, and integer coordinates ``entries`` that add under ``+``
    and rebuild the weight through its constructor, as `roota.Weight` does.
    Multidegree computations require every weight nonzero; the Hilbert
    bucketing accepts weight zero (e.g. the homogenizing variable of a
    projective cone).
    """

    __slots__ = ("variables", "weights", "alpha_names")

    def __init__(self, variables, weights: Mapping, alpha_names):
        self.variables = tuple(variables)
        self.weights = dict(weights)
        self.alpha_names = tuple(alpha_names)
        for v in self.variables:
            if v not in self.weights:
                raise ValueError(f"no weight for variable {v!r}")

    def form(self, var: str) -> MultiPoly:
        return self.weights[var].linear_form(self.alpha_names)

    def check_nonzero(self):
        for v in self.variables:
            if self.weights[v].is_zero():
                raise ValueError(f"variable {v!r} has weight zero")

    def grades(self) -> tuple:
        """Per variable, its grade (1, weight entries)."""
        return tuple((1,) + tuple(self.weights[v].entries) for v in self.variables)

    def weight(self, entries):
        """The weight with the given entries."""
        if not self.variables:
            raise ValueError("weight assignment has no variables, so no weight type to build")
        return type(self.weights[self.variables[0]])(entries)


def _minimalize(mons) -> list:
    mons = sorted(set(mons), key=lambda m: (sum(m), m))
    out = []
    for m in mons:
        if not any(all(x <= y for x, y in zip(g, m)) for g in out):
            out.append(m)
    return out


def _k_polynomial(gens: Sequence[tuple], grades: Sequence[tuple]) -> dict:
    """K-polynomial {grade: coefficient} of S/<gens>, x_i of degree grades[i]."""
    out: dict = {}
    nvars = len(grades)
    zero = tuple(0 for _ in grades[0]) if grades else ()

    def rec(gens, shift):
        gens = _minimalize(gens)
        if gens and not any(gens[0]):
            return  # the unit ideal: K = 0
        counts = [sum(1 for m in gens if m[i]) for i in range(nvars)]
        x = max(range(nvars), key=counts.__getitem__, default=None)
        if x is None or counts[x] <= 1:
            # pairwise disjoint supports: K = prod (1 - t^{deg m})
            poly = {shift: 1}
            for m in gens:
                d = zero
                for e, g in zip(m, grades):
                    if e:
                        d = tuple(map(add, d, map(mul, repeat(e), g)))
                for k, c in list(poly.items()):
                    key = tuple(map(add, k, d))
                    poly[key] = poly.get(key, 0) - c
            for k, c in poly.items():
                out[k] = out.get(k, 0) + c
            return
        unit = tuple(int(i == x) for i in range(nvars))
        rec([m for m in gens if not m[x]] + [unit], shift)
        rec([m[:x] + (m[x] - 1,) + m[x + 1:] if m[x] else m for m in gens],
            tuple(map(add, shift, grades[x])))

    rec(list(gens), zero)
    return {k: c for k, c in out.items() if c}


def _codim(k_poly: dict) -> int:
    """Order of vanishing of K at t = 1, on its total-degree projection."""
    by_degree: dict = {}
    for grade, c in k_poly.items():
        by_degree[grade[0]] = by_degree.get(grade[0], 0) + c
    k = 0  # the k-th Taylor coefficient at 1 is sum_d c_d * binom(d, k)
    while not sum(c * comb(d, k) for d, c in by_degree.items()):
        k += 1
    return k


def _initial_ideal(gens: Sequence[MultiPoly] | GroebnerBasis, order: TermOrder) -> tuple:
    G = groebner(gens, order)
    if any(g.is_constant() for g in G.gens):
        raise ValueError("unit ideal has no multidegree")
    return G, G.leading_monomials()


def multidegree(gens: Sequence[MultiPoly] | GroebnerBasis, w: WeightAssignment,
                order: TermOrder = GREVLEX) -> MultiPoly:
    """Torus-equivariant class of V(I) inside the weighted coordinate space."""
    w.check_nonzero()
    _, lead = _initial_ideal(gens, order)
    if not w.variables:
        return MultiPoly.constant(w.alpha_names, 1)  # K = 1, codimension 0: a point
    k_poly = _k_polynomial(lead, w.grades())
    c = _codim(k_poly)
    by_weight: dict = {}
    for (_, *beta), coef in k_poly.items():
        by_weight[tuple(beta)] = by_weight.get(tuple(beta), 0) + coef
    total: dict = {}
    for beta, coef in by_weight.items():
        form = w.weight(beta).linear_form(w.alpha_names).terms
        # alpha_j -> its coefficient, a plain int on the root lattice
        form = {m.index(1): f.numerator if f.denominator == 1 else f for m, f in form.items()}
        power = {(0,) * len(w.alpha_names): coef}
        for _ in range(c):
            nxt: dict = {}
            for mon, v in power.items():
                for j, f in form.items():
                    key = mon[:j] + (mon[j] + 1,) + mon[j + 1:]
                    nxt[key] = nxt.get(key, 0) + v * f
            power = nxt
        for mon, v in power.items():
            total[mon] = total.get(mon, 0) + v
    scale = Fraction((-1) ** c, factorial(c))
    return MultiPoly(w.alpha_names, {mon: v * scale for mon, v in total.items() if v})


def dimension(gens: Sequence[MultiPoly] | GroebnerBasis, nvars: int | None = None,
              order: TermOrder = GREVLEX) -> int:
    G, lead = _initial_ideal(gens, order)
    if not G.gens:
        if nvars is None:
            raise ValueError("dimension of the zero ideal needs the ambient size")
        return nvars
    nvars = len(G.variables)
    return nvars - _codim(_k_polynomial(lead, [(1,)] * nvars))


@dataclass(frozen=True)
class HilbertNumerator:
    """The K-polynomial of S/in(I) under the grades of a WeightAssignment."""

    grades: tuple
    terms: dict  # grade -> nonzero integer coefficient


def hilbert_numerator(gens: Sequence[MultiPoly] | GroebnerBasis,
                      w: WeightAssignment) -> HilbertNumerator:
    """K-polynomial of S/in(I) graded by (degree, weight).

    I must be homogeneous in total degree, which holds exactly when its
    reduced grevlex basis is homogeneous.
    """
    G = groebner(gens, GREVLEX)
    if any(g.is_constant() for g in G.gens):
        raise ValueError("unit ideal")
    if any(not g.is_homogeneous() for g in G.gens):
        raise ValueError("ideal is not homogeneous in total degree")
    if G.gens and G.variables != w.variables:
        raise ValueError("weight assignment does not match the ring")
    return HilbertNumerator(w.grades(), _k_polynomial(G.leading_monomials(), w.grades()))


def multigraded_hilbert(gens: Sequence[MultiPoly] | GroebnerBasis | HilbertNumerator,
                        w: WeightAssignment, n: int) -> dict:
    """Weight histogram of the degree-n standard monomials of in(I).

    Takes the ideal, or its `hilbert_numerator` under the same weights.
    """
    if not w.variables:
        raise ValueError("weight assignment has no variables, so no weight histogram")
    k = gens if isinstance(gens, HilbertNumerator) else hilbert_numerator(gens, w)
    if k.grades != w.grades():
        raise ValueError("numerator was graded by other weights")
    # layers[d]: weight -> coefficient of degree d in K / prod (1 - t^{g_i})
    layers = [{} for _ in range(n + 1)]
    for (d, *beta), c in k.terms.items():
        if d <= n:
            layers[d][tuple(beta)] = c
    for _, *step in k.grades:
        for d in range(1, n + 1):
            layer = layers[d]
            for beta, c in layers[d - 1].items():
                key = tuple(x + y for x, y in zip(beta, step))
                layer[key] = layer.get(key, 0) + c
    return {w.weight(beta): c for beta, c in layers[n].items() if c}
