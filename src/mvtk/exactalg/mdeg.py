"""Dimensions, multidegrees and multigraded Hilbert functions from K-polynomials.

All three are read off one invariant of the initial ideal J = in(I): the
K-polynomial of S/J, the numerator of H(S/J; t) = K(t) / prod_i (1 - t^{g_i})
when x_i has degree g_i.  `_k_polynomial` computes it with integer
coefficients by Bigatti's pivot algorithm (Bigatti 1997, *Computation of
Hilbert-Poincare series*, JPAA 119; Miller-Sturmfels, *Combinatorial
Commutative Algebra*, ch. 1-2).  With x the variable in most generators,

    K(J) = (1 - t^{g(x)}) K(J without its x-generators) + t^{g(x)} K(J : x),

down to generators with pairwise disjoint supports, where K is the product
of the factors (1 - t^{deg m}).  Each node adds its two children's
polynomials and drops zero coefficients, so terms cancel at every node.

Both keys are ints.  A monomial packs its exponents into fields of
max-exponent bits plus a guard bit, so g divides p exactly when
((p | guard) - g) keeps every guard bit, and a proper divisor is a smaller
int.  A grade c packs to sum_j c_j 2^{F j}: the map is additive, so a shift
or a leaf factor is one int addition, and it is injective on coordinates
below 2^{F-1} in size.  Every grade of K is the degree of the lcm of some
generators (Taylor's resolution), so |c_j| <= sum_i maxexp_i max_j |g_ij|,
which fixes F; grades are decoded once, at return.  Variables are graded
by (1, weight):

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
from math import comb, factorial, lcm
from typing import Mapping, Sequence

from .groebner import GroebnerBasis, groebner
from .poly import MultiPoly, _reduced


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


def _k_polynomial(gens: Sequence[tuple], grades: Sequence[tuple]) -> dict:
    """K-polynomial {grade: coefficient} of S/<gens>, x_i of degree grades[i]."""
    nvars, dims = len(grades), len(grades[0]) if grades else 0
    maxexp = [max((m[i] for m in gens), default=0) for i in range(nvars)]
    width = max(maxexp, default=0).bit_length() + 1  # exponent bits, then a guard bit
    low = (1 << width - 1) - 1
    fields = [low << width * i for i in range(nvars)]
    guard = sum(1 << width * i + width - 1 for i in range(nvars))
    bound = sum(e * max(map(abs, g), default=0) for e, g in zip(maxexp, grades))
    span = bound.bit_length() + 1  # |every coordinate of K| <= bound < 2^(span - 1)
    keys = [sum(c << span * j for j, c in enumerate(g)) for g in grades]

    def combine(poly, shift, step):
        """poly + t^shift (step - poly), updating poly; zero coefficients are dropped."""
        for k, c in poly.items():
            step[k] = step.get(k, 0) - c
        for k, c in step.items():
            c += poly.get(k + shift, 0)
            if c:
                poly[k + shift] = c
            else:
                poly.pop(k + shift, None)
        return poly

    def rec(gens):
        mins = []
        for m in sorted(set(gens)):  # a proper divisor is a smaller int
            p = m | guard
            if all((p - g) & guard != guard for g in mins):
                mins.append(m)
        if not mins:
            return {0: 1}
        if not mins[0]:
            return {}  # the unit ideal
        counts = [sum(1 for m in mins if m & f) for f in fields]
        x = max(range(nvars), key=counts.__getitem__)
        if counts[x] <= 1:
            # pairwise disjoint supports: K = prod (1 - t^{deg m})
            poly = {0: 1}
            for m in mins:
                d = 0
                for k in keys:
                    d += (m & low) * k
                    m >>= width
                combine(poly, d, {})
            return poly
        f, unit = fields[x], 1 << width * x
        # K(J) = (1 - t^g) K(J without its x-generators) + t^g K(J : x)
        return combine(rec([m for m in mins if not m & f]), keys[x],
                       rec([m - unit if m & f else m for m in mins]))

    packed = [sum(e << width * i for i, e in enumerate(m)) for m in gens]
    half, out = 1 << span - 1, {}
    for k, c in rec(packed).items():
        grade = []
        for _ in range(dims):
            grade.append(((k + half) & (2 * half - 1)) - half)
            k = (k - grade[-1]) >> span
        out[tuple(grade)] = c
    return out


def _codim(k_poly: dict) -> int:
    """Order of vanishing of K at t = 1, on its total-degree projection."""
    by_degree: dict = {}
    for grade, c in k_poly.items():
        by_degree[grade[0]] = by_degree.get(grade[0], 0) + c
    k = 0  # the k-th Taylor coefficient at 1 is sum_d c_d * binom(d, k)
    while not sum(c * comb(d, k) for d, c in by_degree.items()):
        k += 1
    return k


def _initial_ideal(gens: Sequence[MultiPoly] | GroebnerBasis, what: str) -> tuple:
    G = groebner(gens)
    if any(g.is_constant() for g in G.gens):
        raise ValueError(f"unit ideal has no {what}")
    return G, G.leading_monomials()


def multidegree(gens: Sequence[MultiPoly] | GroebnerBasis, w: WeightAssignment) -> MultiPoly:
    """Torus-equivariant class of V(I) inside the weighted coordinate space."""
    w.check_nonzero()
    _, lead = _initial_ideal(gens, "multidegree")
    if not w.variables:
        return MultiPoly.constant(w.alpha_names, 1)  # K = 1, codimension 0: a point
    k_poly = _k_polynomial(lead, w.grades())
    c = _codim(k_poly)
    by_weight: dict = {}
    for (_, *beta), coef in k_poly.items():
        by_weight[tuple(beta)] = by_weight.get(tuple(beta), 0) + coef
    forms = [(w.weight(beta).linear_form(w.alpha_names), coef) for beta, coef in by_weight.items()]
    e = lcm(*(f.d for f, _ in forms))  # every form as ints over e
    total: dict = {}
    for f, coef in forms:
        coords = [0] * len(w.alpha_names)
        for m, a in f.ints.items():
            coords[m.index(1)] = a * (e // f.d)
        for mon, v in _form_power(coords, c).items():
            total[mon] = total.get(mon, 0) + coef * v
    # mdeg = ((-1)^c / c!) * total / e^c
    total = {mon: -v if c % 2 else v for mon, v in total.items() if v}
    return MultiPoly._make(w.alpha_names, *_reduced(factorial(c) * e**c, total))


def _form_power(coords: list, c: int) -> dict:
    """(sum_j coords[j] x_j)^c as {exponent tuple: nonzero int}, by the multinomial theorem:
    x_j takes k of the degree left by x_0..x_{j-1}, with factor C(left, k) coords[j]^k."""
    out, last = {(): 1}, len(coords) - 1
    for j, a in enumerate(coords):
        out = {e + (k,): v * comb(left, k) * a**k for e, v in out.items() for left in (c - sum(e),)
               for k in ((left,) if j == last else range(left + 1) if a else (0,))}
    return {e: v for e, v in out.items() if v}


def dimension(gens: Sequence[MultiPoly] | GroebnerBasis, nvars: int | None = None) -> int:
    """Krull dimension of S/I; `nvars` sizes the zero ideal's ring and must match any other's."""
    G, lead = _initial_ideal(gens, "dimension")
    if not G.gens:
        if nvars is None:
            raise ValueError("dimension of the zero ideal needs the ambient size")
        return nvars
    if nvars not in (None, n := len(G.variables)):
        raise ValueError(f"nvars = {nvars}, but the ideal lives in {n} variables")
    return n - _codim(_k_polynomial(lead, [(1,)] * n))


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
    G, lead = _initial_ideal(gens, "Hilbert numerator")
    if any(not g.is_homogeneous() for g in G.gens):
        raise ValueError("ideal is not homogeneous in total degree")
    if G.gens and G.variables != w.variables:
        raise ValueError("weight assignment does not match the ring")
    return HilbertNumerator(w.grades(), _k_polynomial(lead, w.grades()))


def multigraded_hilbert(gens: Sequence[MultiPoly] | GroebnerBasis | HilbertNumerator,
                        w: WeightAssignment, n: int) -> dict:
    """Weight histogram of the degree-n standard monomials of in(I).

    Takes the ideal, or its `hilbert_numerator` under the same weights.
    """
    if not w.variables:
        raise ValueError("weight assignment has no variables, so no weight histogram")
    if type(n) is not int:
        raise TypeError(f"degree n = {n!r} is not an int")
    if n < 0:
        raise ValueError(f"degree n = {n} is negative")
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
