"""Multidegrees and multigraded Hilbert functions of weighted ideals.

The multidegree of an ideal I in a coordinate space whose variables carry
nonzero torus weights is computed from the grevlex initial ideal: enumerate
the minimal primes of in(I) (coordinate subspaces), keep those of maximal
dimension, and sum multiplicity times the product of the weights of the
prime's variables.  The multiplicity of a minimal prime is the number of
standard monomials in its variables after setting all other variables to 1;
the restricted ideal is cofinite there, which certifies the enumeration is
finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .groebner import GroebnerBasis, groebner, saturate, ideals_equal
from .poly import GREVLEX, MultiPoly, TermOrder


class WeightAssignment:
    """Torus weights of the coordinates, with their linear-form images.

    `weights` maps each variable to a lattice weight (any hashable object
    exposing ``linear_form(names)`` returning a MultiPoly in the alpha
    variables, and ``is_zero()``).  Multidegree computations require every
    weight nonzero; the Hilbert bucketing accepts weight zero (e.g. the
    homogenizing variable of a projective cone).
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


@dataclass(frozen=True)
class MonomialIdealSummary:
    min_primes: tuple  # ((frozenset of variable names, multiplicity), ...)
    dimension: int


# -- monomial ideal combinatorics -------------------------------------------


def _minimalize(mons: Iterable[tuple]) -> list:
    mons = sorted(set(mons), key=lambda m: (sum(m), m))
    out = []
    for m in mons:
        if not any(all(x <= y for x, y in zip(g, m)) for g in out):
            out.append(m)
    return out


def _support(m: tuple) -> frozenset:
    return frozenset(i for i, e in enumerate(m) if e)


def minimal_primes(lead_monomials: Sequence[tuple]) -> list:
    """Minimal primes of a monomial ideal, as frozensets of variable indices."""
    gens = [_support(m) for m in _minimalize(lead_monomials)]
    covers: set = set()

    def extend(cover: frozenset, remaining: tuple):
        if not remaining:
            covers.add(cover)
            return
        head = remaining[0]
        if cover & head:
            extend(cover, remaining[1:])
            return
        for v in sorted(head):
            extend(cover | {v}, remaining[1:])

    extend(frozenset(), tuple(gens))
    minimal = []
    for c in sorted(covers, key=lambda s: (len(s), sorted(s))):
        if not any(other < c for other in covers):
            minimal.append(c)
    return minimal


def _restricted_ideal(lead_monomials: Sequence[tuple], prime: frozenset) -> list:
    """Set variables outside the prime to 1; returns monomials over sorted(prime)."""
    cols = sorted(prime)
    out = []
    for m in lead_monomials:
        out.append(tuple(m[i] for i in cols))
    return _minimalize([m for m in out if any(m)])


def _standard_monomial_count(gens: list, nvars: int) -> int:
    """Number of monomials outside a cofinite monomial ideal.

    Requires a pure power of every variable among the generators (the
    finiteness certificate); raises otherwise.
    """
    if nvars == 0:
        return 0 if any(not any(g) for g in gens) else 1
    bounds = [None] * nvars
    for g in gens:
        sup = [i for i, e in enumerate(g) if e]
        if len(sup) == 1:
            i = sup[0]
            if bounds[i] is None or g[i] < bounds[i]:
                bounds[i] = g[i]
    if any(b is None for b in bounds):
        raise ValueError("restricted ideal is not cofinite: no pure-power bound")

    def count(gens_, active):
        gens_ = _minimalize(gens_)
        if any(not any(g) for g in gens_):
            return 0
        if not active:
            return 1
        i = active[-1]
        total = 0
        for e in range(bounds[i]):
            sliced = []
            for g in gens_:
                if g[i] <= e:
                    sliced.append(tuple(0 if j == i else x for j, x in enumerate(g)))
            total += count(sliced, active[:-1])
        return total

    return count(list(gens), tuple(range(nvars)))


def monomial_ideal_summary(lead_monomials: Sequence[tuple], nvars: int) -> MonomialIdealSummary:
    lead = _minimalize(lead_monomials)
    if not lead:
        return MonomialIdealSummary(((frozenset(), 1),), nvars)
    primes = minimal_primes(lead)
    codim = min(len(p) for p in primes)
    rows = []
    for p in primes:
        restricted = _restricted_ideal(lead, p)
        mult = _standard_monomial_count(restricted, len(p))
        rows.append((p, mult))
    return MonomialIdealSummary(tuple(rows), nvars - codim)


# -- multidegree --------------------------------------------------------------


def _initial_ideal(gens: Sequence[MultiPoly], order: TermOrder) -> tuple:
    G = groebner(gens, order)
    if any(g.is_constant() for g in G.gens):
        raise ValueError("unit ideal has no multidegree")
    return G, [g.leading_monomial(order) for g in G.gens]


def multidegree(gens: Sequence[MultiPoly], w: WeightAssignment,
                order: TermOrder = GREVLEX) -> MultiPoly:
    """Torus-equivariant class of V(I) inside the weighted coordinate space."""
    w.check_nonzero()
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return MultiPoly.constant(w.alpha_names, 1)
    _, lead = _initial_ideal(gens, order)
    return multidegree_monomial(lead, w)


def multidegree_monomial(lead_monomials: Sequence[tuple], w: WeightAssignment) -> MultiPoly:
    nvars = len(w.variables)
    summary = monomial_ideal_summary(lead_monomials, nvars)
    codim = nvars - summary.dimension
    alpha = w.alpha_names
    total = MultiPoly.zero(alpha)
    for prime, mult in summary.min_primes:
        if len(prime) != codim:
            continue
        term = MultiPoly.constant(alpha, mult)
        for i in sorted(prime):
            term = term * w.form(w.variables[i])
        total = total + term
    return total


def dimension(gens: Sequence[MultiPoly], nvars: int | None = None,
              order: TermOrder = GREVLEX) -> int:
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        if nvars is None:
            raise ValueError("dimension of the zero ideal needs the ambient size")
        return nvars
    n = len(gens[0].variables)
    G, lead = _initial_ideal(gens, order)
    return monomial_ideal_summary(lead, n).dimension


# -- multigraded Hilbert function --------------------------------------------


def _degree_n_monomials(nvars: int, n: int):
    """Yield exponent tuples of total degree n (grevlex-agnostic order)."""
    mon = [0] * nvars

    def rec(i, left):
        if i == nvars - 1:
            mon[i] = left
            yield tuple(mon)
            mon[i] = 0
            return
        for e in range(left + 1):
            mon[i] = e
            yield from rec(i + 1, left - e)
            mon[i] = 0

    if nvars == 0:
        if n == 0:
            yield ()
        return
    yield from rec(0, n)


def multigraded_hilbert(gens: Sequence[MultiPoly], w: WeightAssignment, n: int,
                        hvar: str | None = None) -> dict:
    """Weight histogram of the degree-n standard monomials of in(I).

    I must be homogeneous in total degree.  When `hvar` names the
    homogenizing variable, the precondition (I : hvar^inf) == I is checked
    and the saturation is substituted if it fails.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        variables = w.variables
        lead = []
    else:
        for g in gens:
            if not g.is_homogeneous():
                raise ValueError("ideal is not homogeneous in total degree")
        variables = gens[0].variables
        if hvar is not None:
            u = MultiPoly.var(variables, hvar)
            sat = saturate(gens, u)
            if not ideals_equal(sat, gens):
                gens = sat
        G = groebner(gens, GREVLEX)
        if any(g.is_constant() for g in G.gens):
            raise ValueError("unit ideal")
        lead = G.leading_monomials()
    if tuple(variables) != w.variables:
        raise ValueError("weight assignment does not match the ring")
    nvars = len(variables)
    lead = _minimalize(lead)
    histogram: dict = {}
    for mon in _degree_n_monomials(nvars, n):
        if any(all(x <= y for x, y in zip(g, mon)) for g in lead):
            continue
        weight = None
        for e, v in zip(mon, variables):
            if not e:
                continue
            contrib = w.weights[v] * e
            weight = contrib if weight is None else weight + contrib
        if weight is None:
            weight = w.weights[variables[0]] * 0
        histogram[weight] = histogram.get(weight, 0) + 1
    return histogram
