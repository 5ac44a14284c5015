import random
from fractions import Fraction
from math import comb

import pytest

from mvtk.exactalg import (
    MultiPoly,
    WeightAssignment,
    dimension,
    groebner,
    hilbert_numerator,
    multidegree,
    multigraded_hilbert,
    poly_ring,
)
from mvtk.exactalg.mdeg import _form_power, _k_polynomial
from mvtk.exactalg.poly import _times_form
from mvtk.roota import Weight, alpha_names


def wa_for(names, m, roots):
    weights = {n: Weight.root(m, i, j) for n, (i, j) in zip(names, roots)}
    return WeightAssignment(names, weights, alpha_names(m))


def test_coordinate_hyperplane():
    vs, (x, y) = poly_ring(["x", "y"])
    w = wa_for(vs, 3, [(1, 2), (2, 3)])
    assert str(multidegree([x], w)) == "a1"


def test_two_components():
    vs, (x, y) = poly_ring(["x", "y"])
    w = wa_for(vs, 3, [(1, 2), (2, 3)])
    assert str(multidegree([x * y], w)) == "a1 + a2"


def test_multiplicity_two():
    vs, (x, y) = poly_ring(["x", "y"])
    w = wa_for(vs, 3, [(1, 2), (2, 3)])
    assert str(multidegree([x**2], w)) == "2*a1"


def test_summary_fields():
    # <x0*x1, x0*x2> = <x0> meet <x1, x2>: the plane x0 = 0 is the only
    # top component, the line x1 = x2 = 0 drops out of the class
    vs, (x0, x1, x2) = poly_ring(["x0", "x1", "x2"])
    w = wa_for(vs, 4, [(1, 2), (2, 3), (3, 4)])
    assert dimension([x0 * x1, x0 * x2]) == 2
    assert multidegree([x0 * x1, x0 * x2], w) == w.weights["x0"].linear_form(w.alpha_names)
    # the oracle below sees both components
    assert minimal_primes([(1, 1, 0), (1, 0, 1)]) == [frozenset([0]), frozenset([1, 2])]


def test_dimension_refuses_an_nvars_off_the_ring():
    # before, nvars was ignored for a nonzero ideal and this returned 2
    vs, (x0, x1, x2) = poly_ring(["x0", "x1", "x2"])
    assert dimension([x0], nvars=3) == 2
    with pytest.raises(ValueError, match="nvars = 5, but the ideal lives in 3 variables"):
        dimension([x0], nvars=5)
    assert dimension([MultiPoly.zero(vs)], nvars=5) == 5  # the zero ideal has no ring of its own


def test_dimension_of_the_unit_ideal_names_dimension():
    # before, the message was the multidegree's
    vs, (x, y) = poly_ring(["x", "y"])
    with pytest.raises(ValueError, match="^unit ideal has no dimension$"):
        dimension([x, x - 1])
    with pytest.raises(ValueError, match="^unit ideal has no multidegree$"):
        multidegree([x, x - 1], wa_for(vs, 3, [(1, 2), (2, 3)]))
    with pytest.raises(ValueError, match="^unit ideal has no Hilbert numerator$"):
        hilbert_numerator([x, x - 1], wa_for(vs, 3, [(1, 2), (2, 3)]))


def test_multidegree_of_weights_off_the_root_lattice():
    # eps_1 and eps_2 at m = 3 have alpha coordinates (2/3, 1/3) and (-1/3, 1/3):
    # the forms' coefficients are not integers, and the class is still their product
    vs, (x, y) = poly_ring(["x", "y"])
    w = WeightAssignment(vs, {"x": Weight.eps(3, 1), "y": Weight.eps(3, 2)}, alpha_names(3))
    fx, fy = (w.weights[v].linear_form(w.alpha_names) for v in vs)
    assert str(fx) == "2/3*a1 + 1/3*a2"
    assert multidegree([x, y], w) == fx * fy
    assert multidegree([x * y], w) == fx + fy
    assert multidegree([x**2 * y], w) == 2 * fx + fy


@pytest.mark.parametrize("coords", [
    [0, 0, 0], [3, 0, 0], [0, -2, 0], [1, 1, 1], [2, 0, -3], [1, -1, 2, 5], [-4, 7, 0, 1],
])
@pytest.mark.parametrize("c", [0, 1, 2, 5])
def test_form_power_matches_repeated_products(coords, c):
    # the multinomial expansion against c products by the form, zero terms dropped
    power = {(0,) * len(coords): 1}
    for _ in range(c):
        power = _times_form(power, tuple(coords))
    assert _form_power(coords, c) == {m: v for m, v in power.items() if v}


def _random_monomial_or_binomial_ideal(rng, names):
    gens = []
    for _ in range(rng.randint(1, 4)):
        mon1 = tuple(rng.randint(0, 2) for _ in names)
        if sum(mon1) == 0:
            continue
        if rng.random() < 0.5:
            gens.append(MultiPoly(names, {mon1: Fraction(1)}))
        else:
            mon2 = tuple(rng.randint(0, 2) for _ in names)
            if sum(mon2) == 0 or mon2 == mon1:
                gens.append(MultiPoly(names, {mon1: Fraction(1)}))
            else:
                gens.append(
                    MultiPoly(names, {mon1: Fraction(1), mon2: Fraction(-rng.randint(1, 2))})
                )
    return gens


# -- oracles: minimal primes, hyperplane splitting, enumeration ------------------
# Peeling a variable x off a monomial ideal J splits the class of V(J) into
# the parts inside and transverse to the hyperplane x = 0,
#
#     mdeg(J) = mdeg(J + (x)) + mdeg(J : x)
#
# where a summand only contributes when its codimension still equals
# codim(J), and the base case (a coordinate-subspace ideal) has multidegree
# equal to the product of its variables' weights.  The codimensions come from
# the minimal primes (coordinate subspaces) found by enumerating covers; the
# library reads both off the K-polynomial instead.


def _minimalize(mons):
    mons = sorted(set(mons), key=lambda m: (sum(m), m))
    out = []
    for m in mons:
        if not any(all(x <= y for x, y in zip(g, m)) for g in out):
            out.append(m)
    return out


def minimal_primes(lead_monomials):
    """Minimal primes of a monomial ideal, as frozensets of variable indices."""
    gens = [frozenset(i for i, e in enumerate(m) if e) for m in _minimalize(lead_monomials)]
    covers = set()

    def extend(cover, remaining):
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


def codim_by_minimal_primes(gens):
    if not gens:
        return 0
    return min(len(p) for p in minimal_primes(gens))


def multidegree_monomial_recursive(lead_monomials, w):
    """Oracle route: hyperplane splitting, filtered by codimension."""
    alpha = w.alpha_names
    nvars = len(w.variables)

    def rec(gens):
        gens = _minimalize(gens)
        if any(not any(g) for g in gens):
            raise ValueError("unit ideal has no multidegree")
        if not gens:
            return MultiPoly.constant(alpha, 1)
        if all(sum(g) == 1 for g in gens):
            term = MultiPoly.constant(alpha, 1)
            for g in gens:
                i = next(j for j, e in enumerate(g) if e)
                term = term * w.weights[w.variables[i]].linear_form(alpha)
            return term
        c = codim_by_minimal_primes(gens)
        # deterministic pivot: first variable occurring in a non-linear generator
        pivot = None
        for g in gens:
            if sum(g) > 1:
                pivot = next(j for j, e in enumerate(g) if e)
                break
        unit = tuple(1 if j == pivot else 0 for j in range(nvars))
        plus = _minimalize(list(gens) + [unit])
        colon = _minimalize(
            tuple(e - 1 if j == pivot and e else e for j, e in enumerate(g))
            for g in gens
        )
        total = MultiPoly.zero(alpha)
        if codim_by_minimal_primes(plus) == c:
            total = total + rec(plus)
        if colon and any(any(g) for g in colon):
            if codim_by_minimal_primes(colon) == c:
                total = total + rec(colon)
        else:
            # colon ideal became the whole ring: V(J:x) empty contribution
            pass
        return total

    return rec(list(lead_monomials))


def k_polynomial_top_down(gens, grades):
    """Oracle route: Bigatti's pivot recursion on exponent tuples, top down.

    K(J) = K(J + <x>) + t^{g(x)} K(J : x), the shift pushed down to the
    leaves, where generators with pairwise disjoint supports expand
    prod (1 - t^{deg m}) into one dict of grade tuples.  Same pivot as the
    library: the first variable in the most generators.
    """
    out = {}
    nvars = len(grades)
    zero = tuple(0 for _ in grades[0]) if grades else ()

    def rec(gens, shift):
        gens = _minimalize(gens)
        if gens and not any(gens[0]):
            return  # the unit ideal: K = 0
        counts = [sum(1 for m in gens if m[i]) for i in range(nvars)]
        x = max(range(nvars), key=counts.__getitem__, default=None)
        if x is None or counts[x] <= 1:
            poly = {shift: 1}
            for m in gens:
                d = zero
                for e, g in zip(m, grades):
                    d = tuple(a + e * b for a, b in zip(d, g))
                for k, c in list(poly.items()):
                    key = tuple(a + b for a, b in zip(k, d))
                    poly[key] = poly.get(key, 0) - c
            for k, c in poly.items():
                out[k] = out.get(k, 0) + c
            return
        unit = tuple(int(i == x) for i in range(nvars))
        rec([m for m in gens if not m[x]] + [unit], shift)
        rec([m[:x] + (m[x] - 1,) + m[x + 1:] if m[x] else m for m in gens],
            tuple(a + b for a, b in zip(shift, grades[x])))

    rec(list(gens), zero)
    return {k: c for k, c in out.items() if c}


def _degree_n_monomials(nvars, n):
    """Exponent tuples of total degree n."""
    if nvars == 0:
        return [()] if n == 0 else []
    if nvars == 1:
        return [(n,)]
    return [(e,) + rest for e in range(n + 1) for rest in _degree_n_monomials(nvars - 1, n - e)]


def hilbert_by_enumeration(lead_monomials, w, n):
    """Oracle route: test every degree-n monomial against the lead monomials."""
    lead = _minimalize(lead_monomials)
    histogram = {}
    for mon in _degree_n_monomials(len(w.variables), n):
        if any(all(x <= y for x, y in zip(g, mon)) for g in lead):
            continue
        weight = w.weights[w.variables[0]] * 0
        for e, v in zip(mon, w.variables):
            if e:
                weight = weight + w.weights[v] * e
        histogram[weight] = histogram.get(weight, 0) + 1
    return histogram


def test_order_independence_and_recursion_on_random_ideals():
    rng = random.Random(20240311)
    m = 7
    checked = 0
    while checked < 50:
        k = rng.randint(2, 6)
        names = tuple(f"x{i}" for i in range(k))
        roots = [(i + 1, rng.randint(i + 2, m)) for i in range(k)]
        w = wa_for(names, m, roots)
        gens = _random_monomial_or_binomial_ideal(rng, names)
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        G = groebner(gens)
        if any(g.is_constant() for g in G.gens):
            continue
        md_grevlex = multidegree(gens, w)
        lead = [g.leading_monomial() for g in G.gens]
        assert md_grevlex == multidegree_monomial_recursive(lead, w)
        # the initial ideal of a block order has the same multidegree
        lead_block = groebner(gens, 1).leading_monomials()
        assert md_grevlex == multidegree_monomial_recursive(lead_block, w)
        # homogeneous of degree = codim
        n = len(names)
        codim = n - dimension(gens)
        assert codim == codim_by_minimal_primes(lead)
        assert md_grevlex.is_homogeneous()
        assert md_grevlex.total_degree() == codim
        checked += 1


def test_hilbert_zero_ideal_binomial_counts():
    m = 4  # m+1 = 4 variables
    names = tuple(f"x{i}" for i in range(m))
    w = wa_for(names, 6, [(1, 2), (2, 3), (3, 4), (4, 5)])
    for n in range(11):
        hist = multigraded_hilbert([], w, n)
        assert sum(hist.values()) == comb(n + m - 1, m - 1)


def test_hilbert_respects_grading():
    names = ("x", "y")
    w = wa_for(names, 3, [(1, 2), (2, 3)])
    x = MultiPoly.var(names, "x")
    hist = multigraded_hilbert([x**2], w, 2)
    # standard monomials of degree 2: x*y, y^2
    assert sum(hist.values()) == 2
    assert hist[Weight.root(3, 1, 2) + Weight.root(3, 2, 3)] == 1
    assert hist[Weight.root(3, 2, 3) * 2] == 1


def test_hilbert_rejects_a_numerator_of_other_weights():
    names = ("x", "y")
    x = MultiPoly.var(names, "x")
    numerator = hilbert_numerator([x**2], wa_for(names, 3, [(1, 2), (2, 3)]))
    assert multigraded_hilbert(numerator, wa_for(names, 3, [(1, 2), (2, 3)]), 2)
    with pytest.raises(ValueError, match="other weights"):
        multigraded_hilbert(numerator, wa_for(names, 3, [(1, 3), (2, 3)]), 2)


def test_hilbert_refuses_a_negative_degree():
    # before, the layer list was empty and indexing it raised IndexError
    names = ("x", "y")
    w = wa_for(names, 3, [(1, 2), (2, 3)])
    numerator = hilbert_numerator([], w)
    for gens in ([], numerator):
        with pytest.raises(ValueError, match="n = -1 is negative"):
            multigraded_hilbert(gens, w, -1)
    assert multigraded_hilbert(numerator, w, 0) == {Weight.zero(3): 1}


def test_hilbert_refuses_a_degree_that_is_not_an_int():
    # before, True counted as n = 1 and 1.0 failed inside range()
    names = ("x", "y")
    w = wa_for(names, 3, [(1, 2), (2, 3)])
    for n in (True, 1.0):
        with pytest.raises(TypeError, match=f"degree n = {n!r} is not an int"):
            multigraded_hilbert([], w, n)


def test_hilbert_numerator_matches_enumeration_on_random_monomial_ideals():
    # seed 20261018, 40 ideals in 2..5 variables, every n in 0..4: the
    # K-polynomial DP against the enumeration oracle.  The last variable
    # has weight zero, like the homogenizing u of a projective cone; the
    # others draw positive roots with repetition, so weight buckets merge.
    rng = random.Random(20261018)
    m = 5
    cases = 0
    while cases < 40:
        k = rng.randint(2, 5)
        names = tuple(f"x{i}" for i in range(k))
        weights = {v: Weight.root(m, *sorted(rng.sample(range(1, m + 1), 2))) for v in names[:-1]}
        weights[names[-1]] = Weight.zero(m)
        w = WeightAssignment(names, weights, alpha_names(m))
        mons = set()
        for _ in range(rng.randint(1, 5)):
            mon = tuple(rng.randint(0, 2) for _ in names)
            if any(mon):
                mons.add(mon)
        if not mons:
            continue
        gens = [MultiPoly(names, {mon: Fraction(1)}) for mon in mons]
        for n in range(5):
            assert multigraded_hilbert(gens, w, n) == hilbert_by_enumeration(mons, w, n)
        cases += 1


def test_empty_weight_assignment_is_refused():
    # a ring with no variables has no weight to take the type of
    w = WeightAssignment((), {}, ("a1", "a2"))
    no_variables = "weight assignment has no variables, so no weight"
    with pytest.raises(ValueError, match=no_variables + " histogram"):
        multigraded_hilbert(groebner([]), w, 2)
    with pytest.raises(ValueError, match=no_variables + " type to build"):
        w.weight((0, 0, 0))


# -- the K-polynomial kernel against the top-down oracle -------------------------


def test_k_polynomial_matches_top_down_on_random_monomial_ideals():
    # seed 20261019, 40 ideals in 1..6 variables with exponents up to 4 and
    # grades of 1..4 coordinates in -3..3, zero grades included
    rng = random.Random(20261019)
    for _ in range(40):
        nvars, dims = rng.randint(1, 6), rng.randint(1, 4)
        grades = [tuple(rng.randint(-3, 3) for _ in range(dims)) for _ in range(nvars)]
        gens = [tuple(rng.randint(0, 4) for _ in range(nvars)) for _ in range(rng.randint(0, 7))]
        assert _k_polynomial(gens, grades) == k_polynomial_top_down(gens, grades)


@pytest.mark.parametrize("gens, grades", [
    # an exponent of 300 needs a 10-bit field
    ([(300, 1), (1, 3)], [(1, 2), (1, -1)]),
    ([(300, 1, 0), (0, 2, 257), (5, 0, 5)], [(1, 0), (1, 1), (1, -2)]),
    # grade coordinates of size 10^6
    ([(2, 1, 0), (0, 1, 1), (1, 0, 3)], [(1, 10**6, -(10**6)), (1, -(10**6), 1), (1, 0, 10**6)]),
    # a weight-zero variable, as the homogenizing u
    ([(1, 1, 0), (0, 2, 1), (1, 0, 2)], [(1, 1, 0), (1, 0, 1), (1, 0, 0)]),
    ([], [(1, 1), (1, 2)]),  # no generators: K = 1
    ([(0, 0), (1, 1)], [(1, 1), (1, 2)]),  # the unit ideal: K = 0
    ([], []),
    ([()], []),
    # the 1-dimensional grades of `dimension`
    ([(2, 1, 0, 0), (0, 1, 1, 0), (1, 0, 0, 3), (0, 0, 2, 2)], [(1,)] * 4),
])
def test_k_polynomial_packing_edges(gens, grades):
    assert _k_polynomial(gens, grades) == k_polynomial_top_down(gens, grades)


def test_k_polynomial_edge_values():
    assert _k_polynomial([], [(1, 1), (1, 2)]) == {(0, 0): 1}
    assert _k_polynomial([(0, 0), (1, 1)], [(1, 1), (1, 2)]) == {}
    assert _k_polynomial([(300, 1)], [(1, 2), (1, -1)]) == {(0, 0): 1, (301, 599): -1}


def test_hilbert_with_a_wide_exponent_matches_enumeration():
    names = ("x", "y")
    w = wa_for(names, 3, [(1, 2), (2, 3)])
    mons = [(300, 1), (1, 3)]
    gens = [MultiPoly(names, {mon: Fraction(1)}) for mon in mons]
    for n in (2, 3, 299, 300, 301, 302, 303):
        assert multigraded_hilbert(gens, w, n) == hilbert_by_enumeration(mons, w, n)
