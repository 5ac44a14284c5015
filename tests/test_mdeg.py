import random
from fractions import Fraction
from math import comb

from mvtk.exactalg import (
    GREVLEX,
    LEX,
    MultiPoly,
    WeightAssignment,
    dimension,
    groebner,
    minimal_primes,
    monomial_ideal_summary,
    multidegree,
    multidegree_monomial,
    multigraded_hilbert,
    poly_ring,
)
from mvtk.exactalg.mdeg import _minimalize
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
    s = monomial_ideal_summary([(1, 1, 0), (1, 0, 1)], 3)
    assert s.dimension == 2
    primes = dict(s.min_primes)
    assert frozenset([0]) in primes and primes[frozenset([0])] == 1
    assert frozenset([1, 2]) in primes


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


# -- recursive multidegree oracle ---------------------------------------------
# Peeling a variable x off a monomial ideal J splits the class of V(J) into
# the parts inside and transverse to the hyperplane x = 0,
#
#     mdeg(J) = mdeg(J + (x)) + mdeg(J : x)
#
# where a summand only contributes when its codimension still equals
# codim(J), and the base case (a coordinate-subspace ideal) has multidegree
# equal to the product of its variables' weights.  multidegree_monomial
# sums over the top-dimensional minimal primes instead.


def multidegree_monomial_recursive(lead_monomials, w):
    """Oracle route: hyperplane splitting, filtered by codimension."""
    alpha = w.alpha_names
    nvars = len(w.variables)

    def codim_of(gens):
        if not gens:
            return 0
        return min(len(p) for p in minimal_primes(gens))

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
                term = term * w.form(w.variables[i])
            return term
        c = codim_of(gens)
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
        if codim_of(plus) == c:
            total = total + rec(plus)
        if colon and any(any(g) for g in colon):
            if codim_of(colon) == c:
                total = total + rec(colon)
        else:
            # colon ideal became the whole ring: V(J:x) empty contribution
            pass
        return total

    return rec(list(lead_monomials))


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
        G = groebner(gens, GREVLEX)
        if any(g.is_constant() for g in G.gens):
            continue
        md_grevlex = multidegree(gens, w, GREVLEX)
        md_lex = multidegree(gens, w, LEX)
        assert md_grevlex == md_lex
        lead = [g.leading_monomial(GREVLEX) for g in G.gens]
        assert multidegree_monomial(lead, w) == multidegree_monomial_recursive(lead, w)
        # homogeneous of degree = codim
        n = len(names)
        codim = n - dimension(gens)
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
