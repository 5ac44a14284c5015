import hashlib
import importlib
import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtk.exactalg import (
    GREVLEX,
    LEX,
    GroebnerBasis,
    MultiPoly,
    eliminate,
    groebner,
    homogenize,
    ideals_equal,
    in_ideal,
    normal_form,
    poly_ring,
    saturate,
)
from mvtk.exactalg.groebner import (
    _check_same_ring,
    _exact_poly_division,
    _extend_ring,
    _fresh_name,
)
from mvtk.orbital import Tableau, orbital_ideal, plucker_chart

A10 = tuple(f"a{k}" for k in range(1, 11))

# the rank-4 chart component: a5 and a10 vanish, three quadrics remain
A4_PRIME = ["a5", "a10", "a1*a6 + a2*a8", "a7*a8 - a6*a9", "a1*a7 + a2*a9"]


def a4_prime_gens():
    return [MultiPoly.parse(s, A10) for s in A4_PRIME]


def test_principal_ideal():
    vs, (x,) = poly_ring(["x"])
    G = groebner([x**2 - 1, x - 1], LEX)
    assert [str(g) for g in G] == ["x - 1"]


def test_zero_ideal():
    G = groebner([], GREVLEX)
    assert len(G) == 0


def test_normal_form_basics():
    vs, (x,) = poly_ring(["x"])
    G = groebner([x - 1], LEX)
    assert normal_form(x - 1, G).is_zero()
    G0 = groebner([], GREVLEX)
    assert normal_form(x, G0) == x


def test_normal_form_idempotent_and_membership():
    G = groebner(a4_prime_gens())
    vs = A10
    f = MultiPoly.parse("a9*a1*a6 + a9*a2*a8", vs)
    r = normal_form(f, G)
    assert r.is_zero()
    g = MultiPoly.parse("a1*a6", vs)
    r2 = normal_form(g, G)
    assert normal_form(r2, G) == r2
    assert not r2.is_zero()


def test_syzygy_of_the_chart_quadrics():
    # a9*(a1 a6 + a2 a8) - a6*(a1 a7 + a2 a9) + a2*(a7 a8 - a6 a9) reduces to 0
    vs = A10
    p = MultiPoly.parse(
        "a9*a1*a6 + a9*a2*a8 - a6*a1*a7 - a6*a2*a9 + a2*a7*a8 - a2*a6*a9", vs
    )
    assert not p.is_zero()
    assert normal_form(p, groebner(a4_prime_gens())).is_zero()


def test_groebner_idempotent():
    G = groebner(a4_prime_gens())
    G2 = groebner(list(G.gens))
    assert set(G.gens) == set(G2.gens)


def test_buchberger_textbook_example():
    vs, (x, y) = poly_ring(["x", "y"])
    G = groebner([x**2 - y, x**3 - x])
    # the ideal contains y^2 - y... membership checks
    assert in_ideal((x**2 - y) * y, G)
    assert in_ideal(x * (x**2 - y) - (x**3 - x), G)  # = x*y - x... sign
    assert not in_ideal(x, G)


# -- saturation oracle --------------------------------------------------------
# saturate eliminates one auxiliary variable; this oracle iterates ideal
# quotients until they stabilise and is called only by the tests.


def ideal_quotient(gens, f):
    """(I : f) via I cap (f) computed with one auxiliary variable."""
    gens = [g for g in gens if not g.is_zero()]
    variables = _check_same_ring(gens) or f.variables
    if not gens:
        return []
    aux = _fresh_name(variables, "zquo")
    new_vars, lifted = _extend_ring(gens, aux, front=True)
    t = MultiPoly.var(new_vars, aux)
    f_l = f.rename(new_vars)
    mixed = [t * g for g in lifted]
    mixed.append((MultiPoly.constant(new_vars, 1) - t) * f_l)
    inter = eliminate(mixed, (aux,))
    out = []
    for g in inter:
        g = g.restrict(variables) if g.variables != variables else g
        out.append(_exact_poly_division(g, f))
    return out


def _saturate_by_quotients(gens, f):
    current = list(gens)
    while True:
        nxt = ideal_quotient(current, f)
        if ideals_equal(current, nxt):
            return list(groebner(current).gens)
        current = nxt


def test_saturate_monomial():
    vs, (x, y) = poly_ring(["x", "y"])
    sat = saturate([x * y], x)
    assert ideals_equal(sat, [y])
    assert ideals_equal(sat, _saturate_by_quotients([x * y], x))
    sat2 = saturate([x**2], x)
    assert ideals_equal(sat2, [MultiPoly.constant(vs, 1)])
    assert ideals_equal(sat2, _saturate_by_quotients([x**2], x))


def test_saturate_rejects_zero():
    vs, (x, y) = poly_ring(["x", "y"])
    with pytest.raises(ValueError):
        saturate([x], MultiPoly.zero(vs))


def test_saturate_extracts_a4_component():
    # closure equations with the open-locus witnesses multiplied back in
    vs = A10
    closure = [
        MultiPoly.parse(s, vs)
        for s in [
            "a1*a5",
            "a5*a8",
            "a1*a6 + a2*a8",
            "a1*a7*a8 - a1*a6*a9",
            "a8*a10",
            "a1*a7 + a2*a9 + a3*a10",
            "a5*a9 + a6*a10",
        ]
    ]
    w = MultiPoly.parse("a1*a8", vs)
    sat = saturate(closure, w)
    assert ideals_equal(sat, a4_prime_gens())


def test_eliminate_basic():
    vs, (a, b) = poly_ring(["a", "b"])
    out = eliminate([b - a**2, a], ["a"])
    assert ideals_equal(out, [MultiPoly.parse("b", ("b",))])
    out2 = eliminate([MultiPoly.parse("y*x - 1", ("y", "x"))], ["y"])
    assert not out2.gens


def test_ideal_quotient():
    vs, (x, y) = poly_ring(["x", "y"])
    quo = ideal_quotient([x * y], x)
    assert ideals_equal(quo, [y])


def test_determinism():
    gens = a4_prime_gens()
    runs = [tuple(str(g) for g in groebner(gens).gens) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_random_membership_consistency():
    rng = random.Random(7)
    vs, xs = poly_ring(["x", "y", "z"])
    for _ in range(10):
        gens = []
        for _ in range(2):
            p = MultiPoly.zero(vs)
            for _ in range(3):
                mon = tuple(rng.randint(0, 2) for _ in range(3))
                p = p + MultiPoly(vs, {mon: Fraction(rng.randint(-3, 3))})
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        G = groebner(gens)
        combo = MultiPoly.zero(vs)
        for g in gens:
            mon = tuple(rng.randint(0, 1) for _ in range(3))
            combo = combo + g * MultiPoly(vs, {mon: Fraction(rng.randint(1, 2))})
        assert in_ideal(combo, G)


# -- exact division -----------------------------------------------------------
# The kernel pops the running lead from a heap; this oracle rescans for it at
# every step, shares no code with it and is called only by the tests.


def _ref_exact_poly_division(g, f):
    if g.is_zero():
        return g
    key = GREVLEX.key
    work = dict(g.terms)
    quo = {}
    lm_f = f.leading_monomial(GREVLEX)
    lc_f = f.terms[lm_f]
    while work:
        lm = max(work, key=key)
        if any(a > b for a, b in zip(lm_f, lm)):
            raise ArithmeticError("inexact polynomial division")
        shift = tuple(a - b for a, b in zip(lm, lm_f))
        c = work[lm] / lc_f
        quo[shift] = c
        for m, cf in f.terms.items():
            mm = tuple(a + b for a, b in zip(m, shift))
            v = work.get(mm, Fraction(0)) - c * cf
            if v:
                work[mm] = v
            else:
                work.pop(mm, None)
    return MultiPoly(g.variables, quo)


XYZ = ("x", "y", "z")
_DIV_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)
_COEFFS = st.fractions(min_value=-5, max_value=5, max_denominator=6)
_POLYS = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3), _COEFFS, max_size=6
).map(lambda terms: MultiPoly(XYZ, terms))
_NONZERO_POLYS = _POLYS.filter(lambda p: not p.is_zero())


@st.composite
def _primitive_linear(draw):
    coeffs = draw(st.tuples(*[st.integers(-4, 4)] * 3).filter(any))
    g = gcd(*coeffs)
    return MultiPoly(XYZ, {
        tuple(int(i == k) for i in range(3)): Fraction(c // g)
        for k, c in enumerate(coeffs) if c
    })


_DIVISORS = st.one_of(_primitive_linear(), _NONZERO_POLYS)


@_DIV_SETTINGS
@given(_DIVISORS, _POLYS)
def test_exact_division_recovers_the_quotient(f, q):
    g = f * q
    assert _exact_poly_division(g, f) == q
    assert _ref_exact_poly_division(g, f) == q


@_DIV_SETTINGS
@given(_DIVISORS, _POLYS, _NONZERO_POLYS)
def test_exact_division_fails_exactly_when_the_oracle_does(f, q, r):
    g = f * q + r
    try:
        expected = _ref_exact_poly_division(g, f)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            _exact_poly_division(g, f)
    else:
        assert _exact_poly_division(g, f) == expected


# -- bases as values ----------------------------------------------------------
# eliminate, saturate and homogenize return reduced grevlex bases without a
# final Buchberger run.  Each is checked against groebner() run afresh on its
# own members, and against sympy's reduced basis of the same ideal, computed
# by sympy's own elimination (a lex basis) where the ideal is an elimination
# ideal.  ideals_equal compares reduced bases; the mutual-containment oracle
# below checks membership by normal forms and is called only by the tests.


def ideal_contains(G_big, gens):
    return all(in_ideal(g, G_big) for g in gens)


def _equal_by_containment(gens_a, gens_b):
    Ga, Gb = groebner(gens_a), groebner(gens_b)
    return ideal_contains(Ga, gens_b) and ideal_contains(Gb, gens_a)


def _to_sympy(polys, syms):
    return [
        sum(sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*[s**e for s, e in zip(syms, mon)])
            for mon, c in p.terms.items())
        for p in polys
    ]


def _from_sympy(G, variables):
    return {
        MultiPoly(variables, {mon: Fraction(int(c.numerator), int(c.denominator))
                              for mon, c in q.terms()})
        for q in G.polys
    }


def _sympy_grevlex(polys, variables):
    syms = sympy.symbols(variables)
    G = sympy.groebner(_to_sympy(polys, syms), *syms, order="grevlex", domain=sympy.QQ)
    return _from_sympy(G, variables)


def _sympy_eliminate(polys, variables, drop):
    """Reduced grevlex basis of the elimination ideal, by a sympy lex basis."""
    keep = tuple(v for v in variables if v not in drop)
    syms = sympy.symbols(variables)
    lead = [sympy.Symbol(v) for v in drop]
    rest = [sympy.Symbol(v) for v in keep]
    G = sympy.groebner(_to_sympy(polys, syms), *lead, *rest, order="lex", domain=sympy.QQ)
    tail = [g for g in G.exprs if not g.free_symbols & set(lead)]
    if not tail:
        return set()
    Gk = sympy.groebner(tail, *rest, order="grevlex", domain=sympy.QQ)
    return _from_sympy(Gk, keep)


def _assert_fresh_basis(G):
    assert isinstance(G, GroebnerBasis) and G.order == GREVLEX
    fresh = groebner(list(G.gens))
    # groebner() of no generators cannot know the ring of an empty basis
    assert G == fresh or not (G.gens or fresh.gens)
    assert [str(g) for g in G] == [str(g) for g in fresh]


_SMALL_POLYS = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3).filter(lambda m: sum(m) <= 2),
    st.integers(-3, 3).filter(bool).map(Fraction), min_size=1, max_size=3,
).map(lambda terms: MultiPoly(XYZ, terms))
_SMALL_IDEALS = st.lists(_SMALL_POLYS, min_size=1, max_size=3)
_IDEAL_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@_IDEAL_SETTINGS
@given(_SMALL_IDEALS)
def test_eliminate_returns_the_reduced_grevlex_basis(gens):
    G = eliminate(gens, ["x"])
    assert G.variables == ("y", "z")
    _assert_fresh_basis(G)
    assert set(G.gens) == _sympy_eliminate(gens, XYZ, ("x",))


@_IDEAL_SETTINGS
@given(_SMALL_IDEALS, _SMALL_POLYS.filter(lambda f: not f.is_zero()))
def test_saturate_returns_the_reduced_grevlex_basis(gens, f):
    G = saturate(gens, f)
    assert G.variables == XYZ
    _assert_fresh_basis(G)
    t = ("t",) + XYZ
    lifted = [g.rename(t) for g in gens]
    lifted.append(MultiPoly.var(t, "t") * f.rename(t) - MultiPoly.constant(t, 1))
    assert set(G.gens) == _sympy_eliminate(lifted, t, ("t",))


@_IDEAL_SETTINGS
@given(_SMALL_IDEALS)
def test_homogenize_returns_the_reduced_grevlex_basis(gens):
    G = homogenize(gens, "h")
    ring = XYZ + ("h",)
    assert G.variables == ring
    _assert_fresh_basis(G)
    assert set(G.gens) == _sympy_grevlex(list(G.gens), ring)
    # I^h = (f^h : f in gens) : h^inf, whatever generators of I are homogenized
    hom = [MultiPoly(ring, {m + (g.total_degree() - sum(m),): c for m, c in g.terms.items()})
           for g in gens]
    assert set(G.gens) == set(saturate(hom, MultiPoly.var(ring, "h")).gens)


@_IDEAL_SETTINGS
@given(_SMALL_IDEALS)
def test_groebner_matches_sympy_grevlex(gens):
    assert set(groebner(gens).gens) == _sympy_grevlex(gens, XYZ)


def _ref_normal_form(f, G):
    """The remainder by Fraction arithmetic, rescanning for the lead at every
    step; the loop normal_form ran before it went through the heap kernel."""
    key = G.order.key
    basis = [(g.leading_monomial(G.order), g) for g in G.gens]
    work = dict(f.terms)
    remainder = {}
    while work:
        lm = max(work, key=key)
        hit = next(((lm_g, g) for lm_g, g in basis if all(a <= b for a, b in zip(lm_g, lm))),
                   None)
        if hit is None:
            remainder[lm] = work.pop(lm)
            continue
        lm_g, g = hit
        shift = tuple(a - b for a, b in zip(lm, lm_g))
        coef = work[lm] / g.terms[lm_g]
        for m, c in g.terms.items():
            mm = tuple(a + b for a, b in zip(m, shift))
            v = work.get(mm, Fraction(0)) - coef * c
            if v:
                work[mm] = v
            else:
                work.pop(mm, None)
    return MultiPoly(f.variables, remainder)


_NF_POLYS = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3), _COEFFS, max_size=8
).map(lambda terms: MultiPoly(XYZ, terms))


@_IDEAL_SETTINGS
@given(_SMALL_IDEALS, _NF_POLYS, st.sampled_from([GREVLEX, LEX]))
def test_normal_form_matches_the_fraction_loop(gens, f, order):
    G = groebner(gens, order)
    r = normal_form(f, G)
    assert r == _ref_normal_form(f, G)
    assert normal_form(r, G) == r
    assert in_ideal(f - r, G)


@st.composite
def _ideal_pairs(draw):
    """Two generating sets: the second is the first under invertible row
    operations (so the ideals agree), or drawn on its own."""
    a = draw(_SMALL_IDEALS)
    if not draw(st.booleans()):
        return a, draw(_SMALL_IDEALS)
    b = list(a)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(b) - 1))
        j = draw(st.integers(0, len(b) - 1))
        if i != j:
            b[i] = b[i] + draw(_SMALL_POLYS) * b[j]
        else:
            b[i] = b[i] * draw(st.integers(-3, 3).filter(bool))
    return a, b[::-1]


@_IDEAL_SETTINGS
@given(_ideal_pairs())
def test_ideals_equal_agrees_with_mutual_containment(pair):
    a, b = pair
    expected = _equal_by_containment(a, b)
    assert ideals_equal(a, b) == expected
    assert ideals_equal(groebner(a), groebner(b)) == expected


def test_ideals_equal_zero_and_unit_ideals():
    vs, (x, y) = poly_ring(["x", "y"])
    one = MultiPoly.constant(vs, 1)
    zero = MultiPoly.zero(vs)
    # an empty basis from eliminate lives in the kept ring, groebner([]) in none
    empty = eliminate([MultiPoly.parse("y*x - 1", ("y", "x"))], ["y"])
    assert empty.variables == ("x",) and not empty.gens
    cases = [
        ([], []),
        ([zero], []),
        (empty, []),
        (empty, groebner([])),
        ([], [x]),
        (empty, [x]),
        ([one], [x + 1, x]),
        ([one], [x - y, y - 1, x]),
        ([one], [x * y]),
        (saturate([x**2], x), [one]),
        ([x * y - 1], [one]),
    ]
    for a, b in cases:
        expected = _equal_by_containment(a, b)
        assert ideals_equal(a, b) == expected
        assert ideals_equal(b, a) == expected
    assert ideals_equal(empty, groebner([]))
    assert ideals_equal([one], [x + 1, x])
    assert not ideals_equal([], [x])


# -- the Gebauer-Moeller pair update ---------------------------------------------


@pytest.fixture
def spoly_leads(monkeypatch):
    # the exactalg package re-exports the function `groebner` under the
    # submodule's name, so the module is looked up by its full name
    module = importlib.import_module("mvtk.exactalg.groebner")
    leads = []
    inner = module._spoly

    def counted(f, lm_f, g, lm_g):
        leads.append((lm_f, lm_g))
        return inner(f, lm_f, g, lm_g)

    monkeypatch.setattr(module, "_spoly", counted)
    return leads


def test_a_coprime_pair_drops_its_whole_lcm_class(spoly_leads):
    # The basis grows x^2*y, y + 2 (the insertion remainder of the second
    # generator), then x^2 from their S-polynomial.  On the arrival of x^2
    # both older leads have lcm x^2*y with it: the first member of that
    # class shares x, the second (y) is coprime.  The coprime pair reduces
    # to zero, and by criterion F with it every pair of the class, so the
    # one S-polynomial formed is that of x^2*y and y + 2.
    vs, (x, y) = poly_ring(["x", "y"])
    gens = [2 * x**2 * y, 2 * x**2 * y**2 + y + 2]
    G = groebner(gens)
    assert spoly_leads == [((2, 1), (0, 1))]
    assert set(G.gens) == _sympy_grevlex(gens, vs)
    assert [str(g) for g in G] == ["x^2", "y + 2"]


def _digest(basis) -> str:
    return hashlib.sha256("\n".join(sorted(str(g) for g in basis)).encode()).hexdigest()


def test_paper_example_bases_are_pinned(spoly_leads):
    # reduced bases are unique, so a change to the pair bookkeeping must give
    # these same strings.  The digests, and the bound of 872 S-polynomials
    # for the A4 chart (orbital ideal, kernel elimination and saturation by
    # u), are those of the update that tested only the first member of an
    # lcm class for coprimality; the class-wide test forms 866.
    chart = plucker_chart(Tableau([[1, 2], [3, 4], [5]]))
    assert len(spoly_leads) <= 872
    assert _digest(chart.kernel) == (
        "d24ba6262bc5558a30f6757bb7ac542bc373787bc5d645bac4a327b6629243bd")
    assert _digest(chart.homogeneous) == (
        "c76f29d63f6b7847094d2bec1f0a0c93127834dc98f991a500db9150d7ea426e")
    orb = orbital_ideal(Tableau([[1, 1, 1, 3], [2, 2, 5], [3, 4], [4, 6]]))
    assert _digest(orb.basis) == (
        "7c9b71d86009779361373dbb49dc1acf5258a1ecd79a084c07773ea85891d903")
