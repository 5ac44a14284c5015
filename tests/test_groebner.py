import hashlib
import heapq
import importlib
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtk.exactalg import (
    GroebnerBasis,
    MultiPoly,
    eliminate,
    groebner,
    homogenize,
    ideals_equal,
    normal_form,
    poly_ring,
    saturate,
)
from mvtk.exactalg.groebner import (
    _buchberger,
    _check_same_ring,
    _fresh_name,
    _interreduce,
    _normal_form_full,
    _Overflow,
    _Packing,
    _spoly,
)
from mvtk.exactalg.poly import _grevlex_key
from mvtk.measures import _divide_by_form, _form_key, _form_poly
from mvtk.orbital import Tableau, orbital_ideal, plucker_chart

A10 = tuple(f"a{k}" for k in range(1, 11))

# the rank-4 chart component: a5 and a10 vanish, three quadrics remain
A4_PRIME = ["a5", "a10", "a1*a6 + a2*a8", "a7*a8 - a6*a9", "a1*a7 + a2*a9"]


def a4_prime_gens():
    return [MultiPoly.parse(s, A10) for s in A4_PRIME]


def _order_key(block):
    """Sort key of the order of a basis with this `block`: grevlex on the first
    `block` exponents, then grevlex on the rest.  A reference for the packed keys
    of the kernel, which share no code with it."""
    if not block:
        return _grevlex_key
    return lambda mon: (_grevlex_key(mon[:block]), _grevlex_key(mon[block:]))


def test_principal_ideal():
    vs, (x,) = poly_ring(["x"])
    G = groebner([x**2 - 1, x - 1])
    assert [str(g) for g in G] == ["x - 1"]


def test_zero_ideal():
    G = groebner([])
    assert len(G) == 0


def test_a_block_size_is_an_int_at_least_zero():
    vs, (x,) = poly_ring(["x"])
    for block in (-1, 1.0, True, "lex"):
        with pytest.raises(ValueError, match=f"block = {block!r}: a block size is an int >= 0"):
            groebner([x - 1], block)
        with pytest.raises(ValueError, match=f"block = {block!r}: a block size is an int >= 0"):
            GroebnerBasis(vs, (), block)


def test_normal_form_basics():
    vs, (x,) = poly_ring(["x"])
    G = groebner([x - 1])
    assert normal_form(x - 1, G).is_zero()
    G0 = groebner([])
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
    assert normal_form((x**2 - y) * y, G).is_zero()
    assert normal_form(x * (x**2 - y) - (x**3 - x), G).is_zero()  # = x*y - x... sign
    assert not normal_form(x, G).is_zero()


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
    new_vars = (aux,) + variables
    lifted = [g.rename(new_vars) for g in gens]
    t = MultiPoly.var(new_vars, aux)
    f_l = f.rename(new_vars)
    mixed = [t * g for g in lifted]
    mixed.append((MultiPoly.constant(new_vars, 1) - t) * f_l)
    inter = eliminate(mixed, (aux,))
    out = []
    for g in inter:
        g = g.restrict(variables) if g.variables != variables else g
        out.append(_ref_exact_poly_division(g, f))
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
        assert normal_form(combo, G).is_zero()


# -- exact division -----------------------------------------------------------
# RatFunc divides its integer numerator D * g by primitive linear forms only,
# with measures._divide_by_form.  This oracle divides over Q by any
# polynomial, rescanning for the lead at every step; it shares no code with
# the kernel and is called only by the tests (also by ideal_quotient above).


def _ref_exact_poly_division(g, f):
    if g.is_zero():
        return g
    key = _grevlex_key
    work = dict(g.terms)
    quo = {}
    lm_f = f.leading_monomial()
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


def _divide_by_key(g, key):
    """g / key by the integer kernel on g's ints, back over g's d; None if inexact.

    The quotient of the ints by a primitive key keeps their content (Gauss's
    lemma), so it stays coprime to d and the trusted constructor applies."""
    quo = _divide_by_form(g.ints, key)
    return None if quo is None else MultiPoly._make(g.variables, g.d, quo)


XYZ = ("x", "y", "z")
_DIV_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)
_COEFFS = st.fractions(min_value=-5, max_value=5, max_denominator=6)
_TERMS = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), _COEFFS, max_size=6)
_POLYS = _TERMS.map(lambda terms: MultiPoly(XYZ, terms))
_NONZERO_POLYS = _POLYS.filter(lambda p: not p.is_zero())
# primitive keys as RatFunc.den holds them: the first nonzero entry is
# positive and may exceed 1, later entries have either sign
_KEYS = st.tuples(*[st.integers(-4, 4)] * 3).filter(any).map(lambda t: _form_key(t, 3)[0])


@_DIV_SETTINGS
@given(_KEYS, _POLYS)
def test_exact_division_recovers_the_quotient(key, q):
    g = _form_poly(key, XYZ) * q
    assert _divide_by_key(g, key) == q
    assert _ref_exact_poly_division(g, _form_poly(key, XYZ)) == q


@_DIV_SETTINGS
@given(_KEYS, _POLYS, _NONZERO_POLYS)
def test_exact_division_fails_exactly_when_the_oracle_does(key, q, r):
    g = _form_poly(key, XYZ) * q + r
    try:
        expected = _ref_exact_poly_division(g, _form_poly(key, XYZ))
    except ArithmeticError:
        expected = None
    assert _divide_by_key(g, key) == expected


# -- the fast paths of _divide_by_form -----------------------------------------
# With x_j the first variable of the key, two cases end before the long
# division: a key that is x_j alone, and a numerator in which x_j has one
# power only, against a key of two or more terms.  Both must agree with the
# oracle, and the zero numerator divides by every key.

_ONE_VARIABLE_KEYS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_WIDE_KEYS = ((1, 1, 0), (2, -3, 0), (0, 1, 5), (1, 1, 1), (3, 0, -2), (0, 2, -1))


def _oracle_quotient(g, key):
    try:
        return _ref_exact_poly_division(g, _form_poly(key, XYZ))
    except ArithmeticError:
        return None


def _with_power(terms, j, e):
    """The polynomial of `terms` with the power of x_j set to e in every monomial."""
    return MultiPoly(XYZ, {mon[:j] + (e,) + mon[j + 1:]: c for mon, c in terms.items()})


@pytest.mark.parametrize("key", _ONE_VARIABLE_KEYS)
def test_a_one_variable_key_lowers_powers_and_stops_at_a_free_term(key):
    v = _form_poly(key, XYZ)
    q = MultiPoly.parse("3*x*y - 2*z^2 + 5", XYZ)
    assert _divide_by_key(v * q, key) == _oracle_quotient(v * q, key) == q
    assert _divide_by_key(v**3 * q, key) == _oracle_quotient(v**3 * q, key) == v**2 * q
    for g in (v * q + 7, v * q + MultiPoly.parse("x + y + z", XYZ) - v):   # a term free of v
        assert _divide_by_key(g, key) is None
        assert _oracle_quotient(g, key) is None


@pytest.mark.parametrize("key", _WIDE_KEYS)
def test_a_wide_key_divides_no_numerator_with_one_power_of_its_first_variable(key):
    j = next(k for k, c in enumerate(key) if c)
    for text in ("1", "-6", "4*x^2*y*z", "x*y^2", "y*z + 2*y^2 - z", "x^2*y - 3*x^2*z + x^2"):
        g = MultiPoly.parse(text, XYZ)
        for e in range(3):
            h = _with_power(g.terms, j, e)
            assert _divide_by_key(h, key) is None
            assert _oracle_quotient(h, key) is None


@pytest.mark.parametrize("key", _ONE_VARIABLE_KEYS + _WIDE_KEYS)
def test_the_zero_numerator_divides_by_every_key(key):
    assert _divide_by_form({}, key) == {}
    assert _divide_by_key(MultiPoly.zero(XYZ), key) == _oracle_quotient(MultiPoly.zero(XYZ), key)


@st.composite
def _fast_path_cases(draw):
    """(key, numerator) of one fast path: a key x_j and any numerator, exact or
    not, or a key of two or more terms and a numerator with one power of x_j."""
    if draw(st.booleans()):
        key = draw(st.sampled_from(_ONE_VARIABLE_KEYS))
        g = draw(_POLYS)
        return key, _form_poly(key, XYZ) * g if draw(st.booleans()) else g
    key = draw(_KEYS.filter(lambda k: sum(map(bool, k)) > 1))
    j = next(k for k, c in enumerate(key) if c)
    return key, _with_power(draw(_TERMS), j, draw(st.integers(0, 3)))


@_DIV_SETTINGS
@given(_fast_path_cases())
def test_the_fast_paths_agree_with_the_oracle(case):
    key, g = case
    assert _divide_by_key(g, key) == _oracle_quotient(g, key)


# -- bases as values ----------------------------------------------------------
# eliminate, saturate and homogenize return reduced grevlex bases without a
# final Buchberger run.  Each is checked against groebner() run afresh on its
# own members, and against sympy's reduced basis of the same ideal, computed
# by sympy's own elimination (a lex basis) where the ideal is an elimination
# ideal.  ideals_equal compares reduced bases; the mutual-containment oracle
# below checks membership by normal forms and is called only by the tests.


def ideal_contains(G_big, gens):
    return all(normal_form(g, G_big).is_zero() for g in gens)


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
    assert isinstance(G, GroebnerBasis) and G.block == 0
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
    key = _order_key(G.block)
    basis = [(max(g.ints, key=key), g) for g in G.gens]
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
@given(_SMALL_IDEALS, _NF_POLYS, st.integers(0, 2))
def test_normal_form_matches_the_fraction_loop(gens, f, block):
    # under a block order, x in the first block, a tail may grow past its lead
    G = groebner(gens, block)
    r = normal_form(f, G)
    assert r == _ref_normal_form(f, G)
    assert normal_form(r, G) == r
    assert normal_form(f - r, G).is_zero()


@_IDEAL_SETTINGS
@given(_SMALL_IDEALS, st.integers(0, 3))
def test_leading_monomials_are_the_leads_under_the_order(gens, block):
    # read off the packed kernel entries, of the kernel groebner kept and of a
    # bare basis rebuilt from the members, which packs them afresh
    G = groebner(gens, block)
    bare = GroebnerBasis(G.variables, G.gens, block)
    leads = [max(g.ints, key=_order_key(block)) for g in G.gens]
    assert G.leading_monomials() == leads
    assert bare.leading_monomials() == leads


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


# -- ideals_equal against a basis in hand -----------------------------------------
# With a GroebnerBasis K on one side and generators of J on the other, the
# generators must reduce to zero modulo K, and Buchberger on them stops once
# its leads cover K's.  The oracle compares the full reduced bases.


def _equal_by_reduced_bases(gens_a, gens_b):
    Ga, Gb = groebner(list(gens_a)), groebner(list(gens_b))
    return Ga == Gb or not (Ga.gens or Gb.gens)


@pytest.fixture
def ideal_work(monkeypatch):
    """Counts of full `groebner` runs and of `_buchberger` runs made from the module."""
    module = importlib.import_module("mvtk.exactalg.groebner")
    counts = {"groebner": 0, "buchberger": 0}
    for name, key in (("groebner", "groebner"), ("_buchberger", "buchberger")):
        inner = getattr(module, name)

        def counted(*args, inner=inner, key=key):
            counts[key] += 1
            return inner(*args)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_ideals_equal_with_the_basis_on_either_side(ideal_work):
    vs, (x, y, z) = poly_ring(["x", "y", "z"])
    K = groebner([x**2 - y, x * y - z, y**2 - x * z])
    J = [x * y - z + 3 * (x**2 - y), x**2 - y, y**2 - x * z - x * (x * y - z)]
    ideal_work.update(groebner=0, buchberger=0)
    assert ideals_equal(K, J) and ideals_equal(J, K)
    # no reduced basis of J is built: Buchberger on J stops once K's leads are covered
    assert ideal_work == {"groebner": 0, "buchberger": 2}
    assert ideals_equal(K, list(K.gens)[::-1])


def test_ideals_equal_a_proper_subideal_runs_buchberger_to_the_end(ideal_work):
    vs, (x, y) = poly_ring(["x", "y"])
    K = groebner([x, y])
    J = [x**2, y]  # inside K, and in(J) = (x^2, y) misses the lead x
    assert all(normal_form(g, K).is_zero() for g in J)
    ideal_work.update(groebner=0, buchberger=0)
    assert not ideals_equal(J, K) and not ideals_equal(K, J)
    assert ideal_work == {"groebner": 0, "buchberger": 2}


def test_ideals_equal_stops_at_a_generator_outside_the_basis(ideal_work):
    vs, (x, y) = poly_ring(["x", "y"])
    K = groebner([x])
    ideal_work.update(groebner=0, buchberger=0)
    assert not ideals_equal(K, [x, y]) and not ideals_equal([y, x], K)
    assert ideal_work == {"groebner": 0, "buchberger": 0}


def test_ideals_equal_keeps_the_zero_ideal_and_ring_mismatch_results():
    vs, (x, y) = poly_ring(["x", "y"])
    x_only = MultiPoly.var(("x",), "x")
    empty = eliminate([MultiPoly.parse("y*x - 1", ("y", "x"))], ["y"])  # zero ideal in ring (x)
    cases = [
        (empty, [MultiPoly.zero(vs)], True),   # zero ideals in two rings
        (groebner([]), [], True),
        (empty, [x], False),
        (groebner([x]), [], False),
        (groebner([x]), [x_only], False),      # nonzero, other rings
        (groebner([x_only]), [x, y - y], False),
    ]
    for K, J, expected in cases:
        assert _equal_by_reduced_bases(K, J) == expected
        assert ideals_equal(K, J) == expected
        assert ideals_equal(J, K) == expected


@_IDEAL_SETTINGS
@given(_ideal_pairs())
def test_ideals_equal_against_a_basis_agrees_with_reduced_bases(pair):
    a, b = pair
    expected = _equal_by_reduced_bases(a, b)
    assert ideals_equal(groebner(a), b) == expected
    assert ideals_equal(a, groebner(b)) == expected


# -- bases carried into Buchberger ------------------------------------------------
# saturate and eliminate enter a GroebnerBasis among their generators as a
# basis whose members are never paired; the result must be the one a plain
# generator list gives, and sympy's.


@_IDEAL_SETTINGS
@given(_SMALL_IDEALS, _SMALL_POLYS.filter(lambda f: not f.is_zero()))
def test_saturating_a_basis_matches_its_generators(gens, f):
    G = groebner(gens)
    sat = saturate(G, f)
    assert sat == saturate(list(G.gens), f) == saturate(gens, f)
    _assert_fresh_basis(sat)
    t = ("t",) + XYZ
    lifted = [g.rename(t) for g in gens]
    lifted.append(MultiPoly.var(t, "t") * f.rename(t) - MultiPoly.constant(t, 1))
    assert set(sat.gens) == _sympy_eliminate(lifted, t, ("t",))


def _random_poly(rng, ring, terms=3):
    return MultiPoly(ring, {tuple(rng.randint(0, 2) for _ in ring): rng.randint(-3, 3)
                            for _ in range(terms)})


@pytest.mark.parametrize("drop, ring", [
    (("x",), ("y", "z")), (("x", "y"), ("x", "y")),  # in one block, in order
    (("y",), ("x", "z")), (("z",), ("x", "y")),      # the same, drop not a prefix
    (("x",), ("z", "y")), (("x", "y"), ("y", "x")),  # in one block, out of order
    (("x",), ("x", "y")), (("y",), ("x", "y")),      # across the blocks
])
def test_eliminating_with_a_basis_in_a_subring_matches_its_generators(drop, ring):
    # a grevlex basis whose variables sit in one block of the elimination
    # order, in their own order, stays a basis there; otherwise its members
    # count as plain generators.  Either way the result is that of the list.
    rng = random.Random(2019)
    for _ in range(12):
        G = groebner([_random_poly(rng, ring) for _ in range(2)])
        extra = [_random_poly(rng, XYZ)]
        plain = [g.rename(XYZ) for g in G.gens] + extra
        E = eliminate([G, *extra], drop)
        assert E == eliminate(plain, drop)
        assert set(E.gens) == _sympy_eliminate(plain, XYZ, drop)
        # a basis of the ring itself, with no other generator
        assert eliminate(groebner(plain), drop) == E
    # a block order that splits the variables of a grevlex basis takes it as
    # plain generators
    assert groebner(groebner(plain), 1) == groebner(plain, 1)


def test_saturating_a_homogenized_basis_forms_no_s_polynomial(spoly_leads):
    # every lead of G^h is free of h, so each pair with zsat*h - 1 is coprime
    rng = random.Random(19)
    ideals = [a4_prime_gens()]
    for _ in range(20):
        ideals.append([_random_poly(rng, XYZ) for _ in range(rng.randint(1, 3))])
    for gens in ideals:
        G = homogenize(gens, "h")
        spoly_leads.clear()
        sat = saturate(G, MultiPoly.var(G.variables, "h"))
        assert spoly_leads == []
        assert sat == G


# -- packed monomials ----------------------------------------------------------------


_ORDERS = st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n)))


def _packed(pk, mon):
    return next(iter(pk.pack_poly({mon: 1})))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_ORDERS, st.sampled_from([16, 32]), st.data())
def test_packed_keys_sort_as_the_term_order(n_block, bits, data):
    n, block = n_block
    small = 2 ** (bits - 1) // (2 * n)  # sums of two stay below the guard bits
    mons = data.draw(st.lists(st.tuples(*[st.integers(0, small - 1)] * n), min_size=2,
                              max_size=8, unique=True))
    pk = _Packing(block, n, bits)
    keys = {m: _packed(pk, m) for m in mons}
    assert sorted(mons, key=keys.get) == sorted(mons, key=_order_key(block))
    for a in mons:
        assert pk.monomial(keys[a]) == a
        for b in mons:
            ka, kb = keys[a], keys[b]
            total = tuple(x + y for x, y in zip(a, b))
            assert ka + kb == _packed(pk, total)
            ea, eb = pk.exps(ka), pk.exps(kb)
            divides = all(x <= y for x, y in zip(a, b))
            assert (((eb | pk.guard) - ea) & pk.guard == pk.guard) == divides
            if divides:
                assert kb - ka == _packed(pk, tuple(y - x for x, y in zip(a, b)))
            lcm = tuple(map(max, a, b))
            assert pk.lcm(ea, eb) == pk.exps(_packed(pk, lcm))
            assert pk.key(pk.lcm(ea, eb)) == _packed(pk, lcm)
            assert pk.degree(pk.key(pk.lcm(ea, eb))) == sum(lcm)


def test_exponents_past_the_field_width_start_again_wider():
    # 16-bit fields hold block degrees below 2^15; each of these crosses it,
    # on input, in a normal form (a block order lets a tail grow past its
    # lead) or in an S-polynomial's lcm, some past 2^16 as well
    vs, (x, y, z) = poly_ring(["x", "y", "z"])
    G = groebner([x**40000 - y, x * y])
    assert [str(g) for g in G] == ["x^40000 - y", "x*y", "y^2"]
    assert normal_form(x**70000 * y**3 + z, groebner([y - 1])) == x**70000 + z
    GB = groebner([x - y**30000], 1)
    assert normal_form(x**3, GB) == y**90000
    assert [str(g) for g in eliminate([x - y**30000, x**3 - z], ["x"])] == ["y^90000 - z"]
    G2 = groebner([x**20000 * y - 1, x * y**20000 - 1])
    assert set(G2.gens) == _sympy_grevlex([x**20000 * y - 1, x * y**20000 - 1], vs)


def test_ideals_equal_widens_against_a_basis_in_hand_which_keeps_the_width(monkeypatch):
    # a basis built from members starts at 16-bit fields; the width that the
    # check against it settles on stays with it for the next normal form
    module = importlib.import_module("mvtk.exactalg.groebner")
    made = []

    class Counted(module._Packing):
        def __init__(self, block, n, bits):
            made.append(bits)
            super().__init__(block, n, bits)

    monkeypatch.setattr(module, "_Packing", Counted)
    vs, (x, y) = poly_ring(["x", "y"])
    # overflow while packing the members of the basis in hand
    K = GroebnerBasis(vs, groebner([x**40000 - y, x * y]).gens)
    made.clear()
    assert ideals_equal(K, [x * y, x**40000 - y])
    assert made == [16, 32]
    assert not ideals_equal([x * y, x**40000], K)
    assert normal_form(x**40001 + y, K) == y
    assert made == [16, 32]
    # overflow while packing the generators set against it
    L = GroebnerBasis(vs, groebner([x - y]).gens)
    made.clear()
    assert ideals_equal([x**40000 - y**40000, y - x], L)
    assert made == [16, 32]
    assert normal_form(x**3, L) == y**3
    assert made == [16, 32]


def test_the_kernel_refuses_a_monomial_past_the_guard_bits():
    # every place that makes a monomial checks it: packing, a normal form's
    # new terms, an lcm's key, an S-polynomial's terms
    grevlex, split = _Packing(0, 2, 16), _Packing(1, 2, 16)
    assert grevlex.monomial(_packed(grevlex, (2**15 - 1, 0))) == (2**15 - 1, 0)
    with pytest.raises(_Overflow):
        grevlex.pack_poly({(2**14, 2**14): 1})
    entry = split.entry(split.pack_poly({(1, 0): 1, (0, 30000): -1}))  # x - y^30000, lead x
    with pytest.raises(_Overflow):
        _normal_form_full(split.pack_poly({(2, 0): 1}), [entry], [entry[1]], split)
    # their S-polynomial is zero: only the lcm x^20000*y^20000 is made
    gens = [grevlex.pack_poly({(20000, 1): 1}), grevlex.pack_poly({(1, 20000): 1})]
    with pytest.raises(_Overflow):
        _buchberger([], gens, grevlex)
    f = split.entry(split.pack_poly({(2, 0): 1, (0, 30000): -1}))
    g = split.entry(split.pack_poly({(1, 30000): 1, (0, 0): -1}))
    with pytest.raises(_Overflow):
        _spoly(f, g, split.key(split.lcm(f[1], g[1])), split)


# -- the Gebauer-Moeller pair update ---------------------------------------------


@pytest.fixture
def spoly_leads(monkeypatch):
    # the exactalg package re-exports the function `groebner` under the
    # submodule's name, so the module is looked up by its full name
    module = importlib.import_module("mvtk.exactalg.groebner")
    leads = []
    inner = module._spoly

    def counted(f, g, lcm, pk):
        leads.append((pk.monomial(f[0]), pk.monomial(g[0])))
        return inner(f, g, lcm, pk)

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


@pytest.fixture
def kernel_normal_forms(monkeypatch):
    module = importlib.import_module("mvtk.exactalg.groebner")
    calls = []
    inner = module._normal_form_full

    def counted(p, basis, divisors, pk):
        calls.append(len(basis))
        return inner(p, basis, divisors, pk)

    monkeypatch.setattr(module, "_normal_form_full", counted)
    return calls


def _digest(basis) -> str:
    return hashlib.sha256("\n".join(sorted(str(g) for g in basis)).encode()).hexdigest()


def test_paper_example_bases_are_pinned(spoly_leads, kernel_normal_forms):
    # reduced bases are unique, so a change to the pair bookkeeping must give
    # these same strings.  The digests are those of the update that tested
    # only the first member of an lcm class for coprimality.  The A4 chart
    # (orbital ideal, kernel elimination and saturation by u) forms 494
    # S-polynomials and makes 686 kernel normal forms when the bases in hand
    # enter Buchberger unpaired, and the orbital ideal of tau_A5 499 and
    # 1,105: cheaper bookkeeping keeps both counts, so it changes no work.
    # The pair digests pin the S-pairs themselves, in the order formed.
    chart = plucker_chart(Tableau([[1, 2], [3, 4], [5]]))
    assert (len(spoly_leads), len(kernel_normal_forms)) == (494, 686)
    assert _pair_digest(spoly_leads) == (
        "089caae9c2a1af9cb91f1952e15054fc5942032a4296cf9690287f1189d7ee0b")
    assert _digest(chart.kernel) == (
        "d24ba6262bc5558a30f6757bb7ac542bc373787bc5d645bac4a327b6629243bd")
    assert _digest(chart.homogeneous) == (
        "c76f29d63f6b7847094d2bec1f0a0c93127834dc98f991a500db9150d7ea426e")
    spoly_leads.clear()
    kernel_normal_forms.clear()
    orb = orbital_ideal(Tableau([[1, 1, 1, 3], [2, 2, 5], [3, 4], [4, 6]]))
    assert (len(spoly_leads), len(kernel_normal_forms)) == (499, 1105)
    assert _digest(orb.basis) == (
        "7c9b71d86009779361373dbb49dc1acf5258a1ecd79a084c07773ea85891d903")
    assert _pair_digest(spoly_leads) == (
        "13b91d1b84dbab121ea54ff66998aafa36e264ca7458de51eab63b70a9b3e56e")


def _pair_digest(leads) -> str:
    return hashlib.sha256(repr(leads).encode()).hexdigest()


def _oracle_buchberger(known: list, gens: list, pk: _Packing) -> tuple:
    """(basis, S-pair leads in the order formed) by the update that settles F and M
    on the lcms themselves, testing each member of a class for coprimality: the
    oracle for the cofactor update of `_buchberger`."""
    guard, low = pk.guard, pk.bits - 1
    basis, pairs = list(known), []
    exps = [entry[1] for entry in basis]
    for p in sorted(gens, key=lambda p: (pk.degree(max(p)), len(p), max(p))):
        p = _normal_form_full(p, basis, exps, pk)[0]
        if p:
            basis.append(pk.entry(p))
            exps.append(basis[-1][1])
    heap, live = [], {}

    def update(new_index):
        e_new = exps[new_index]
        lcms = [pk.lcm(a, e_new) for a in exps[:new_index]]
        for (i, j), l in list(live.items()):
            if ((l | guard) - e_new) & guard == guard and lcms[i] != l and lcms[j] != l:
                del live[(i, j)]
        by_lcm = {}
        for i, l in enumerate(lcms):
            cls = by_lcm.setdefault(l, [i, False])
            cls[1] = cls[1] or l == exps[i] + e_new
        kept = []
        for l in sorted(by_lcm):
            if all(((l | guard) - l2) & guard != guard for l2 in kept):
                kept.append(l)
                i, coprime = by_lcm[l]
                if not coprime:
                    k = pk.key(l)
                    live[(i, new_index)] = l
                    heapq.heappush(heap, (pk.degree(k), k, i, new_index))

    for idx in range(len(known), len(basis)):
        update(idx)
    while heap:
        _, k, i, j = heapq.heappop(heap)
        if live.pop((i, j), None) is None:
            continue
        pairs.append((pk.monomial(basis[i][0]), pk.monomial(basis[j][0])))
        s = _normal_form_full(_spoly(basis[i], basis[j], k, pk), basis, exps, pk)[0]
        if s:
            basis.append(pk.entry(s))
            exps.append(basis[-1][1])
            update(len(basis) - 1)
    return basis, pairs


def test_the_pair_update_matches_the_lcm_update(spoly_leads):
    # random ideals in grevlex and block orders, some entering with a basis
    # in hand: the same S-pairs in the same order, and the same basis
    rng = random.Random(40)
    for trial in range(300):
        n = rng.randint(2, 4)
        pk = _Packing(rng.randint(0, n), n, 16)
        ring = tuple(f"x{v}" for v in range(n))
        gens = [pk.pack_poly(_random_poly(rng, ring, rng.randint(1, 3)).ints)
                for _ in range(rng.randint(2, 4))]
        gens = [g for g in gens if g]
        known = _interreduce(_buchberger([], gens[:trial % 2], pk), pk)
        expected = _oracle_buchberger(known, gens[trial % 2:], pk)
        spoly_leads.clear()
        assert (_buchberger(known, gens[trial % 2:], pk), spoly_leads) == expected, trial


def test_a_cofactor_that_is_a_later_lead_is_no_coprime_pair(spoly_leads):
    # The insertions leave the leads x*y, y (x*y^2 + y reduced by x*y) and x.
    # On the arrival of y the cofactor of lcm(x*y, y) is x, the lead of a
    # member inserted after y: the pair is formed.  On the arrival of x the
    # cofactor of lcm(x*y, x) = lcm(y, x) is y, an older lead: the class is
    # coprime and goes.
    vs, (x, y) = poly_ring(["x", "y"])
    G = groebner([x * y, x * y**2 + y, x**2 * y**3 + x])
    assert spoly_leads == [((1, 1), (0, 1))]
    assert [str(g) for g in G] == ["x", "y"]


def test_a_linear_cofactor_removes_each_class_holding_it(spoly_leads):
    # y^2 joins the basis x*y^2, x^2*y*z in hand: the cofactor of its lcm
    # with x*y^2 is x, which divides x^2*z, the cofactor of its lcm with
    # x^2*y*z, so criterion M leaves one pair
    vs, (x, y, z) = poly_ring(["x", "y", "z"])
    K = groebner([x * y**2, x**2 * y * z])
    spoly_leads.clear()
    G = groebner([K, y**2])
    assert spoly_leads == [((1, 2, 0), (0, 2, 0))]
    assert [str(g) for g in G] == ["x^2*y*z", "y^2"]
