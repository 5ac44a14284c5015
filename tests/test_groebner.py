import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtk.exactalg import (
    GREVLEX,
    LEX,
    MultiPoly,
    eliminate,
    groebner,
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
    assert out2 == []


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
