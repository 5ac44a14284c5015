from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtk.exactalg import (
    GREVLEX,
    LEX,
    MultiPoly,
    TermOrder,
    groebner,
    homogenize,
    normal_form,
    poly_ring,
)
from mvtk.exactalg.groebner import _exact_poly_division
from mvtk.measures import ExpSum, RatFunc, dbar_i, ft_i
from mvtk.preproj import _flag_eval


def test_parse_roundtrip():
    vs, _ = poly_ring(["a1", "a2", "a6", "a8"])
    p = MultiPoly.parse("3*a1^2*a6 - 1/2*a2*a8 + a1", vs)
    assert MultiPoly.parse(str(p), vs) == p
    assert p.coefficient((2, 0, 1, 0)) == 3
    assert p.coefficient((0, 1, 0, 1)) == Fraction(-1, 2)


def test_parse_rejects_unknown_variable():
    vs, _ = poly_ring(["x"])
    with pytest.raises(ValueError):
        MultiPoly.parse("x + y", vs)


def test_arithmetic_exact():
    vs, (x, y) = poly_ring(["x", "y"])
    p = (x + y) ** 3
    assert p.coefficient((2, 1)) == 3
    assert ((x + y) * (x - y)) == x**2 - y**2
    third = x * Fraction(1, 3)
    assert third * 3 == x


def test_grevlex_versus_lex():
    vs, (x, y, z) = poly_ring(["x", "y", "z"])
    p = x * y * z + x**3
    # same degree: grevlex prefers the monomial with smaller last exponent
    assert p.leading_monomial(GREVLEX) == (3, 0, 0)
    assert p.leading_monomial(LEX) == (3, 0, 0)
    q = x * z + y**2
    assert q.leading_monomial(GREVLEX) == (0, 2, 0)
    assert q.leading_monomial(LEX) == (1, 0, 1)


def test_block_order_dominates():
    order = TermOrder("block", 1)
    # any power of the first variable beats the rest
    assert order.key((1, 0)) > order.key((0, 5))


def test_substitute_and_evaluate():
    vs, (x, y) = poly_ring(["x", "y"])
    target, (u,) = poly_ring(["u"])
    img = (x * y + y).substitute({"x": u, "y": u**2})
    assert img == u**3 + u**2
    assert img.evaluate({"u": Fraction(2)}) == 12


def test_primitive_and_monic():
    vs, (x, y) = poly_ring(["x", "y"])
    p = x * Fraction(4, 6) + y * Fraction(2, 3)
    prim, content = p.primitive()
    assert prim == x + y
    assert content == Fraction(2, 3)
    assert (x * 2 + y * 2).monic() == x + y


def test_homogeneity():
    vs, (x, y) = poly_ring(["x", "y"])
    assert (x * y + x**2).is_homogeneous()
    assert not (x + x * y).is_homogeneous()


def test_floats_are_refused():
    # a float coefficient would enter as its binary expansion, not as 1/10
    vs, (x, y) = poly_ring(["x", "y"])
    r = RatFunc(x, {(0, 1): 1})
    for make in (
        lambda: MultiPoly(vs, {(1, 0): 0.1}),
        lambda: MultiPoly.constant(vs, 0.5),
        lambda: x * 0.5,
        lambda: 0.5 * x,
        lambda: x / 0.5,
        lambda: x + 0.5,
        lambda: r * 0.5,
        lambda: 0.5 * r,
        # and so are float points, where evaluation would read 0.1 as its binary expansion
        lambda: x.evaluate({"x": 0.1, "y": 2}),
        lambda: r.evaluate({"x": 1, "y": 0.5}),
        lambda: dbar_i(3, (1, 2)).evaluate({"a1": 0.1, "a2": 2}),
        lambda: ft_i(3, (1,)).evaluate((0.5, 0, Fraction(-1, 2)), (1, 2, 3)),
        lambda: ft_i(3, (1,)).evaluate((1, 0, -1), (1, 0.5, 3)),
        lambda: ExpSum(3, {}).evaluate((1, 0, -1), (1, 0.5, 3)),
        lambda: _flag_eval(3, {(1, 2): 1}, {"a1": 0.1, "a2": 2}),
    ):
        with pytest.raises(TypeError, match="float"):
            make()
    assert MultiPoly(vs, {(1, 0): Fraction(1, 10)}) * 10 == x
    assert dbar_i(3, (1, 2)).evaluate({"a1": Fraction(1, 10), "a2": 2}) == Fraction(5, 21)


# -- the arithmetic kernel against sympy ----------------------------------------
# Every result is built by the trusted constructor, so each is checked twice:
# its terms against sympy's, and the invariant that constructor relies on
# (tuple monomials of the ring's length, nonzero Fraction coefficients).

_NAMES = ("a", "b", "c", "d")
_ARITH_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=80)
_SCALARS = st.fractions(min_value=-7, max_value=7, max_denominator=12)


@st.composite
def _poly_pairs(draw):
    n = draw(st.integers(1, 4))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), _SCALARS, max_size=6)
    return MultiPoly(_NAMES[:n], draw(terms)), MultiPoly(_NAMES[:n], draw(terms))


def _to_sympy(p):
    syms = [sympy.Symbol(v) for v in p.variables]
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[s**e for s, e in zip(syms, mon)])
         for mon, c in p.terms.items()),
        sympy.Integer(0),
    )


def _sympy_terms(expr, variables):
    poly = sympy.Poly(expr, *[sympy.Symbol(v) for v in variables], domain=sympy.QQ)
    return {mon: Fraction(int(c.numerator), int(c.denominator)) for mon, c in poly.terms() if c}


def _assert_invariant(p, n):
    assert type(p.variables) is tuple and len(p.variables) == n
    for mon, c in p.terms.items():
        assert type(mon) is tuple and len(mon) == n
        assert all(type(e) is int and e >= 0 for e in mon)
        assert type(c) is Fraction and c != 0


def _results(p, q, c, k):
    """(kernel result, sympy expression) for each operation under test."""
    P, Q, C = _to_sympy(p), _to_sympy(q), sympy.Rational(c.numerator, c.denominator)
    out = [(p + q, P + Q), (p - q, P - Q), (p * q, P * Q), (p**k, P**k), (-p, -P),
           (p * c, P * C), (c * p, P * C), (p + c, P + C), (c - p, C - P)]
    if c:
        out.append((p / c, P / C))
    return out


@_ARITH_SETTINGS
@given(_poly_pairs(), _SCALARS, st.integers(0, 3))
def test_arithmetic_matches_sympy(pair, c, k):
    p, q = pair
    for got, want in _results(p, q, c, k):
        assert got.terms == _sympy_terms(want, p.variables)


@_ARITH_SETTINGS
@given(_poly_pairs(), _SCALARS, st.integers(0, 3))
def test_arithmetic_results_keep_the_invariant(pair, c, k):
    p, q = pair
    n = len(p.variables)
    results = [got for got, _ in _results(p, q, c, k)]
    results += [p.primitive()[0], p.monic()]
    wide = p.rename(p.variables + ("z",))
    results += [wide.restrict(p.variables)]
    _assert_invariant(wide, n + 1)
    if not q.is_zero():
        quo = _exact_poly_division(p * q, q)
        assert quo == p
        results += [quo, normal_form(p, groebner([q]))]
        for g in homogenize([q], "z").gens:
            _assert_invariant(g, n + 1)
    for got in results:
        _assert_invariant(got, n)
