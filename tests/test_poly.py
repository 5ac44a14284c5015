from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtk.centralizer import (
    CoordFunction,
    check_regular,
    dbar_direct,
    eval_ratfunc_at_x,
    is_admissible,
    psi_eval,
    solve_nx,
    verify_nx,
    weyl_witness,
)
from mvtk.exactalg import (
    MultiPoly,
    groebner,
    homogenize,
    normal_form,
    poly_ring,
)
from mvtk.exactalg.linalg import identity
from mvtk.exactalg.poly import _exact
from mvtk.measures import ExpSum, RatFunc, dbar_i, ft_i
from mvtk.preproj import QuiverRep, _flag_eval, flag_function_from_chi
from mvtk.roota import Weight


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


@pytest.mark.parametrize("text, expected", [
    ("-x", lambda x, y: -x),
    ("--x", lambda x, y: x),
    ("+-+x - y", lambda x, y: -x - y),
    ("x + -y", lambda x, y: x - y),
    ("x - -y", lambda x, y: x + y),
    ("x +- -+ y", lambda x, y: x + y),
    ("-(x - y)^2 + 2*(x + y)", lambda x, y: -(x - y) ** 2 + 2 * (x + y)),
    ("((x))*(-y + 1/3)", lambda x, y: x * (-y + Fraction(1, 3))),
    ("", lambda x, y: 0 * x),
    ("   ", lambda x, y: 0 * x),
])
def test_parse_accepts_signs_parentheses_and_empty_text(text, expected):
    vs, (x, y) = poly_ring(["x", "y"])
    assert MultiPoly.parse(text, vs) == expected(x, y)


@pytest.mark.parametrize("text, message", [
    ("x & y", "cannot tokenize"),
    ("x +", "unexpected end"),
    ("-", "unexpected end"),
    ("(x + y", "unbalanced parenthesis"),
    ("x + z", "unknown variable 'z'"),
    ("x^y", "exponent must be a natural number"),
    ("x^1/2", "exponent must be a natural number"),
    ("x y", "trailing tokens"),
    ("x + y)", "trailing tokens"),
    ("x * )", "unexpected token"),
    ("x^", "exponent must be a natural number"),  # before, IndexError
    ("(x + y)^", "exponent must be a natural number"),
])
def test_parse_names_each_error(text, message):
    vs, _ = poly_ring(["x", "y"])
    with pytest.raises(ValueError, match=message):
        MultiPoly.parse(text, vs)


def test_evaluate_names_a_missing_variable():
    # before, KeyError: 'y'
    vs, (x, y) = poly_ring(["x", "y"])
    with pytest.raises(ValueError, match="no value for the variable 'y'"):
        (x + y).evaluate({"x": 1})
    r = dbar_i(3, (1, 2))
    with pytest.raises(ValueError, match="no value for the variable 'a2'"):
        r.evaluate({"a1": Fraction(1, 2)})
    assert r.evaluate({"a1": 1, "a2": 2}) == Fraction(1, 6)


def test_arithmetic_exact():
    vs, (x, y) = poly_ring(["x", "y"])
    p = (x + y) ** 3
    assert p.coefficient((2, 1)) == 3
    assert ((x + y) * (x - y)) == x**2 - y**2
    third = x * Fraction(1, 3)
    assert third * 3 == x


def test_grevlex_versus_the_block_order():
    vs, (x, y, z) = poly_ring(["x", "y", "z"])
    p = x * y * z + x**3
    # same degree: grevlex prefers the monomial with smaller last exponent
    assert p.leading_monomial() == (3, 0, 0)
    assert groebner([p], 1).leading_monomials() == [(3, 0, 0)]
    q = x * z + y**2
    assert q.leading_monomial() == (0, 2, 0)
    assert groebner([q], 1).leading_monomials() == [(1, 0, 1)]


def test_block_order_dominates():
    vs, (x, y) = poly_ring(["x", "y"])
    # any power of the first variable beats the rest
    assert groebner([x + y**5], 1).leading_monomials() == [(1, 0)]
    assert groebner([x + y**5]).leading_monomials() == [(0, 5)]


def test_ring_maps_name_a_missing_variable():
    # each names the variable that the other ring lacks
    vs, (x, y) = poly_ring(["x", "y"])
    with pytest.raises(ValueError, match=r"variable 'z' is not among \('x', 'y'\)"):
        MultiPoly.var(vs, "z")
    with pytest.raises(ValueError, match=r"variable 'x' is not among \('y', 'z'\)"):
        (x * y).rename(("y", "z"))
    with pytest.raises(ValueError, match=r"variable 'z' is not among \('x', 'y'\)"):
        y.restrict(("y", "z"))
    assert y.restrict(("y",)) == MultiPoly.var(("y",), "y")


def test_substitute_and_evaluate():
    vs, (x, y) = poly_ring(["x", "y"])
    target, (u,) = poly_ring(["u"])
    img = (x * y + y).substitute({"x": u, "y": u**2})
    assert img == u**3 + u**2
    assert img.evaluate({"u": Fraction(2)}) == 12


def test_primitive():
    vs, (x, y) = poly_ring(["x", "y"])
    p = x * Fraction(4, 6) + y * Fraction(2, 3)
    prim, content = p.primitive()
    assert prim == x + y
    assert content == Fraction(2, 3)


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
        # weights and module entries: a weight's entries are ints, a module's exact
        lambda: Weight([1, 0, 0]) * 0.5,
        lambda: 0.5 * Weight([1, 0, 0]),
        lambda: Weight([1, 0, 0]).pair((0.5, 0, -0.5)),
        lambda: QuiverRep(3, (1, 1), {(2, 1): [[0.1]]}),
        lambda: QuiverRep(3, (1, 1), {(2, 1): [[0.5]]}, field=5),
        # the points of the centralizer's n_x, psi and Weyl witness
        lambda: eval_ratfunc_at_x(dbar_i(3, (1, 2)), (0.1, 0, -0.1)),
        lambda: psi_eval((0.5, 0, -0.5), (1, 2, 3)),
        lambda: psi_eval((1, 0, -1), (1, 0.5, 3)),
        lambda: check_regular((0.5, 0, -0.5)),
        lambda: is_admissible((0.5, 0, -0.5), 2),
        lambda: solve_nx(3, (0.5, 0, -0.5)),
        lambda: verify_nx(3, (0.5, 0, -0.5), identity(3)),
        lambda: dbar_direct(CoordFunction.parse(3, "n12"), (0.1, 0, -0.1)),
        lambda: weyl_witness((0.5, -0.5), 1),
    ):
        with pytest.raises(TypeError, match="float"):
            make()
    assert MultiPoly(vs, {(1, 0): Fraction(1, 10)}) * 10 == x
    assert dbar_i(3, (1, 2)).evaluate({"a1": Fraction(1, 10), "a2": 2}) == Fraction(5, 21)


def test_exact_passes_a_fraction_through_and_makes_an_int_a_fraction():
    half = Fraction(1, 2)
    assert _exact(half) is half
    for c, want in ((True, Fraction(1)), (3, Fraction(3)), (-2, Fraction(-2))):
        got = _exact(c)
        assert type(got) is Fraction and got == want
    for c in (0.5, "1/2", Decimal("0.5")):
        with pytest.raises(TypeError, match="in exact arithmetic"):
            _exact(c)
    # an int torus entry still gives an exact value at a negative power of t
    value = ft_i(3, (1, 2)).evaluate((3, 1, -4), (2, 3, 5))
    assert type(value) is Fraction


def test_strings_are_refused():
    # Fraction('1/2') parses; exact arithmetic takes ints and Fractions only, as
    # MultiPoly * '3' already did
    r = dbar_i(3, (1, 2))
    for make, text in (
        (lambda: dbar_i(3, (1,)) * '3', "'3'"),
        (lambda: r.evaluate({"a1": '1/2', "a2": 2}), "'1/2'"),
        (lambda: r.num.evaluate({"a1": '1/2', "a2": 2}), "'1/2'"),
        (lambda: flag_function_from_chi(3, {(1, 2): '1'}), "'1'"),
        (lambda: Weight([1, 0, 0]).pair(('1/2', 0, 0)), "'1/2'"),
        (lambda: QuiverRep(3, (1, 1), {(2, 1): [['1/3']]}), "'1/3'"),
    ):
        with pytest.raises(TypeError, match=f"^str {text} in exact arithmetic"):
            make()
    with pytest.raises(TypeError):
        r.num * '3'


# -- the arithmetic kernel against sympy ----------------------------------------
# Every result is built by the trusted constructor, so each is checked twice:
# its terms against sympy's, and the canonical form that constructor relies
# on: ints / d with tuple monomials of the ring's length, nonzero int
# coefficients and d > 0 coprime to them, the same (d, ints) and hash as the
# validating constructor gives from the Fraction view.

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
    assert type(p.d) is int and p.d > 0
    for mon, c in p.ints.items():
        assert type(mon) is tuple and len(mon) == n
        assert all(type(e) is int and e >= 0 for e in mon)
        assert type(c) is int and c != 0
    assert gcd(p.d, *p.ints.values()) == 1
    again = MultiPoly(p.variables, p.terms)
    assert (again.d, again.ints) == (p.d, p.ints)
    assert again == p and hash(again) == hash(p)


def _results(p, q, c, k):
    """(kernel result, sympy expression) for each operation under test."""
    P, Q, C = _to_sympy(p), _to_sympy(q), sympy.Rational(c.numerator, c.denominator)
    out = [(p + q, P + Q), (p - q, P - Q), (p * q, P * Q), (p**k, P**k), (-p, -P),
           (p * c, P * C), (c * p, P * C), (p + c, P + C), (c - p, C - P)]
    if c:
        out.append((p / c, P / C))
    return out


@_ARITH_SETTINGS
@given(_poly_pairs(), _SCALARS, st.integers(0, 3), st.lists(_SCALARS, min_size=4, max_size=4))
def test_arithmetic_matches_sympy(pair, c, k, point):
    p, q = pair
    for got, want in _results(p, q, c, k):
        assert got.terms == _sympy_terms(want, p.variables)
    values = dict(zip(p.variables, point))
    value = _to_sympy(p).subs({sympy.Symbol(v): sympy.Rational(x.numerator, x.denominator)
                               for v, x in values.items()})
    assert p.evaluate(values) == Fraction(int(value.p), int(value.q))
    # the content splits off an integer part with coprime coefficients and a positive lead
    part, content = p.primitive()
    assert part * content == p
    if not p.is_zero():
        assert all(a.denominator == 1 for a in part.terms.values())
        assert gcd(*(a.numerator for a in part.terms.values())) == 1
        assert part.terms[part.leading_monomial()] > 0


@_ARITH_SETTINGS
@given(_poly_pairs(), _SCALARS, st.integers(0, 3))
def test_arithmetic_results_keep_the_invariant(pair, c, k):
    p, q = pair
    n = len(p.variables)
    results = [got for got, _ in _results(p, q, c, k)]
    results += [p.primitive()[0]]
    wide = p.rename(p.variables + ("z",))
    results += [wide.restrict(p.variables)]
    _assert_invariant(wide, n + 1)
    if not q.is_zero():
        results += [normal_form(p, groebner([q]))] + list(groebner([q]).gens)
        results += list(groebner([q], 1).gens)
        for g in homogenize([q], "z").gens:
            _assert_invariant(g, n + 1)
    for got in results:
        _assert_invariant(got, n)


def test_a_constant_equals_and_hashes_like_its_number():
    vs, (x, y) = poly_ring(["x", "y"])
    one, half, zero = MultiPoly.constant(vs, 1), MultiPoly.constant(vs, Fraction(1, 2)), x - x
    for p, c in ((one, 1), (half, Fraction(1, 2)), (zero, 0), (zero, Fraction(0))):
        assert p == c and c == p
        assert hash(p) == hash(c)
    assert {one: "v"}.get(1) == "v" and {1: "v"}.get(one) == "v"
    assert {half: "v"}.get(Fraction(1, 2)) == "v"
    # a str or a float never compares equal, and a nonconstant never equals a number
    for p, other in ((one, "1"), (one, 1.0), (half, "1/2"), (half, 0.5), (zero, "0"), (zero, 0.0)):
        assert p != other and other != p
    assert x != 1 and x + 1 != 1
    # members of sets built from bases keep their meaning
    assert len({one, MultiPoly.constant(vs, 1), 1}) == 1
    assert x in {x, one} and hash(x) == hash(MultiPoly.var(vs, "x"))
