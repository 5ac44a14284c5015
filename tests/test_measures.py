import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtk import measures
from mvtk.exactalg import MultiPoly
from mvtk.measures import (
    ExpSum,
    RatFunc,
    dbar_i,
    expsum_mul,
    ft_i,
    ft_total_mass,
    measure_from_coeffs,
)
from mvtk.roota import (
    Weight,
    alpha_names,
    partial_sums,
    seq_weight,
    sequences,
    shuffle_permutations,
    shuffles,
)


def test_dbar_definitional_values():
    names = alpha_names(3)
    minus_one = MultiPoly.constant(names, -1)
    a1 = MultiPoly.var(names, "a1")
    assert dbar_i(3, (1,)) == RatFunc(minus_one, {a1: 1})
    a2 = MultiPoly.var(names, "a2")
    assert dbar_i(3, (1, 2)) == RatFunc(
        MultiPoly.constant(names, 1), {a1 + a2: 1, a2: 1}
    )
    # beta_0 - beta_2 = -2*a1: the key's content 2 goes into the numerator
    assert dbar_i(3, (1, 1)) == RatFunc(MultiPoly.constant(names, Fraction(1, 2)), {a1: 2})


def test_simplex_terms_match_the_validating_constructor():
    # _simplex_term builds with RatFunc._make; from the raw keys
    # |beta_k - beta_j| and the sign, RatFunc(...) must build the same pair
    m = 4
    names = alpha_names(m)
    for w in (w for n in range(1, 5) for w in product(range(1, m), repeat=n)):
        coords = [b.alpha_coords() for b in partial_sums(m, w)]
        for j, bj in enumerate(coords):
            raw: dict = {}
            for k, bk in enumerate(coords):
                if k != j:
                    key = tuple(abs(a - b) for a, b in zip(bk, bj))
                    raw[key] = raw.get(key, 0) + 1
            ref = RatFunc(MultiPoly.constant(names, (-1) ** j), raw)
            got = measures._simplex_term(names, coords, j)
            assert (got.num, got.den) == (ref.num, ref.den)


def test_dbar_shuffle_identity():
    lhs = dbar_i(3, (1,)) * dbar_i(3, (2,))
    rhs = dbar_i(3, (1, 2)) + dbar_i(3, (2, 1))
    assert lhs == rhs


def test_ratfunc_cancellation():
    names = alpha_names(3)
    a1 = MultiPoly.var(names, "a1")
    a2 = MultiPoly.var(names, "a2")
    r = RatFunc(a1 * a2 + a2 * a2, {a2: 1})
    assert not r.den
    assert r.num == a1 + a2


def test_ratfunc_equality_cross_multiplication():
    names = alpha_names(3)
    a1 = MultiPoly.var(names, "a1")
    a2 = MultiPoly.var(names, "a2")
    r1 = RatFunc(a1, {a1 * 2: 1})  # a1 / (2 a1) = 1/2
    assert r1 == RatFunc.constant(names, Fraction(1, 2))
    assert RatFunc(a1 + a2, {a1: 1}) != RatFunc.constant(names, 1)


def test_ft_examples():
    e = ft_i(3, (1,))
    names = alpha_names(3)
    a1 = MultiPoly.var(names, "a1")
    assert e.coefficient(Weight.zero(3)) == RatFunc(MultiPoly.constant(names, 1), {a1: 1})
    assert e.coefficient(Weight.alpha(3, 1)) == RatFunc(MultiPoly.constant(names, -1), {a1: 1})
    point = ft_i(3, ())
    assert point.coefficient(Weight.zero(3)) == RatFunc.constant(names, 1)
    assert len(point.coeffs) == 1


def test_ft_leading_coefficient_is_dbar():
    rng = random.Random(5)
    for _ in range(20):
        m = rng.choice((3, 4))
        seq = tuple(rng.randint(1, m - 1) for _ in range(rng.randint(1, 4)))
        nu = seq_weight(m, seq)
        assert ft_i(m, seq).coefficient(nu) == dbar_i(m, seq)


def test_expsum_unit():
    x = ft_i(3, (1, 2))
    assert expsum_mul(ExpSum.point_mass(3), x) == x


def test_ft_shuffle_identity_small():
    lhs = expsum_mul(ft_i(3, (1,)), ft_i(3, (2,)))
    rhs = ft_i(3, (1, 2)) + ft_i(3, (2, 1))
    assert lhs == rhs


def test_ft_shuffle_identity_exhaustive_rank3():
    # all sequence pairs of length <= 3 with letters in {1, 2, 3}
    m = 4
    letters = (1, 2, 3)
    seqs = [()]
    for L in (1, 2, 3):
        seqs += [tuple(s) for s in _tuples(letters, L)]
    for j in seqs:
        for k in seqs:
            if len(j) + len(k) == 0 or len(j) + len(k) > 4:
                continue
            lhs = expsum_mul(ft_i(m, j), ft_i(m, k))
            rhs = ExpSum(m, {})
            for s in shuffles(j, k):
                rhs = rhs + ft_i(m, s)
            assert lhs == rhs, (j, k)


def _tuples(letters, L):
    if L == 0:
        yield ()
        return
    for head in letters:
        for tail in _tuples(letters, L - 1):
            yield (head,) + tail


def test_rational_function_identity_symbolic():
    # f_p(a_1..a_p) f_q(a_{p+1}..a_{p+q}) = sum over shuffle permutations
    for p, q in [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (1, 4)]:
        n = p + q
        names = tuple(f"a{k}" for k in range(1, n + 1))
        xs = [MultiPoly.var(names, f"a{k}") for k in range(1, n + 1)]

        def f_of(order):
            den = {}
            acc = MultiPoly.zero(names)
            r = RatFunc.constant(names, 1)
            for idx in order:
                acc = acc + xs[idx - 1]
                r = r.divide_by_form(acc)
            return r

        lhs = f_of(range(1, p + 1)) * f_of(range(p + 1, n + 1))
        rhs = RatFunc.constant(names, 0)
        for sigma_inv in shuffle_permutations(p, q):
            rhs = rhs + f_of(sigma_inv)
        assert lhs == rhs, (p, q)


def test_rational_function_identity_numeric():
    rng = random.Random(11)
    for _ in range(100):
        p = rng.randint(1, 3)
        q = rng.randint(1, 2)
        n = p + q
        while True:
            a = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
            try:
                def f_val(order):
                    acc = Fraction(0)
                    prod = Fraction(1)
                    for idx in order:
                        acc += a[idx - 1]
                        prod *= acc
                    return 1 / prod

                lhs = f_val(range(1, p + 1)) * f_val(range(p + 1, n + 1))
                rhs = sum(f_val(s) for s in shuffle_permutations(p, q))
                break
            except ZeroDivisionError:
                continue
        assert lhs == rhs


def test_measure_from_coeffs():
    names = alpha_names(3)
    one = measure_from_coeffs(3, {(): 1}, Weight.zero(3), "dbar")
    assert one == RatFunc.constant(names, 1)
    r = measure_from_coeffs(3, {(1,): 1}, Weight.alpha(3, 1), "dbar")
    assert r == dbar_i(3, (1,))
    with pytest.raises(ValueError):
        measure_from_coeffs(3, {(1,): 1}, Weight.alpha(3, 2), "dbar")


def test_measure_from_coeffs_shuffle_compatibility():
    # coefficient vector of a shuffle product equals the product of transforms
    m = 3
    j, k = (1,), (2, 1)
    coeffs = {}
    for s in shuffles(j, k):
        coeffs[s] = coeffs.get(s, 0) + 1
    nu = seq_weight(m, j) + seq_weight(m, k)
    assembled = measure_from_coeffs(m, coeffs, nu, "ft")
    assert assembled == expsum_mul(ft_i(m, j), ft_i(m, k))


def test_exponent_support_window():
    m = 3
    nu = Weight.from_alpha(m, (1, 1))
    e = measure_from_coeffs(m, {(1, 2): 2, (2, 1): 1}, nu, "ft")
    for beta in e.support():
        assert beta.in_Q_plus()
        assert (nu - beta).in_Q_plus()


def test_total_mass():
    from math import factorial

    for seq in [(1,), (1, 2), (2, 1, 1), (1, 2, 1, 2)]:
        m = 3
        e = ft_i(m, seq)
        assert ft_total_mass(e, len(seq)) == Fraction(1, factorial(len(seq)))


def test_expsum_serialization():
    e = ft_i(3, (1,))
    data = e.serialize()
    assert data[0]["exponent"] == "[0,0,0]"
    assert "a1" in data[0]["coeff"]


# -- RatFunc properties on sums and products of Dbar terms ---------------------

_WORDS = st.lists(st.integers(1, 3), max_size=3).map(tuple)
_EXPRS = st.recursive(
    _WORDS,
    lambda sub: st.tuples(st.sampled_from("+*"), sub, sub),
    max_leaves=4,
)
# every denominator key is a nonnegative alpha vector, so none vanishes here
_POINT = {"a1": Fraction(3), "a2": Fraction(5), "a3": Fraction(7)}
_PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def _build(expr):
    if expr and isinstance(expr[0], str):
        op, left, right = expr
        a, b = _build(left), _build(right)
        return a + b if op == "+" else a * b
    return dbar_i(4, expr)


@_PROPERTY_SETTINGS
@given(_EXPRS, _EXPRS)
def test_ratfunc_evaluate_is_a_ring_map(x, y):
    a, b = _build(x), _build(y)
    va, vb = a.evaluate(_POINT), b.evaluate(_POINT)
    assert (a + b).evaluate(_POINT) == va + vb
    assert (a * b).evaluate(_POINT) == va * vb


@_PROPERTY_SETTINGS
@given(_EXPRS, _EXPRS, _EXPRS)
def test_ratfunc_equal_values_have_equal_hashes(x, y, z):
    a, b, c = _build(x), _build(y), _build(z)
    for lhs, rhs in [(a + b, b + a), (a * b, b * a),
                     ((a + b) + c, a + (b + c)), (a * (b + c), a * b + a * c),
                     ((a + b) - b, a)]:
        assert lhs == rhs
        assert hash(lhs) == hash(rhs)
    if a == b:
        assert hash(a) == hash(b)


@_PROPERTY_SETTINGS
@given(_EXPRS)
def test_ratfunc_content_moves_into_numerator(x):
    n = _build(x).num
    a1 = MultiPoly.var(n.variables, "a1")
    lhs = RatFunc(n, {a1 * -2: 1})
    rhs = RatFunc(n * Fraction(-1, 2), {a1: 1})
    assert lhs == rhs
    assert hash(lhs) == hash(rhs)
    assert RatFunc(n, {(-2, 0, 0): 1}) == rhs


@_PROPERTY_SETTINGS
@given(_EXPRS, _EXPRS, st.sampled_from([0, 1, -1, Fraction(-3, 2), 5]))
def test_ratfunc_results_keep_the_invariant(x, y, c):
    # results built by the trusted RatFunc._make: the validating constructor,
    # which cancels, must leave each one as it is
    a, b = _build(x), _build(y)
    a1 = MultiPoly.var(a.variables, "a1")
    for r in (a + b, a - b, a * b, -a, a * c, c * a, a * a1, a - a):
        again = RatFunc(r.num, dict(r.den))
        assert (r.num, r.den) == (again.num, again.den)
        assert all(mult > 0 for mult in r.den.values())
    assert (a * 0).den == {} and (a - a).den == {}


# -- the hyperplane test of RatFunc._cancel -------------------------------------

# primitive keys, first nonzero entry positive, as RatFunc.den holds them
_KEYS = st.tuples(*[st.integers(-4, 4)] * 3).filter(any).map(
    lambda t: measures._form_key(t, 3)[0]
)
_QUOTIENTS = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    max_size=6,
).map(lambda terms: MultiPoly(alpha_names(4), terms))


@_PROPERTY_SETTINGS
@given(_KEYS, _QUOTIENTS, st.integers(1, 2))
def test_hyperplane_test_never_rejects_a_multiple(key, q, k):
    form = measures._form_poly(key, q.variables)
    num = form**k * q
    assert not measures._off_hyperplane(measures._residues(num), key)
    assert RatFunc(num, {key: k}) == RatFunc.from_poly(q)


def _sums_of_all_short_words(m):
    names = alpha_names(m)
    words = [w for n in range(4) for w in product(range(1, m), repeat=n)]
    dbar = RatFunc.constant(names, 0)
    ft = ExpSum(m, {})
    for w in words:
        dbar = dbar + dbar_i(m, w)
        ft = ft + ft_i(m, w)
    return [dbar] + [ft.coeffs[b] for b in sorted(ft.coeffs, key=lambda b: b.entries)]


def test_hyperplane_test_changes_no_sum(monkeypatch):
    # with the test off, _cancel tries every division: the results must not change
    on = _sums_of_all_short_words(4)
    monkeypatch.setattr(measures, "_off_hyperplane", lambda residues, key: False)
    off = _sums_of_all_short_words(4)
    assert [(r.num, r.den) for r in on] == [(r.num, r.den) for r in off]


# -- integer evaluation against the Fraction loops it replaced ------------------


def _ref_poly_evaluate(p, values):
    """MultiPoly.evaluate term by term in Fractions, as it was: the oracle."""
    total = Fraction(0)
    vals = [Fraction(values[v]) for v in p.variables]
    for m, c in p.terms.items():
        prod = c
        for e, x in zip(m, vals):
            if e:
                prod *= x**e
        total += prod
    return total


def _ref_ratfunc_evaluate(r, values):
    """RatFunc.evaluate with one Fraction division per factor, as it was: the oracle."""
    result = _ref_poly_evaluate(r.num, values)
    point = [Fraction(values[v]) for v in r.variables]
    for key, mult in r.den.items():
        v = sum(c * x for c, x in zip(key, point) if c)
        if v == 0:
            raise ZeroDivisionError("denominator vanishes at the point")
        result /= v**mult
    return result


def _outcome(evaluate, f, point):
    try:
        value = evaluate(f, point)
    except ZeroDivisionError as exc:
        return "ZeroDivisionError", str(exc)
    assert type(value) is Fraction
    return value


# coordinates of both signs, most of them with a denominator other than 1
_COORDS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
_FRACTION_POINTS = st.tuples(_COORDS, _COORDS, _COORDS).map(
    lambda xs: dict(zip(alpha_names(4), xs))
)


@_PROPERTY_SETTINGS
@given(_EXPRS, _QUOTIENTS, _KEYS, _FRACTION_POINTS)
def test_integer_evaluation_matches_the_fraction_oracle(x, q, key, point):
    # q is not homogeneous and has fractional coefficients; the Dbar expression
    # and q over a key of either sign can have a pole at the point
    a = _build(x)
    for r in (a, RatFunc(q, {key: 1}), RatFunc(q * a.num, {key: 2}), RatFunc.from_poly(q)):
        assert _outcome(RatFunc.evaluate, r, point) == _outcome(_ref_ratfunc_evaluate, r, point)
    for p in (q, a.num, q * a.num):
        assert _outcome(MultiPoly.evaluate, p, point) == _outcome(_ref_poly_evaluate, p, point)


def test_integer_evaluation_of_zero_and_at_a_pole():
    names = alpha_names(4)
    point = {"a1": Fraction(1, 3), "a2": Fraction(-1, 3), "a3": Fraction(2, 5)}
    for zero in (MultiPoly.zero(names), RatFunc.constant(names, 0)):
        assert zero.evaluate(point) == 0 == _ref_poly_evaluate(MultiPoly.zero(names), point)
    r = dbar_i(4, (1, 2))  # 1 / ((a1 + a2) * a2), and a1 + a2 vanishes at the point
    assert _outcome(RatFunc.evaluate, r, point) == _outcome(_ref_ratfunc_evaluate, r, point) == (
        "ZeroDivisionError", "denominator vanishes at the point")
