import hashlib
import json
import random
from fractions import Fraction
from itertools import product
from math import factorial, gcd
from operator import sub

import pytest
import sympy
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
)
from mvtk.preproj import flag_function_from_chi
from mvtk.roota import (
    Weight,
    alpha_names,
    seq_weight,
    sequences,
    shuffle_permutations,
    shuffles,
)


def test_dbar_definitional_values():
    names = alpha_names(3)
    minus_one = MultiPoly.constant(names, -1)
    assert dbar_i(3, (1,)) == RatFunc(minus_one, {(1, 0): 1})
    assert dbar_i(3, (1, 2)) == RatFunc(
        MultiPoly.constant(names, 1), {(1, 1): 1, (0, 1): 1}
    )
    # beta_0 - beta_2 = -2*a1: the key's content 2 goes into the numerator
    assert dbar_i(3, (1, 1)) == RatFunc(minus_one, {(1, 0): 1, (-2, 0): 1})
    assert dbar_i(3, (1, 1)) == RatFunc(MultiPoly.constant(names, Fraction(1, 2)), {(1, 0): 2})


def test_simplex_terms_match_the_validating_constructor():
    # dbar_i and ft_i build with RatFunc._make; from the raw keys
    # |beta_k - beta_j| and the sign, RatFunc(...) must build the same pairs
    m = 4
    names = alpha_names(m)
    for w in (w for n in range(5) for w in product(range(1, m), repeat=n)):
        sums = [seq_weight(m, w[:k]) for k in range(len(w) + 1)]
        coords = [b.alpha_coords() for b in sums]
        ft = ft_i(m, w)
        assert set(ft.coeffs) == set(sums)
        for j, bj in enumerate(coords):
            raw: dict = {}
            for k, bk in enumerate(coords):
                if k != j:
                    key = tuple(abs(a - b) for a, b in zip(bk, bj))
                    raw[key] = raw.get(key, 0) + 1
            ref = RatFunc(MultiPoly.constant(names, (-1) ** j), raw)
            got = ft.coeffs[sums[j]]
            assert (got.num, got.den) == (ref.num, ref.den)
        got = dbar_i(m, w)  # the term of the last partial sum
        assert (got.num, got.den) == (ref.num, ref.den)


def _ref_partial_coords(m, seq):
    counts = [0] * (m - 1)
    coords = [tuple(counts)]
    for i in seq:
        if not 0 < i < m:
            raise ValueError(f"letter {i} of a sequence is not in 1..{m - 1}")
        counts[i - 1] += 1
        coords.append(tuple(counts))
    return coords


def _ref_simplex_term(names, factors, sign):
    den: dict = {}
    content = 1
    for key, g in factors:
        content *= g
        den[key] = den.get(key, 0) + 1
    return RatFunc._make(names, content, {(0,) * len(names): sign}, den)


def _ref_dbar_i(m, seq):
    """dbar_i as it was, from the partial sums' coordinates and _form_key: the oracle."""
    coords = _ref_partial_coords(m, seq)
    top = coords[-1]
    factors = [measures._form_key(tuple(map(sub, top, c)), m - 1) for c in coords[:-1]]
    return _ref_simplex_term(alpha_names(m), factors, (-1) ** len(factors))


def _ref_ft_i(m, seq):
    """ft_i as it was, its exponents built by Weight.from_alpha: the oracle."""
    names = alpha_names(m)
    coords = _ref_partial_coords(m, seq)
    diffs = {(j, k): measures._form_key(tuple(map(sub, ck, cj)), m - 1)
             for j, cj in enumerate(coords) for k, ck in enumerate(coords) if k > j}
    out = {}
    for j, c in enumerate(coords):
        factors = [diffs[(k, j) if k < j else (j, k)] for k in range(len(coords)) if k != j]
        out[Weight.from_alpha(m, c)] = _ref_simplex_term(names, factors, (-1) ** j)
    return out


def test_one_pass_simplex_terms_match_the_oracle():
    # every word of length <= 5 at m <= 5: the same (d, terms, den) and exponents
    def parts(r):
        return r.d, r.terms, r.den

    for m in range(2, 6):
        for w in (w for n in range(6) for w in product(range(1, m), repeat=n)):
            got, ref = ft_i(m, w).coeffs, _ref_ft_i(m, w)
            assert [b.entries for b in got] == [b.entries for b in ref]
            assert [parts(r) for r in got.values()] == [parts(r) for r in ref.values()]
            assert parts(dbar_i(m, w)) == parts(_ref_dbar_i(m, w))


def test_simplex_terms_print_as_pinned_on_measure_rank3_sequences():
    # the 120 sequences over {1, 2, 3} of length 1 to 4 at m = 4 (the measure_rank3
    # universe): ft_i's serialization and dbar_i's text, pinned from the loop
    # that keyed each pair from both ends, before the triangle of pair keys
    lines = []
    for n in range(1, 5):
        for seq in product((1, 2, 3), repeat=n):
            lines.append(json.dumps(ft_i(4, seq).serialize()))
            lines.append(str(dbar_i(4, seq)))
    assert len(lines) == 240
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "01c9edd88957e3ad72954ce7d72e00d82ab80c2a3a4e38282af3ddd76f1de4e3")


@pytest.mark.parametrize("letter", [0, 4, -1])
def test_letters_outside_the_rank_are_refused(letter):
    for build in (dbar_i, ft_i):
        with pytest.raises(ValueError, match=rf"letter {letter} of a sequence is not in 1\.\.3"):
            build(4, (1, letter, 2))


def test_dbar_shuffle_identity():
    lhs = dbar_i(3, (1,)) * dbar_i(3, (2,))
    rhs = dbar_i(3, (1, 2)) + dbar_i(3, (2, 1))
    assert lhs == rhs


def test_ratfunc_cancellation():
    names = alpha_names(3)
    a1 = MultiPoly.var(names, "a1")
    a2 = MultiPoly.var(names, "a2")
    r = RatFunc(a1 * a2 + a2 * a2, {(0, 1): 1})
    assert not r.den
    assert r.num == a1 + a2


def test_denominator_keys_are_integer_tuples():
    names = alpha_names(3)
    a1 = MultiPoly.var(names, "a1")
    one = RatFunc.constant(names, 1)
    for form in (a1, (Fraction(1, 2), 0), (1.0, 0), (1,), (1, 0, 0), [1, 0]):
        with pytest.raises(ValueError, match="a denominator form is a tuple of 2 integer coefficients"):
            one.divide_by_form(form)
    with pytest.raises(ValueError, match="a denominator form is a tuple of 2 integer coefficients"):
        RatFunc(a1, {a1: 1})


def test_ratfunc_equality_cross_multiplication():
    names = alpha_names(3)
    a1 = MultiPoly.var(names, "a1")
    a2 = MultiPoly.var(names, "a2")
    r1 = RatFunc(a1, {(2, 0): 1})  # a1 / (2 a1) = 1/2
    assert r1 == RatFunc.constant(names, Fraction(1, 2))
    assert RatFunc(a1 + a2, {(1, 0): 1}) != RatFunc.constant(names, 1)


def test_ratfunc_equals_and_hashes_like_a_number_or_its_numerator():
    names = alpha_names(3)
    one, half = RatFunc.constant(names, 1), RatFunc.constant(names, Fraction(1, 2))
    for r, c in ((one, 1), (half, Fraction(1, 2)), (RatFunc.constant(names, 0), 0)):
        assert r == c and c == r
        assert hash(r) == hash(c)
    assert {one: "v"}.get(1) == "v"
    # no denominator: equal to its numerator, and hashed like it
    num = MultiPoly.parse("a1^2 - 3*a2", names)
    cancelled = RatFunc(num * MultiPoly.parse("a2", names), {(0, 1): 1})
    for r in (RatFunc(num, {}), RatFunc.from_poly(num), cancelled):
        assert not r.den
        assert r == r.num and r.num == r
        assert hash(r) == hash(r.num)
        assert {r.num: "v"}.get(r) == "v"
    # a str or a float never compares equal
    for r, other in ((one, "1"), (one, 1.0), (half, "1/2"), (half, 0.5)):
        assert r != other and other != r
    assert dbar_i(3, (1,)) != 1


def test_ratfunc_arithmetic_refuses_other_variables():
    a, b = dbar_i(3, (1, 2)), dbar_i(4, (1, 2))
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a * b.num,
               lambda: a + b.num, lambda: a - b.num):
        with pytest.raises(ValueError, match="variable sets differ"):
            op()


def test_ratfunc_adds_a_polynomial_over_its_variables():
    a = dbar_i(3, (1, 2))  # 1 / ((a1 + a2) * a2)
    a1 = MultiPoly.var(a.variables, "a1")
    p = a1 * Fraction(1, 2) - 3
    assert a + p == a + RatFunc.from_poly(p)
    assert a - p == a + RatFunc.from_poly(-p)
    assert (a + p) - p == a


def test_polynomial_left_of_a_ratfunc_runs_the_reflected_operator():
    r = dbar_i(3, (1, 2))  # 1 / ((a1 + a2) * a2)
    a1 = MultiPoly.var(r.variables, "a1")
    for p in (a1 * Fraction(1, 2) - 3, MultiPoly.zero(r.variables), a1 * a1):
        assert p + r == r + p
        assert p - r == -(r - p)
        assert p * r == r * p
        assert all(isinstance(v, RatFunc) for v in (p + r, p - r, p * r))
    other = dbar_i(4, (1, 2)).num
    for op in (lambda: other + r, lambda: other - r, lambda: other * r):
        with pytest.raises(ValueError, match="variable sets differ"):
            op()


def test_polynomial_and_ratfunc_do_not_divide():
    # neither type defines division by the other: both orders raise Python's
    # own TypeError, not one from inside Fraction
    r = dbar_i(3, (1, 2))
    a1 = MultiPoly.var(r.variables, "a1")
    for op in (lambda: a1 / r, lambda: r / a1):
        with pytest.raises(TypeError, match="unsupported operand"):
            op()


def test_expsum_sums_refuse_another_rank():
    # products too: they used to return a sum of the left operand's rank
    for op in (lambda: ft_i(3, (1,)) + ft_i(4, (1,)), lambda: ft_i(3, (1,)) - ft_i(4, (1,)),
               lambda: ExpSum(3, {}) * ft_i(4, (1,)), lambda: ft_i(4, (1,)) * ExpSum(3, {}),
               lambda: expsum_mul(ft_i(3, (1,)), ft_i(4, (1,)))):
        with pytest.raises(ValueError, match="rank mismatch"):
            op()


def test_ft_examples():
    e = ft_i(3, (1,))
    names = alpha_names(3)
    assert e.coefficient(Weight.zero(3)) == RatFunc(MultiPoly.constant(names, 1), {(1, 0): 1})
    assert e.coefficient(Weight.alpha(3, 1)) == RatFunc(MultiPoly.constant(names, -1), {(1, 0): 1})
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


def test_expsum_equality_compares_every_coefficient():
    x = ft_i(3, (1, 2))
    names = alpha_names(3)
    assert x == ExpSum(3, dict(x.coeffs)) == x + ExpSum(3, {})
    assert x != x.scale(2) and x != ExpSum.point_mass(3) and x != ft_i(4, (1, 2))
    beta = next(iter(x.coeffs))
    assert x != ExpSum(3, {b: c for b, c in x.coeffs.items() if b != beta})
    assert x.coefficient(Weight([5, 0, 0])) == RatFunc.constant(names, 0)
    # a zero coefficient is dropped, so it does not tell two sums apart
    assert ExpSum(3, {**x.coeffs, Weight([5, 0, 0]): RatFunc.constant(names, 0)}) == x
    # and a sum drops the coefficients that cancel, keeping the others
    assert (x - x).coeffs == {}
    y = ft_i(3, (1,))
    assert (x + y) - y == x and set(((x + y) - y).coeffs) == set(x.coeffs)


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


def test_shuffle_products_print_as_pinned_and_make_the_same_trials(monkeypatch):
    # the 384 measure_rank3 pairs at m = 4 (letters 1..3, lengths j + k in 1..4):
    # the products' serializations, pinned before the simplex terms keyed each
    # pair once and before trial division read the exponents of x_j first; and
    # the _divide_by_form calls of the products and the shuffle folds, as a
    # speed-up must come from cheaper trials, not fewer
    words = [w for n in range(4) for w in product((1, 2, 3), repeat=n)]
    pairs = [(j, k) for j in words for k in words if 0 < len(j) + len(k) <= 4]
    assert len(pairs) == 384
    lines = [json.dumps(expsum_mul(ft_i(4, j), ft_i(4, k)).serialize()) for j, k in pairs]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "32270a74c26d185dfa313674feff5c78264f742ab56fc0b2693486fc7a13b708")
    original, calls = measures._divide_by_form, []

    def counted(terms, key):
        calls.append(key)
        return original(terms, key)
    monkeypatch.setattr(measures, "_divide_by_form", counted)
    for j, k in pairs:
        rhs = ExpSum(4, {})
        for s in shuffles(j, k):
            rhs = rhs + ft_i(4, s)
        assert expsum_mul(ft_i(4, j), ft_i(4, k)) == rhs, (j, k)
    assert len(calls) == 7824


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

        def f_of(order):
            acc = [0] * n
            r = RatFunc.constant(names, 1)
            for idx in order:
                acc[idx - 1] += 1
                r = r.divide_by_form(tuple(acc))
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
    # a D-bar coefficient vector assembles to its measure, on a single weight
    names = alpha_names(3)
    assert flag_function_from_chi(3, {(): 1}) == RatFunc.constant(names, 1)
    assert flag_function_from_chi(3, {(1,): 1}) == dbar_i(3, (1,))
    with pytest.raises(ValueError):
        flag_function_from_chi(3, {(1,): 1, (2,): 1})


def _ft_sum(m, coeffs):
    """The sum of c * FT(D_i) over the sequences i of coeffs."""
    total = ExpSum(m, {})
    for seq, c in coeffs.items():
        total = total + ft_i(m, seq).scale(c)
    return total


def test_ft_sum_shuffle_compatibility():
    # coefficient vector of a shuffle product equals the product of transforms
    m = 3
    j, k = (1,), (2, 1)
    coeffs = {}
    for s in shuffles(j, k):
        coeffs[s] = coeffs.get(s, 0) + 1
    assert _ft_sum(m, coeffs) == expsum_mul(ft_i(m, j), ft_i(m, k))


def test_exponent_support_window():
    m = 3
    nu = Weight.from_alpha(m, (1, 1))
    e = _ft_sum(m, {(1, 2): 2, (2, 1): 1})
    for beta in e.coeffs:
        assert beta.in_Q_plus()
        assert (nu - beta).in_Q_plus()


def test_total_mass():
    from math import factorial

    for seq in [(1,), (1, 2), (2, 1, 1), (1, 2, 1, 2)]:
        m = 3
        e = ft_i(m, seq)
        assert ft_total_mass(e, len(seq)) == Fraction(1, factorial(len(seq)))


def test_total_mass_along_other_rays():
    # the pairing <beta, x> at the point x with alpha(x) = direction is sum_k c_k direction_k
    for m, seq in [(3, (2, 1, 1)), (4, (1, 2, 3, 2)), (4, (3, 3, 1))]:
        e = ft_i(m, seq)
        directions = [(1,) * (m - 1), tuple(range(m - 1, 0, -1)), (Fraction(1, 3),) + (7,) * (m - 2)]
        for direction in directions:
            assert ft_total_mass(e, len(seq), direction) == Fraction(1, factorial(len(seq)))


@pytest.mark.parametrize("direction, text", [
    ((1,), r"a direction has 3 entries, not \(1,\)"),
    ((1, 2, 3, 4), r"a direction has 3 entries, not \(1, 2, 3, 4\)"),
    ((1, -1, 3), r"a denominator form vanishes on the direction \(1, -1, 3\)"),
])
def test_total_mass_refuses_a_bad_direction(direction, text):
    # before, (1,) raised ZeroDivisionError and (1, 2, 3, 4) was truncated to (1, 2, 3)
    with pytest.raises(ValueError, match=text):
        ft_total_mass(ft_i(4, (1, 2)), 2, direction)


@pytest.mark.parametrize("x, t, text", [
    ((1, 2, 3, -6), (1, 2, 3), "x and t need 4 entries each"),
    ((1, 2, -3), (1, 2, 3, 4), "x and t need 4 entries each"),
    ((1, 2, 3, 4, -10), (1, 2, 3, 4, 5), "x and t need 4 entries each"),
    ((1, 2, 3, -6), (1, 0, 3, 4), r"the torus point \(1, 0, 3, 4\) has a zero entry"),
])
def test_expsum_evaluate_refuses_a_bad_point(x, t, text):
    # before, a t of length 3 gave 0 and an x of length 3 raised KeyError: 'a3'
    with pytest.raises(ValueError, match=text):
        ft_i(4, (1, 2)).evaluate(x, t)


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
    lhs = RatFunc(n, {(-2, 0, 0): 1})
    rhs = RatFunc(n * Fraction(-1, 2), {(1, 0, 0): 1})
    assert lhs == rhs
    assert hash(lhs) == hash(rhs)


@_PROPERTY_SETTINGS
@given(_EXPRS, _EXPRS, st.sampled_from([0, 1, -1, Fraction(-3, 2), 5]))
def test_ratfunc_results_keep_the_invariant(x, y, c):
    # results built by the trusted RatFunc._make: the validating constructor,
    # which cancels, must leave each one as it is
    a, b = _build(x), _build(y)
    a1 = MultiPoly.var(a.variables, "a1")
    for r in (a + b, a - b, a * b, -a, a * c, c * a, a * a1, a - a, a + a1, a - a1,
              a.divide_by_form((2, -2, 0))):
        again = RatFunc(r.num, dict(r.den))
        assert (r.d, r.terms, r.den) == (again.d, again.terms, again.den)
        assert all(mult > 0 for mult in r.den.values())
        # the stored numerator is canonical: terms / d in lowest terms, no zero term
        assert r.d > 0
        assert gcd(r.d, *r.terms.values()) == 1
        assert all(r.terms.values())
    assert (a * 0).den == {} and (a - a).den == {}


# -- trial division in _divide_out -----------------------------------------------

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
def test_a_multiple_of_a_form_cancels_it(key, q, k):
    # q has fractional coefficients: the division reads D * num, D the lcm of
    # their denominators, and D * q is integral, so each of the k trials is exact
    form = measures._form_poly(key, q.variables)
    assert RatFunc(form**k * q, {key: k}) == RatFunc.from_poly(q)


def _sums_of_all_short_words(m):
    names = alpha_names(m)
    words = [w for n in range(4) for w in product(range(1, m), repeat=n)]
    dbar = RatFunc.constant(names, 0)
    ft = ExpSum(m, {})
    for w in words:
        dbar = dbar + dbar_i(m, w)
        ft = ft + ft_i(m, w)
    return [dbar] + [ft.coeffs[b] for b in sorted(ft.coeffs, key=lambda b: b.entries)]


def _test_every_key(mp):
    """Make _divide_out test every key of the denominator, not only the candidates given."""
    divide_out = measures._divide_out
    mp.setattr(measures, "_divide_out", lambda terms, den, keys: divide_out(terms, den, tuple(den)))


def _parts(rs):
    return [(r.d, r.terms, r.den) for r in rs]


def test_sums_test_only_the_keys_that_can_cancel(monkeypatch):
    # a key that one summand carries less often divides only that summand,
    # once lifted, so it cannot divide the sum: testing it changes nothing
    given = []
    divide_out = measures._divide_out

    def counting(terms, den, keys):
        given.append((len(keys), len(den)))
        return divide_out(terms, den, keys)

    with monkeypatch.context() as mp:
        mp.setattr(measures, "_divide_out", counting)
        candidates = _sums_of_all_short_words(4)
    assert any(k < n for k, n in given)
    _test_every_key(monkeypatch)
    assert _parts(_sums_of_all_short_words(4)) == _parts(candidates)


@_PROPERTY_SETTINGS
@given(_EXPRS, _EXPRS, _EXPRS)
def test_sums_cancel_as_when_every_key_is_tested(x, y, z):
    a, b, c = _build(x), _build(y), _build(z)

    def sums():
        return [a + b, a - b, (a + b) - b, a * b + c, (a + c) * (b + c) - c * c]

    candidates = sums()
    with pytest.MonkeyPatch.context() as mp:
        _test_every_key(mp)
        assert _parts(sums()) == _parts(candidates)


# -- the integer arithmetic against sympy.cancel --------------------------------


def _to_sympy(r):
    """(numerator, denominator) of a RatFunc as sympy expressions."""
    syms = sympy.symbols(r.variables)
    num = sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                      * sympy.Mul(*[x**e for x, e in zip(syms, mon)])
                      for mon, c in r.num.terms.items()])
    den = sympy.Mul(*[sympy.Add(*[k * x for k, x in zip(key, syms)])**mult
                      for key, mult in r.den.items()])
    return num, den


def _assert_cancelled_like_sympy(r, expr):
    # equal as rational functions, and sympy's reduced denominator has the
    # degree of r's: no common factor is left in r
    p, q = sympy.fraction(sympy.cancel(expr))
    num, den = _to_sympy(r)
    assert sympy.expand(num * q - p * den) == 0
    assert sympy.Poly(q, *sympy.symbols(r.variables)).total_degree() == sum(r.den.values())


# raw forms: non-primitive, of either sign, some of them already keys of a D-bar term
_FORMS = st.one_of(
    st.sampled_from([(1, 0, 0), (0, 1, 0), (1, 1, 0), (-2, -2, 0), (0, 3, 3)]),
    st.tuples(*[st.integers(-3, 3)] * 3).filter(any),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(_WORDS, _WORDS, _WORDS, _QUOTIENTS, _KEYS, _FORMS)
def test_integer_arithmetic_matches_sympy_cancel(u, v, w, q, key, form):
    # a sum of two D-bar terms, and q over a key times a third: numerators
    # with fractional coefficients whose factors meet the keys
    a = dbar_i(4, u) + dbar_i(4, v)
    b = RatFunc(q, {key: 1}) * dbar_i(4, w)
    ea, eb = (n / d for n, d in (_to_sympy(a), _to_sympy(b)))
    _assert_cancelled_like_sympy(a + b, ea + eb)
    _assert_cancelled_like_sympy(a * b, ea * eb)
    syms = sympy.symbols(a.variables)
    for r, e in ((a, ea), (b, eb)):
        _assert_cancelled_like_sympy(
            r.divide_by_form(form), e / sympy.Add(*[k * s for k, s in zip(form, syms)]))


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
