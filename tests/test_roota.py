from fractions import Fraction
from collections import Counter
from itertools import product
from math import comb, factorial
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtk.exactalg import MultiPoly
from mvtk.measures import ft_i
from mvtk.roota import (
    Weight,
    alpha_names,
    lusztig_weight,
    minuscule_chains,
    multichains,
    p_mu,
    p_mu_factors,
    positive_roots,
    root_positions,
    seq_weight,
    sequence_count,
    sequences,
    shuffle_multiplicity,
    shuffle_permutations,
    shuffles,
    subset_weight,
)


def test_weight_canonical_form():
    w = Weight([3, 1, 2])
    assert w.entries == (1, -1, 0)
    assert Weight([1, 1, 1]).is_zero()
    assert Weight.alpha(4, 2) == Weight.eps(4, 2) - Weight.eps(4, 3)
    # a non-integer entry is refused, not truncated to (1, 0, 0) or (0, 0)
    for bad in ([1.5, 0, 0], [Fraction(1, 2), 0], []):
        with pytest.raises(ValueError, match="one or more integer entries"):
            Weight(bad)


def _unit(m, i):
    return [1 if k == i else 0 for k in range(1, m + 1)]


def test_eps_and_root_closed_forms_match_the_validating_constructor():
    for m in range(1, 9):
        for i in range(1, m + 1):
            e = Weight.eps(m, i)
            assert e.entries == Weight(_unit(m, i)).entries and e.m == m
            for j in range(i + 1, m + 1):
                r = Weight.root(m, i, j)
                expected = Weight(list(map(int.__sub__, _unit(m, i), _unit(m, j))))
                assert r.entries == expected.entries and r.m == m
                assert all(type(x) is int for x in r.entries)
                assert r.height() == j - i


@pytest.mark.parametrize("name, args", [("eps", (3, 0)), ("eps", (3, 7)), ("root", (3, 2, 2)),
                                        ("root", (3, 3, 1)), ("alpha", (3, 3))])
def test_eps_and_root_refuse_indices_out_of_range(name, args):
    with pytest.raises(ValueError, match="undefined for m = 3|not a positive root for m = 3"):
        getattr(Weight, name)(*args)


def test_root_lattice_sums_in_closed_form_match_the_sums_root_by_root():
    # the oracles add Weight.root * n, Weight.alpha and Weight.eps one at a time
    rng = random.Random(27)
    for m in range(1, 7):
        for _ in range(30):
            counts = [rng.randint(-3, 3) for _ in root_positions(m)]
            expected = Weight.zero(m)
            for n, (i, j) in zip(counts, root_positions(m)):
                expected = expected + Weight.root(m, i, j) * n
            assert lusztig_weight(m, counts) == expected
            seq = [rng.randint(1, m - 1) for _ in range(rng.randint(0, 6))] if m > 1 else []
            assert seq_weight(m, seq) == sum((Weight.alpha(m, i) for i in seq), Weight.zero(m))
            subset = [rng.randint(1, m) for _ in range(rng.randint(0, m))]
            expected = sum((Weight.eps(m, c) for c in subset), Weight.zero(m))
            assert subset_weight(m, subset) == expected


@pytest.mark.parametrize("compute, match", [
    (lambda: seq_weight(3, (1, 0)), "letter 0 is not in 1..2"),
    (lambda: seq_weight(3, (3, 1)), "letter 3 is not in 1..2"),
    (lambda: seq_weight(3, (-2,)), "letter -2 is not in 1..2"),
    (lambda: subset_weight(3, (0, 1)), "index 0 is not in 1..3"),
    (lambda: subset_weight(3, (1, 4)), "index 4 is not in 1..3"),
    (lambda: subset_weight(3, (-3,)), "index -3 is not in 1..3"),
    (lambda: lusztig_weight(3, (1, 0)), r"rank 2 takes 3 counts, one per positive root, not \(1, 0"),
    (lambda: lusztig_weight(3, (1, 0, 0, 1)), "rank 2 takes 3 counts"),
    (lambda: lusztig_weight(3, (1, Fraction(1, 2), 0)), "integer entries"),
])
def test_root_lattice_sums_refuse_letters_indices_and_counts_out_of_range(compute, match):
    # a count vector indexed by letter would otherwise take letter 0 as the last letter
    with pytest.raises(ValueError, match=match):
        compute()


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(1, 5).flatmap(lambda m: st.tuples(*[st.lists(st.integers(-9, 9), min_size=m,
                                                                max_size=m)] * 2)),
       st.integers(-4, 4))
def test_weight_arithmetic_matches_the_validating_constructor(pair, k):
    # sums, negatives and multiples build with the trusted constructor
    a, b = Weight(pair[0]), Weight(pair[1])
    for got, raw in [(a + b, map(int.__add__, pair[0], pair[1])),
                     (a - b, map(int.__sub__, pair[0], pair[1])),
                     (-a, [-x for x in pair[0]]), (a * k, [x * k for x in pair[0]])]:
        expected = Weight(list(raw))
        assert got.entries == expected.entries and got.m == expected.m
        assert got == expected and hash(got) == hash(expected)


def _ref_from_alpha(m, coeffs):
    """Weight.from_alpha as it was, one c_i * alpha_i at a time: the oracle."""
    w = Weight.zero(m)
    for i, c in enumerate(coeffs, start=1):
        if c:
            w = w + Weight.alpha(m, i) * c
    return w


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(2, 6).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(st.integers(-3, 3), min_size=m - 1, max_size=m - 1))))
def test_from_alpha_matches_the_sum_of_simple_roots(case):
    m, coeffs = case
    w = Weight.from_alpha(m, coeffs)
    assert w == _ref_from_alpha(m, coeffs)
    assert w.entries == Weight(w.entries).entries and all(type(e) is int for e in w.entries)
    assert w.alpha_coords() == tuple(coeffs)
    for bad in (coeffs[:-1], coeffs + [0], coeffs[:-1] + [Fraction(1, 2)]):
        with pytest.raises(ValueError, match=f"rank {m - 1} takes {m - 1} integer alpha"):
            Weight.from_alpha(m, bad)


def test_alpha_coords_and_linear_form():
    m = 4
    for i in range(1, m):
        a = Weight.alpha(m, i)
        coords = a.alpha_coords()
        assert coords == tuple(1 if k == i - 1 else 0 for k in range(m - 1))
        assert str(a.linear_form()) == f"a{i}"
    r = Weight.root(4, 1, 3)
    assert r.alpha_coords() == (1, 1, 0)


def test_height_in_closed_form_is_the_sum_of_alpha_coordinates():
    for m in range(1, 7):
        for head in product(range(-2, 3), repeat=m - 1):
            w = Weight(head + (0,))
            if w.in_root_lattice():
                assert w.height() == sum(w.alpha_coords())
            else:
                message = f"^{re.escape(str(w))} is not in the root lattice$"
                with pytest.raises(ValueError, match=message):
                    w.height()


def test_all_ones_maps_to_zero():
    assert Weight([1, 1, 1, 1]).linear_form().is_zero()


def test_sequences_examples():
    assert sequences(2, Weight.alpha(2, 1)) == [(1,)]
    nu = Weight.alpha(3, 1) + Weight.alpha(3, 2)
    assert sequences(3, nu) == [(1, 2), (2, 1)]
    nu = Weight.from_alpha(5, [1, 2, 2, 1])
    seqs = sequences(5, nu)
    assert len(seqs) == factorial(6) // (
        factorial(1) * factorial(2) * factorial(2) * factorial(1)
    )
    assert len(seqs) == sequence_count(nu) == 180
    assert seqs == sorted(seqs)


def test_sequences_rejects_non_positive():
    with pytest.raises(ValueError):
        sequences(3, -Weight.alpha(3, 1))


def test_shuffles_examples():
    assert sorted(shuffles((1,), (2,))) == [(1, 2), (2, 1)]
    assert shuffles((1,), ()) == [(1,)]
    sh = shuffles((1, 2), (1,))
    assert len(sh) == 3
    assert sh.count((1, 1, 2)) == 2
    assert sh.count((1, 2, 1)) == 1


def test_shuffle_count_all_lengths():
    for p in range(4):
        for q in range(4):
            j = tuple(1 for _ in range(p))
            k = tuple(2 for _ in range(q))
            assert len(shuffles(j, k)) == comb(p + q, p)
            assert len(list(shuffle_permutations(p, q))) == comb(p + q, p)


def test_shuffle_multiplicity_matches_shuffle_lists():
    # every j, k, s over {1, 2, 3} with |s| <= 4
    words = [w for n in range(5) for w in product((1, 2, 3), repeat=n)]
    for j in words:
        for k in words:
            if len(j) + len(k) > 4:
                continue
            counts = Counter(shuffles(j, k))
            for s in product((1, 2, 3), repeat=len(j) + len(k)):
                assert shuffle_multiplicity(j, k, s) == counts[s], (j, k, s)
            assert shuffle_multiplicity(j, k, (1,) * (len(j) + len(k) + 1)) == 0


def test_shuffle_weight_constant():
    j, k = (1, 2), (2, 1)
    target = seq_weight(3, j) + seq_weight(3, k)
    for s in shuffles(j, k):
        assert seq_weight(3, s) == target


def test_partial_sums_strictly_increase():
    # each letter adds a simple root, so the len(seq) + 1 partial sums are
    # distinct: ft_i has one exponent per partial sum
    for seq in sequences(4, Weight.from_alpha(4, [1, 2, 1])):
        assert len(ft_i(4, seq).coeffs) == len(seq) + 1


def test_p_mu_small():
    assert str(p_mu(2, (1, 1))) == "a1"
    names = alpha_names(3)
    expect = MultiPoly.parse("a1^2*a2 + a1*a2^2", names)
    assert p_mu(3, (1, 1, 1)) == expect


def test_p_mu_degree_and_expansion():
    for m in range(2, 7):
        mu = (1,) * m
        p = p_mu(m, mu)
        assert p.is_homogeneous()
        assert p.total_degree() == m * (m - 1) // 2
        # expansion oracle: product of every positive root linear form
        names = alpha_names(m)
        prod = MultiPoly.constant(names, 1)
        for r in positive_roots(m):
            prod = prod * r.linear_form(names)
        assert p == prod


def test_p_mu_rejects_non_dominant():
    with pytest.raises(ValueError):
        p_mu(3, (1, 2, 0))


@pytest.mark.parametrize("mu", [(2, 1.7, 0), ("2", 1, 0), (1, 1, 0.0)])
def test_p_mu_refuses_a_part_that_is_not_an_int(mu):
    # before, int() truncated 1.7 and parsed "2"
    with pytest.raises(TypeError, match="parts of mu must be ints"):
        p_mu_factors(3, mu)


def test_minuscule_chain_counts():
    # one-element interval
    count, hist = minuscule_chains(4, 2, (1, 2), 5)
    assert count == 1
    # two-element chain: s_i omega_i corresponds to swapping i and i+1
    count, _ = minuscule_chains(2, 1, (2,), 1)
    assert count == 2
    count, _ = minuscule_chains(2, 1, (2,), 3)
    assert count == 4
    # multichains in a 2-chain: n+1
    for n in range(1, 6):
        count, _ = minuscule_chains(2, 1, (2,), n)
        assert count == n + 1


def test_minuscule_chain_histogram():
    # omega - tau lies in Q_+ for tau above omega in the interval order
    count, hist = minuscule_chains(2, 1, (2,), 1)
    assert hist == {Weight.zero(2): 1, Weight.alpha(2, 1): 1}


@st.composite
def _graded_posets(draw):
    """(below, grades): the transitive closure of a random DAG on 0..k-1, edges ascending."""
    k = draw(st.integers(1, 6))
    pairs = [(a, b) for b in range(k) for a in range(b)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    leq = [[a == b for b in range(k)] for a in range(k)]
    for a, b in edges:
        leq[a][b] = True
    for mid in range(k):
        for a in range(k):
            for b in range(k):
                leq[a][b] = leq[a][b] or (leq[a][mid] and leq[mid][b])
    below = [[a for a in range(k) if leq[a][b]] for b in range(k)]
    grades = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                           min_size=k, max_size=k))
    return below, grades


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_graded_posets(), st.integers(1, 4))
def test_multichains_match_brute_force(poset, n):
    below, grades = poset
    expected = [Counter() for _ in below]
    for chain in product(range(len(below)), repeat=n):
        if all(a in below[b] for a, b in zip(chain, chain[1:])):
            total = tuple(map(sum, zip(*(grades[t] for t in chain))))
            expected[chain[-1]][total] += 1
    assert multichains(below, grades, n) == [dict(c) for c in expected]
    with pytest.raises(ValueError):
        multichains(below, grades, 0)


def test_minuscule_rejects_bad_gamma():
    with pytest.raises(ValueError):
        minuscule_chains(4, 2, (1, 1), 1)


@pytest.mark.parametrize("k", [0.5, Fraction(1, 2), Fraction(2)])
def test_a_weight_is_scaled_by_ints_only(k):
    # before, * 0.5 gave entries (0.5, 0.0, 0.0) and * Fraction(1, 2) gave (1/2, 0, 0):
    # no longer int entries
    for scale in (lambda w: w * k, lambda w: k * w):
        with pytest.raises(TypeError, match="scales a weight; pass an int"):
            scale(Weight([1, 0, 0]))
    assert Weight([1, 0, 0]) * 3 == 3 * Weight([1, 0, 0]) == Weight([3, 0, 0])


@pytest.mark.parametrize("point", [(1, 2), (1, 2, 3, 4)])
def test_weight_pair_refuses_a_point_of_the_wrong_length(point):
    # before, zip cut both points to their common length and each paired to 1
    with pytest.raises(ValueError, match="needs a point of 3 entries"):
        Weight([1, 0, 0]).pair(point)
    assert Weight([1, 0, 0]).pair((1, 2, -3)) == 1
