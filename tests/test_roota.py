from fractions import Fraction
from collections import Counter
from itertools import product
from math import comb, factorial

import pytest

from mvtk.exactalg import MultiPoly
from mvtk.roota import (
    Weight,
    alpha_names,
    minuscule_chains,
    p_mu,
    partial_sums,
    positive_roots,
    seq_weight,
    sequence_count,
    sequences,
    shuffle_multiplicity,
    shuffle_permutations,
    shuffles,
)


def test_weight_canonical_form():
    w = Weight([3, 1, 2])
    assert w.entries == (1, -1, 0)
    assert Weight([1, 1, 1]).is_zero()
    assert Weight.alpha(4, 2) == Weight.eps(4, 2) - Weight.eps(4, 3)


def test_alpha_coords_and_linear_form():
    m = 4
    for i in range(1, m):
        a = Weight.alpha(m, i)
        coords = a.alpha_coords()
        assert coords == tuple(1 if k == i - 1 else 0 for k in range(m - 1))
        assert str(a.linear_form()) == f"a{i}"
    r = Weight.root(4, 1, 3)
    assert r.alpha_coords() == (1, 1, 0)


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


def test_partial_sums():
    m = 3
    assert partial_sums(m, (1,)) == [Weight.zero(m), Weight.alpha(m, 1)]
    a1, a2 = Weight.alpha(m, 1), Weight.alpha(m, 2)
    assert partial_sums(m, (1, 2, 1)) == [Weight.zero(m), a1, a1 + a2, a1 * 2 + a2]
    assert partial_sums(m, (2, 1, 1)) == [Weight.zero(m), a2, a1 + a2, a1 * 2 + a2]


def test_partial_sums_strictly_increase():
    for seq in sequences(4, Weight.from_alpha(4, [1, 2, 1])):
        sums = partial_sums(4, seq)
        for a, b, letter in zip(sums, sums[1:], seq):
            assert (b - a) == Weight.alpha(4, letter)


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


def test_minuscule_rejects_bad_gamma():
    with pytest.raises(ValueError):
        minuscule_chains(4, 2, (1, 1), 1)
