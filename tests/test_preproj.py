import importlib.resources as res
from fractions import Fraction

import pytest

from mvtk.exactalg import MultiPoly
from mvtk.measures import RatFunc, dbar_i
from mvtk.preproj import (
    QuiverRep,
    SubmoduleLattice,
    brick_module,
    count_points,
    euler_interpolate,
    flag_data,
    flag_function,
    flag_function_from_chi,
    flag_function_generic,
    hn_verify,
    injective_module,
    load_certificate,
    load_module_fixture,
    pol_M,
    simple_module,
)
from mvtk.roota import (
    Weight,
    alpha_names,
    p_mu,
    sequences,
    shuffle_multiplicity,
    shuffles,
)

FIXTURES = res.files("mvtk") / "fixtures"

TABLE_ROWS = {
    (0, 0, 0, 0): lambda n: 1,
    (0, 1, 0, 0): lambda n: n,
    (0, 0, 1, 0): lambda n: n,
    (0, 0, 1, 1): lambda n: n * (n + 1) // 2,
    (0, 1, 1, 0): lambda n: n * (3 * n + 1) // 2,
    (0, 1, 1, 1): lambda n: n * (n + 1) * (5 * n + 1) // 6,
    (0, 2, 1, 0): lambda n: n * n * (n + 1) // 2,
    (1, 1, 1, 0): lambda n: n * (n + 1) * (n + 2) // 6,
    (0, 1, 2, 1): lambda n: n * (n + 1) ** 2 * (n + 2) // 12,
    (0, 2, 1, 1): lambda n: n * n * (n + 1) * (2 * n + 1) // 6,
    (1, 1, 1, 1): lambda n: n * (n + 1) * (n + 2) * (3 * n + 1) // 24,
    (1, 2, 1, 0): lambda n: n * n * (n + 1) * (n + 2) // 6,
    (0, 2, 2, 1): lambda n: n * n * (n + 1) ** 2 * (n + 2) // 12,
    (1, 2, 1, 1): lambda n: n * n * (n + 1) * (n + 2) * (3 * n + 1) // 24,
    (1, 2, 2, 1): lambda n: n * n * (n + 1) ** 2 * (n + 2) * (5 * n + 7) // 144,
}


def a4_module():
    return load_module_fixture(str(FIXTURES / "a4_module.json"))


def a5_module(a=2):
    return load_module_fixture(str(FIXTURES / "a5_module.json"), params={"a": a})


def total_formula(n):
    return (n + 1) ** 2 * (n + 2) ** 2 * (n + 3) * (5 * n + 12) // 144


def test_relation_enforced():
    with pytest.raises(ValueError):
        QuiverRep(3, (1, 1), {(1, 2): [[1]], (2, 1): [[1]]})
    # S_1 + S_2 with zero maps is fine
    QuiverRep(3, (1, 1), {})


def test_fixture_modules_satisfy_relation():
    assert a4_module().relation_holds()
    assert a5_module().relation_holds()
    assert a5_module(a=3).relation_holds()


def test_submodule_counts_simple_cases():
    m = simple_module(4, 1)
    two = m.direct_sum(m)
    for q in (2, 3, 5):
        assert count_points(two, ("submodules", (1, 0, 0)), q) == q + 1
    assert count_points(simple_module(2, 1), ("chains", 1, (0,)), 7) == 1


def test_a4_submodule_table_row():
    M = a4_module()
    for q in (2, 3, 5):
        assert count_points(M, ("submodules", (0, 1, 1, 0)), q) == q + 1


def test_a4_submodule_dim_vectors_match_table():
    lat = SubmoduleLattice(a4_module().reduce_mod(3))
    assert lat.submodule_dim_vectors() == set(TABLE_ROWS)


def test_euler_interpolate():
    assert euler_interpolate([(2, 3), (3, 4), (5, 6)], 1) == 2
    assert euler_interpolate([(2, 1), (3, 1), (5, 1)], 0) == 1
    with pytest.raises(ValueError):
        euler_interpolate([(2, 2), (3, 3), (5, 7)], 1)  # not on a line
    with pytest.raises(ValueError):
        euler_interpolate([(2, 3)], 1)  # not enough points


def test_a4_euler_characteristics_table():
    M = a4_module()
    for nu, f in TABLE_ROWS.items():
        samples = [(q, count_points(M, ("submodules", nu), q)) for q in (2, 3, 5)]
        assert euler_interpolate(samples, 1) == f(1), nu


def test_a4_chain_table_at_small_n():
    M = a4_module()
    primes = (2, 3, 5, 7, 11, 13, 17, 19)
    for n in (1, 2, 3):
        per = {}
        for q in primes:
            lat = SubmoduleLattice(M.reduce_mod(q))
            for dv, cnt in lat.chain_counts_by_last(n).items():
                per.setdefault(dv, []).append((q, cnt))
        assert set(per) == set(TABLE_ROWS)
        for dv, samples in per.items():
            assert euler_interpolate(samples, len(primes) - 2) == TABLE_ROWS[dv](n)


def test_chain_totals_match_closed_formula():
    M = a4_module()
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    for n in range(1, 5):
        samples = []
        for q in primes:
            lat = SubmoduleLattice(M.reduce_mod(q))
            samples.append((q, sum(lat.chain_counts_by_total(n).values())))
        assert euler_interpolate(samples, len(primes) - 2) == total_formula(n)


def test_injective_modules():
    i22 = injective_module(5, 2)
    assert i22.dims == (1, 2, 2, 1)
    assert injective_module(2, 1).dims == (1,)
    assert injective_module(6, 2).dims == (1, 2, 2, 2, 1)
    assert injective_module(6, 4).dims == (1, 2, 2, 2, 1)
    assert injective_module(6, 3).dims == (1, 2, 3, 2, 1)


def test_injective_socle_certificate():
    for m, i in [(4, 2), (5, 2), (6, 2), (6, 3)]:
        rep = injective_module(m, i)
        socle = rep.reduce_mod(101).socle_dims()
        assert socle == tuple(1 if v == i else 0 for v in range(1, m))


def test_flag_function_trivial_cases():
    z = QuiverRep(3, (0, 0), {})
    assert flag_function(z) == RatFunc.constant(alpha_names(3), 1)
    s1 = simple_module(3, 1)
    assert flag_function(s1) == dbar_i(3, (1,))


def test_a4_flag_pattern_and_identity():
    M = a4_module()
    chi = flag_data(M, primes=(2, 3, 5))
    assert sum(1 for v in chi.values() if v == 1) == 11
    assert sum(1 for v in chi.values() if v == 2) == 7
    ff = flag_function_from_chi(5, chi, method="direct")
    names = alpha_names(5)
    expected = MultiPoly.parse(
        "(a1*a2 + a2^2 + a2*a3)*a4^2 + "
        "(a1*a2^2 + a2^3 + a2*a3^2 + 2*(a1*a2 + a2^2)*a3)*a4",
        names,
    )
    assert ff * p_mu(5, (1,) * 5) == RatFunc.from_poly(expected)
    # the two evaluation routes agree
    assert flag_function_from_chi(5, chi, method="interpolate") == ff


def test_multiplicativity_small():
    m = 4
    s1, s2 = simple_module(m, 1), simple_module(m, 2)
    both = s1.direct_sum(s2)
    assert flag_function(both) == flag_function(s1) * flag_function(s2)
    b13 = brick_module(m, 1, 3)
    pair = b13.direct_sum(simple_module(m, 3))
    assert flag_function(pair) == flag_function(b13) * flag_function(simple_module(m, 3))


def test_shuffle_recursion_on_direct_sum():
    m = 4
    s1, s2 = simple_module(m, 1), brick_module(m, 2, 4)
    both = s1.direct_sum(s2)
    chi_m = flag_data(s1, primes=(2, 3, 5))
    chi_n = flag_data(s2, primes=(2, 3, 5))
    chi_sum = flag_data(both, primes=(2, 3, 5))
    seqs = set(chi_sum)
    for j, cj in chi_m.items():
        for k, ck in chi_n.items():
            for s in set(shuffles(j, k)):
                seqs.add(s)
    for s in seqs:
        expect = 0
        for j, cj in chi_m.items():
            for k, ck in chi_n.items():
                expect += cj * ck * shuffles(j, k).count(s)
        assert chi_sum.get(s, 0) == expect, s


def test_multiplicativity_sampled_on_injective_pair():
    # composition-series counts of I(w2) + I(w4) at rank 5, per fixed type,
    # against the shuffle convolution of the factors
    m = 6
    i2 = injective_module(m, 2)
    i4 = injective_module(m, 4)
    chi2 = flag_data(i2, primes=(2, 3, 5))
    chi4 = flag_data(i4, primes=(2, 3, 5))
    target = i2.direct_sum(i4)
    samples = [
        (3, 2, 1, 2, 3, 4, 5, 4, 2, 3, 2, 1, 4, 3, 5, 4),
        (5, 4, 3, 2, 1, 2, 3, 4, 5, 4, 3, 2, 3, 2, 1, 4),
    ]
    # add the top sequences from the factor convolution
    j = max(chi2)
    k = max(chi4)
    samples.extend(shuffles(j, k)[:2])
    primes = (2, 3, 5, 7, 11)
    for seq in samples:
        counts = [(q, count_points(target, ("compseries", seq), q)) for q in primes]
        chi = euler_interpolate(counts, len(primes) - 2)
        expect = 0
        for jj, cj in chi2.items():
            for kk, ck in chi4.items():
                if len(jj) + len(kk) != len(seq):
                    continue
                expect += cj * ck * shuffle_multiplicity(jj, kk, seq)
        assert chi == expect, seq


def test_pol_m_examples():
    m = 3
    s1 = simple_module(m, 1)
    assert pol_M(s1) == {Weight.zero(m), -Weight.alpha(m, 1)}
    rhombus = pol_M(s1.direct_sum(simple_module(m, 2)))
    a1, a2 = Weight.alpha(m, 1), Weight.alpha(m, 2)
    assert rhombus == {Weight.zero(m), -a1, -a2, -(a1 + a2)}


def test_pol_m_a4_table():
    got = pol_M(a4_module())
    expect = {-Weight.from_alpha(5, dv) for dv in TABLE_ROWS}
    assert got == expect


def test_hn_certificates():
    M = a4_module()
    cert = load_certificate(str(FIXTURES / "a4_module.json"))
    assert hn_verify(M, cert) == (1, 0, 0, 0, 1, 1, 0, 0, 1, 0)
    s1 = simple_module(2, 1)
    from mvtk.preproj import FiltrationCertificate

    simple_cert = FiltrationCertificate(2, [((1, 2), 1, {})])
    assert hn_verify(s1, simple_cert) == (1,)


def test_hn_certificate_a5():
    for a in (2, 3):
        Ma = a5_module(a)
        cert = load_certificate(str(FIXTURES / "a5_module.json"), params={"a": a})
        assert hn_verify(Ma, cert) == (0, 1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0)


def test_hn_rejects_wrong_certificate():
    from mvtk.preproj import FiltrationCertificate

    s1 = simple_module(2, 1)
    bad = FiltrationCertificate(2, [((1, 2), 2, {})])
    with pytest.raises(ValueError):
        hn_verify(s1, bad)


def test_a5_flag_counts():
    chi = flag_data(a5_module(2), primes=(5, 7, 11))
    assert sum(1 for v in chi.values() if v == 1) == 104
    assert sum(1 for v in chi.values() if v == 2) == 74
    assert len(chi) == 178


def test_generic_parameter_agreement():
    chi2 = flag_data(a5_module(2), primes=(5, 7, 11))
    chi3 = flag_data(a5_module(3), primes=(5, 7, 11))
    assert chi2 == chi3
    # and the disagreement path trips on genuinely different modules
    with pytest.raises(ValueError):
        flag_function_generic(
            lambda a: simple_module(3, 1) if a == 2 else simple_module(3, 2),
            values=(Fraction(2), Fraction(3)),
            primes=(2, 3, 5),
        )


def test_budget_guard():
    big = injective_module(6, 3)
    doubled = big.direct_sum(big)
    with pytest.raises(ValueError):
        count_points(doubled, ("submodules", (1, 1, 1, 1, 1)), 11, budget=1000)
