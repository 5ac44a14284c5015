import importlib
import importlib.resources as res
import json

import pytest

from mvtk import orbital
from mvtk.centralizer import dbar_of_function
from mvtk.exactalg import MultiPoly, WeightAssignment, groebner, multidegree, saturate
from mvtk.orbital import (
    Tableau,
    _check_plucker_fixture,
    dbar_mv,
    lusztig_datum,
    orbital_ideal,
    orbital_multidegree,
    plucker_chart,
    plucker_sections,
)
from mvtk.preproj import (
    SubmoduleLattice,
    euler_interpolate,
    flag_function,
    load_module_fixture,
)
from mvtk.roota import Weight, alpha_names, lusztig_weight
from test_centralizer import _flag_minor
from test_mdeg import k_polynomial_top_down

FIXTURES = res.files("mvtk") / "fixtures"
A4_TAU = [[1, 2], [3, 4], [5]]
A5_TAU = [[1, 1, 1, 3], [2, 2, 5], [3, 4], [4, 6]]


def test_a4_mv_side_equals_flag_function():
    # D(Z_tau) from the chart ideal's multidegree over p_mu, against the
    # flag function of the matching preprojective module: the two build
    # their denominators by different routes (p_mu_factors vs dbar_i)
    a4 = load_module_fixture(str(FIXTURES / "a4_module.json"))
    assert dbar_mv(orbital_ideal(Tableau(A4_TAU))) == flag_function(a4)


@pytest.mark.slow
def test_a5_mv_side_equals_flag_function():
    # the paper's A5 identity, assembled in full: 178 terms on the flag side;
    # the default primes include 2 and 3, where a = 2 reduces badly
    a5 = load_module_fixture(str(FIXTURES / "a5_module.json"), params={"a": 2})
    assert dbar_mv(orbital_ideal(Tableau(A5_TAU))) == flag_function(a5, primes=(5, 7, 11, 13))


def test_orbital_ideal_reports_failed_extraction(monkeypatch):
    monkeypatch.setattr(orbital, "dimension", lambda gens, nvars: -1)
    with pytest.raises(ValueError, match="component extraction failed"):
        orbital_ideal(Tableau(A4_TAU))


@pytest.fixture(scope="module")
def a4_plucker():
    # checked against the fixture's Pluecker relations, signs solved over GF(2)
    fixture = json.loads((FIXTURES / "a4_plucker.json").read_text())
    return plucker_chart(Tableau(A4_TAU), fixture=fixture)


@pytest.mark.parametrize("n, total", [(1, 17), (2, 110), (3, 450)])
def test_a4_sections_equal_chain_euler_characteristics(a4_plucker, n, total):
    # identity (b): the degree-n sections, by weight, are the Euler
    # characteristics of the n-step chain varieties of the A4 module
    sections = plucker_sections(Tableau(A4_TAU), n, chart=a4_plucker)
    assert sum(sections.values()) == total
    a4 = load_module_fixture(str(FIXTURES / "a4_module.json"))
    primes = (2, 3, 5, 7, 11, 13, 17, 19)
    samples = {}
    for q in primes:
        for dims, count in SubmoduleLattice(a4.reduce_mod(q)).chain_counts_by_total(n).items():
            samples.setdefault(dims, []).append((q, count))
    chains = {}
    for dims, points in samples.items():
        chi = euler_interpolate(points, len(primes) - 2)
        if chi:
            weight = Weight.from_alpha(a4.m, dims)
            chains[weight] = chains.get(weight, 0) + chi
    assert sections == chains


@pytest.mark.parametrize("n, total", [(4, 1400), (5, 3626), (6, 8232)])
def test_a4_section_totals(a4_plucker, n, total):
    # beyond the chain counts above: the totals of the degree-n sections
    sections = plucker_sections(Tableau(A4_TAU), n, chart=a4_plucker)
    assert sum(sections.values()) == total


def test_a4_sections_refuse_a_degree_that_is_not_an_int(a4_plucker):
    # before, n = True returned the 17 sections of degree 1
    with pytest.raises(TypeError, match="degree n = True is not an int"):
        plucker_sections(Tableau(A4_TAU), True, chart=a4_plucker)


def test_a4_fixture_sign_flips_are_pinned(a4_plucker):
    # the labels whose fixture coordinate is minus the computed minor
    fixture = json.loads((FIXTURES / "a4_plucker.json").read_text())
    flips = _check_plucker_fixture(a4_plucker.kernel, a4_plucker.variables,
                                   a4_plucker.subsets, fixture)
    assert flips == {"b1", "b2", "b3", "b4", "b5", "b6", "b9", "b10", "b12"}


@pytest.fixture
def buchberger_runs(monkeypatch):
    # the exactalg package re-exports the function `groebner` under the
    # submodule's name, so the module is looked up by its full name
    module = importlib.import_module("mvtk.exactalg.groebner")
    runs = []
    inner = module._buchberger

    def counted(*args):
        runs.append(args)
        return inner(*args)

    monkeypatch.setattr(module, "_buchberger", counted)
    return runs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_plucker_sections_run_no_buchberger(a4_plucker, buchberger_runs, n):
    # the chart stores the saturated homogeneous basis and the K-polynomial
    # of its initial ideal; the section count reads the stored numerator
    plucker_sections(Tableau(A4_TAU), n, chart=a4_plucker)
    assert len(buchberger_runs) == 0


def test_plucker_sections_reuse_the_chart_numerator(a4_plucker, monkeypatch):
    # the K-polynomial is built once, in plucker_chart; every later count
    # runs only the DP over the variables
    module = importlib.import_module("mvtk.exactalg.mdeg")
    runs = []
    inner = module._k_polynomial

    def counted(*args):
        runs.append(args)
        return inner(*args)

    monkeypatch.setattr(module, "_k_polynomial", counted)
    numerator = a4_plucker.numerator
    for n in (1, 2, 3, 2):
        plucker_sections(Tableau(A4_TAU), n, chart=a4_plucker)
    assert runs == []
    assert a4_plucker.numerator is numerator


def test_a4_chart_numerator_matches_the_top_down_oracle(a4_plucker):
    # the largest K-polynomial of the examples: 55 lead monomials in 17
    # variables, 6-coordinate grades, 1,039 terms
    lead = a4_plucker.homogeneous.leading_monomials()
    grades = a4_plucker.weight_assignment().grades()
    expected = k_polynomial_top_down(lead, grades)
    assert len(lead) == 55 and len(expected) == 1039
    assert a4_plucker.numerator.terms == expected
    assert importlib.import_module("mvtk.exactalg.mdeg")._k_polynomial(lead, grades) == expected


def test_a4_homogeneous_kernel_is_saturated_by_u(a4_plucker):
    # plucker_chart keeps the homogenized kernel basis unsaturated, on the
    # strength of Cox-Little-O'Shea ch. 8 sec. 4 Thm 4; the saturation by u
    # must give the same reduced basis back
    hom = a4_plucker.homogeneous
    assert saturate(hom, MultiPoly.var(hom.variables, "u")) == hom


def test_plucker_minors_are_expanded_on_the_reduced_chart(monkeypatch):
    # the chart matrix enters with the pruned variables at zero, in the ring
    # of the others: each of the 252 subsets gets one normal form there, and
    # the 230 minors that vanish on the chart arrive as zero
    orb = orbital_ideal(Tableau(A4_TAU))
    seen = []
    inner = orbital.normal_form

    def counted(f, G):
        seen.append((f.variables, f.is_zero()))
        return inner(f, G)

    monkeypatch.setattr(orbital, "normal_form", counted)
    chart = plucker_chart(Tableau(A4_TAU), orb)
    assert len(seen) == 252 and {ring for ring, _ in seen} == {orb.basis.variables}
    assert sum(zero for _, zero in seen) == 230
    # of the other 22, five agree up to sign with an earlier coordinate
    assert len(chart.subsets) == 17


def test_orbital_ideal_carries_its_basis(buchberger_runs):
    # one run per rank-condition refresh (5) and per exact-rank saturation
    # (10); none on a basis already in hand
    orbital_ideal(Tableau(A5_TAU))
    assert len(buchberger_runs) == 15


def test_orbital_ideal_walks_the_rank_conditions_once(monkeypatch):
    # one pivot reduction per (i, r): step i runs r = 1.. up to the largest
    # part of its restricted shape, where R = 0 (at least once)
    tau = Tableau(A5_TAU)
    calls = []
    inner = orbital._pivot_reduce

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(orbital, "_pivot_reduce", counted)
    orbital_ideal(tau)
    pairs = sum(max(1, *tau.restricted_shape(i)) for i in range(1, tau.m + 1))
    assert pairs == 22
    assert len(calls) == pairs


def test_lusztig_datum_of_a5_tableau_matches_fixture():
    fixture = json.loads((FIXTURES / "a5_module.json").read_text())
    assert lusztig_datum(Tableau(A5_TAU)) == tuple(fixture["expected_lusztig"])


@pytest.mark.parametrize("rows", [A4_TAU, A5_TAU], ids=["A4", "A5"])
def test_lusztig_weight_is_the_tableau_weight(rows):
    tau = Tableau(rows)
    assert lusztig_weight(tau.m, lusztig_datum(tau)) == tau.weight_nu()


@pytest.mark.parametrize("rows, codim", [(A4_TAU, 4), (A5_TAU, 13)], ids=["A4", "A5"])
def test_orbital_multidegree_has_the_chart_codimension(rows, codim):
    # pruned zero variables multiply back in, so the degree is the
    # codimension in the full chart, not in the live ring
    orb = orbital_ideal(Tableau(rows))
    md = orbital_multidegree(orb)
    assert len(orb.chart.variables) - orb.dim == codim
    assert md.is_homogeneous()
    assert md.total_degree() == codim


BORDERED_TAU = [[1, 1, 2, 2], [3, 3, 5], [4, 6]]
BORDERED_DBAR = (
    "(a1*a2 + a2^2 + 2*a1*a3 + 2*a2*a3 + a3^2 + 2*a1*a4 + 2*a2*a4 + 2*a3*a4"
    " + a4^2 + a1*a5 + a2*a5 + a3*a5 + a4*a5) / ((a1)^2*(a1 + a2)^2"
    "*(a1 + a2 + a3)*(a1 + a2 + a3 + a4)*(a1 + a2 + a3 + a4 + a5)*(a2 + a3 + a4)"
    "*(a2 + a3 + a4 + a5)*(a3 + a4)*(a3 + a4 + a5)*(a4)*(a4 + a5))"
)


def test_bordered_tau_value_and_shape():
    # its largest rank condition has the most minors of the pinned cases;
    # 18 chart variables and a component of dimension 11: degree 7
    orb = orbital_ideal(Tableau(BORDERED_TAU, m=6))
    assert str(dbar_mv(orb)) == BORDERED_DBAR
    md = orbital_multidegree(orb)
    assert (len(orb.chart.variables), orb.dim) == (18, 11)
    assert md.is_homogeneous()
    assert md.total_degree() == 7


@pytest.mark.parametrize("rows, expected", [
    # the rank conditions cut out more than one component here, and a
    # union, or a component where a rank drops, adds a wrong term: each
    # value is 1 over nine and eight roots
    ([[1, 1, 1, 2], [2, 3, 3, 4], [4, 5], [5]],
     "(1) / ((a1)*(a1 + a2)*(a1 + a2 + a3)*(a1 + a2 + a3 + a4)*(a2)*(a2 + a3)"
     "*(a2 + a3 + a4)*(a3)*(a3 + a4))"),
    ([[1, 1, 1, 3], [2, 2, 2, 4], [3, 4, 5], [5]],
     "(1) / ((a1 + a2)*(a1 + a2 + a3)*(a1 + a2 + a3 + a4)*(a2)*(a2 + a3)"
     "*(a2 + a3 + a4)*(a3)*(a3 + a4))"),
    # a bordered pivot block (a7^2) vanishes on the whole variety, so only
    # the ideal of all minors has dimension 6
    ([[1, 1, 1, 1], [2, 2, 3, 3], [4, 4], [5, 5]], "(1) / ((a2)^2*(a2 + a3)^2*(a2 + a3 + a4)^2)"),
], ids=["rank-drop", "union", "vanishing-pivot"])
def test_dbar_mv_keeps_the_exact_rank_component(rows, expected):
    assert str(dbar_mv(Tableau(rows, m=5))) == expected


@pytest.mark.parametrize("rows, m, minors, height", [
    ([[1, 1, 3], [2, 2, 4], [3, 6], [4], [5]], 6, [(3, 4, 6)], 7),
    ([[1, 1, 3, 4], [2, 2, 4, 5], [3, 5]], 5, [(4, 5), (3, 4, 5)], 12),
    ([[1, 1, 3, 5], [2, 2, 4, 6], [3, 5], [4, 6]], 6, [(5, 6), (3, 4, 5, 6)], 16),
], ids=["D123,346", "I(5,2)+I(5,3)", "I(6,2)+I(6,4)"])
def test_mv_side_equals_the_measure_side_up_to_sign(rows, m, minors, height):
    # two independent pipelines: the chart ideal's multidegree, and D-bar of
    # a product of flag minors Delta_{[1..k], J} (the injective I(m, k) is the
    # minor with J = [m-k+1..m]).  Delta_{123,346} has odd height, so it
    # also pins the sign between dbar_mv and the measure side (ROADMAP item
    # 3), which this test records but does not settle
    tau = Tableau(rows, m=m)
    assert tau.weight_nu().height() == height
    f = _flag_minor(m, minors[0])
    for cols in minors[1:]:
        f = f * _flag_minor(m, cols)
    assert dbar_mv(tau) == dbar_of_function(f) * (-1) ** height


def test_orbital_ideal_names_a_vanishing_exact_rank_element(monkeypatch):
    # with every coefficient 0 the first exact-rank element, at step 2 of
    # A4, is 0; the error names the step, the power, the rank, the seed and
    # the range
    monkeypatch.setattr(orbital, "_EXACT_RANK_RANGE", 0)
    with pytest.raises(ValueError, match=r"step 2, power 1 \(R = 1\) vanishes .*seed 1, "
                                         r"coefficients in \+-0"):
        orbital_ideal(Tableau(A4_TAU))


def test_orbital_ideal_refuses_past_the_minor_cap(monkeypatch):
    monkeypatch.setattr(orbital, "MINOR_CAP", 1)
    with pytest.raises(ValueError, match="minor enumeration cap exceeded"):
        orbital_ideal(Tableau(A4_TAU))


@pytest.mark.parametrize("rows, m", [
    ([[1.7, 2], ["3", 4], [5]], None),  # int() would truncate 1.7 and parse "3"
    ([[1, 2], [3, 4], [5.0]], None),
    (A4_TAU, 5.0),
])
def test_tableau_refuses_non_integral_input(rows, m):
    with pytest.raises(TypeError, match="must be ints"):
        Tableau(rows, m=m)


@pytest.mark.parametrize("mu", [(2, 1.7, 0), ("2", 1, 0), (2.0, 1, 0)])
def test_chart_refuses_a_part_of_mu_that_is_not_an_int(mu):
    # before, int() truncated 1.7 and parsed "2"
    with pytest.raises(TypeError, match="parts of mu must be ints"):
        orbital.TmuChart(3, mu)


def test_plucker_sections_refuse_a_negative_degree():
    # before, the histogram's layer list was empty and indexing it raised IndexError
    tau = Tableau(A4_TAU)
    chart = plucker_chart(tau)
    with pytest.raises(ValueError, match="n = -1 is negative"):
        plucker_sections(tau, -1, chart)
    assert plucker_sections(tau, 0, chart) == {Weight.zero(5): 1}


@pytest.mark.parametrize("rows, m", [([[1, 1], [2]], 2), ([[1], [2]], 3), ([[1, 1], [2, 2], [3]], 4)])
def test_dbar_mv_of_an_empty_chart_ring_is_one(rows, m):
    # every chart variable is forced to zero: nu = 0 and Z_tau is a point
    orb = orbital_ideal(Tableau(rows, m=m))
    assert len(orb.removed_vars) == len(orb.chart.variables)
    assert dbar_mv(orb) == 1
    empty = WeightAssignment((), {}, alpha_names(m))
    assert multidegree(groebner([]), empty) == MultiPoly.constant(alpha_names(m), 1)
