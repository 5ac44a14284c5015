import importlib
import importlib.resources as res
import json

import pytest

from mvtk import orbital
from mvtk.exactalg import MultiPoly, WeightAssignment, groebner, multidegree, saturate
from mvtk.orbital import (
    Tableau,
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


def test_orbital_ideal_carries_its_basis(buchberger_runs):
    # one run per rank-condition refresh and each saturation; none on a
    # basis already in hand, the last rank-condition basis included
    orb = orbital_ideal(Tableau(A5_TAU))
    assert len(buchberger_runs) <= 29


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


def test_bordered_minor_branch(monkeypatch):
    # a rank condition with more than the full-enumeration threshold of
    # minors: its (R+1)-minors come from one R x R pivot block, bordered
    calls = []
    inner = orbital._bordered_minors

    def counted(*args, **kwargs):
        out = inner(*args, **kwargs)
        calls.append(out is not None)
        return out

    monkeypatch.setattr(orbital, "_bordered_minors", counted)
    orb = orbital_ideal(Tableau(BORDERED_TAU, m=6))
    assert calls == [True]
    assert str(dbar_mv(orb)) == BORDERED_DBAR
    md = orbital_multidegree(orb)
    assert (len(orb.chart.variables), orb.dim) == (18, 11)
    assert md.is_homogeneous()
    assert md.total_degree() == 7
    # with every rank condition enumerating all its minors (no bordering
    # call) the value is the same
    monkeypatch.setattr(orbital, "FULL_MINOR_THRESHOLD", 10**9)
    assert str(dbar_mv(Tableau(BORDERED_TAU, m=6))) == BORDERED_DBAR
    assert calls == [True]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the witness order decides the component (ROADMAP item 1)")
@pytest.mark.parametrize("rows", [[[1, 1, 1, 2], [2, 3, 3, 4], [4, 5], [5]],
                                  [[1, 1, 1, 3], [2, 2, 2, 4], [3, 4, 5], [5]]])
def test_dbar_mv_does_not_depend_on_the_minor_strategy(monkeypatch, rows):
    # the bordered branch puts its pivot determinant first among the
    # witnesses, the all-minors branch adds none, and on these tableaux the
    # two witness lists saturate onto different components.  Item 1's
    # exact-rank saturation sides with the all-minors value on the first
    # and with the bordered value on the second
    bordered = dbar_mv(Tableau(rows, m=5))
    monkeypatch.setattr(orbital, "FULL_MINOR_THRESHOLD", 10**9)
    assert dbar_mv(Tableau(rows, m=5)) == bordered


@pytest.mark.parametrize("rows, m", [([[1, 1], [2]], 2), ([[1], [2]], 3), ([[1, 1], [2, 2], [3]], 4)])
def test_dbar_mv_of_an_empty_chart_ring_is_one(rows, m):
    # every chart variable is forced to zero: nu = 0 and Z_tau is a point
    orb = orbital_ideal(Tableau(rows, m=m))
    assert len(orb.removed_vars) == len(orb.chart.variables)
    assert dbar_mv(orb) == 1
    empty = WeightAssignment((), {}, alpha_names(m))
    assert multidegree(groebner([]), empty) == MultiPoly.constant(alpha_names(m), 1)
