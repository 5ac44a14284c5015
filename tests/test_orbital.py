import importlib
import importlib.resources as res
import json

import pytest

from mvtk import orbital
from mvtk.orbital import Tableau, dbar_mv, orbital_ideal, plucker_chart, plucker_sections
from mvtk.preproj import (
    SubmoduleLattice,
    euler_interpolate,
    flag_function,
    load_module_fixture,
)
from mvtk.roota import Weight

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


@pytest.mark.parametrize("n, total", [(4, 1400), (5, 3626)])
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
    # the chart stores the saturated homogeneous basis; the Hilbert count
    # reads its leading monomials
    plucker_sections(Tableau(A4_TAU), n, chart=a4_plucker)
    assert len(buchberger_runs) == 0


def test_orbital_ideal_carries_its_basis(buchberger_runs):
    # one run per rank-condition refresh, the first basis and each
    # saturation; none on a basis already in hand
    orb = orbital_ideal(Tableau(A5_TAU))
    assert len(buchberger_runs) <= 40
    assert orb.groebner_basis() is orb.basis
