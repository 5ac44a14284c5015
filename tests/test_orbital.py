import importlib.resources as res

import pytest

from mvtk import orbital
from mvtk.orbital import Tableau, dbar_mv, orbital_ideal
from mvtk.preproj import flag_function, load_module_fixture

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
