"""The exact linear-algebra kernel against sympy, over Q and over F_p."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, Matrix
from sympy.polys.matrices import DomainMatrix

from mvtk.exactalg import MultiPoly
from mvtk.exactalg.linalg import (
    coords, identity, inverse, mat_mul, mat_vec, null_space, rref, solve,
)
from mvtk.orbital import _check_plucker_fixture

FIELDS = (None, 2, 3, 5, 7)   # None is Q
_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def _entry(p):
    if p is None:
        return st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.integers(-10, 10)


@st.composite
def _matrices(draw, p):
    """A rows x cols matrix of rank at most k, as a product of two factors."""
    rows, cols, k = draw(st.integers(0, 5)), draw(st.integers(1, 5)), draw(st.integers(0, 5))
    left = draw(st.lists(st.lists(_entry(p), min_size=k, max_size=k), min_size=rows, max_size=rows))
    right = draw(st.lists(st.lists(_entry(p), min_size=cols, max_size=cols), min_size=k, max_size=k))
    return [[sum((a * right[t][c] for t, a in enumerate(row)), Fraction(0) if p is None else 0)
             for c in range(cols)] for row in left], cols


@st.composite
def _systems(draw):
    p = draw(st.sampled_from(FIELDS))
    mat, n = draw(_matrices(p))
    return p, mat, n


def _reduce(x, p):
    return Fraction(x) if p is None else x % p


def _dot(row, vec, p):
    return _reduce(sum(a * b for a, b in zip(row, vec)), p)


def _oracle_rref(mat, n, p):
    """sympy's rref: Matrix.rref over Q, DomainMatrix.rref over GF(p)."""
    if not mat:
        return ()
    if p is None:
        reduced = Matrix(mat).rref()[0].tolist()
        out = [tuple(Fraction(int(x.p), int(x.q)) for x in row) for row in reduced]
    else:
        field = GF(p)
        dm = DomainMatrix([[field(int(x)) for x in row] for row in mat], (len(mat), n), field)
        out = [tuple(int(x) % p for x in row) for row in dm.rref()[0].to_list()]
    return tuple(row for row in out if any(row))


@_SETTINGS
@given(_systems())
def test_rref_matches_sympy(system):
    p, mat, n = system
    assert rref(mat, p) == _oracle_rref(mat, n, p)


@_SETTINGS
@given(_systems())
def test_null_space_annihilates_the_rows(system):
    p, mat, n = system
    basis = null_space(mat, n, p)
    assert len(basis) == n - len(_oracle_rref(mat, n, p))
    assert len(_oracle_rref(basis, n, p)) == len(basis)  # independent
    for vec in basis:
        assert all(_dot(row, vec, p) == 0 for row in mat)


@_SETTINGS
@given(_systems(), st.data())
def test_solve_satisfies_or_detects_inconsistency(system, data):
    p, mat, n = system
    rhs = data.draw(st.lists(_entry(p), min_size=len(mat), max_size=len(mat)))
    rank = len(_oracle_rref(mat, n, p))
    aug_rank = len(_oracle_rref([row + [b] for row, b in zip(mat, rhs)], n + 1, p))
    if aug_rank > rank:
        with pytest.raises(ValueError, match="inconsistent"):
            solve(mat, rhs, n, p)
        return
    x = solve(mat, rhs, n, p)
    assert len(x) == n
    assert all(_dot(row, x, p) == _reduce(b, p) for row, b in zip(mat, rhs))
    pivots = {next(i for i, v in enumerate(row) if v) for row in _oracle_rref(mat, n, p)}
    assert all(x[i] == 0 for i in range(n) if i not in pivots)


@_SETTINGS
@given(_systems(), st.data())
def test_coords_round_trip(system, data):
    p, mat, n = system
    basis = rref(mat, p)
    c = [_reduce(x, p) for x in data.draw(st.lists(_entry(p), min_size=len(basis),
                                                     max_size=len(basis)))]
    vec = [_reduce(sum(ci * row[j] for ci, row in zip(c, basis)), p) for j in range(n)]
    assert coords(vec, basis, p) == c
    other = data.draw(st.lists(_entry(p), min_size=n, max_size=n))
    outside = len(_oracle_rref(list(basis) + [other], n, p)) > len(basis)
    assert (coords(other, basis, p) is None) == outside


@_SETTINGS
@given(_systems(), st.data())
def test_mat_vec_matches_sympy(system, data):
    p, mat, n = system
    vec = data.draw(st.lists(_entry(p), min_size=n, max_size=n))
    expect = tuple(_reduce(x, p) for x in (Matrix(mat) * Matrix(vec) if mat else []))
    assert mat_vec(mat, vec, p) == expect


@_SETTINGS
@given(_systems(), st.data())
def test_mat_mul_matches_sympy(system, data):
    p, mat, n = system
    cols = data.draw(st.integers(1, 4))
    other = data.draw(st.lists(st.lists(_entry(p), min_size=cols, max_size=cols),
                               min_size=n, max_size=n))
    expect = (Matrix(mat) * Matrix(other)).tolist() if mat else []
    assert mat_mul(mat, other, p) == [[_reduce(x, p) for x in row] for row in expect]


@_SETTINGS
@given(st.sampled_from(FIELDS), st.data())
def test_inverse_inverts_or_detects_a_singular_matrix(p, data):
    n = data.draw(st.integers(1, 4))
    mat = data.draw(st.lists(st.lists(_entry(p), min_size=n, max_size=n), min_size=n, max_size=n))
    if len(_oracle_rref(mat, n, p)) < n:
        with pytest.raises(ValueError, match="singular"):
            inverse(mat, p)
        return
    inv = inverse(mat, p)
    assert mat_mul(mat, inv, p) == identity(n, p)
    assert mat_mul(inv, mat, p) == identity(n, p)


@pytest.mark.parametrize("p", FIELDS)
@pytest.mark.parametrize("n", [0, 1, 4])
def test_empty_system_has_the_zero_solution(p, n):
    assert solve([], [], n, p) == [0] * n


def test_plucker_fixture_without_sign_equations_flips_nothing():
    # a one-term fixture generator gives no sign equation: the GF(2) system
    # is empty and its solution flips no label
    ring = ("b1", "b2")
    fixture = {"minors": {"p0": [1], "p1": [2], "p2": [3]}, "generators": ["p1*p2"]}
    kernel = [MultiPoly.parse("b1*b2", ring)]
    assert _check_plucker_fixture(kernel, ("u",) + ring, [(1,), (2,), (3,)], fixture) == set()


@pytest.mark.parametrize("call, message", [
    (lambda: inverse([[1, 2]], 5), "a row of 2 entries in a matrix of 1 rows that needs 1"),
    (lambda: solve([[1, 0], [0, 1]], [1], 2, 5), "2 equations with 1 right-hand sides"),
    (lambda: solve([[1, 0, 1]], [1], 2, 5), "a row of 3 entries .* needs 2"),
    (lambda: null_space([[1, 2, 3]], 2, 5), "a row of 3 entries .* needs 2"),
    (lambda: null_space([[1, 2]], 3, 5), "a row of 2 entries .* needs 3"),
    (lambda: mat_vec(((1, 2),), (1,), 5), "a row of 2 entries .* needs 1"),
    (lambda: mat_vec(((1, 2), (1,)), (1, 1)), "a row of 1 entries .* needs 2"),
    (lambda: rref([[1], [3, 4]], 5), "a row of 2 entries in a matrix of 2 rows that needs 1"),
    (lambda: rref([[1, 2], [3]]), "a row of 1 entries .* needs 2"),
    (lambda: coords((1, 2, 3), ((1, 0),), 5), "a vector of 3 entries against rows of 2"),
    (lambda: mat_mul([[1, 2]], [[1, 2], [3]], 5), "a row of 1 entries .* needs 2"),
], ids=["inverse", "solve-rhs", "solve-width", "null_space-wide", "null_space-narrow",
        "mat_vec", "mat_vec-ragged", "rref-F_p", "rref-Q", "coords", "mat_mul"])
def test_misshapen_input_is_refused(call, message):
    # before, each of these dropped or padded entries silently, or raised
    # IndexError from inside the elimination
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call, text", [
    (lambda: solve([[0.1]], [1], 1), "float 0.1"),
    (lambda: solve([[1]], [0.5], 1), "float 0.5"),
    (lambda: rref([['1/3', 1]]), "str '1/3'"),
    (lambda: coords([0.5, 1], rref([[1, 0], [0, 1]])), "float 0.5"),
    (lambda: null_space([[1, '2']], 2), "str '2'"),
], ids=["solve-float", "solve-rhs-float", "rref-str", "coords-float", "null_space-str"])
def test_inexact_entries_over_q_are_refused(call, text):
    # a float would enter as its binary expansion, a string would be parsed;
    # the rest of mvtk refuses both through poly._exact
    with pytest.raises(TypeError, match=f"^{text} in exact arithmetic"):
        call()
    # the same entries, exact, go through
    assert solve([[Fraction(1, 10)]], [1], 1) == [10]
    assert rref([[Fraction(1, 3), 1]]) == ((1, 3),)
