import hashlib
import importlib.resources as res
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtk import preproj
from mvtk.exactalg import MultiPoly
from mvtk.exactalg.linalg import rref
from mvtk.measures import RatFunc, dbar_i
from mvtk.preproj import (
    QuiverRep,
    SubmoduleLattice,
    _count_compseries_fixed,
    _kernel_rref,
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
    positive_roots,
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


def injective_pair(m, i, j):
    return injective_module(m, i).direct_sum(injective_module(m, j))


# -- reference lattice: every tuple of subspaces, then all-pairs containment ----
# SubmoduleLattice searches down from the full module along cover edges; this
# brute-force build shares no code with it and is called only by the tests.


def _ref_in_span(vec, rref_rows, p):
    v = list(vec)
    for row in rref_rows:
        lead = next(i for i, x in enumerate(row) if x)
        if v[lead] % p:
            f = v[lead]
            v = [(a - f * b) % p for a, b in zip(v, row)]
    return not any(x % p for x in v)


def _ref_subspaces(d, p):
    """All subspaces of F_p^d as rref tuples, by pivot columns and free entries."""
    out = []
    for k in range(d + 1):
        for pivots in combinations(range(d), k):
            free = [(r, c) for r, pc in enumerate(pivots)
                    for c in range(pc + 1, d) if c not in pivots]
            for values in iproduct(range(p), repeat=len(free)):
                rows = [[0] * d for _ in range(k)]
                for r, pc in enumerate(pivots):
                    rows[r][pc] = 1
                for (r, c), v in zip(free, values):
                    rows[r][c] = v
                out.append(tuple(tuple(r) for r in rows))
    return out


def _ref_lattice(rep):
    """(subs, below, dim_vectors) by bottom-up enumeration over F_p."""
    p, nv = rep.field, rep.m - 1
    choices = [_ref_subspaces(d, p) for d in rep.dims]
    subs = []

    def invariant(partial, v):
        # arrows between vertex v and v-1, both already chosen
        for (src, dst) in ((v - 1, v), (v, v - 1)) if v >= 2 else ():
            mat = rep.maps[(src, dst)]
            for row in partial[src - 1]:
                img = tuple(sum(a * b for a, b in zip(r, row)) % p for r in mat)
                if any(img) and not _ref_in_span(img, partial[dst - 1], p):
                    return False
        return True

    def rec(partial, v):
        if v > nv:
            subs.append(tuple(partial))
            return
        for u in choices[v - 1]:
            partial.append(u)
            if invariant(partial, v):
                rec(partial, v + 1)
            partial.pop()

    rec([], 1)
    subs.sort(key=lambda s: (sum(len(u) for u in s), s))
    dims = [tuple(len(u) for u in s) for s in subs]
    below = [
        [a for a in range(len(subs))
         if all(x <= y for x, y in zip(dims[a], dims[b]))
         and all(_ref_in_span(row, ub, p)
                 for ua, ub in zip(subs[a], subs[b]) for row in ua)]
        for b in range(len(subs))
    ]
    return subs, below, dims


def _ref_composition_series_counts(lat):
    """Sequence tables carried bottom-up through every node along the covers."""
    table = [{(): 1}]
    for cov in lat.covers[1:]:
        acc = {}
        for j, letter in cov:
            for seq, cnt in table[j].items():
                key = seq + (letter,)
                acc[key] = acc.get(key, 0) + cnt
        table.append(acc)
    return table[-1]


def total_formula(n):
    return (n + 1) ** 2 * (n + 2) ** 2 * (n + 3) * (5 * n + 12) // 144


def test_relation_enforced():
    with pytest.raises(ValueError):
        QuiverRep(3, (1, 1), {(1, 2): [[1]], (2, 1): [[1]]})
    # S_1 + S_2 with zero maps is fine
    QuiverRep(3, (1, 1), {})


@pytest.mark.parametrize("field, holds", [("Q", False), (5, False), (2, True)])
def test_relation_is_checked_in_the_field(field, holds):
    # both composites of the all-ones 2 x 2 maps are 2 * ones: zero only mod 2
    ones = [[1, 1], [1, 1]]
    maps = {(1, 2): ones, (2, 1): ones}
    if holds:
        assert QuiverRep(3, (2, 2), maps, field=field).relation_holds()
    else:
        with pytest.raises(ValueError, match="preprojective relation fails"):
            QuiverRep(3, (2, 2), maps, field=field)


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


@pytest.mark.parametrize("name, q", [
    ("a4", 2), ("a4", 3), ("a4", 5), ("a4", 7),
    ("a5", 5), ("a5", 7),
    ("i52_i53", 2), ("i52_i53", 3),
])
def test_lattice_matches_bottom_up_reference(name, q):
    build = {"a4": a4_module, "a5": a5_module,
             "i52_i53": lambda: injective_pair(5, 2, 3)}[name]
    rep = build().reduce_mod(q)
    lat = SubmoduleLattice(rep)
    subs, below, dims = _ref_lattice(rep)
    assert lat.subs == subs
    assert lat.below == below
    assert lat.dim_vectors == dims
    assert lat.index == {s: i for i, s in enumerate(subs)}
    nv = rep.m - 1
    edges = []
    for i, cov in enumerate(lat.covers):
        for j, letter in cov:
            diff = tuple(a - b for a, b in zip(dims[i], dims[j]))
            assert diff == tuple(1 if v == letter else 0 for v in range(1, nv + 1))
            edges.append((i, j))
    codim1 = [(i, j) for i in range(len(subs)) for j in below[i]
              if sum(dims[i]) - sum(dims[j]) == 1]
    assert sorted(edges) == codim1


def test_non_nilpotent_rep_raises():
    # both arrows the identity on F_5: no proper nonzero submodule, no zero reached
    rep = QuiverRep(3, (1, 1), {(1, 2): ((1,),), (2, 1): ((1,),)}, field=5, check=False)
    with pytest.raises(ValueError, match="nilpotent"):
        SubmoduleLattice(rep)


@pytest.mark.parametrize("name, q", [
    ("a4", 2), ("a4", 3), ("a4", 5), ("a5", 5), ("i52_i53", 2),
])
def test_composition_series_counts_match_oracles(name, q):
    build = {"a4": a4_module, "a5": a5_module,
             "i52_i53": lambda: injective_pair(5, 2, 3)}[name]
    rep = build().reduce_mod(q)
    lat = SubmoduleLattice(rep)
    table = lat.composition_series_counts()
    oracle = _ref_composition_series_counts(lat)
    assert table == oracle
    # the factored table against the oracle's dict, access by access
    assert dict(table) == oracle
    assert len(list(table)) == len(table)
    assert list(table.values()) == [table[k] for k in table]
    assert sum(table.values()) == sum(oracle.values())
    # a sequence of the right content with no series, and a wrong-length tuple
    absent = next(s for s in sequences(rep.m, rep.dim_vector()) if s not in oracle)
    for seq in (absent, next(iter(oracle)) + (1,)):
        assert table.get(seq, 0) == 0
        assert seq not in table
    # peeling counts one sequence at a time, without the lattice
    if name == "i52_i53":
        seqs = sorted(table)[::8]  # 688 of the 5498 keys: peeling all is slow
    else:
        seqs = sequences(rep.m, rep.dim_vector())  # the zero counts too
    for seq in seqs:
        assert _count_compseries_fixed(rep, seq) == table.get(seq, 0), seq


@pytest.mark.parametrize("rep, expect", [
    (QuiverRep(3, (0, 0), {}, field=2), {(): 1}),
    (simple_module(3, 1).reduce_mod(2), {(1,): 1}),
    (brick_module(4, 1, 3).reduce_mod(2), {(1, 2): 1}),
])
def test_composition_series_counts_small_modules(rep, expect):
    lat = SubmoduleLattice(rep)
    assert lat.composition_series_counts() == expect
    assert _ref_composition_series_counts(lat) == expect
    for seq, cnt in expect.items():
        assert _count_compseries_fixed(rep, seq) == cnt


def _assert_table_matches_the_oracle(lat):
    table = lat.composition_series_counts()
    oracle = _ref_composition_series_counts(lat)
    assert dict(table) == oracle
    assert len(table) == len(oracle)
    assert sum(table.values()) == sum(oracle.values())


@st.composite
def _brick_sums(draw):
    m = draw(st.sampled_from([4, 5]))
    roots = [(i, j) for i in range(1, m) for j in range(i + 1, m + 1)]
    bricks = draw(st.lists(st.sampled_from(roots), min_size=1, max_size=3))
    rep = brick_module(m, *bricks[0])
    for root in bricks[1:]:
        rep = rep.direct_sum(brick_module(m, *root))
    return rep.reduce_mod(draw(st.sampled_from([2, 3])))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_brick_sums())
def test_composition_series_counts_on_brick_sums(rep):
    # the classes merged during the walks against sequences carried through every node
    _assert_table_matches_the_oracle(SubmoduleLattice(rep))


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("build", [
    lambda: injective_module(5, 2).direct_sum(simple_module(5, 1)),
    lambda: injective_pair(4, 1, 2),
], ids=["i52_s51", "i41_i42"])
def test_composition_series_counts_odd_rank(build, q):
    # prefixes of length 3 and suffixes of length 4, and a middle rank that
    # carries several dimension vectors
    lat = SubmoduleLattice(build().reduce_mod(q))
    rank = sum(lat.dim_vectors[-1])
    assert rank == 7
    assert len({dv for dv in lat.dim_vectors if sum(dv) == rank // 2}) > 1
    _assert_table_matches_the_oracle(lat)


def test_composition_series_counts_build_no_containment_relation():
    rep = a4_module().reduce_mod(2)
    lat = SubmoduleLattice(rep)
    lat.composition_series_counts()
    assert "below" not in vars(lat)
    assert lat.below == _ref_lattice(rep)[1]


@pytest.mark.parametrize("q, nodes, pairs, covers, series", [
    (2, 347, 20_096, 970, (652_510, 7_018_070)),
    (3, 487, 32_093, 1_400, (652_510, 15_933_952)),
    (5, 821, 65_873, 2_440, (652_510, 56_599_160)),
])
def test_injective_pair_lattice_at_scale(q, nodes, pairs, covers, series):
    lat = SubmoduleLattice(injective_pair(6, 2, 4).reduce_mod(q))
    assert len(lat.subs) == nodes
    assert sum(len(b) for b in lat.below) == pairs
    assert sum(len(c) for c in lat.covers) == covers
    table = lat.composition_series_counts()
    assert (len(table), sum(table.values())) == series


def test_peel_matches_the_table_at_scale():
    # the peel, with its own walk memo, against the lattice DP on 12 sampled keys
    rep = injective_pair(6, 2, 4).reduce_mod(3)
    table = SubmoduleLattice(rep).composition_series_counts()
    picks = set(random.Random(0).sample(range(len(table)), 12))
    seqs = [seq for k, seq in enumerate(table) if k in picks]
    assert len(seqs) == 12
    for seq in seqs:
        assert _count_compseries_fixed(rep, seq) == table[seq], seq


@st.composite
def _kernel_cases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 7))
    entry = st.integers(0, p - 1)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=5))
    space = rref(rows, p)
    if not space:
        space = ((1,) + (0,) * (n - 1),)
    phi = draw(st.lists(entry, min_size=len(space), max_size=len(space)))
    if not any(phi):
        phi[draw(st.integers(0, len(phi) - 1))] = draw(st.integers(1, p - 1))
    return p, space, tuple(phi)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_kernel_cases())
def test_kernel_rref_matches_the_rref_oracle(case):
    # the rows (phi_j | row_j) reduce to the pivot row of column 0, then ker phi
    p, space, phi = case
    oracle = rref([(f,) + row for f, row in zip(phi, space)], p)
    assert _kernel_rref(space, phi, p) == tuple(row[1:] for row in oracle[1:])


def test_composition_series_counts_memory_at_scale():
    # the join stays factored: no table of the 652,510 sequences is built
    lat = SubmoduleLattice(injective_pair(6, 2, 4).reduce_mod(2))
    tracemalloc.start()
    try:
        lat.composition_series_counts()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_euler_interpolate():
    assert euler_interpolate([(2, 3), (3, 4), (5, 6)], 1) == 2
    assert euler_interpolate([(2, 1), (3, 1), (5, 1)], 0) == 1
    with pytest.raises(ValueError):
        euler_interpolate([(2, 2), (3, 3), (5, 7)], 1)  # not on a line
    with pytest.raises(ValueError):
        euler_interpolate([(2, 3)], 1)  # not enough points


def _newton_interpolate(counts, degree_bound: int) -> int:
    """euler_interpolate by Newton divided differences in Fractions: the oracle."""
    pts = sorted(dict(counts).items())
    if len(pts) < degree_bound + 1:
        raise ValueError("not enough sample points for the degree bound")
    base = pts[: degree_bound + 1]
    xs = [Fraction(x) for x, _ in base]
    coeffs = [Fraction(y) for _, y in base]
    for level in range(1, len(base)):
        for i in range(len(base) - 1, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])

    def eval_at(x):
        total = Fraction(0)
        for i in range(len(base) - 1, -1, -1):
            total = total * (x - xs[i]) + coeffs[i]
        return total

    for qx, y in pts[degree_bound + 1 :]:
        if eval_at(qx) != y:
            raise ValueError(
                f"counts are not polynomial of degree <= {degree_bound}: "
                f"misfit at q={qx}"
            )
    value = eval_at(1)
    if value.denominator != 1:
        raise ValueError("interpolated value at q=1 is not an integer")
    return int(value)


@st.composite
def _interpolation_cases(draw):
    """Counts on a polynomial (perhaps with one count moved off it) or arbitrary
    counts; too few points, misfits and non-integer values at q = 1 all occur."""
    degree_bound = draw(st.integers(0, 6))
    xs = draw(st.lists(st.integers(2, 40), min_size=1, max_size=degree_bound + 3, unique=True))
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=degree_bound + 1))
        ys = [sum(c * x**k for k, c in enumerate(coeffs)) for x in xs]
        if draw(st.booleans()):
            ys[draw(st.integers(0, len(ys) - 1))] += draw(st.sampled_from([-1, 1, 7]))
    else:
        ys = draw(st.lists(st.integers(-1000, 1000), min_size=len(xs), max_size=len(xs)))
    return list(zip(xs, ys)), degree_bound


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_interpolation_cases())
def test_euler_interpolate_matches_the_newton_oracle(case):
    def outcome(interpolate):
        try:
            value = interpolate(*case)
        except ValueError as exc:
            return "error", str(exc)
        assert type(value) is int
        return "value", value

    assert outcome(euler_interpolate) == outcome(_newton_interpolate)


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
    with pytest.raises(ValueError, match="unknown flag-function method"):
        flag_function(s1, method="grid")


def test_flag_function_of_vanishing_chi_is_zero():
    # an empty chi is an empty sum; the zero module's chi is {(): 1}
    assert flag_function_from_chi(3, {}) == RatFunc.constant(alpha_names(3), 0)
    assert flag_data(QuiverRep(3, (0, 0), {})) == {(): 1}


@pytest.mark.parametrize("method", ["direct", "interpolate"])
@pytest.mark.parametrize("chi", [{(1,): 1, (2,): 1}, {(1,): 1, (1, 2): 1}],
                         ids=["two-letters", "two-lengths"])
def test_flag_function_from_chi_rejects_mixed_weights(method, chi):
    # chi of one module lives on one weight; a zero coefficient is no term at all
    with pytest.raises(ValueError, match="does not have weight"):
        flag_function_from_chi(3, chi, method=method)
    assert flag_function_from_chi(3, {(2,): 0, (1,): 1}, method=method) == dbar_i(3, (1,))


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


def _ref_flag_eval(m, chi, point):
    """_flag_eval with one Fraction division per tail, as it was: the oracle."""
    xs = [Fraction(point[n]) for n in alpha_names(m)]
    total = Fraction(0)
    for seq, c in chi.items():
        tail = [0] * (m - 1)
        value = Fraction(c)
        for i in reversed(seq):
            tail[i - 1] += 1
            value /= -sum(t * x for t, x in zip(tail, xs))
        total += value
    return total


def _ref_roots_eval(m, point):
    """_roots_eval as a Fraction product over positive_roots, as it was: the oracle."""
    xs = [Fraction(point[n]) for n in alpha_names(m)]
    value = Fraction(1)
    for r in positive_roots(m):
        value *= sum(c * x for c, x in zip(r.alpha_coords(), xs))
    return value


# the point check: a Schwartz-Zippel test of the sequence sum against the assembled
# RatFunc, at _POINT_CHECK_TRIALS points drawn with _POINT_CHECK_SEED
_POINT_CHECK_SEED, _POINT_CHECK_TRIALS = 20261019, 8


@pytest.mark.parametrize("case", ["a4", "a5-prefix"])
def test_flag_eval_matches_the_assembled_flag_function(case):
    if case == "a4":
        m, chi = 5, flag_data(a4_module(), primes=(2, 3, 5))
    else:
        m, full = 6, flag_data(a5_module(2), primes=(5, 7, 11, 13))
        chi = {seq: full[seq] for seq in sorted(full)[:35]}
    assert len(chi) == {"a4": 18, "a5-prefix": 35}[case]
    flag = flag_function_from_chi(m, chi)
    rng = random.Random(_POINT_CHECK_SEED)
    for _ in range(_POINT_CHECK_TRIALS):
        # positive alpha values, so no tail and no root vanishes; denominators up to 30
        point = {n: Fraction(rng.randint(1, 10**6), rng.randint(1, 30)) for n in alpha_names(m)}
        assert preproj._flag_eval(m, chi, point) == flag.evaluate(point) == _ref_flag_eval(m, chi, point)
        assert preproj._roots_eval(m, point) == _ref_roots_eval(m, point)


def test_interpolated_flag_function_names_its_certificate(monkeypatch):
    chi = {(1,): 1}
    assert preproj._certify_flag(3, chi, dbar_i(3, (1,)))
    assert not preproj._certify_flag(3, chi, dbar_i(3, (2,)))
    monkeypatch.setattr(preproj, "_certify_flag", lambda m, chi, candidate: False)
    with pytest.raises(ArithmeticError, match=(
            r"^flag function does not clear against the root product "
            r"\(certificate: 4 random points, seed 20240817\)$")):
        flag_function_from_chi(3, chi, method="interpolate")


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


@pytest.mark.parametrize("load", [load_module_fixture, load_certificate])
def test_fixture_loaders_reject_a_missing_parameter(load):
    with pytest.raises(ValueError, match="missing value for parameter 'a'"):
        load(str(FIXTURES / "a5_module.json"))


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


@pytest.mark.slow
def test_a5_flag_function_text_is_pinned():
    # the full 178-term direct assembly, pinned byte for byte: str() of a
    # RatFunc is canonical, so any change in its value or its printing shows
    a5 = load_module_fixture(str(FIXTURES / "a5_module.json"), params={"a": 2})
    text = str(flag_function_from_chi(6, flag_data(a5, primes=(5, 7, 11, 13))))
    assert len(text) == 899
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "aae964640fee27b152894590d36b69eb340b7203e580cd17cbe2bce9b41b4700")
