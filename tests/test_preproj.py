import hashlib
import importlib.resources as res
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations, product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtk import measures, preproj
from mvtk.exactalg import MultiPoly
from mvtk.exactalg.linalg import coords, mat_vec, null_space, rref
from mvtk.measures import RatFunc, dbar_i
from mvtk.preproj import (
    QuiverRep,
    SubmoduleLattice,
    _kernel_rref,
    _Walk,
    brick_module,
    count_points,
    euler_interpolate,
    flag_data,
    flag_function,
    flag_function_from_chi,
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
    multichains,
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


@pytest.mark.parametrize("dims, maps, error, match", [
    ((1.5, 1), {}, TypeError, "dimensions must be ints"),  # before, int() truncated 1.5
    (("1", 1), {}, TypeError, "dimensions must be ints"),
    ((-2, 1), {}, ValueError, "dimension >= 0"),  # before, -2 was kept
    ((1, 1, 0), {}, ValueError, "dimension >= 0 at each vertex"),
    ((1, 1), {(1, 3): [[1]]}, ValueError, r"arrows \[\(1, 3\)\] are not edges"),  # before, dropped
    ((1, 1), {(1, 1): [[0]], (2, 1): [[1]]}, ValueError, r"arrows \[\(1, 1\)\]"),
])
def test_quiver_rep_refuses_bad_dimensions_and_arrows(dims, maps, error, match):
    with pytest.raises(error, match=match):
        QuiverRep(3, dims, maps)


@pytest.mark.parametrize("i", [0, 3, -1])
def test_simple_module_refuses_a_vertex_outside_the_diagram(i):
    # before, it returned the zero module
    with pytest.raises(ValueError, match=f"S_{i} needs i in 1..2"):
        simple_module(3, i)
    assert simple_module(3, 2).dims == (0, 1)


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
        assert SubmoduleLattice(two.reduce_mod(q)).dim_vectors.count((1, 0, 0)) == q + 1
    lat = SubmoduleLattice(simple_module(2, 1).reduce_mod(7))
    assert lat.chain_counts_by_total(1) == {(0,): 1, (1,): 1}


@pytest.mark.parametrize("method", ["chain_counts_by_total", "chain_counts_by_last"])
def test_chain_counts_refuse_a_negative_length(method):
    # n = 0 counts the one empty chain; before, n < 0 reached multichains and
    # raised "multichains need n >= 1", which n = 0 is not held to
    counts = getattr(SubmoduleLattice(simple_module(3, 1).reduce_mod(5)), method)
    assert counts(0) == {(0, 0): 1}
    for n in (-1, -3):
        with pytest.raises(ValueError, match=f"chain counts need n >= 0, not {n}"):
            counts(n)
    for n in (1.5, True, "2"):
        with pytest.raises(TypeError, match=f"chain counts need an int n, not {n!r}"):
            counts(n)


def test_a4_submodule_table_row():
    M = a4_module()
    for q in (2, 3, 5):
        assert SubmoduleLattice(M.reduce_mod(q)).dim_vectors.count((0, 1, 1, 0)) == q + 1


def test_a4_submodule_dim_vectors_match_table():
    lat = SubmoduleLattice(a4_module().reduce_mod(3))
    assert set(lat.dim_vectors) == set(TABLE_ROWS)


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
        assert count_points(rep, ("compseries", seq), q) == table.get(seq, 0), seq


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
        assert count_points(rep, ("compseries", seq), rep.field) == cnt


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
        assert count_points(rep, ("compseries", seq), 3) == table[seq], seq


@pytest.mark.parametrize("query", [
    ("submodules", (1, 0, 0)), ("chains", 1, (1, 0, 0)), ("sequences", (1,)), ("compseries",),
])
def test_count_points_answers_only_compseries(query):
    with pytest.raises(ValueError, match=r"\('compseries', seq\) only"):
        count_points(simple_module(4, 1), query, 3)


def test_count_points_refuses_a_rep_over_another_field():
    rep = simple_module(4, 1).reduce_mod(5)
    assert count_points(rep, ("compseries", (1,)), 5) == 1
    with pytest.raises(ValueError, match="over F_5, so it has no points over F_3"):
        count_points(rep, ("compseries", (1,)), 3)


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


# -- the lattice step against its per-image predecessor ----------------------------


def _ref_children(rep, sub, i):
    """The children as the step built them before it read them off the span W:
    the coordinates in U_i of each arrow image, solved one image at a time, then
    the null space and one `_kernel_rref` per projective point."""
    p, space = rep.field, sub[i - 1]
    w_rows = []
    for v in (i - 1, i + 1):
        if 1 <= v < rep.m:
            mat = rep.maps[(v, i)]
            for row in sub[v - 1]:
                img = mat_vec(mat, row, p)
                if any(img):
                    c = coords(img, space, p)
                    if c is None:
                        return []
                    w_rows.append(c)
    ann = null_space(w_rows, len(space), p)
    ann_cols = tuple(zip(*ann))
    out = []
    for lead in reversed(range(len(ann))):
        for rest in iproduct(range(p), repeat=len(ann) - lead - 1):
            point = (0,) * lead + (1,) + rest
            h = _kernel_rref(space, mat_vec(ann_cols, point, p), p)
            out.append(sub[: i - 1] + (h,) + sub[i:])
    return out


def _walk_children(walk, sub, i):
    """The children of the decoded submodule `sub` at vertex i by one step of `walk`, decoded."""
    kids = walk.step(tuple(map(walk.intern, sub)), i)
    return [sub[: i - 1] + (walk.spaces[h],) + sub[i:] for h in kids]


@pytest.mark.parametrize("name, q", [("a4", 2), ("a4", 3), ("i52_i53", 2), ("i52_i53", 3)])
def test_children_match_the_per_image_oracle(name, q):
    # every (node, vertex) of the lattice, on one walk, so later steps hit its memo
    build = {"a4": a4_module, "i52_i53": lambda: injective_pair(5, 2, 3)}[name]
    rep = build().reduce_mod(q)
    walk = _Walk(rep)
    for sub in SubmoduleLattice(rep).subs:
        for i in range(1, rep.m):
            assert _walk_children(walk, sub, i) == _ref_children(rep, sub, i), (sub, i)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_children_at_codimension_three(p):
    # S_1^3: nothing maps into vertex 1, so W = 0 and U_1 = F_p^3 has (p^3 - 1)/(p - 1)
    # hyperplanes; each of them, of codimension 2 over W, has p + 1
    rep = QuiverRep(3, (3, 0), {}, field=p)
    walk = _Walk(rep)
    full = tuple(map(walk.spaces.__getitem__, walk.top))
    assert full == (((1, 0, 0), (0, 1, 0), (0, 0, 1)), ())
    kids = _walk_children(walk, full, 1)
    assert kids == _ref_children(rep, full, 1)
    assert len(set(kids)) == (p**3 - 1) // (p - 1)
    for kid in kids:
        assert _walk_children(_Walk(rep), kid, 1) == _ref_children(rep, kid, 1)
        assert len(_ref_children(rep, kid, 1)) == p + 1
    assert len(SubmoduleLattice(rep).subs) == 2 + 2 * (p**2 + p + 1)


@pytest.mark.parametrize("sub", [
    (((0, 1, 0), (0, 0, 1)), ((1,),)),  # c = 1, W = <e1> is not in U_1 = <e2, e3>
    (((0, 1, 0),), ((1,),)),            # c = 0
    ((), ((1,),)),                      # c = -1
])
def test_children_of_a_tuple_that_is_no_submodule(sub):
    # the arrow 2 -> 1 maps M_2 onto <e1>, which leaves U_1: neither route yields a child
    rep = QuiverRep(3, (3, 1), {(2, 1): ((1,), (0,), (0,))}, field=3)
    assert _walk_children(_Walk(rep), sub, 1) == []
    assert _ref_children(rep, sub, 1) == []


@pytest.mark.parametrize("name, q, digest", [
    ("i62_i64", 2, "e66d96404c1c9a8face884b44f924d8c3fb90dd785847dd990a9337f70f5516d"),
    ("i62_i64", 3, "d2c4f586f7c3ed5308a6de9f15d2b883963035ddc33e0cf54369337e0cac3961"),
    ("i62_i64", 5, "c562ace275b72d79f001dc8f06645c3aabe956f3b3124f1b5f080631234d4925"),
    ("a4", 2, "7027dd49fdfe8d3e8660b110e9b952a964cb8b1bd3c69d7e41772e3013ae9c64"),
    ("a4", 3, "e65e240dff8bedc6732b26ba5e609a99495b438c35a1ae622b7fe2a86f0a36ed"),
    ("a4", 5, "276e001d417977ca83b617a63ed0ef8d8ea369a983e98640289da808ba2348fd"),
    ("a4", 7, "7c624c2d287e4e4b47f23d288947a1e9e8d1e08d058553ce16b21d0e2ccc0959"),
])
def test_lattice_order_is_pinned(name, q, digest):
    # the node order, the covers and the dimension vectors, byte for byte, as the
    # search produced them when it walked on tuples of rref tuples
    build = {"i62_i64": lambda: injective_pair(6, 2, 4), "a4": a4_module}[name]
    lat = SubmoduleLattice(build().reduce_mod(q))
    text = repr((lat.subs, lat.covers, lat.dim_vectors))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("q, spans", [(2, 171), (3, 256), (5, 480)])
def test_lattice_walk_builds_one_span_per_neighbourhood(q, spans, monkeypatch):
    # one rref, the span W, per distinct (i, U_{i-1}, U_{i+1}) that the walk visits
    built = []
    monkeypatch.setattr(preproj, "rref", lambda rows, p: built.append(p) or rref(rows, p))
    rep = injective_pair(6, 2, 4).reduce_mod(q)
    lat = SubmoduleLattice(rep)
    nv = rep.m - 1
    around = {(i, sub[max(i - 2, 0) : i - 1], sub[i : i + 1])
              for sub in lat.subs for i in range(1, nv + 1)}
    assert len(built) == len(around) == spans


@pytest.mark.parametrize("q", [2, 3, 5])
def test_lattice_walk_maps_each_space_once_per_arrow(q, monkeypatch):
    # the rows of U_v go through the arrow v -> i once per walk, however many
    # spans (i, U_{i-1}, U_{i+1}) read them
    rep = injective_pair(6, 2, 4).reduce_mod(q)
    arrows = {id(mat) for mat in rep.maps.values()}
    images = []
    monkeypatch.setattr(preproj, "mat_vec", lambda mat, vec, p=None: (
        images.append(vec) if id(mat) in arrows else None) or mat_vec(mat, vec, p))
    lat = SubmoduleLattice(rep)
    nv = rep.m - 1
    pairs = {(v, i, sub[v - 1]) for sub in lat.subs for i in range(1, nv + 1)
             for v in (i - 1, i + 1) if 1 <= v <= nv}
    assert len(images) <= sum(len(space) for _, _, space in pairs)


@pytest.mark.parametrize("seq, letter", [((0,), 0), ((3,), 3), ((-1,), -1), ((2, 0), 0)])
def test_count_points_refuses_a_letter_outside_the_diagram(seq, letter):
    # before, (0,) raised KeyError, (3,) IndexError, and (-1,) counted 0
    rep = QuiverRep(3, (0, 1), {})
    with pytest.raises(ValueError, match=f"letter {letter} is not in 1..2"):
        count_points(rep, ("compseries", seq), 3)


@pytest.mark.parametrize("make", [
    lambda: QuiverRep(3, (0, 1), {}, field=4),
    lambda: QuiverRep(3, (0, 1), {}, field=9, check=False),
    lambda: QuiverRep(3, (0, 1), {}).reduce_mod(4),
    lambda: QuiverRep(3, (0, 1), {}).reduce_mod(0),
    lambda: QuiverRep(3, (0, 1), {}).reduce_mod(1),
    lambda: count_points(QuiverRep(3, (0, 1), {}), ("compseries", (2,)), 4),
    lambda: flag_data(injective_module(4, 2), primes=(4, 6, 9, 5)),
    lambda: flag_data(injective_module(4, 2), primes=(2, 3, 5, 9)),
], ids=["rep-4", "rep-9", "reduce-4", "reduce-0", "reduce-1", "count-4", "flag-4", "flag-9"])
def test_a_field_that_is_not_prime_is_refused(make):
    with pytest.raises(ValueError, match=r"field (4|9|0|1) is neither 'Q' nor a prime"):
        make()


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(3), "1"])
def test_an_entry_over_a_prime_field_is_an_integer(entry):
    # before, int(entry) % 5 was stored: Fraction(1, 2) became 0 (floats are in test_poly)
    with pytest.raises(TypeError, match=f"^{type(entry).__name__} .* as an entry over F_5"):
        QuiverRep(3, (1, 1), {(2, 1): [[entry]]}, field=5)


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
    # before, dict(counts) kept the last count at q = 2 and returned 1
    with pytest.raises(ValueError, match="two counts at q=2: 3 and 2"):
        euler_interpolate([(2, 3), (2, 2), (3, 3), (5, 5)], 1)
    # before, the float count gave 2.0
    with pytest.raises(TypeError, match=r"sample \(2, 3\.0\)"):
        euler_interpolate([(2, 3.0), (3, 4), (5, 6)], 1)
    # before, a bound of -1 reported a misfit at q=2
    with pytest.raises(ValueError, match="degree bound -1 is negative"):
        euler_interpolate([(2, 3), (3, 4)], -1)
    # before, True was read as q = 1 and the call returned 3
    with pytest.raises(TypeError, match=r"sample \(True, 3\)"):
        euler_interpolate([(True, 3), (2, 5), (3, 7)], 1)
    with pytest.raises(TypeError, match=r"sample \(2, False\)"):
        euler_interpolate([(2, False), (3, 4), (5, 6)], 1)
    # before, a bound of True returned 1 and one of 2.0 failed inside a slice
    for bound in (True, 2.0):
        with pytest.raises(TypeError, match=f"degree bound {bound!r} is not an int"):
            euler_interpolate([(2, 1), (3, 1), (5, 1), (7, 1)], bound)


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


@pytest.mark.parametrize("nodes", [(2, 3, 5), (1, 2, 3, 5), (2, 3, 5, 7, 11, 13, 17, 19)])
def test_euler_interpolate_on_shared_nodes_matches_the_newton_oracle(nodes):
    # calls on one node tuple share its Lagrange factors, never its counts;
    # q = 1 among the nodes reads the count there
    rng = random.Random(len(nodes))
    bound = len(nodes) - 2
    for _ in range(20):
        coeffs = [rng.randint(-9, 9) for _ in range(bound + 1)]
        counts = [(x, sum(c * x**k for k, c in enumerate(coeffs))) for x in nodes]
        if rng.random() < 0.3:
            counts[-1] = (nodes[-1], counts[-1][1] + 1)  # a misfit
        for case in ((counts, bound), (counts[:-1], bound)):
            try:
                expected = _newton_interpolate(*case)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    euler_interpolate(*case)
            else:
                assert euler_interpolate(*case) == expected


def test_a4_euler_characteristics_table():
    M = a4_module()
    for nu, f in TABLE_ROWS.items():
        samples = [(q, SubmoduleLattice(M.reduce_mod(q)).dim_vectors.count(nu)) for q in (2, 3, 5)]
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


def _oracle_chain_counts(lat, n):
    """(by total, by last) summed from roota.multichains: the oracle."""
    by_total, by_last = {}, {}
    for dv, table in zip(lat.dim_vectors, multichains(lat.below, lat.dim_vectors, n)):
        for grade, cnt in table.items():
            by_total[grade] = by_total.get(grade, 0) + cnt
            by_last[dv] = by_last.get(dv, 0) + cnt
    return by_total, by_last


def _check_chain_counts(rep, calls):
    # the kept level is extended, or built again below it or wider; the
    # counts are the oracle's in every order
    lat = SubmoduleLattice(rep)
    oracle = {0: ({lat.dim_vectors[0]: 1},) * 2}  # the empty chain
    for method, n in calls:
        if n not in oracle:
            oracle[n] = _oracle_chain_counts(lat, n)
        expected = oracle[n]
        got = (lat.chain_counts_by_total if method == "total" else lat.chain_counts_by_last)(n)
        assert got == expected[method == "last"], (method, n)


@pytest.mark.parametrize("order", [(0, 1, 2, 3, 4), (4, 3, 2, 1, 0), (2, 2, 4, 1, 4, 0, 3, 3)])
def test_chain_counts_match_the_multichain_oracle(order):
    M = a4_module()
    for q in (2, 3, 5, 7, 11, 13, 17, 19):
        _check_chain_counts(M.reduce_mod(q), [(method, n) for n in order
                                              for method in ("total", "last")])


def test_chain_counts_cross_a_field_width():
    # an entry of a total is at most n * 2 here: one byte a field up to
    # n = 127, two bytes from n = 128; the dimension sits in the second field
    rep = QuiverRep(3, (0, 2), {}, field=2)
    _check_chain_counts(rep, [("total", 1), ("last", 4), ("total", 127), ("total", 128),
                              ("last", 200), ("total", 200), ("total", 3)])


def test_chain_counts_build_each_level_once(monkeypatch):
    steps = []
    inner = preproj._chain_step

    def counted(below, grades, tables):
        steps.append(len(tables))
        return inner(below, grades, tables)

    monkeypatch.setattr(preproj, "_chain_step", counted)
    lat = SubmoduleLattice(a4_module().reduce_mod(3))
    for n in (1, 2, 3):
        lat.chain_counts_by_total(n)
    assert len(steps) == 3  # levels 1, 2 and 3, each from the one below
    lat.chain_counts_by_last(3)
    assert len(steps) == 3
    lat.chain_counts_by_total(2)  # below the kept level: built again, level 3 kept
    assert len(steps) == 5
    lat.chain_counts_by_total(4)
    assert len(steps) == 6


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
    assert flag_function_from_chi(3, {(): 1}) == RatFunc.constant(alpha_names(3), 1)
    assert flag_function_from_chi(3, {(1,): 1}) == dbar_i(3, (1,))
    with pytest.raises(ValueError, match="unknown flag-function method"):
        flag_function(s1, method="grid")


def test_flag_function_of_vanishing_chi_is_zero():
    # an empty chi is an empty sum; the zero module's chi is {(): 1}
    assert flag_function_from_chi(3, {}) == RatFunc.constant(alpha_names(3), 0)
    assert flag_data(QuiverRep(3, (0, 0), {})) == {(): 1}


def test_flag_data_refuses_a_module_over_a_prime_field():
    # one F_5 module counts the same at every prime, so the fit through its
    # counts would return F_5 point counts (A4: sum 53) as chi (sum 25 over Q)
    over_f5 = a4_module().reduce_mod(5)
    for compute in (flag_data, flag_function):
        with pytest.raises(ValueError, match="module over Q, not over F_5"):
            compute(over_f5)


@pytest.mark.parametrize("method", ["direct", "interpolate"])
@pytest.mark.parametrize("chi", [{(1,): 1, (2,): 1}, {(1,): 1, (1, 2): 1}],
                         ids=["two-letters", "two-lengths"])
def test_flag_function_from_chi_rejects_mixed_weights(method, chi):
    # chi of one module lives on one weight; a zero coefficient is no term at all
    with pytest.raises(ValueError, match="does not have weight"):
        flag_function_from_chi(3, chi, method=method)
    assert flag_function_from_chi(3, {(2,): 0, (1,): 1}, method=method) == dbar_i(3, (1,))


def _ref_flag_fold(m, chi):
    """The direct route as it was, one Dbar_i per sequence summed in sorted order: the oracle."""
    return sum((dbar_i(m, seq) * chi[seq] for seq in sorted(chi) if chi[seq]),
               RatFunc.constant(alpha_names(m), 0))


def _parts(r):
    return r.d, r.terms, r.den


# a relation among the Dbar_i of weight 2 alpha_1 + 2 alpha_2: below a prefix it makes the
# prefix's sum vanish, and the assembly goes on with a zero
_DBAR_RELATION = {(1, 2, 1, 2): -1, (1, 2, 2, 1): -2, (2, 1, 1, 2): 2, (2, 1, 2, 1): 1}


@pytest.mark.parametrize("chi", [
    {}, {(): 1}, {(1,): Fraction(-3, 7)},
    {(1, 2): Fraction(1, 2), (2, 1): Fraction(-2, 3)},
    {(1, 2, 2): Fraction(5, 4), (2, 1, 2): 0, (2, 2, 1): -Fraction(1, 6)},
], ids=["empty", "empty-sequence", "one-letter", "fractions", "fractions-and-zero"])
def test_trie_assembly_matches_the_fold(chi):
    assert _parts(flag_function_from_chi(3, chi)) == _parts(_ref_flag_fold(3, chi))


def test_trie_assembly_of_the_dbar_relation_is_zero():
    assert flag_function_from_chi(3, _DBAR_RELATION).is_zero() and _ref_flag_fold(3, _DBAR_RELATION).is_zero()
    # one letter behind the relation: the prefix (3,) sums to 0 inside the trie
    chi = {(3,) + seq: c for seq, c in _DBAR_RELATION.items()} | {(1, 2, 3, 1, 2): 5}
    assert _parts(flag_function_from_chi(4, chi)) == _parts(_ref_flag_fold(4, chi)) \
        == _parts(dbar_i(4, (1, 2, 3, 1, 2)) * 5)


def test_trie_assembly_matches_the_fold_on_random_chi():
    # signs, zeros and sparse subsets of one weight's sequences; every third chi puts the
    # relation behind a random prefix, whose sum is then 0
    rng = random.Random(20261019)
    for case in range(60):
        m = 3 + case % 3
        counts = [rng.randint(0, 2) for _ in range(m - 1)]
        if case % 3 == 0:
            counts[:2] = counts[0] + 2, counts[1] + 2
        if not any(counts):
            counts[rng.randrange(m - 1)] = 1
        seqs = sequences(m, Weight.from_alpha(m, counts))
        subset = rng.sample(seqs, min(len(seqs), rng.randint(1, 12)))
        chi = {seq: rng.choice((-2, -1, 0, 1, 2, 3)) for seq in subset}
        if case % 3 == 0:
            rest = sequences(m, Weight.from_alpha(m, [counts[0] - 2, counts[1] - 2] + counts[2:]))
            t = rng.choice(rest)
            chi = {seq: c for seq, c in chi.items() if seq[:len(t)] != t}
            chi.update({t + seq: c for seq, c in _DBAR_RELATION.items()})
        assert _parts(flag_function_from_chi(m, chi)) == _parts(_ref_flag_fold(m, chi)), (m, chi)


@pytest.mark.parametrize("case", ["a4", "a5-a2", "a5-a3"])
def test_trie_assembly_matches_the_fold_on_the_examples(case):
    m, rep = {"a4": (5, a4_module()), "a5-a2": (6, a5_module(2)), "a5-a3": (6, a5_module(3))}[case]
    chi = flag_data(rep, primes=(5, 7, 11, 13))
    assert _parts(flag_function_from_chi(m, chi)) == _parts(_ref_flag_fold(m, chi))


def test_trie_assembly_divides_once_per_prefix(monkeypatch):
    # the A5 chi: no Dbar_i is built (dbar_i and ft_i both start with _check_letters),
    # one divide_by_form per proper prefix of a sequence, and one sum per sibling merge
    chi = flag_data(a5_module(2), primes=(5, 7, 11, 13))
    calls = {"_check_letters": 0, "divide_by_form": 0, "__add__": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counted(measures, "_check_letters")
    counted(RatFunc, "divide_by_form")
    counted(RatFunc, "__add__")
    flag_function_from_chi(6, chi)
    prefixes = {seq[:k] for seq in chi for k in range(len(seq))}
    assert calls == {"_check_letters": 0, "divide_by_form": len(prefixes), "__add__": len(chi) - 1}


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


@pytest.mark.parametrize("compute, key, power", [
    (lambda method: flag_function(simple_module(4, 1).direct_sum(simple_module(4, 1)), method=method),
     (1, 0, 0), 2),
    (lambda method: flag_function_from_chi(4, {(2, 2): 2}, method=method), (0, 1, 0), 2),
    (lambda method: flag_function_from_chi(4, {(1, 1, 1, 1): 24}, method=method), (1, 0, 0), 4),
], ids=["S1+S1", "chi (2,2)", "chi S1^4"])
def test_interpolated_flag_function_retries_the_next_multiplicity(compute, key, power):
    # the sum is 1/a^power: times the root product to a lower power it is no polynomial
    expected = RatFunc(MultiPoly.constant(alpha_names(4), 1), {key: power})
    assert compute("interpolate") == compute("direct") == expected


@pytest.mark.parametrize("m, chi, bound", [
    (3, {(): 1}, 1), (4, {(1, 1, 1, 1): 24}, 4), (4, {(2, 2): 2}, 2),
    # tails 2, 2 2, 1 2 2 and 1 1 2 2: a2 twice, a1 + a2 once, and 1 2 is no root
    (3, {(1, 1, 2, 2): 1}, 2), (5, {(1, 2, 3, 4): 1, (4, 3, 2, 1): 1}, 1),
])
def test_root_power_bound_reads_the_tails(m, chi, bound):
    assert preproj._root_power_bound(m, chi) == bound


@pytest.mark.parametrize("compute, c", [
    (lambda method: flag_function(simple_module(3, 1).direct_sum(simple_module(3, 1))
                                  .direct_sum(simple_module(3, 2)).direct_sum(simple_module(3, 2)),
                                  method=method), 1),
    (lambda method: flag_function_from_chi(
        3, {seq: 1 for seq in sorted(set(permutations((1, 1, 2, 2))))}, method=method), Fraction(1, 4)),
], ids=["S1+S1+S2+S2", "shuffles of (1,1) and (2,2)"])
def test_interpolated_flag_function_skips_a_negative_degree(compute, c):
    # 4 letters over 3 roots: at mult 1 the numerator degree is -1, and the grid
    # route goes on to mult 2, where the sum is c/(a1^2 a2^2)
    expected = RatFunc(MultiPoly.constant(alpha_names(3), c), {(1, 0): 2, (0, 1): 2})
    assert compute("interpolate") == compute("direct") == expected


def _random_homogeneous(rng, names, deg, dense=False):
    monomials = [e for e in iproduct(range(deg + 1), repeat=len(names)) if sum(e) == deg]
    return MultiPoly(names, {mon: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
                             for mon in monomials if dense or rng.random() < 0.6})


@pytest.mark.parametrize("n_vars, deg", list(iproduct((3, 4), range(5))))
def test_grid_interpolation_round_trips_homogeneous_polynomials(n_vars, deg):
    rng = random.Random(10 * n_vars + deg)
    names = alpha_names(n_vars + 1)
    poly = _random_homogeneous(rng, names, deg)
    points = []

    def values(point):
        points.append(point)
        return poly.evaluate(point)

    assert preproj._interpolate_homogeneous(names, deg, values) == poly
    assert len(points) == (deg + 1) ** (len(names) - 1)


@pytest.mark.parametrize("n_vars, deg", list(iproduct((3, 4), range(1, 5))))
def test_grid_interpolation_of_a_function_with_a_pole_is_no_polynomial(n_vars, deg):
    # a pole along a1 = 0 (the numerator does not vanish there); at degree 0 the grid
    # is one point, which every function fits
    rng = random.Random(10 * n_vars + deg)
    names = alpha_names(n_vars + 1)
    pole = _random_homogeneous(rng, names, deg + 1, dense=True)
    assert preproj._interpolate_homogeneous(
        names, deg, lambda point: pole.evaluate(point) / point["a1"]) is None


def test_flag_eval_at_a_pole_raises():
    # the grid and the certificate points never hit one; a point from outside can
    with pytest.raises(ZeroDivisionError):
        preproj._flag_eval(3, {(1, 2): 1}, {"a1": 1, "a2": 0})


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


@pytest.fixture
def lattice_fields(monkeypatch):
    """The field of each SubmoduleLattice that preproj builds, in order."""
    built = []
    lattice = preproj.SubmoduleLattice

    def counted(rep):
        built.append(rep.field)
        return lattice(rep)

    monkeypatch.setattr(preproj, "SubmoduleLattice", counted)
    return built


def test_pol_m_builds_one_lattice_over_a_prime_field(lattice_fields):
    # over Q the set is compared over F_2 and F_3; over F_p there is one set to take
    s1 = simple_module(3, 1)
    assert pol_M(s1.reduce_mod(5)) == pol_M(s1)
    assert lattice_fields == [5, 2, 3]


def test_pol_m_skips_a_prime_that_does_not_reduce_the_module(lattice_fields):
    # 1/2 is not reducible mod 2: the set is compared over F_3 and F_5, the first two
    # of DEFAULT_PRIMES that flag_data would use as well
    half = QuiverRep(3, (1, 1), {(1, 2): ((Fraction(1, 2),),)})
    a1, a2 = Weight.alpha(3, 1), Weight.alpha(3, 2)
    assert pol_M(half) == {Weight.zero(3), -a2, -(a1 + a2)}
    assert lattice_fields == [3, 5]
    assert flag_data(half) == {(2, 1): 1}
    only_7 = QuiverRep(3, (1, 1), {(1, 2): ((Fraction(1, 210),),)})
    with pytest.raises(ValueError, match=r"fewer than two of the primes \(2, 3, 5, 7\)"):
        pol_M(only_7)


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


def test_hn_refuses_a_certificate_for_another_m():
    # a certificate is read against the module's m only when the two agree
    cert = load_certificate(str(FIXTURES / "a5_module.json"), params={"a": 2})
    cert.m = 4
    with pytest.raises(ValueError, match="the certificate is for m = 4, the module for m = 6"):
        hn_verify(a5_module(2), cert)
    cert.m = 6
    with pytest.raises(ValueError, match="the certificate is for m = 6, the module for m = 5"):
        hn_verify(a4_module(), cert)


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


def test_a5_flag_function_text_is_pinned():
    # the full 178-term direct assembly, pinned byte for byte: str() of a
    # RatFunc is canonical, so any change in its value or its printing shows
    a5 = load_module_fixture(str(FIXTURES / "a5_module.json"), params={"a": 2})
    text = str(flag_function_from_chi(6, flag_data(a5, primes=(5, 7, 11, 13))))
    assert len(text) == 899
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "aae964640fee27b152894590d36b69eb340b7203e580cd17cbe2bce9b41b4700")
