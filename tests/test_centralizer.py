import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from mvtk.centralizer import (
    CoordFunction,
    _derivatives,
    dbar_direct,
    dbar_of_function,
    entry_names,
    entry_positions,
    eval_ratfunc_at_x,
    ft_of_function,
    is_admissible,
    psi_eval,
    sbar,
    solve_nx,
    verify_nx,
    weyl_witness,
)
from mvtk.exactalg import MultiPoly
from mvtk.exactalg.linalg import identity, inverse, mat_mul
from mvtk.measures import ExpSum, RatFunc, dbar_i, ft_i
from mvtk.roota import Weight, alpha_names, lusztig_weight, sequences, shuffles


def random_regular_x(rng, m, height=6):
    while True:
        vals = [Fraction(rng.randint(-30, 30)) for _ in range(m - 1)]
        vals.append(-sum(vals))
        if len(set(vals)) == m and is_admissible(vals, height):
            return tuple(vals)


def _ref_is_admissible(x, height):
    """is_admissible as it was, one Weight per alpha-coordinate vector: the oracle."""
    m = len(x)
    vals = [Fraction(v) for v in x]

    def rec(coords, idx):
        if idx == m - 1:
            if any(coords):
                w = Weight.from_alpha(m, coords)
                if w.pair(vals) == 0:
                    return False
            return True
        for c in range(height + 1):
            if sum(coords) + c > height:
                break
            if not rec(coords + [c], idx + 1):
                return False
        return True

    return rec([], 0)


def test_coordinate_function_weight_is_the_root_sum_of_its_monomials():
    assert CoordFunction.parse(4, "n12*n23 - 2*n13").weight == Weight.root(4, 1, 3)
    assert CoordFunction.parse(4, "n12*n34").weight == lusztig_weight(4, (1, 0, 0, 0, 0, 1))
    assert (CoordFunction.parse(4, "n13*n24 - n14*n23").weight
            == lusztig_weight(4, (0, 1, 0, 0, 1, 0)))
    for text in ("3", "0"):
        assert CoordFunction.parse(4, text).weight == Weight.zero(4)
    for text in ("n12 + n23", "n12*n34 + n14*n23"):
        with pytest.raises(ValueError, match="not weight-homogeneous"):
            CoordFunction.parse(4, text)


def test_is_admissible_matches_the_weight_loop():
    # small alpha values of both signs, some fractional, so that low-height
    # combinations vanish often; trace-zero points as the callers pass
    rng = random.Random(20261019)
    outcomes = set()
    for _ in range(300):
        m = rng.randint(2, 5)
        alphas = [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(m - 1)]
        x = [Fraction(0)]
        for a in reversed(alphas):
            x.insert(0, x[0] + a)
        shift = sum(x) / m
        x = tuple(v - shift for v in x)
        for h in range(7):
            got = is_admissible(x, h)
            assert got == _ref_is_admissible(x, h), (x, h)
            outcomes.add(got)
    assert outcomes == {True, False}
    with pytest.raises(ValueError, match="trace zero"):
        is_admissible((1, 0, 0), 2)


def test_solve_nx_m2():
    n = solve_nx(2, (Fraction(1), Fraction(-1)))
    assert n[0][1] == Fraction(-1, 2)  # 1/(x2 - x1)


def test_defining_identity_random():
    rng = random.Random(101)
    for _ in range(100):
        m = rng.randint(2, 6)
        x = random_regular_x(rng, m, height=1)
        n = solve_nx(m, x)
        assert verify_nx(m, x, n)


def test_solve_nx_rejects_irregular():
    with pytest.raises(ValueError):
        solve_nx(3, (Fraction(1), Fraction(1), Fraction(-2)))


def test_solve_nx_refuses_a_point_of_another_length():
    # before, (1, 2, 3, -6) at m = 3 was cut to (1, 2, 3), of trace 6, and n12
    # evaluated to 1 there; a short point raised IndexError
    for m, x in ((3, (1, 2, 3, -6)), (4, (1, 2, -3))):
        with pytest.raises(ValueError, match=f"length {m}, not {len(x)}"):
            solve_nx(m, x)
    with pytest.raises(ValueError, match="length 3, not 4"):
        dbar_direct(CoordFunction.parse(3, "n12"), (1, 2, 3, -6))


def test_is_admissible_refuses_a_negative_height():
    # before, a negative height made no step and returned True
    with pytest.raises(ValueError, match="at least 0, not -1"):
        is_admissible((1, 0, -1), -1)
    assert is_admissible((1, 0, -1), 0)


@pytest.mark.parametrize("i", [0, 3, -1])
def test_sbar_and_weyl_witness_refuse_a_reflection_outside_the_diagram(i):
    # before, i = 0 indexed row -1 and returned a witness for another swap,
    # and i = 3 raised IndexError
    with pytest.raises(ValueError, match=f"s_{i} needs i in 1..2"):
        sbar(3, i)
    with pytest.raises(ValueError, match=f"s_{i} needs i in 1..2"):
        weyl_witness((Fraction(1), Fraction(2), Fraction(-3)), i)


def test_solve_nx_symbolic_matches_points():
    n = solve_nx(3, "symbolic")
    x = (Fraction(3), Fraction(1), Fraction(-4))
    vals = {"x1": x[0], "x2": x[1], "x3": x[2]}
    numeric = solve_nx(3, x)
    for i in range(3):
        for j in range(3):
            entry = n[i][j]
            got = entry.evaluate(vals) if hasattr(entry, "evaluate") else entry
            assert got == numeric[i][j]


def _poly_mat_mul(a, b):
    """The product of two square MultiPoly matrices, entry by entry."""
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(1, n)), a[i][0] * b[0][j])
             for j in range(n)] for i in range(n)]


def _ref_pair_word(m, seq, f):
    """The pairing <seq, f> by full matrix products, one elementary matrix per letter."""
    p = len(seq)
    if p == 0:
        return f.poly.constant_term()
    tnames = tuple(f"t{k}" for k in range(1, p + 1))
    one = MultiPoly.constant(tnames, 1)
    zero = MultiPoly.zero(tnames)
    mat = [[one if i == j else zero for j in range(m)] for i in range(m)]
    for k, i in enumerate(seq):
        step = [[one if a == b else zero for b in range(m)] for a in range(m)]
        step[i - 1][i] = MultiPoly.var(tnames, tnames[k])
        mat = _poly_mat_mul(mat, step)
    total = Fraction(0)
    for mon, c in f.poly.terms.items():
        prod = one
        for e, (i, j) in zip(mon, entry_positions(m)):
            if e:
                prod = prod * mat[i - 1][j - 1] ** e
        total += c * prod.coefficient((1,) * p)
    return total


_PAIR_WORD_CASES = [
    (3, "n12"), (3, "n13"), (3, "n12*n23 - 2*n13"), (3, "n12^2*n23"),
    (4, "n14"), (4, "n14 + n12*n24"), (4, "n13*n24 - n14*n23"), (4, "3*n23^2*n12 - n13*n23"),
]


def _pair_by_derivatives(m, seq, f, left):
    """<seq, f> as the constant term of L_{i_p}...L_{i_1} f (left) or R_{i_1}...R_{i_p} f."""
    g = f.poly
    for i in seq if left else reversed(seq):
        g = dict(_derivatives(m, g, left)).get(i)
        if g is None:
            return 0
    return g.constant_term()


def test_pairing_calibration_rank2():
    # C[N] = C[x, y, z] with x = n12, y = n23, z = n13
    f_x = CoordFunction.entry(3, 1, 2)
    f_z = CoordFunction.entry(3, 1, 3)
    assert _ref_pair_word(3, (1,), f_x) == 1
    assert _ref_pair_word(3, (2,), f_x) == 0
    assert _ref_pair_word(3, (1, 2), f_z) == 1
    assert _ref_pair_word(3, (2, 1), f_z) == 0
    one = CoordFunction.parse(3, "1")
    assert _ref_pair_word(3, (), one) == 1


@pytest.mark.parametrize("m, text", _PAIR_WORD_CASES)
def test_pair_word_matches_full_product(m, text):
    # the derivative convention of the recursions, on every word, of any weight
    f = CoordFunction.parse(m, text)
    for p in range(4):
        for seq in product(range(1, m), repeat=p):
            ref = _ref_pair_word(m, seq, f)
            assert _pair_by_derivatives(m, seq, f, True) == ref, seq
            assert _pair_by_derivatives(m, seq, f, False) == ref, seq


def test_pairing_matches_differential_operators():
    # e1 = d/dx, e2 = d/dy + x d/dz on C[x, y, z]; check on a basis sample
    rng = random.Random(9)
    x_, y_, z_ = "n12", "n23", "n13"
    for _ in range(10):
        a, b, c = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
        text = "*".join([f"{x_}^{a}", f"{y_}^{b}", f"{z_}^{c}"])
        f = CoordFunction.parse(3, text)
        nu = f.weight
        for seq in sequences(3, nu):
            val = _ref_pair_word(3, seq, f)
            oracle = _apply_word_operators(seq, (a, b, c))
            assert val == oracle, (text, seq)


def _apply_word_operators(seq, expo):
    """Differentiation oracle on monomials x^a y^b z^c.

    The pairing is the constant term of the composed left action, so the
    rightmost letter of the word differentiates first.
    """
    # state: dict (a, b, c) -> coefficient
    state = {expo: Fraction(1)}
    for i in reversed(seq):
        nxt = {}
        for (a, b, c), coef in state.items():
            if i == 1:
                if a:
                    key = (a - 1, b, c)
                    nxt[key] = nxt.get(key, 0) + coef * a
            else:
                if b:
                    key = (a, b - 1, c)
                    nxt[key] = nxt.get(key, 0) + coef * b
                if c:
                    key = (a + 1, b, c - 1)
                    nxt[key] = nxt.get(key, 0) + coef * c
        state = nxt
    return state.get((0, 0, 0), Fraction(0))


def test_dbar_examples():
    one = CoordFunction.parse(3, "1")
    assert dbar_of_function(one) == 1
    f12 = CoordFunction.entry(2, 1, 2)
    assert dbar_of_function(f12) == dbar_i(2, (1,))
    f13 = CoordFunction.entry(3, 1, 3)
    assert dbar_of_function(f13) == dbar_i(3, (1, 2))
    x = (Fraction(3), Fraction(1), Fraction(-4))
    assert dbar_direct(f13, x) == eval_ratfunc_at_x(dbar_of_function(f13), x)


def _small_monomials():
    """(m, text) of every monomial of height 1..4 with exponents <= 2, at m = 2, 3, 4."""
    out = []
    for m in (2, 3, 4):
        positions = entry_positions(m)
        for expo in product(range(3), repeat=len(positions)):
            height = sum(
                e * Weight.root(m, i, j).height() for e, (i, j) in zip(expo, positions)
            )
            if 0 < height <= 4:
                out.append((m, "*".join(f"n{i}{j}^{e}" for e, (i, j) in zip(expo, positions) if e)))
    return out


def test_expansion_agreement_all_small_monomials():
    # f(n_x) = sum of pairings times Dbar terms, for all monomials of height <= 4
    rng = random.Random(23)
    xs = {}
    for m, text in _small_monomials():
        if m not in xs:
            xs[m] = [random_regular_x(rng, m) for _ in range(3)]
        f = CoordFunction.parse(m, text)
        r = dbar_of_function(f)
        for x in xs[m]:
            assert dbar_direct(f, x) == eval_ratfunc_at_x(r, x), (m, text)


def _flag_minor(m, cols):
    """The minor of n on rows 1..k and the columns cols, as a determinant of MultiPolys."""
    names = entry_names(m)

    def entry(i, j):
        if i < j:
            return MultiPoly.var(names, f"n{i}{j}")
        return MultiPoly.constant(names, int(i == j))

    total = MultiPoly.zero(names)
    for perm in permutations(range(len(cols))):
        sign = (-1) ** sum(a > b for a, b in combinations(perm, 2))
        term = MultiPoly.constant(names, sign)
        for row, c in enumerate(perm, start=1):
            term = term * entry(row, cols[c])
        total = total + term
    return CoordFunction(m, total)


def _flag_minors(m):
    """Every nonconstant flag minor Delta_{[1..k], J} at m: 11, 26 and 57 at m = 4, 5, 6."""
    return [(cols, _flag_minor(m, cols)) for k in range(1, m)
            for cols in combinations(range(1, m + 1), k) if cols != tuple(range(1, k + 1))]


_ALGEBRA_PAIRS = ((3, "n12*n23 + n13", "n13"), (3, "n12", "n23"),
                  (4, "n12*n34", "n23"), (4, "n13", "n24"))
_ORACLE_CASES = (
    [(f"{m}-{text}", CoordFunction.parse(m, text)) for m, text in _small_monomials()]
    + [(f"{m}-({a})*({b})", CoordFunction.parse(m, a) * CoordFunction.parse(m, b))
       for m, a, b in _ALGEBRA_PAIRS]
    + [(f"{m}-minor{cols}", f) for m in (3, 4, 5) for cols, f in _flag_minors(m)]
    + [(f"{m}-{text}", CoordFunction.parse(m, text)) for m, text in _PAIR_WORD_CASES]
    + [("3-zero", CoordFunction.parse(3, "0")), ("3-constant", CoordFunction.parse(3, "7/2"))]
)


@pytest.mark.parametrize("f", [f for _, f in _ORACLE_CASES], ids=[i for i, _ in _ORACLE_CASES])
def test_recursions_match_the_sequence_sum(f):
    # the oracle: sum over Seq(nu) of <i, f> * Dbar_i and <i, f> * FT(D_i),
    # with each pairing by full matrix products; both sides print canonically
    m = f.m
    dbar = RatFunc.constant(alpha_names(m), 0)
    ft = ExpSum(m, {})
    for seq in sequences(m, f.weight):
        c = _ref_pair_word(m, seq, f)
        if c:
            dbar = dbar + dbar_i(m, seq) * c
            ft = ft + ft_i(m, seq).scale(c)
    assert str(dbar_of_function(f)) == str(dbar)
    assert ft_of_function(f).serialize() == ft.serialize()


def test_dbar_of_every_flag_minor_at_m6():
    # m = 6 is beyond the sequence-sum oracle's reach (Delta_{123,456} has height 9),
    # so check against the evaluation route.  The points have alpha values drawn
    # from 1..30 with seed 20261019: every nonzero beta in Q_+ pairs positively
    # with them, so they are admissible at every height
    rng = random.Random(20261019)
    xs = []
    for _ in range(3):
        alphas = [rng.randint(1, 30) for _ in range(5)]
        x = [sum(alphas[i:]) for i in range(6)]
        xs.append(tuple(v - Fraction(sum(x), 6) for v in x))
    minors = _flag_minors(6)
    assert len(minors) == 57
    for cols, f in minors:
        r = dbar_of_function(f)
        for x in xs:
            assert dbar_direct(f, x) == eval_ratfunc_at_x(r, x), cols


def test_dbar_is_algebra_map():
    rng = random.Random(37)
    m = 3
    f = CoordFunction.parse(m, "n12*n23 + n13")
    g = CoordFunction.parse(m, "n13")
    lhs = dbar_of_function(f * g)
    rhs = dbar_of_function(f) * dbar_of_function(g)
    assert lhs == rhs


def test_pairing_shuffle_compatibility():
    # <i, f g> = sum over (j, k) with i in j-shuffle-k of <j, f> <k, g>
    m = 3
    f = CoordFunction.parse(m, "n12")
    g = CoordFunction.parse(m, "n13")
    fg = f * g
    nu = fg.weight
    coeffs_f = {j: _ref_pair_word(m, j, f) for j in sequences(m, f.weight)}
    coeffs_g = {k: _ref_pair_word(m, k, g) for k in sequences(m, g.weight)}
    for seq in sequences(m, nu):
        total = Fraction(0)
        for j, cf in coeffs_f.items():
            for k, cg in coeffs_g.items():
                total += cf * cg * shuffles(j, k).count(seq)
        assert total == _ref_pair_word(m, seq, fg)


def test_psi_identity_cases():
    x = (Fraction(3), Fraction(1), Fraction(-4))
    t = (Fraction(1), Fraction(1), Fraction(1))
    assert psi_eval(x, t) == identity(3)


def test_geometric_transform_identity():
    rng = random.Random(55)
    x = (Fraction(3), Fraction(1), Fraction(-4))
    t = (Fraction(2), Fraction(1), Fraction(1))
    for text in ["n12", "n23", "n13", "n12*n23"]:
        f = CoordFunction.parse(3, text)
        lhs = f.evaluate_matrix(psi_eval(x, t))
        rhs = ft_of_function(f).evaluate(x, t)
        assert lhs == rhs, text
    for m in (2, 3, 4):
        for _ in range(20 // (m - 1)):
            x = random_regular_x(rng, m)
            t = tuple(Fraction(rng.randint(1, 9)) for _ in range(m))
            for (i, j) in entry_positions(m):
                f = CoordFunction.entry(m, i, j)
                assert f.evaluate_matrix(psi_eval(x, t)) == ft_of_function(f).evaluate(x, t)
    for m in (3, 4, 5):
        minors = _flag_minors(m)
        for _ in range(2):
            x = random_regular_x(rng, m)
            t = tuple(Fraction(rng.randint(1, 9)) for _ in range(m))
            for cols, f in minors:
                assert f.evaluate_matrix(psi_eval(x, t)) == ft_of_function(f).evaluate(x, t), cols


def test_weyl_witness_examples():
    y, t = weyl_witness((Fraction(1), Fraction(-1)), 1)
    assert y[0][1] == 0 and y[0][0] == 1 and y[1][1] == 1
    x = (Fraction(3), Fraction(1), Fraction(-4))
    weyl_witness(x, 1)
    weyl_witness(x, 2)


def test_weyl_witness_random_small_ranks():
    rng = random.Random(77)
    for m in (2, 3, 4):
        for _ in range(4):
            x = random_regular_x(rng, m, height=1)
            for i in range(1, m):
                sx = list(x)
                sx[i - 1], sx[i] = sx[i], sx[i - 1]
                if len(set(sx)) < m:
                    continue
                weyl_witness(x, i)  # raises on failure


def test_weyl_witness_braid_consistency():
    # composing witnesses along s1 s2 s1 and s2 s1 s2 lands on the same n_{w0 x}
    x = (Fraction(3), Fraction(1), Fraction(-4))

    def apply_word(word, x0):
        current = list(x0)
        for i in word:
            weyl_witness(tuple(current), i)
            current[i - 1], current[i] = current[i], current[i - 1]
        return tuple(current)

    end1 = apply_word((1, 2, 1), x)
    end2 = apply_word((2, 1, 2), x)
    assert end1 == end2
    assert solve_nx(3, end1) == solve_nx(3, end2)


def test_sbar_is_weyl_lift():
    s = sbar(3, 1)
    assert [row[:] for row in s] == [
        [Fraction(0), Fraction(-1), Fraction(0)],
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]


def test_unitriangular_inverse():
    n = solve_nx(4, (Fraction(5), Fraction(2), Fraction(-1), Fraction(-6)))
    inv = inverse(n)
    assert mat_mul(n, inv) == identity(4)


@pytest.mark.parametrize("x", [(1, 2), (1, 2, 3, -6)])
def test_eval_ratfunc_at_x_refuses_a_point_of_the_wrong_length(x):
    # before, (1, 2) raised KeyError: 'a2' and (1, 2, 3, -6) dropped the last entry
    with pytest.raises(ValueError, match="a point of length 3 is needed"):
        eval_ratfunc_at_x(dbar_i(3, (1, 2)), x)


@pytest.mark.parametrize("t", [(1, 2), (1, 2, 3, 4)])
def test_psi_eval_refuses_a_torus_point_of_the_wrong_length(t):
    # before, (1, 2) raised IndexError and (1, 2, 3, 4) dropped the last entry
    with pytest.raises(ValueError, match=f"x has 3 entries and t has {len(t)}"):
        psi_eval((1, 0, -1), t)
