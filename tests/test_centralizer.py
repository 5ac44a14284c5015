import random
from fractions import Fraction
from itertools import product

import pytest

from mvtk.centralizer import (
    CoordFunction,
    dbar_direct,
    dbar_of_function,
    entry_positions,
    eval_ratfunc_at_x,
    ft_of_function,
    is_admissible,
    pair_word,
    pairing_coefficients,
    psi_eval,
    sbar,
    solve_nx,
    verify_nx,
    weyl_witness,
)
from mvtk.exactalg import MultiPoly
from mvtk.exactalg.linalg import identity, inverse, mat_mul
from mvtk.measures import dbar_i
from mvtk.roota import Weight, sequences, shuffles


def random_regular_x(rng, m, height=6):
    while True:
        vals = [Fraction(rng.randint(-30, 30)) for _ in range(m - 1)]
        vals.append(-sum(vals))
        if len(set(vals)) == m and is_admissible(vals, height):
            return tuple(vals)


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


def test_pairing_calibration_rank2():
    # C[N] = C[x, y, z] with x = n12, y = n23, z = n13
    f_x = CoordFunction.entry(3, 1, 2)
    f_z = CoordFunction.entry(3, 1, 3)
    assert pair_word(3, (1,), f_x) == 1
    assert pair_word(3, (2,), f_x) == 0
    assert pair_word(3, (1, 2), f_z) == 1
    assert pair_word(3, (2, 1), f_z) == 0
    one = CoordFunction.parse(3, "1")
    assert pair_word(3, (), one) == 1


def _poly_mat_mul(a, b):
    """The product of two square MultiPoly matrices, entry by entry."""
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(1, n)), a[i][0] * b[0][j])
             for j in range(n)] for i in range(n)]


def _ref_pair_word(m, seq, f):
    """pair_word by full matrix products, one elementary matrix per letter."""
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


@pytest.mark.parametrize("m, text", [
    (3, "n12"), (3, "n13"), (3, "n12*n23 - 2*n13"), (3, "n12^2*n23"),
    (4, "n14"), (4, "n14 + n12*n24"), (4, "n13*n24 - n14*n23"), (4, "3*n23^2*n12 - n13*n23"),
])
def test_pair_word_matches_full_product(m, text):
    f = CoordFunction.parse(m, text)
    for p in range(4):
        for seq in product(range(1, m), repeat=p):
            assert pair_word(m, seq, f) == _ref_pair_word(m, seq, f), seq


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
            val = pair_word(3, seq, f)
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


def test_expansion_agreement_all_small_monomials():
    # f(n_x) = sum of pairings times Dbar terms, for all monomials of height <= 4
    rng = random.Random(23)
    for m in (2, 3, 4):
        positions = entry_positions(m)
        monomials = []
        for expo in product(range(3), repeat=len(positions)):
            height = sum(
                e * Weight.root(m, i, j).height() for e, (i, j) in zip(expo, positions)
            )
            if 0 < height <= 4:
                monomials.append(expo)
        xs = [random_regular_x(rng, m) for _ in range(3)]
        for expo in monomials:
            text = "*".join(
                f"n{i}{j}^{e}" for e, (i, j) in zip(expo, positions) if e
            )
            f = CoordFunction.parse(m, text)
            r = dbar_of_function(f)
            for x in xs:
                assert dbar_direct(f, x) == eval_ratfunc_at_x(r, x), (m, text)


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
    coeffs_f = pairing_coefficients(m, f)
    coeffs_g = pairing_coefficients(m, g)
    for seq in sequences(m, nu):
        total = Fraction(0)
        for j, cf in coeffs_f.items():
            for k, cg in coeffs_g.items():
                total += cf * cg * shuffles(j, k).count(seq)
        assert total == pair_word(m, seq, fg)


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
