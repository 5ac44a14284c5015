"""The unipotent elements n_x, the word pairing on C[N], and the map psi.

Everything here is exact: points are tuples of Fractions, and the symbolic
mode carries matrix entries as rational functions in the coordinates
x_1..x_m of the diagonal Cartan.  Conventions: e_i is the matrix unit
E_{i,i+1}, the principal nilpotent is the all-ones superdiagonal, and the
pairing of a word (i_1, ..., i_p) with f in C[N] is the coefficient of
t_1...t_p in f(exp(t_1 e_{i_1}) ... exp(t_p e_{i_p})).  The rank-2
calibration (the action of e_2 as d/dy + x d/dz on C[x, y, z]) pins the
order and sign choices.

The pairing is the U(n)-action at the identity.  With L_i f(n) =
d/dt f((1 + t e_i) n) and R_i f(n) = d/dt f(n (1 + t e_i)) at t = 0 (row
i+1 of n added to row i, column i to column i+1, a diagonal entry being 1),
<(i, ...), f> = <(...), L_i f> and <(..., i), f> = <(...), R_i f>.  So both
measures of f of weight nu are recursions, memoised on the polynomial:
D-bar(f) = -(1/nu) sum_i D-bar(L_i f), D-bar(c) = c, as the first factor of
Dbar_(i_1, ..., i_p) is 1/(beta_0 - nu) = -1/nu and the rest is Dbar_(i_2, ..., i_p);
FT(f) = (sum_i FT(R_i f) - sum_i e^{-alpha_i} FT(L_i f)) / nu, FT(c) = c * delta_0,
as FT(D_i) is (-1)^p times the divided difference of e^{-x} at the nodes
beta_0 = 0, ..., beta_p = nu.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm

from .exactalg.linalg import identity, inverse, mat_mul, solve
from .exactalg.poly import MultiPoly, _exact, _reduced
from .measures import ExpSum, RatFunc, _alpha_values
from .roota import Weight, alpha_names, lusztig_weight, root_positions


# -- coordinate functions on N ---------------------------------------------------


def entry_names(m: int) -> tuple:
    """Variables n{i}{j} for the strictly-upper entries, row-major."""
    return tuple(f"n{i}{j}" for i in range(1, m) for j in range(i + 1, m + 1))


entry_positions = root_positions


class CoordFunction:
    """A weight-homogeneous polynomial in the strictly-upper matrix entries."""

    __slots__ = ("m", "poly", "weight")

    def __init__(self, m: int, poly: MultiPoly):
        names = entry_names(m)
        if poly.variables != names:
            poly = poly.rename(names) if set(poly.variables) <= set(names) else poly
            if poly.variables != names:
                raise ValueError("polynomial is not in the matrix-entry ring")
        self.m = m
        self.poly = poly
        self.weight = self._homogeneous_weight()

    @classmethod
    def parse(cls, m: int, text: str) -> "CoordFunction":
        return cls(m, MultiPoly.parse(text, entry_names(m)))

    @classmethod
    def entry(cls, m: int, i: int, j: int) -> "CoordFunction":
        return cls(m, MultiPoly.var(entry_names(m), f"n{i}{j}"))

    def _homogeneous_weight(self) -> Weight:
        weights = {lusztig_weight(self.m, mon) for mon in self.poly.ints} or {Weight.zero(self.m)}
        if len(weights) > 1:
            raise ValueError("polynomial is not weight-homogeneous")
        return weights.pop()

    def __mul__(self, other: "CoordFunction") -> "CoordFunction":
        return CoordFunction(self.m, self.poly * other.poly)

    def evaluate_matrix(self, mat) -> Fraction:
        values = {}
        for (i, j), name in zip(entry_positions(self.m), entry_names(self.m)):
            values[name] = mat[i - 1][j - 1]
        return self.poly.evaluate(values)

    def __repr__(self):
        return f"CoordFunction({self.poly})"


# -- regularity ----------------------------------------------------------------------


def check_regular(x) -> None:
    m = len(x)
    vals = [_exact(v) for v in x]
    if sum(vals) != 0:
        raise ValueError("diagonal point must have trace zero")
    for i in range(m):
        for j in range(i + 1, m):
            if vals[i] == vals[j]:
                raise ValueError("diagonal point is not regular")


def is_admissible(x, height: int) -> bool:
    """No nonzero beta in Q_+ of height <= `height` pairs to zero with x.

    x is a point of the trace-zero Cartan, so beta = sum c_i alpha_i pairs
    to sum c_i alpha_i(x).  The values of all beta of height k are built
    from those of height k - 1, in ints over the lcm of the denominators.
    """
    if height < 0:
        raise ValueError(f"a height bound is at least 0, not {height!r}")
    if sum(_exact(v) for v in x) != 0:
        raise ValueError("diagonal point must have trace zero")
    alphas = _alpha_values(x)
    d = lcm(*(a.denominator for a in alphas))
    alphas = {a.numerator * (d // a.denominator) for a in alphas}
    values = {0}
    for _ in range(height):
        values = {v + a for v in values for a in alphas}
        if 0 in values:
            return False
    return True


# -- n_x -------------------------------------------------------------------------


def solve_nx(m: int, x):
    """The unique upper-unitriangular n with n diag(x) n^{-1} = diag(x) + E.

    x may be a tuple of Fractions (numeric mode) or the string 'symbolic'
    for entries in the rational-function field of x_1..x_m.  Solved by back
    substitution on the strictly-upper triangle: the linear system is
    triangular in the entry poset.
    """
    if x == "symbolic":
        return _solve_nx_symbolic(m)
    if len(x) != m:
        raise ValueError(f"n_x at m = {m} needs a point of length {m}, not {len(x)}: {x!r}")
    vals = [_exact(v) for v in x]
    check_regular(vals)
    n = [[Fraction(1) if i == j else Fraction(0) for j in range(m)] for i in range(m)]
    for span in range(1, m):
        for i0 in range(m - span):
            i, j = i0, i0 + span
            upstream = Fraction(1) if span == 1 else n[i + 1][j]
            n[i][j] = upstream / (vals[j] - vals[i])
    return n


def _solve_nx_symbolic(m: int):
    names = tuple(f"x{i}" for i in range(1, m + 1))
    one = RatFunc.constant(names, 1)
    zero = RatFunc.constant(names, 0)
    n = [[one if i == j else zero for j in range(m)] for i in range(m)]
    for span in range(1, m):
        for i0 in range(m - span):
            i, j = i0, i0 + span
            form = tuple((k == j) - (k == i) for k in range(m))  # x_j - x_i
            upstream = one if span == 1 else n[i + 1][j]
            n[i][j] = upstream.divide_by_form(form)
    return n


def verify_nx(m: int, x, n) -> bool:
    """Check n diag(x) - (diag(x) + E) n == 0 exactly."""
    vals = [_exact(v) for v in x]
    lhs = [[n[i][j] * vals[j] for j in range(m)] for i in range(m)]
    rhs = [[vals[i] * n[i][j] + (n[i + 1][j] if i + 1 < m else Fraction(0)) for j in range(m)] for i in range(m)]
    return lhs == rhs


# -- the word pairing -------------------------------------------------------------


def _derivatives(m: int, f: MultiPoly, left: bool):
    """Yield (i, L_i f) if left, else (i, R_i f), for each i where it is nonzero.

    d/dn_ij times n_{i+1,j} goes to L_i, and d/dn_ij times n_{i,j-1} to R_{j-1}.
    """
    positions = entry_positions(m)
    index = {pos: v for v, pos in enumerate(positions)}
    out: dict = {}
    for mon, c in f.ints.items():
        for v, e in enumerate(mon):
            if e:
                i, j = positions[v]
                letter, image = (i, (i + 1, j)) if left else (j - 1, (i, j - 1))
                new = list(mon)
                new[v] -= 1
                if image in index:  # else a diagonal entry, which is 1
                    new[index[image]] += 1
                new = tuple(new)
                terms = out.setdefault(letter, {})
                terms[new] = terms.get(new, 0) + c * e
    for i in sorted(out):
        ints = {mon: c for mon, c in out[i].items() if c}
        if ints:  # over f's d; the exponent factors can share a prime with it
            yield i, MultiPoly._make(f.variables, *_reduced(f.d, ints))


# -- Dbar two ways ----------------------------------------------------------------


def dbar_of_function(f: CoordFunction) -> RatFunc:
    """Expansion of x |-> f(n_x) in the D-bar terms, by the recursion over L_i f."""
    m = f.m
    names = alpha_names(m)
    zero = RatFunc._make(names, 1, {}, {})

    @cache  # per call: one entry per polynomial of the U(n)-module that f generates
    def dbar(g: MultiPoly, nu: Weight) -> RatFunc:
        if nu.is_zero():  # g is a constant: ints / d with at most one term
            return RatFunc._make(names, g.d, {(0,) * len(names): c for c in g.ints.values()}, {})
        total = sum((dbar(h, nu - Weight.alpha(m, i)) for i, h in _derivatives(m, g, True)), zero)
        return (-total).divide_by_form(nu.alpha_coords())

    return dbar(f.poly, f.weight)


def dbar_direct(f: CoordFunction, x) -> Fraction:
    """Evaluation route: f at the matrix n_x."""
    return f.evaluate_matrix(solve_nx(f.m, x))


def eval_ratfunc_at_x(r: RatFunc, x) -> Fraction:
    """r at the alpha values of x, a point with one more entry than r has variables."""
    if len(x) != len(r.variables) + 1:
        raise ValueError(f"a point of length {len(r.variables) + 1} is needed, not {x!r}")
    return r.evaluate(dict(zip(alpha_names(len(x)), _alpha_values(x))))


# -- psi and the Fourier side ------------------------------------------------------


def psi_eval(x, t):
    """The product t^{-1} n_x t n_x^{-1} for regular x and diagonal t of the same length."""
    m = len(x)
    if len(t) != m:
        raise ValueError(f"x has {m} entries and t has {len(t)}; they need the same number")
    check_regular(x)
    tvals = [_exact(v) for v in t]
    if any(v == 0 for v in tvals):
        raise ValueError("torus point must be invertible")
    n = solve_nx(m, x)
    tinv_n_t = [[n[i][j] * tvals[j] / tvals[i] for j in range(m)] for i in range(m)]
    return mat_mul(tinv_n_t, inverse(n))


def ft_of_function(f: CoordFunction) -> ExpSum:
    """FT route: the exponential sum of f, by the recursion over R_i f and L_i f."""
    m = f.m

    @cache  # per call, as in dbar_of_function
    def ft(g: MultiPoly, nu: Weight) -> ExpSum:
        if nu.is_zero():
            return ExpSum.point_mass(m).scale(g.constant_term())
        total = ExpSum(m, {})
        for i, h in _derivatives(m, g, False):
            total = total + ft(h, nu - Weight.alpha(m, i))
        for i, h in _derivatives(m, g, True):
            a = Weight.alpha(m, i)
            total = total - ExpSum(m, {b + a: c for b, c in ft(h, nu - a).coeffs.items()})
        return ExpSum(m, {b: c.divide_by_form(nu.alpha_coords()) for b, c in total.coeffs.items()})

    return ft(f.poly, f.weight)


# -- Weyl conjugation witness -------------------------------------------------------


def sbar(m: int, i: int):
    """The lift exp(-e_i) exp(f_i) exp(-e_i) of the simple reflection s_i."""
    if not 0 < i < m:
        raise ValueError(f"simple reflection s_{i} needs i in 1..{m - 1}")
    e = identity(m)
    e[i - 1][i] = Fraction(-1)
    fmat = identity(m)
    fmat[i][i - 1] = Fraction(1)
    return mat_mul(mat_mul(e, fmat), e)


def weyl_witness(x, i: int):
    """Solve n_{s_i x} = y n_x sbar_i^{-1} t with y lower-unitriangular, t diagonal.

    Returns (y, t) and asserts the factorization exactly; failure to find a
    diagonal t signals an implementation fault, since existence is
    guaranteed for regular x with s_i x regular.
    """
    m = len(x)
    w = sbar(m, i)  # refuses i outside 1..m-1
    vals = [_exact(v) for v in x]
    check_regular(vals)
    sx = list(vals)
    sx[i - 1], sx[i] = sx[i], sx[i - 1]
    check_regular(sx)

    n_x = solve_nx(m, vals)
    n_sx = solve_nx(m, sx)
    c_mat = mat_mul(w, inverse(n_x))

    # B(s) = n_sx diag(s) C must be lower-unitriangular, s = t^{-1}
    # entries: B[a][b] = sum_k n_sx[a][k] s_k C[k][b]
    rows = []
    rhs = []
    for a in range(m):
        for b in range(a, m):
            coeff = [n_sx[a][k] * c_mat[k][b] for k in range(m)]
            rows.append(coeff)
            rhs.append(Fraction(1) if a == b else Fraction(0))
    s = solve(rows, rhs, m)
    if any(v == 0 for v in s):
        raise ValueError("no invertible diagonal witness; implementation fault")
    t = [Fraction(1) / v for v in s]
    y = mat_mul([[v * s[k] for k, v in enumerate(row)] for row in n_sx], c_mat)
    # exact verification of the factorization and the shape of y
    for a in range(m):
        for b in range(m):
            if b > a and y[a][b] != 0:
                raise AssertionError("witness y is not lower-unitriangular")
            if a == b and y[a][b] != 1:
                raise AssertionError("witness y is not unitriangular")
    right = mat_mul(mat_mul(y, n_x), inverse(w))
    right = [[v * t[k] for k, v in enumerate(row)] for row in right]
    if n_sx != right:
        raise AssertionError("factorization check failed")
    return y, t

