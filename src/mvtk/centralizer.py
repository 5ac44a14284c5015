"""The unipotent elements n_x, the word pairing on C[N], and the map psi.

Everything here is exact: points are tuples of Fractions, and the symbolic
mode carries matrix entries as rational functions in the coordinates
x_1..x_m of the diagonal Cartan.  Conventions: e_i is the matrix unit
E_{i,i+1}, the principal nilpotent is the all-ones superdiagonal, and the
pairing of a word (i_1, ..., i_p) with f in C[N] is the coefficient of
t_1...t_p in f(exp(t_1 e_{i_1}) ... exp(t_p e_{i_p})).  The rank-2
calibration (the action of e_2 as d/dy + x d/dz on C[x, y, z]) pins the
order and sign choices.
"""

from __future__ import annotations

from fractions import Fraction

from .exactalg.linalg import solve
from .exactalg.poly import MultiPoly
from .measures import RatFunc, measure_from_coeffs
from .roota import Weight, alpha_names, sequences


# -- coordinate functions on N ---------------------------------------------------


def entry_names(m: int) -> tuple:
    """Variables n{i}{j} for the strictly-upper entries, row-major."""
    return tuple(f"n{i}{j}" for i in range(1, m) for j in range(i + 1, m + 1))


def entry_positions(m: int) -> tuple:
    return tuple((i, j) for i in range(1, m) for j in range(i + 1, m + 1))


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
        positions = entry_positions(self.m)
        weight = None
        for mon in self.poly.terms:
            w = Weight.zero(self.m)
            for e, (i, j) in zip(mon, positions):
                if e:
                    w = w + Weight.root(self.m, i, j) * e
            if weight is None:
                weight = w
            elif weight != w:
                raise ValueError("polynomial is not weight-homogeneous")
        return weight if weight is not None else Weight.zero(self.m)

    def __mul__(self, other: "CoordFunction") -> "CoordFunction":
        return CoordFunction(self.m, self.poly * other.poly)

    def evaluate_matrix(self, mat) -> Fraction:
        values = {}
        for (i, j), name in zip(entry_positions(self.m), entry_names(self.m)):
            values[name] = mat[i - 1][j - 1]
        return self.poly.evaluate(values)

    def __repr__(self):
        return f"CoordFunction({self.poly})"


# -- exact matrix helpers ---------------------------------------------------------


def mat_mul(a, b):
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), start=_zero_like(a[i][0]))
         for j in range(n)]
        for i in range(n)
    ]


def _zero_like(x):
    if isinstance(x, RatFunc):
        return RatFunc.constant(x.variables, 0)
    if isinstance(x, MultiPoly):
        return MultiPoly.zero(x.variables)
    return Fraction(0)


def identity_matrix(m, one=Fraction(1), zero=Fraction(0)):
    return [[one if i == j else zero for j in range(m)] for i in range(m)]


def unitriangular_inverse(mat):
    """Inverse of an upper-unitriangular matrix, by back substitution.

    Works for Fraction, MultiPoly, or RatFunc entries.
    """
    m = len(mat)
    sample = mat[0][0]
    inv = [[_coerce_like(sample, 1 if i == j else 0) for j in range(m)] for i in range(m)]
    for j in range(m):
        for i in range(j - 1, -1, -1):
            s = _coerce_like(sample, 0)
            for k in range(i + 1, j + 1):
                s = s + mat[i][k] * inv[k][j]
            inv[i][j] = -s
    return inv


def _coerce_like(sample, c):
    if isinstance(sample, RatFunc):
        return RatFunc.constant(sample.variables, c)
    if isinstance(sample, MultiPoly):
        return MultiPoly.constant(sample.variables, c)
    return Fraction(c)


def check_regular(x) -> None:
    m = len(x)
    vals = [Fraction(v) for v in x]
    if sum(vals) != 0:
        raise ValueError("diagonal point must have trace zero")
    for i in range(m):
        for j in range(i + 1, m):
            if vals[i] == vals[j]:
                raise ValueError("diagonal point is not regular")


def is_admissible(x, height: int) -> bool:
    """No nonzero beta in Q_+ of height <= `height` pairs to zero with x."""
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
    vals = [Fraction(v) for v in x]
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
    xv = [MultiPoly.var(names, nm) for nm in names]
    n = [[one if i == j else zero for j in range(m)] for i in range(m)]
    for span in range(1, m):
        for i0 in range(m - span):
            i, j = i0, i0 + span
            form = xv[j] - xv[i]
            upstream = one if span == 1 else n[i + 1][j]
            n[i][j] = upstream.divide_by_form(form)
    return n


def verify_nx(m: int, x, n) -> bool:
    """Check n diag(x) - (diag(x) + E) n == 0 exactly."""
    vals = [Fraction(v) for v in x]
    lhs = [[n[i][j] * vals[j] for j in range(m)] for i in range(m)]
    rhs = [[vals[i] * n[i][j] + (n[i + 1][j] if i + 1 < m else Fraction(0)) for j in range(m)] for i in range(m)]
    return lhs == rhs


# -- the word pairing -------------------------------------------------------------


def pair_word(m: int, seq, f: CoordFunction) -> Fraction:
    """Coefficient of t_1...t_p in f(exp(t_1 e_{i_1}) ... exp(t_p e_{i_p}))."""
    seq = tuple(seq)
    p = len(seq)
    if p == 0:
        return f.poly.constant_term()
    tnames = tuple(f"t{k}" for k in range(1, p + 1))
    one = MultiPoly.constant(tnames, 1)
    zero = MultiPoly.zero(tnames)
    mat = [[one if i == j else zero for j in range(m)] for i in range(m)]
    for k, i in enumerate(seq):
        # right-multiplying by 1 + t_k e_i adds t_k * (column i) to column i+1
        tk = MultiPoly.var(tnames, tnames[k])
        for row in mat:
            if not row[i - 1].is_zero():
                row[i] = row[i] + row[i - 1] * tk
    target = (1,) * p
    total = Fraction(0)
    positions = entry_positions(m)
    for mon, c in f.poly.terms.items():
        prod = one
        for e, (i, j) in zip(mon, positions):
            if e:
                prod = prod * mat[i - 1][j - 1] ** e
        total += c * prod.coefficient(target)
    return total


def pairing_coefficients(m: int, f: CoordFunction) -> dict:
    """All word pairings on Seq(weight of f)."""
    return {seq: pair_word(m, seq, f) for seq in sequences(m, f.weight)}


# -- Dbar two ways ----------------------------------------------------------------


def dbar_of_function(f: CoordFunction) -> RatFunc:
    """Expansion of x |-> f(n_x) as a linear combination of the D-bar terms."""
    m = f.m
    nu = f.weight
    names = alpha_names(m)
    coeffs = {}
    for seq in sequences(m, nu):
        c = pair_word(m, seq, f)
        if c:
            coeffs[seq] = c
    if not coeffs:
        return RatFunc.constant(names, 0)
    return measure_from_coeffs(m, coeffs, nu, "dbar")


def dbar_direct(f: CoordFunction, x) -> Fraction:
    """Evaluation route: f at the matrix n_x."""
    return f.evaluate_matrix(solve_nx(f.m, x))


def eval_ratfunc_at_x(r: RatFunc, x) -> Fraction:
    m = len(x)
    vals = [Fraction(v) for v in x]
    alpha_vals = {n: vals[i] - vals[i + 1] for i, n in enumerate(alpha_names(m))}
    return r.evaluate(alpha_vals)


# -- psi and the Fourier side ------------------------------------------------------


def psi_eval(x, t):
    """The product t^{-1} n_x t n_x^{-1} for regular x and diagonal t."""
    m = len(x)
    check_regular(x)
    tvals = [Fraction(v) for v in t]
    if any(v == 0 for v in tvals):
        raise ValueError("torus point must be invertible")
    n = solve_nx(m, x)
    ninv = unitriangular_inverse(n)
    tinv_n_t = [[n[i][j] * tvals[j] / tvals[i] for j in range(m)] for i in range(m)]
    return mat_mul(tinv_n_t, ninv)


def ft_of_function(f: CoordFunction):
    """FT route: the exponential sum of f, via the word pairings."""
    m = f.m
    nu = f.weight
    coeffs = {}
    for seq in sequences(m, nu):
        c = pair_word(m, seq, f)
        if c:
            coeffs[seq] = c
    return measure_from_coeffs(m, coeffs, nu, "ft")


# -- Weyl conjugation witness -------------------------------------------------------


def sbar(m: int, i: int):
    """The lift exp(-e_i) exp(f_i) exp(-e_i) of the simple reflection s_i."""
    e = identity_matrix(m)
    e[i - 1][i] = Fraction(-1)
    fmat = identity_matrix(m)
    fmat[i][i - 1] = Fraction(1)
    return mat_mul(mat_mul(e, fmat), e)


def weyl_witness(x, i: int):
    """Solve n_{s_i x} = y n_x sbar_i^{-1} t with y lower-unitriangular, t diagonal.

    Returns (y, t) and asserts the factorization exactly; failure to find a
    diagonal t signals an implementation fault, since existence is
    guaranteed for regular x with s_i x regular.
    """
    m = len(x)
    vals = [Fraction(v) for v in x]
    check_regular(vals)
    sx = list(vals)
    sx[i - 1], sx[i] = sx[i], sx[i - 1]
    check_regular(sx)

    n_x = solve_nx(m, vals)
    n_sx = solve_nx(m, sx)
    w = sbar(m, i)
    c_mat = mat_mul(w, unitriangular_inverse(n_x))

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
    tinv_diag = identity_matrix(m)
    for k in range(m):
        tinv_diag[k][k] = s[k]
    y = mat_mul(mat_mul(n_sx, tinv_diag), c_mat)
    # exact verification of the factorization and the shape of y
    for a in range(m):
        for b in range(m):
            if b > a and y[a][b] != 0:
                raise AssertionError("witness y is not lower-unitriangular")
            if a == b and y[a][b] != 1:
                raise AssertionError("witness y is not unitriangular")
    t_diag = identity_matrix(m)
    for k in range(m):
        t_diag[k][k] = t[k]
    left = n_sx
    # sbar_i^{-1}, solved one column at a time
    w_inv = list(zip(*(solve(w, e, m) for e in identity_matrix(m))))
    right = mat_mul(mat_mul(mat_mul(y, n_x), w_inv), t_diag)
    if left != right:
        raise AssertionError("factorization check failed")
    return y, t

