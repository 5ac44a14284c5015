"""Exact linear algebra over Q and over the prime fields F_p.

Every function takes the field as `p`.  `p = None` means Q: entries are
ints or Fractions (`poly._exact`; a float or a string is refused), and
results hold Fractions.  A prime `p` means F_p: entries are ints, and
results hold ints reduced into range(p) (GF(2) is `p = 2`).  Vectors and
matrix rows are sequences of entries; a matrix is a sequence of rows, and
rows of unequal length, or a shape that does not fit the call, raise
ValueError.  Every Gaussian elimination over a field in mvtk runs here, and
so does every product and inverse of matrices with field entries.  The
eliminations find pivots with plain loops and reduce a row in one
comprehension, branching on the field once per pivot.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .poly import _exact


def _entries(vec, p):
    if p is None:
        return [_exact(x) for x in vec]
    return [x % p for x in vec]


def _check_widths(rows, n: int, what: str):
    """ValueError unless every row has n entries."""
    for row in rows:
        if len(row) != n:
            raise ValueError(f"{what}: a row of {len(row)} entries in a matrix of {len(rows)} "
                             f"rows that needs {n}")


def rref(rows, p=None) -> tuple:
    """The nonzero rows of the reduced row echelon form, as a tuple of tuples."""
    rows = [_entries(r, p) for r in rows]
    if not rows:
        return ()
    width, count = len(rows[0]), len(rows)
    _check_widths(rows, width, "rref")
    top = 0
    for col in range(width):
        for piv in range(top, count):
            if rows[piv][col]:
                break
        else:
            continue
        pivot_row, lead = rows[piv], rows[piv][col]
        rows[piv] = rows[top]
        if p is None:
            if lead != 1:
                pivot_row = [x / lead for x in pivot_row]
            for r in range(count):
                f = rows[r][col]
                if f and r != top:
                    rows[r] = [x - f * y for x, y in zip(rows[r], pivot_row)]
        else:
            if lead != 1:
                inv = pow(lead, -1, p)
                pivot_row = [x * inv % p for x in pivot_row]
            for r in range(count):
                f = rows[r][col]
                if f and r != top:
                    rows[r] = [(x - f * y) % p for x, y in zip(rows[r], pivot_row)]
        rows[top] = pivot_row
        top += 1
        if top == count:
            break
    return tuple(map(tuple, rows[:top]))


def _pivots(reduced) -> list:
    """The pivot column of each row of an rref matrix."""
    pivots = []
    for row in reduced:
        for lead in range(len(row)):
            if row[lead]:
                break
        pivots.append(lead)
    return pivots


def coords(vec, basis, p=None):
    """Coordinates of `vec` in the rows of the rref matrix `basis`.

    Returns a list with one entry per basis row, or None when `vec` does not
    lie in their span.
    """
    v = _entries(vec, p)
    if basis and len(basis[0]) != len(v):
        raise ValueError(f"coords: a vector of {len(v)} entries against rows of {len(basis[0])}")
    out = []
    for row in basis:
        for lead in range(len(row)):  # `_pivots` inline: this is the lattice walk's hot loop
            if row[lead]:
                break
        c = v[lead]
        out.append(c)
        if c:
            if p is None:
                v = [x - c * y for x, y in zip(v, row)]
            else:
                v = [(x - c * y) % p for x, y in zip(v, row)]
    return None if any(v) else out


def null_space(rows, n: int, p=None) -> list:
    """A basis of {x in K^n : row . x = 0 for every row}.

    One vector per free column of rref(rows), in increasing column order,
    with a 1 in that column and 0 in the other free columns.
    """
    _check_widths(rows, n, "null_space")
    reduced = rref(rows, p)
    pivots = _pivots(reduced)
    zero, one = (Fraction(0), Fraction(1)) if p is None else (0, 1)
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        vec = [zero] * n
        vec[f] = one
        for row, piv in zip(reduced, pivots):
            vec[piv] = -row[f] if p is None else -row[f] % p
        basis.append(tuple(vec))
    return basis


def solve(rows, rhs, n: int, p=None) -> list:
    """One solution x in K^n of rows . x = rhs, the free unknowns set to 0.

    Raises ValueError when the system is inconsistent.
    """
    if len(rows) != len(rhs):
        raise ValueError(f"solve: {len(rows)} equations with {len(rhs)} right-hand sides")
    _check_widths(rows, n, "solve")
    reduced = rref([list(r) + [b] for r, b in zip(rows, rhs)], p)
    x = [Fraction(0) if p is None else 0] * n
    for row, piv in zip(reduced, _pivots(reduced)):
        if piv == n:
            raise ValueError("inconsistent linear system")
        x[piv] = row[n]
    return x


def mat_vec(mat, vec, p=None) -> tuple:
    """The product mat . vec."""
    _check_widths(mat, len(vec), "mat_vec")
    if p is None:
        return tuple([sum(map(mul, row, vec), Fraction(0)) for row in mat])
    return tuple([sum(map(mul, row, vec)) % p for row in mat])


def mat_mul(a, b, p=None) -> list:
    """The product a . b as a list of row lists; b needs at least one row."""
    _check_widths(b, len(b[0]), "mat_mul")
    cols = tuple(zip(*b))
    return [list(mat_vec(cols, row, p)) for row in a]


def identity(n: int, p=None) -> list:
    """The n x n identity matrix as a list of row lists."""
    zero, one = (Fraction(0), Fraction(1)) if p is None else (0, 1)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def inverse(mat, p=None) -> list:
    """The inverse of a square matrix, read off the rref of [mat | I].

    Raises ValueError when mat is singular.
    """
    n = len(mat)
    _check_widths(mat, n, "inverse of a square matrix")
    reduced = rref([list(row) + e for row, e in zip(mat, identity(n, p))], p)
    if n and not any(reduced[-1][:n]):
        raise ValueError("singular matrix")
    return [list(row[n:]) for row in reduced]
