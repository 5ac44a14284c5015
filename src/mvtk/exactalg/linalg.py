"""Exact linear algebra over Q and over the prime fields F_p.

Every function takes the field as `p`.  `p = None` means Q: entries are
anything `Fraction` accepts, and results hold Fractions.  A prime `p` means
F_p: entries are ints, and results hold ints reduced into range(p) (GF(2) is
`p = 2`).  Vectors and matrix rows are sequences of entries; a matrix is a
sequence of rows.  Every Gaussian elimination over a field in mvtk runs
here, and so does every product and inverse of matrices with field
entries.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul


def _entries(vec, p):
    if p is None:
        return [Fraction(x) for x in vec]
    return [x % p for x in vec]


def _sub_multiple(a, f, b, p):
    """a - f*b, entrywise."""
    if p is None:
        return [x - f * y for x, y in zip(a, b)]
    return [(x - f * y) % p for x, y in zip(a, b)]


def rref(rows, p=None) -> tuple:
    """The nonzero rows of the reduced row echelon form, as a tuple of tuples."""
    rows = [_entries(r, p) for r in rows]
    top = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        pivot_row = rows[top]
        lead = pivot_row[col]
        if lead != 1:
            if p is None:
                pivot_row = [x / lead for x in pivot_row]
            else:
                inv = pow(lead, -1, p)
                pivot_row = [x * inv % p for x in pivot_row]
            rows[top] = pivot_row
        for r, row in enumerate(rows):
            if r != top and row[col]:
                rows[r] = _sub_multiple(row, row[col], pivot_row, p)
        top += 1
        if top == len(rows):
            break
    return tuple(tuple(r) for r in rows[:top])


def coords(vec, basis, p=None):
    """Coordinates of `vec` in the rows of the rref matrix `basis`.

    Returns a list with one entry per basis row, or None when `vec` does not
    lie in their span.
    """
    v = _entries(vec, p)
    out = []
    for row in basis:
        lead = next(i for i, x in enumerate(row) if x)
        c = v[lead]
        out.append(c)
        if c:
            v = _sub_multiple(v, c, row, p)
    return None if any(v) else out


def null_space(rows, n: int, p=None) -> list:
    """A basis of {x in K^n : row . x = 0 for every row}.

    One vector per free column of rref(rows), in increasing column order,
    with a 1 in that column and 0 in the other free columns.
    """
    reduced = rref(rows, p)
    pivots = [next(i for i, x in enumerate(row) if x) for row in reduced]
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
    reduced = rref([list(r) + [b] for r, b in zip(rows, rhs)], p)
    x = [Fraction(0) if p is None else 0] * n
    for row in reduced:
        piv = next(i for i, v in enumerate(row) if v)
        if piv == n:
            raise ValueError("inconsistent linear system")
        x[piv] = row[n]
    return x


def mat_vec(mat, vec, p=None) -> tuple:
    """The product mat . vec."""
    if p is None:
        return tuple([sum(map(mul, row, vec), Fraction(0)) for row in mat])
    return tuple([sum(map(mul, row, vec)) % p for row in mat])


def mat_mul(a, b, p=None) -> list:
    """The product a . b as a list of row lists; b needs at least one row."""
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
    reduced = rref([list(row) + e for row, e in zip(mat, identity(n, p))], p)
    if n and not any(reduced[-1][:n]):
        raise ValueError("singular matrix")
    return [list(row[n:]) for row in reduced]
