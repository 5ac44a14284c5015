"""Representations of the type-A preprojective algebra and their flag counts.

A representation assigns a space to each vertex 1..m-1 of the A_{m-1}
diagram and a matrix to each oriented edge, subject to the relation that at
every vertex the down-then-up composite equals the up-then-down composite
(sign function: +1 on arrows i -> i+1, -1 on arrows i+1 -> i).

Euler characteristics of submodule and flag varieties are obtained by
counting F_q-points for several primes, fitting the exact interpolating
polynomial, and evaluating at q = 1; a fit failure (non-polynomial counts)
is a hard error, never a warning.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, product as iproduct

from .exactalg.poly import MultiPoly
from .measures import RatFunc, dbar_i
from .roota import Weight, alpha_names, positive_roots, root_positions


# -- finite-field linear algebra ------------------------------------------------


def _rref(rows, p):
    """Reduced row echelon form over F_p; returns tuple of nonzero rows."""
    rows = [list(r) for r in rows]
    if not rows:
        return ()
    ncols = len(rows[0])
    pivot_row = 0
    for col in range(ncols):
        pivot = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        inv = pow(rows[pivot_row][col], p - 2, p) if p > 2 else rows[pivot_row][col]
        rows[pivot_row] = [(v * inv) % p for v in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] % p:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    out = [tuple(r) for r in rows[:pivot_row] if any(r)]
    return tuple(out)


def _in_span(vec, rref_rows, p):
    v = list(vec)
    for row in rref_rows:
        lead = next(i for i, x in enumerate(row) if x)
        if v[lead] % p:
            f = v[lead]
            v = [(a - f * b) % p for a, b in zip(v, row)]
    return not any(x % p for x in v)


def _span_contains(rref_small, rref_big, p):
    return all(_in_span(row, rref_big, p) for row in rref_small)


def _subspaces(d, k, p):
    """All k-dimensional subspaces of F_p^d as rref tuples."""
    if k == 0:
        yield ()
        return
    for pivots in combinations(range(d), k):
        free_positions = []
        for r, pc in enumerate(pivots):
            for c in range(pc + 1, d):
                if c not in pivots:
                    free_positions.append((r, c))
        for values in iproduct(range(p), repeat=len(free_positions)):
            rows = [[0] * d for _ in range(k)]
            for r, pc in enumerate(pivots):
                rows[r][pc] = 1
            for (r, c), v in zip(free_positions, values):
                rows[r][c] = v
            yield tuple(tuple(r) for r in rows)


def _all_subspaces(d, p):
    out = []
    for k in range(d + 1):
        out.extend(_subspaces(d, k, p))
    return out


def _mat_vec(mat, vec, p):
    return tuple(sum(a * b for a, b in zip(row, vec)) % p for row in mat)


# -- the representations ----------------------------------------------------------


def arrow_pairs(m):
    """Oriented edges (i, j) of the doubled A_{m-1} diagram."""
    out = []
    for i in range(1, m - 1):
        out.append((i, i + 1))
        out.append((i + 1, i))
    return out


class QuiverRep:
    """A module over the preprojective algebra of A_{m-1}.

    `field` is 'Q' (Fraction entries) or a prime p (int entries mod p).
    Matrices are stored as tuples of row tuples, shape (dim target, dim
    source); missing arrows are zero.
    """

    def __init__(self, m, dims, maps, field="Q", check=True):
        self.m = m
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != m - 1:
            raise ValueError("need one dimension per vertex 1..m-1")
        self.field = field
        self.maps = {}
        for (i, j) in arrow_pairs(m):
            mat = maps.get((i, j))
            di, dj = self.dims[i - 1], self.dims[j - 1]
            if mat is None:
                mat = tuple(tuple(self._zero() for _ in range(di)) for _ in range(dj))
            else:
                mat = tuple(tuple(self._coerce(v) for v in row) for row in mat)
                if len(mat) != dj or (dj and any(len(r) != di for r in mat)):
                    raise ValueError(f"arrow {i}->{j} has the wrong shape")
                if dj == 0:
                    mat = ()
            self.maps[(i, j)] = mat
        if check and not self.relation_holds():
            raise ValueError("preprojective relation fails")

    def _zero(self):
        return 0 if self.field != "Q" else Fraction(0)

    def _coerce(self, v):
        if self.field == "Q":
            return Fraction(v)
        return int(v) % self.field

    def _matmul(self, a, b, rows, mid, cols):
        if rows == 0 or cols == 0:
            return tuple(tuple() for _ in range(rows))
        out = []
        for r in range(rows):
            row = []
            for c in range(cols):
                s = sum((a[r][k] * b[k][c] for k in range(mid)), start=self._zero())
                if self.field != "Q":
                    s %= self.field
                row.append(s)
            out.append(tuple(row))
        return tuple(out)

    def relation_holds(self):
        for v in range(1, self.m):
            dv = self.dims[v - 1]
            acc = [[self._zero()] * dv for _ in range(dv)]
            if v - 1 >= 1:
                a = self._matmul(self.maps[(v - 1, v)], self.maps[(v, v - 1)],
                                 dv, self.dims[v - 2], dv)
                for r in range(dv):
                    for c in range(dv):
                        acc[r][c] += a[r][c]
            if v + 1 <= self.m - 1:
                b = self._matmul(self.maps[(v + 1, v)], self.maps[(v, v + 1)],
                                 dv, self.dims[v], dv)
                for r in range(dv):
                    for c in range(dv):
                        acc[r][c] -= b[r][c]
            for r in range(dv):
                for c in range(dv):
                    x = acc[r][c]
                    if self.field != "Q":
                        x %= self.field
                    if x != 0:
                        return False
        return True

    def dim_vector(self) -> Weight:
        return Weight.from_alpha(self.m, self.dims)

    def total_dim(self) -> int:
        return sum(self.dims)

    def direct_sum(self, other: "QuiverRep") -> "QuiverRep":
        if self.m != other.m or self.field != other.field:
            raise ValueError("incompatible summands")
        dims = tuple(a + b for a, b in zip(self.dims, other.dims))
        maps = {}
        for (i, j) in arrow_pairs(self.m):
            a = self.maps[(i, j)]
            b = other.maps[(i, j)]
            di1, di2 = self.dims[i - 1], other.dims[i - 1]
            dj1, dj2 = self.dims[j - 1], other.dims[j - 1]
            rows = []
            for r in range(dj1):
                rows.append(tuple(a[r]) + tuple(self._zero() for _ in range(di2)))
            for r in range(dj2):
                rows.append(tuple(self._zero() for _ in range(di1)) + tuple(b[r]))
            maps[(i, j)] = tuple(rows)
        return QuiverRep(self.m, dims, maps, self.field)

    def reduce_mod(self, p: int) -> "QuiverRep":
        if self.field != "Q":
            raise ValueError("already over a prime field")
        maps = {}
        for key, mat in self.maps.items():
            rows = []
            for row in mat:
                vals = []
                for v in row:
                    if v.denominator % p == 0:
                        raise ValueError(f"entry {v} not reducible mod {p}")
                    vals.append((v.numerator * pow(v.denominator, p - 2, p)) % p)
                rows.append(tuple(vals))
            maps[key] = tuple(rows)
        return QuiverRep(self.m, self.dims, maps, p)

    def socle_dims(self):
        """Dimension, per vertex, of the joint kernel of all outgoing arrows."""
        if self.field == "Q":
            raise ValueError("socle check implemented over prime fields; reduce first")
        p = self.field
        out = []
        for v in range(1, self.m):
            dv = self.dims[v - 1]
            stacked = []
            for w in (v - 1, v + 1):
                if 1 <= w <= self.m - 1:
                    mat = self.maps[(v, w)]
                    for r in range(self.dims[w - 1]):
                        stacked.append(tuple(mat[r][c] for c in range(dv)))
            if not stacked:
                out.append(dv)
                continue
            rank = len(_rref(stacked, p))
            out.append(dv - rank)
        return tuple(out)


# -- submodule lattices ------------------------------------------------------------


class SubmoduleLattice:
    """All submodules of a representation over F_p, with containment."""

    def __init__(self, rep: QuiverRep):
        if rep.field == "Q":
            raise ValueError("enumerate over a prime field")
        self.rep = rep
        self.p = rep.field
        self.subs = self._enumerate()
        self.dim_vectors = [
            tuple(len(u) for u in sub) for sub in self.subs
        ]
        self.below = self._containments()
        self.index = {sub: i for i, sub in enumerate(self.subs)}

    def _enumerate(self):
        rep = self.rep
        p = self.p
        nv = rep.m - 1
        choices = [_all_subspaces(d, p) for d in rep.dims]
        subs = []

        def invariant_step(partial, v):
            # check arrows between vertex v and v-1 (both already chosen)
            if v >= 2:
                for (src, dst) in ((v - 1, v), (v, v - 1)):
                    mat = rep.maps[(src, dst)]
                    u_src = partial[src - 1]
                    u_dst = partial[dst - 1]
                    for row in u_src:
                        img = _mat_vec(mat, row, p)
                        if any(img) and not _in_span(img, u_dst, p):
                            return False
            return True

        def rec(partial, v):
            if v > nv:
                subs.append(tuple(partial))
                return
            for u in choices[v - 1]:
                partial.append(u)
                if invariant_step(partial, v):
                    rec(partial, v + 1)
                partial.pop()

        rec([], 1)
        subs.sort(key=lambda s: (sum(len(u) for u in s), s))
        return subs

    def _containments(self):
        p = self.p
        n = len(self.subs)
        below = [[] for _ in range(n)]
        for a in range(n):
            for b in range(n):
                if a == b:
                    below[b].append(a)
                    continue
                da, db = self.dim_vectors[a], self.dim_vectors[b]
                if any(x > y for x, y in zip(da, db)):
                    continue
                if all(
                    _span_contains(ua, ub, p)
                    for ua, ub in zip(self.subs[a], self.subs[b])
                ):
                    below[b].append(a)
        return below

    def full_index(self):
        return len(self.subs) - 1

    # -- counting queries

    def count_submodules(self, dimvec) -> int:
        dimvec = tuple(dimvec)
        return sum(1 for d in self.dim_vectors if d == dimvec)

    def submodule_dim_vectors(self) -> set:
        return set(self.dim_vectors)

    def composition_series_counts(self) -> dict:
        """Counts of complete simple-quotient chains, per type sequence."""
        n = len(self.subs)
        order = sorted(range(n), key=lambda i: sum(self.dim_vectors[i]))
        table = [dict() for _ in range(n)]
        for i in order:
            if sum(self.dim_vectors[i]) == 0:
                table[i][()] = 1
                continue
            acc: dict = {}
            di = self.dim_vectors[i]
            for j in self.below[i]:
                if j == i:
                    continue
                dj = self.dim_vectors[j]
                diff = [x - y for x, y in zip(di, dj)]
                if sum(diff) != 1:
                    continue
                letter = diff.index(1) + 1
                for seq, cnt in table[j].items():
                    key = seq + (letter,)
                    acc[key] = acc.get(key, 0) + cnt
            table[i] = acc
        return table[self.full_index()]

    def chain_counts_by_total(self, n: int) -> dict:
        """Chains 0 <= M^1 <= ... <= M^n <= M, bucketed by sum of dim M^k."""
        ns = len(self.subs)
        zero_total = (0,) * (self.rep.m - 1)
        f = [dict() for _ in range(ns)]
        for i in range(ns):
            f[i] = {self.dim_vectors[i]: 1}
        for _ in range(n - 1):
            g = [dict() for _ in range(ns)]
            for big in range(ns):
                dbig = self.dim_vectors[big]
                for small in self.below[big]:
                    for acc, cnt in f[small].items():
                        key = tuple(a + b for a, b in zip(acc, dbig))
                        g[big][key] = g[big].get(key, 0) + cnt
            f = g
        if n == 0:
            return {zero_total: 1}
        total: dict = {}
        for i in range(ns):
            for acc, cnt in f[i].items():
                total[acc] = total.get(acc, 0) + cnt
        return total

    def chain_counts_by_last(self, n: int) -> dict:
        """Chains as above, bucketed by the dimension vector of M^n."""
        ns = len(self.subs)
        f = [1] * ns  # chains of length 1 ending at each submodule
        for _ in range(n - 1):
            g = [0] * ns
            for big in range(ns):
                for small in self.below[big]:
                    g[big] += f[small]
            f = g
        out: dict = {}
        if n == 0:
            return {(0,) * (self.rep.m - 1): 1}
        for i in range(ns):
            key = self.dim_vectors[i]
            out[key] = out.get(key, 0) + f[i]
        return out


def count_points(rep: QuiverRep, query, q: int, budget: int = 2_000_000) -> int:
    """Exact F_q point count of a named variety attached to `rep`.

    query is ('submodules', dimvec), ('chains', n, dimvec-total), or
    ('compseries', sequence).  `rep` may be over Q (it is reduced mod q).
    Composition series of one fixed type are counted by top-quotient
    peeling, which stays feasible on modules whose full submodule lattice
    would not; the other queries enumerate the lattice within budget.
    """
    base = rep.reduce_mod(q) if rep.field == "Q" else rep
    kind = query[0]
    if kind == "compseries":
        return _count_compseries_fixed(base, tuple(query[1]))
    estimate = 1
    for d in base.dims:
        per = sum(q ** max(k * (d - k), 0) for k in range(d + 1))
        estimate *= per
    if estimate > budget:
        raise ValueError(f"enumeration budget exceeded ({estimate} > {budget})")
    lat = SubmoduleLattice(base)
    if kind == "submodules":
        return lat.count_submodules(query[1])
    if kind == "chains":
        _, n, mu = query
        return lat.chain_counts_by_total(n).get(tuple(mu), 0)
    raise ValueError(f"unknown query {query!r}")


def _count_compseries_fixed(rep: QuiverRep, seq) -> int:
    """Composition series of one type, peeling simple quotients off the top."""
    p = rep.field
    m = rep.m
    letters = [0] * (m - 1)
    for i in seq:
        letters[i - 1] += 1
    if tuple(letters) != rep.dims:
        return 0
    full = tuple(
        tuple(tuple(1 if a == b else 0 for a in range(d)) for b in range(d))
        for d in rep.dims
    )
    memo: dict = {}

    def rec(state, k):
        if k == 0:
            return 1
        key = (state, k)
        if key in memo:
            return memo[key]
        i = seq[k - 1]
        u_i = state[i - 1]
        # the hyperplane must contain the images of the incoming arrows
        incoming = []
        for v in (i - 1, i + 1):
            if 1 <= v <= m - 1:
                mat = rep.maps[(v, i)]
                for row in state[v - 1]:
                    img = _mat_vec(mat, row, p)
                    if any(img):
                        incoming.append(img)
        total = 0
        for h in _hyperplanes_containing(u_i, incoming, p, rep.dims[i - 1]):
            nxt = tuple(
                h if v == i - 1 else state[v] for v in range(m - 1)
            )
            total += rec(nxt, k - 1)
        memo[key] = total
        return total

    return rec(full, len(seq))


def _hyperplanes_containing(space_rows, must_contain, p, ambient_dim):
    """Codimension-1 subspaces of a given space containing the given vectors.

    Works in coordinates on the space itself, then maps back to ambient
    rref tuples.
    """
    k = len(space_rows)
    if k == 0:
        return
    # coordinates of must_contain vectors in the basis space_rows
    w_rows = []
    for vec in must_contain:
        coords = _coords_in_span(vec, space_rows, p)
        if coords is None:
            return  # image leaves the subspace: no invariant hyperplane
        w_rows.append(coords)
    w_rref = _rref(w_rows, p)
    r = len(w_rref)
    if r >= k:
        return
    # hyperplanes of F^k containing W <-> hyperplanes of F^k / W
    for functional in _projective_functionals(k, w_rref, p):
        rows = _kernel_of_functional(functional, k, p)
        lifted = []
        for row in rows:
            amb = [0] * ambient_dim
            for c, srow in zip(row, space_rows):
                if c:
                    amb = [(a + c * b) % p for a, b in zip(amb, srow)]
            lifted.append(tuple(amb))
        yield _rref(lifted, p)


def _coords_in_span(vec, rref_rows, p):
    v = list(vec)
    coords = [0] * len(rref_rows)
    for idx, row in enumerate(rref_rows):
        lead = next(i for i, x in enumerate(row) if x)
        if v[lead] % p:
            f = v[lead]
            coords[idx] = f % p
            v = [(a - f * b) % p for a, b in zip(v, row)]
    if any(x % p for x in v):
        return None
    return coords


def _projective_functionals(k, w_rref, p):
    """Nonzero functionals on F^k vanishing on W, one per hyperplane.

    Enumerated as normalized projective points of the annihilator of W.
    """
    ann = _null_space(w_rref, k, p)
    d = len(ann)
    for coeffs in iproduct(range(p), repeat=d):
        if not any(coeffs):
            continue
        lead = next(i for i, c in enumerate(coeffs) if c)
        if coeffs[lead] != 1:
            continue
        functional = [0] * k
        for c, row in zip(coeffs, ann):
            if c:
                functional = [(a + c * b) % p for a, b in zip(functional, row)]
        yield tuple(functional)


def _null_space(rows, k, p):
    """Basis of the right null space of the given row vectors in F^k."""
    rref = _rref(rows, p)
    pivots = []
    for row in rref:
        pivots.append(next(i for i, x in enumerate(row) if x))
    free = [c for c in range(k) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * k
        vec[f] = 1
        for row, piv in zip(rref, pivots):
            vec[piv] = (-row[f]) % p
        basis.append(tuple(vec))
    return basis


def _kernel_of_functional(coeffs, k, p):
    """Basis of the kernel of a nonzero functional on F^k."""
    lead = next(i for i, c in enumerate(coeffs) if c)
    inv = pow(coeffs[lead], p - 2, p) if p > 2 else coeffs[lead]
    rows = []
    for j in range(k):
        if j == lead:
            continue
        row = [0] * k
        row[j] = 1
        row[lead] = (-coeffs[j] * inv) % p
        rows.append(tuple(row))
    return rows


# -- Euler characteristics by interpolation ----------------------------------------


def euler_interpolate(counts, degree_bound: int) -> int:
    """Value at q=1 of the exact interpolating polynomial through the counts.

    Requires at least degree_bound + 1 distinct sample primes; any extra
    samples must lie exactly on the fitted polynomial, else the counts are
    not polynomial in q and the method does not apply.
    """
    pts = sorted(dict(counts).items())
    if len(pts) < degree_bound + 1:
        raise ValueError("not enough sample points for the degree bound")
    base = pts[: degree_bound + 1]
    # Newton divided differences
    xs = [Fraction(x) for x, _ in base]
    coeffs = [Fraction(y) for _, y in base]
    for level in range(1, len(base)):
        for i in range(len(base) - 1, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])

    def eval_at(x):
        x = Fraction(x)
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


DEFAULT_PRIMES = (2, 3, 5, 7)


def good_primes(rep: QuiverRep, primes) -> tuple:
    """Filter out primes dividing an entry denominator."""
    out = []
    for p in primes:
        try:
            if rep.field == "Q":
                rep.reduce_mod(p)
        except ValueError:
            continue
        out.append(p)
    return tuple(out)


# -- flag functions -----------------------------------------------------------------


def flag_data(rep: QuiverRep, primes=DEFAULT_PRIMES) -> dict:
    """Euler characteristics of the composition-series varieties, per sequence."""
    primes = good_primes(rep, primes)
    if len(primes) < 3:
        raise ValueError("need at least three usable primes")
    per_prime = {}
    for p in primes:
        lat = SubmoduleLattice(rep.reduce_mod(p) if rep.field == "Q" else rep)
        per_prime[p] = lat.composition_series_counts()
    seqs = set()
    for d in per_prime.values():
        seqs.update(d)
    chi = {}
    for seq in sorted(seqs):
        samples = [(p, per_prime[p].get(seq, 0)) for p in primes]
        value = euler_interpolate(samples, len(primes) - 2)
        if value:
            chi[seq] = value
    return chi


def flag_function(rep: QuiverRep, primes=DEFAULT_PRIMES, method="auto") -> RatFunc:
    """The rational function sum of chi(F_i) * Dbar_i over Seq(dim vector)."""
    chi = flag_data(rep, primes)
    return flag_function_from_chi(rep.m, chi, method=method)


def flag_function_from_chi(m: int, chi: dict, method="auto") -> RatFunc:
    names = alpha_names(m)
    if not chi:
        return RatFunc.constant(names, 1)  # the zero module: empty sequence only
    if method == "auto":
        method = "direct" if len(chi) <= 64 else "interpolate"
    if method == "direct":
        total = RatFunc.constant(names, 0)
        for seq in sorted(chi):
            total = total + dbar_i(m, seq) * chi[seq]
        return total
    return _flag_function_interpolated(m, chi)


def _flag_function_interpolated(m: int, chi: dict) -> RatFunc:
    """Reconstruct the flag function over the all-roots denominator.

    Evaluates the sequence sum at a tensor grid, interpolates the numerator
    (homogeneous, degree = #roots - sequence length over the product of all
    positive roots), then certifies the result at fresh sample points.
    """
    names = alpha_names(m)
    roots = positive_roots(m)
    some_seq = next(iter(chi))
    p_len = len(some_seq)
    for mult in (1, 2, 3):
        deg = mult * len(roots) - p_len
        try:
            num = _interpolate_homogeneous(
                names, deg, lambda pt: _flag_eval(m, chi, pt) * _roots_eval(m, pt) ** mult
            )
        except ZeroDivisionError:
            continue
        candidate = RatFunc(num, {r.alpha_coords(): mult for r in roots})
        if _certify_flag(m, chi, candidate):
            return candidate
    raise ArithmeticError("flag function does not clear against the root product")


def _flag_eval(m: int, chi: dict, alpha_values: dict) -> Fraction:
    """Sum of chi_i * Dbar_i at a point given by its alpha values."""
    point = [alpha_values[n] for n in alpha_names(m)]
    tail_cache: dict = {}

    def tail_value(tail: tuple) -> Fraction:
        # beta_k - beta_p = -(alpha coordinates of the letters after k)
        if tail not in tail_cache:
            tail_cache[tail] = -sum(c * x for c, x in zip(tail, point) if c)
        return tail_cache[tail]

    total = Fraction(0)
    for seq, c in chi.items():
        tail = [0] * (m - 1)
        prod = Fraction(1)
        for i in reversed(seq):
            tail[i - 1] += 1
            v = tail_value(tuple(tail))
            if v == 0:
                raise ZeroDivisionError("grid point hits a pole")
            prod /= v
        total += c * prod
    return total


def _roots_eval(m: int, alpha_values: dict) -> Fraction:
    point = [alpha_values[n] for n in alpha_names(m)]
    prod = Fraction(1)
    for r in positive_roots(m):
        prod *= sum(c * x for c, x in zip(r.alpha_coords(), point) if c)
    return prod


def _interpolate_homogeneous(names, deg, value_fn) -> MultiPoly:
    """Interpolate a homogeneous polynomial of the given degree from a grid.

    Dehomogenizes at the last variable = 1 and runs iterated univariate
    Newton interpolation on a shifted tensor grid.
    """
    r = len(names)
    free = r - 1
    grids = [[Fraction(17 + 6 * k + j) for j in range(deg + 1)] for k in range(free)]

    values: dict = {}
    for idx in iproduct(*(range(deg + 1) for _ in range(free))):
        point = {names[k]: grids[k][idx[k]] for k in range(free)}
        point[names[-1]] = Fraction(1)
        values[idx] = value_fn(point)

    # iterated Newton interpolation, axis by axis
    table = values
    for axis in range(free):
        new_table: dict = {}
        xs = grids[axis]
        groups: dict = {}
        for idx, val in table.items():
            key = idx[:axis] + (None,) + idx[axis + 1 :]
            groups.setdefault(key, {})[idx[axis]] = val
        for key, col in groups.items():
            coeffs = [col[j] for j in range(deg + 1)]
            for level in range(1, deg + 1):
                for i in range(deg, level - 1, -1):
                    coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])
            # convert Newton to monomial coefficients in this axis
            mono = [Fraction(0)] * (deg + 1)
            acc = [Fraction(1)]  # product polynomial coefficients
            for i in range(deg + 1):
                for d, c in enumerate(acc):
                    mono[d] += coeffs[i] * c
                # acc *= (x - xs[i])
                nxt = [Fraction(0)] * (len(acc) + 1)
                for d, c in enumerate(acc):
                    nxt[d + 1] += c
                    nxt[d] -= c * xs[i]
                acc = nxt
            for e, c in enumerate(mono):
                if c:
                    new_idx = key[:axis] + (e,) + key[axis + 1 :]
                    new_table[new_idx] = new_table.get(new_idx, Fraction(0)) + c
        table = new_table

    terms = {}
    for idx, c in table.items():
        if not c:
            continue
        total = sum(idx)
        if total > deg:
            raise ArithmeticError("interpolated function is not a polynomial of the expected degree")
        mon = tuple(idx) + (deg - total,)
        terms[mon] = terms.get(mon, Fraction(0)) + c
    return MultiPoly(tuple(names), terms)


def _certify_flag(m: int, chi: dict, candidate: RatFunc, trials: int = 4) -> bool:
    names = alpha_names(m)
    import random

    rng = random.Random(20240817)
    for _ in range(trials):
        while True:
            point = {n: Fraction(rng.randint(101, 997)) for n in names}
            try:
                direct = _flag_eval(m, chi, point)
                break
            except ZeroDivisionError:
                continue
        if candidate.evaluate(point) != direct:
            return False
    return True


def flag_function_generic(builder, values=(Fraction(2), Fraction(3)),
                          primes=None, method="auto") -> RatFunc:
    """Flag function of a family: evaluate the parameter twice, require agreement.

    Equal composition-series data implies equal flag functions, so the
    expensive assembly runs once when the two evaluations already agree at
    the counting level; otherwise both functions are built and compared.
    """
    data = []
    for a in values:
        rep = builder(Fraction(a))
        ps = primes or _primes_avoiding(a)
        data.append(flag_data(rep, primes=ps))
    if data[0] == data[1]:
        m = builder(Fraction(values[0])).m
        return flag_function_from_chi(m, data[0], method=method)
    results = [
        flag_function_from_chi(builder(Fraction(a)).m, chi, method=method)
        for a, chi in zip(values, data)
    ]
    if results[0] != results[1]:
        raise ValueError(
            "generic-parameter disagreement: "
            + " vs ".join(str(r) for r in results)
        )
    return results[0]


def _primes_avoiding(a, count=4):
    """Primes where the parameter stays away from 0, 1, -1."""
    a = Fraction(a)
    out = []
    p = 2
    while len(out) < count:
        if a.denominator % p:
            residue = (a.numerator * pow(a.denominator, p - 2, p)) % p if p > 2 else a.numerator % p
            if residue not in (0, 1 % p, (p - 1) % p):
                out.append(p)
        p = _next_prime(p)
    return tuple(out)


def _next_prime(p):
    candidate = p + 1
    while True:
        if all(candidate % d for d in range(2, int(candidate**0.5) + 1)):
            return candidate
        candidate += 1


# -- distinguished modules -----------------------------------------------------------


def injective_module(m: int, i: int) -> QuiverRep:
    """The indecomposable injective with socle the simple at vertex i.

    Realized on the (m-i) x i rectangle: basis (r, c) sits at vertex
    c - r + (m - i); stepping c is the up arrow, stepping r the down arrow,
    all structure constants 1.  The relation and the socle are certified.
    """
    if not 1 <= i <= m - 1:
        raise ValueError("vertex out of range")
    height, width = m - i, i
    cells = [(r, c) for r in range(1, height + 1) for c in range(1, width + 1)]
    vertex = {cell: cell[1] - cell[0] + height for cell in cells}
    basis = {v: [cell for cell in cells if vertex[cell] == v] for v in range(1, m)}
    index = {
        cell: basis[vertex[cell]].index(cell) for cell in cells
    }
    dims = tuple(len(basis[v]) for v in range(1, m))
    expected = tuple(min(i, v, m - i, m - v) for v in range(1, m))
    if dims != expected:
        raise AssertionError("rectangle model has the wrong dimension table")
    maps = {}
    for v in range(1, m - 1):
        # up arrow v -> v+1: (r, c) -> (r, c+1)
        rows = [[0] * dims[v - 1] for _ in range(dims[v])]
        for cell in basis[v]:
            r, c = cell
            if c + 1 <= width:
                rows[index[(r, c + 1)]][index[cell]] = 1
        maps[(v, v + 1)] = rows
        # down arrow v+1 -> v: (r, c) -> (r+1, c)
        rows = [[0] * dims[v] for _ in range(dims[v - 1])]
        for cell in basis[v + 1]:
            r, c = cell
            if r + 1 <= height:
                rows[index[(r + 1, c)]][index[cell]] = 1
        maps[(v + 1, v)] = rows
    rep = QuiverRep(m, dims, maps, "Q")
    socle = rep.reduce_mod(97).socle_dims()
    if socle != tuple(1 if v == i else 0 for v in range(1, m)):
        raise AssertionError("socle certificate failed for the rectangle model")
    return rep


def simple_module(m: int, i: int) -> QuiverRep:
    dims = tuple(1 if v == i else 0 for v in range(1, m))
    return QuiverRep(m, dims, {}, "Q")


def brick_module(m: int, i: int, j: int) -> QuiverRep:
    """The brick supported on vertices i..j-1 with down arrows equal to 1."""
    if not 1 <= i < j <= m:
        raise ValueError("need a positive root eps_i - eps_j")
    dims = tuple(1 if i <= v <= j - 1 else 0 for v in range(1, m))
    maps = {}
    for v in range(i, j - 1):
        maps[(v + 1, v)] = [[1]]
    return QuiverRep(m, dims, maps, "Q")


# -- submodule polytope support -------------------------------------------------------


def pol_M(rep: QuiverRep, primes=(2, 3)) -> set:
    """Negated dimension vectors of the F_q-submodules, checked across primes."""
    sets = []
    for p in primes[:2]:
        lat = SubmoduleLattice(rep.reduce_mod(p) if rep.field == "Q" else rep)
        sets.append(lat.submodule_dim_vectors())
    if sets[0] != sets[1]:
        raise ValueError("submodule dimension set is unstable across primes")
    out = set()
    for dims in sets[0]:
        out.add(-Weight.from_alpha(rep.m, dims))
    return out


# -- Harder-Narasimhan certificates ----------------------------------------------------


class FiltrationCertificate:
    """Ordered layers (root, multiplicity, spanning set of the layer below)."""

    def __init__(self, m: int, layers):
        self.m = m
        self.layers = []
        for root, mult, span in layers:
            root = tuple(root)
            self.layers.append((root, int(mult), {int(v): list(vs) for v, vs in span.items()}))


def _rref_q(rows):
    rows = [list(map(Fraction, r)) for r in rows if any(r)]
    if not rows:
        return ()
    ncols = len(rows[0])
    pr = 0
    for c in range(ncols):
        piv = next((r for r in range(pr, len(rows)) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        rows[pr] = [v / rows[pr][c] for v in rows[pr]]
        for r in range(len(rows)):
            if r != pr and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pr])]
        pr += 1
        if pr == len(rows):
            break
    return tuple(tuple(r) for r in rows[:pr] if any(r))


def _in_span_q(vec, rref_rows):
    v = list(map(Fraction, vec))
    for row in rref_rows:
        lead = next(i for i, x in enumerate(row) if x != 0)
        if v[lead] != 0:
            f = v[lead]
            v = [a - f * b for a, b in zip(v, row)]
    return all(x == 0 for x in v)


def hn_verify(rep: QuiverRep, cert: FiltrationCertificate):
    """Check a Harder-Narasimhan certificate and return the Lusztig datum.

    The certificate lists, in increasing convex order of the roots, each
    layer's root, multiplicity, and a spanning set of the submodule lying
    under that layer (the last is the zero submodule).  Each subquotient
    must be a direct sum of copies of the root's brick: on the quotient the
    down arrows inside the support are full rank and the up arrows vanish.
    """
    if rep.field != "Q":
        raise ValueError("verify certificates over Q")
    m = rep.m
    order = root_positions(m)
    rank = {pos: k for k, pos in enumerate(order)}
    datum = [0] * len(order)
    prev = [
        _rref_q([tuple(1 if a == b else 0 for a in range(d)) for b in range(d)])
        for d in rep.dims
    ]
    last_rank = -1
    for layer_no, (root, mult, span) in enumerate(cert.layers):
        if root not in rank:
            raise ValueError(f"unknown root {root}")
        if rank[root] <= last_rank:
            raise ValueError("certificate roots are not strictly increasing")
        last_rank = rank[root]
        current = []
        for v in range(1, m):
            vectors = span.get(v, [])
            current.append(_rref_q(vectors))
        _check_layer(rep, prev, current, root, mult, layer_no)
        datum[rank[root]] = mult
        prev = current
    if any(len(u) for u in prev):
        raise ValueError("certificate does not terminate at the zero submodule")
    return tuple(datum)


def _check_layer(rep, big, small, root, mult, layer_no):
    m = rep.m
    i, j = root
    # small must be an arrow-invariant subspace chain inside big
    for v in range(1, m):
        for row in small[v - 1]:
            if not _in_span_q(row, big[v - 1]):
                raise ValueError(f"layer {layer_no}: not contained in the previous layer")
    for (src, dst) in arrow_pairs(m):
        mat = rep.maps[(src, dst)]
        for row in small[src - 1]:
            img = [sum(mat[r][c] * row[c] for c in range(len(row))) for r in range(rep.dims[dst - 1])]
            if any(img) and not _in_span_q(img, small[dst - 1]):
                raise ValueError(f"layer {layer_no}: span is not a submodule")
    # quotient dimension vector must equal mult * root
    quo_dims = tuple(len(b) - len(s) for b, s in zip(big, small))
    expect = tuple(mult if i <= v <= j - 1 else 0 for v in range(1, m))
    if quo_dims != expect:
        raise ValueError(
            f"layer {layer_no}: quotient dimension vector {quo_dims} != {expect}"
        )
    # brick structure: complete small to a basis of big, express arrows
    lifts = []
    for v in range(1, m):
        lift = []
        span_rows = list(small[v - 1])
        for row in big[v - 1]:
            if not _in_span_q(row, _rref_q(span_rows)):
                lift.append(row)
                span_rows.append(row)
        lifts.append(lift)
    for v in range(i, j - 1):
        # down arrow v+1 -> v must be an isomorphism on the quotient
        mat = rep.maps[(v + 1, v)]
        images = []
        for row in lifts[v]:
            img = [sum(mat[r][c] * row[c] for c in range(len(row))) for r in range(rep.dims[v - 1])]
            images.append(img)
        # reduce images modulo small at v; residues must be independent
        reduced = []
        for img in images:
            w = list(img)
            for srow in small[v - 1]:
                lead = next(k for k, x in enumerate(srow) if x != 0)
                if w[lead] != 0:
                    f = w[lead]
                    w = [a - f * b for a, b in zip(w, srow)]
            reduced.append(w)
        if len(_rref_q(reduced)) != mult:
            raise ValueError(f"layer {layer_no}: down arrow {v + 1}->{v} not full rank on the quotient")
    for v in range(i, j - 1):
        # up arrow v -> v+1 must vanish on the quotient
        mat = rep.maps[(v, v + 1)]
        for row in lifts[v - 1]:
            img = [sum(mat[r][c] * row[c] for c in range(len(row))) for r in range(rep.dims[v])]
            if any(img) and not _in_span_q(img, small[v]):
                raise ValueError(f"layer {layer_no}: up arrow {v}->{v + 1} nonzero on the quotient")


# -- fixtures -----------------------------------------------------------------------


def load_module_fixture(payload, params=None) -> QuiverRep:
    """Build a representation from a fixture dict, evaluating parameters."""
    if isinstance(payload, str):
        with open(payload) as fh:
            payload = json.load(fh)
    m = payload["m"]
    dims = payload["dims"]
    param_names = tuple(payload.get("params", []))
    values = {k: Fraction(v) for k, v in (params or {}).items()}
    for name in param_names:
        if name not in values:
            raise ValueError(f"missing value for parameter {name!r}")

    def entry(text):
        if param_names:
            poly = MultiPoly.parse(str(text).replace(" ", ""), param_names)
            return poly.evaluate(values)
        return Fraction(str(text))

    maps = {}
    for key, rows in payload["arrows"].items():
        src, dst = key.split("->")
        maps[(int(src), int(dst))] = [[entry(v) for v in row] for row in rows]
    return QuiverRep(m, dims, maps, "Q")


def load_certificate(payload, params=None) -> FiltrationCertificate:
    """Parse an HN certificate; entries may involve the fixture parameters."""
    if isinstance(payload, str):
        with open(payload) as fh:
            payload = json.load(fh)
    m = payload["m"]
    param_names = tuple(payload.get("params", []))
    values = {k: Fraction(v) for k, v in (params or {}).items()}

    def entry(text):
        if param_names:
            poly = MultiPoly.parse(str(text).replace(" ", ""), param_names)
            return poly.evaluate(values)
        return Fraction(str(text))

    layers = []
    for layer in payload["hn_certificate"]:
        span = {}
        for v, vectors in layer.get("sub", {}).items():
            span[int(v)] = [[entry(x) for x in vec] for vec in vectors]
        layers.append((tuple(layer["root"]), layer["mult"], span))
    return FiltrationCertificate(m, layers)
