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
import random
import re
from collections.abc import Mapping, ValuesView
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, repeat, product as iproduct
from math import lcm, prod

from .exactalg.linalg import coords, identity, mat_mul, mat_vec, null_space, rref
from .exactalg.poly import MultiPoly, _scaled_point
from .measures import RatFunc, _nonzero_of_weight, measure_from_coeffs
from .roota import Weight, alpha_names, multichains, positive_roots, root_positions, seq_weight


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

    def relation_holds(self):
        """At each vertex v, the composite through v - 1 equals the one through v + 1."""
        p = None if self.field == "Q" else self.field
        for v in range(1, self.m):
            dv = self.dims[v - 1]
            sides = []
            for u in (v - 1, v + 1):
                if 1 <= u < self.m and self.dims[u - 1]:
                    sides.append(mat_mul(self.maps[(u, v)], self.maps[(v, u)], p))
                else:
                    sides.append([[0] * dv for _ in range(dv)])
            if sides[0] != sides[1]:
                return False
        return True

    def dim_vector(self) -> Weight:
        return Weight.from_alpha(self.m, self.dims)

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
            out.append(len(null_space(stacked, dv, p)))
        return tuple(out)


# -- submodule lattices ------------------------------------------------------------


class SubmoduleLattice:
    """All submodules of a nilpotent representation over F_p, with containment.

    The lattice is built top-down by a breadth-first search from the full
    module, one `_children` step per node and vertex: the codimension-1
    submodules of a submodule N are the N with the space U_i at one vertex
    i replaced by a hyperplane of U_i that contains the images of the
    arrows into i; the step depends only on the spaces at i - 1, i and i + 1,
    and the search memoises it on them (see `_children`).  The search
    reaches every submodule exactly when it reaches zero, i.e. when the
    module is nilpotent; otherwise it raises ValueError.  Every module over
    the preprojective algebra is nilpotent, but a QuiverRep built with
    check=False need not be.

    subs: the submodules as tuples of rref tuples, one per vertex, sorted
      by total dimension and then by the tuple; subs[0] is zero and the
      last is the full module.  index maps a submodule to its position and
      dim_vectors[i] is the dimension vector of subs[i].
    covers[i]: the pairs (j, letter), ascending in j, with subs[j] of
      codimension 1 in subs[i] and quotient the simple at vertex letter.
    below[i]: the ascending indices of all submodules of subs[i], itself
      included; the reflexive-transitive closure of covers.  Built on first
      read: only the chain counts need it, and it dwarfs covers.
    """

    def __init__(self, rep: QuiverRep):
        if rep.field == "Q":
            raise ValueError("enumerate over a prime field")
        self.rep = rep
        self.subs, self.covers = self._search()
        self.dim_vectors = [
            tuple(len(u) for u in sub) for sub in self.subs
        ]
        self.index = {sub: i for i, sub in enumerate(self.subs)}

    def _search(self):
        rep = self.rep
        nv = rep.m - 1
        children = {}  # submodule -> [(codimension-1 submodule, letter)]
        memo: dict = {}  # the step's hyperplanes, for this search only
        level = [_full_module(rep)]
        while level:
            lower = set()  # submodules one dimension down
            for sub in level:
                kids = children[sub] = []
                for i in range(1, nv + 1):
                    for child in _children(rep, sub, i, memo):
                        kids.append((child, i))
                        lower.add(child)
            level = lower
        if ((),) * nv not in children:
            raise ValueError(
                "module is not nilpotent: the top-down search does not reach "
                "the zero submodule"
            )
        subs = sorted(children, key=lambda s: (sum(len(u) for u in s), s))
        index = {sub: i for i, sub in enumerate(subs)}
        covers = [
            sorted((index[child], letter) for child, letter in children[sub])
            for sub in subs
        ]
        return subs, covers

    @cached_property
    def below(self):
        # one bitset per node; covers point to lower indices, so one pass
        bits = []
        for i, cov in enumerate(self.covers):
            b = 1 << i
            for j, _ in cov:
                b |= bits[j]
            bits.append(b)
        # the set bits, found by the regex scanner: one Python step per bit set
        return [[m.start() for m in re.finditer("1", bin(b)[:1:-1])] for b in bits]

    # -- counting queries

    def count_submodules(self, dimvec) -> int:
        dimvec = tuple(dimvec)
        return sum(1 for d in self.dim_vectors if d == dimvec)

    def submodule_dim_vectors(self) -> set:
        return set(self.dim_vectors)

    def composition_series_counts(self) -> "CompositionSeriesTable":
        """Counts of complete simple-quotient chains, per type sequence.

        A type sequence lists the simple quotients from the bottom up.  Every
        chain passes through exactly one node of the middle rank r = rank // 2
        (rank = total dimension), so the count of a sequence p + s, with p of
        length r, is the sum over the rank-r nodes N of (chains from 0 to N
        of type p) * (chains from N to the full module of type s).  One walk
        (`_word_classes`) goes up from 0 to rank r along the reversed covers
        and one goes down from the full module to rank r along the covers;
        each carries its words in classes, the words with the same vector of
        counts over the current rank's nodes, and merges classes whose
        vectors meet as it goes.  A prefix class and a suffix class of the
        same dimension vector give every p + s the dot product of their two
        vectors.  The walks only build words of up to half the length, and
        the result keeps the join factored (see CompositionSeriesTable): no
        full-length sequence is built until a caller iterates over the keys,
        and iteration follows the order of the classes the walks produce.
        """
        rank = sum(self.dim_vectors[-1])
        r = rank // 2
        ups = [[] for _ in self.subs]
        for i, cov in enumerate(self.covers):
            for j, letter in cov:
                ups[j].append((i, letter))
        prefixes = _word_classes(0, ups, r)
        suffixes = _word_classes(len(self.subs) - 1, self.covers, rank - r, prepend=True)
        dims = self.dim_vectors
        suffix_dims = [dims[next(iter(svec))] for svec, _ in suffixes]
        values = {}
        for i, (pvec, _) in enumerate(prefixes):
            dv = dims[next(iter(pvec))]
            for j, (svec, _) in enumerate(suffixes):
                if suffix_dims[j] == dv:
                    value = sum(c * svec.get(node, 0) for node, c in pvec.items())
                    if value:
                        values[i, j] = value
        return CompositionSeriesTable(
            r, [w for _, w in prefixes], [w for _, w in suffixes], values
        )

    def chain_counts_by_total(self, n: int) -> dict:
        """Chains 0 <= M^1 <= ... <= M^n <= M, bucketed by sum of dim M^k."""
        if n == 0:
            return {(0,) * (self.rep.m - 1): 1}
        total: dict = {}
        for table in multichains(self.below, self.dim_vectors, n):
            for grade, cnt in table.items():
                total[grade] = total.get(grade, 0) + cnt
        return total

    def chain_counts_by_last(self, n: int) -> dict:
        """Chains as above, bucketed by the dimension vector of M^n."""
        if n == 0:
            return {(0,) * (self.rep.m - 1): 1}
        out: dict = {}
        tables = multichains(self.below, [()] * len(self.subs), n)  # empty grades: counts
        for dv, table in zip(self.dim_vectors, tables):
            out[dv] = out.get(dv, 0) + table[()]
        return out


class CompositionSeriesTable(Mapping):
    """Read-only map from type sequence to composition-series count.

    The join of SubmoduleLattice.composition_series_counts stays factored:
    the split length r, one word -> class-index dict each for the prefixes
    (length r) and the suffixes, and the count of every prefix-class x
    suffix-class pair whose count is nonzero.  The classes are the ones its
    walks merge as they go, in the order the walks produce them.  Storage is
    linear in the number of half-length words, not in the number of
    sequences.

    Costs: `table[seq]` (and `get`, `in`) slices seq at r and makes three
    dict lookups; a missing sequence, a zero count, a wrong-length tuple or a
    non-tuple raises KeyError.  `len` is computed once.  Iteration builds
    each key p + s on the fly, in the order prefix class, suffix class,
    prefix word, suffix word, so it follows the walks' class order; sort the
    keys for a fixed order.  `values()` repeats each pair's count once per
    sequence without building keys, so `sum(table.values())` runs at C
    speed.  `items()` and `==` come from Mapping and look each key up;
    `dict(table)` materialises the whole table.
    """

    def __init__(self, r, prefix_classes, suffix_classes, values):
        """values maps (prefix class, suffix class) index pairs to nonzero counts."""
        self._r = r
        self._prefix = {w: k for k, words in enumerate(prefix_classes) for w in words}
        self._suffix = {w: k for k, words in enumerate(suffix_classes) for w in words}
        self._values = values
        self._pairs = [(prefix_classes[i], suffix_classes[j], value)
                       for (i, j), value in values.items()]
        self._len = sum(len(pw) * len(sw) for pw, sw, _ in self._pairs)

    def __getitem__(self, seq):
        if isinstance(seq, tuple):
            r = self._r
            value = self._values.get((self._prefix.get(seq[:r]), self._suffix.get(seq[r:])))
            if value is not None:
                return value
        raise KeyError(seq)

    def __len__(self):
        return self._len

    def __iter__(self):
        for pwords, swords, _ in self._pairs:
            for p in pwords:
                yield from map(p.__add__, swords)

    def values(self):
        return _CountsView(self)


class _CountsView(ValuesView):
    def __iter__(self):
        return chain.from_iterable(
            repeat(value, len(pw) * len(sw)) for pw, sw, value in self._mapping._pairs
        )


def _word_classes(start, steps, length, prepend=False):
    """The words of `length` letters along `steps` from `start`, in classes.

    steps[i] lists the pairs (j, letter) of the edges out of node i, all
    one rank up or all one rank down.  Returns [({node: count}, [word, ...]),
    ...]: a word's walks to each node of the rank reached, the words with
    equal count vectors in one class.  The walk goes one rank at a time: a
    class grows by a letter by pushing its vector along that letter's edges,
    and classes whose new vectors are equal merge, their word lists
    concatenated.  This is exact (equal vectors stay equal at every later
    rank) and does the count arithmetic once per class, not per word.  A
    word spells its letters in walking order, or reversed with prepend=True.
    """
    classes = [({start: 1}, [()])]
    for _ in range(length):
        merged: dict = {}
        for vec, words in classes:
            moves: dict = {}
            for node, cnt in vec.items():
                for nxt, letter in steps[node]:
                    acc = moves.setdefault(letter, {})
                    acc[nxt] = acc.get(nxt, 0) + cnt
            for letter, new in moves.items():
                a = (letter,)
                grown = [a + w for w in words] if prepend else [w + a for w in words]
                key = frozenset(new.items())
                if key in merged:
                    merged[key][1].extend(grown)
                else:
                    merged[key] = (new, grown)
        classes = list(merged.values())
    return classes


def count_points(rep: QuiverRep, query, q: int, budget: int = 2_000_000) -> int:
    """Exact F_q point count of a named variety attached to `rep`.

    query is ('submodules', dimvec), ('chains', n, dimvec-total), or
    ('compseries', sequence).  `rep` may be over Q (it is reduced mod q).
    Composition series of one fixed type are counted by top-quotient
    peeling, which stays feasible on modules whose full submodule lattice
    would not; the other queries build the lattice within budget.

    The budget estimate counts tuples of subspaces, one per vertex, each
    Grassmannian by its largest cell q^(k(d-k)).  Submodules are such
    tuples, so the estimate sizes the lattice from above (to leading order
    in q); it does not bound the work of the chain counts over it.
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
    letters = [0] * (rep.m - 1)
    for i in seq:
        letters[i - 1] += 1
    if tuple(letters) != rep.dims:
        return 0

    memo: dict = {}  # the step's hyperplanes, for this count only

    @cache
    def rec(state, k):  # series of type seq[:k] up to the submodule `state`
        if k == 0:
            return 1
        return sum(rec(child, k - 1) for child in _children(rep, state, seq[k - 1], memo))

    return rec(_full_module(rep), len(seq))


def _full_module(rep: QuiverRep) -> tuple:
    """The full module as a submodule: the identity rref at every vertex."""
    return tuple(tuple(map(tuple, identity(d, rep.field))) for d in rep.dims)


def _children(rep: QuiverRep, sub, i: int, memo: dict):
    """The codimension-1 submodules of `sub` with quotient the simple at vertex i.

    `sub` holds one rref tuple per vertex.  A child replaces the space U_i
    by a hyperplane of U_i that contains the images of the arrows into i.
    In coordinates on U_i such a hyperplane is the kernel of a functional
    phi that vanishes on those images: one per projective point of their
    annihilator.  Each child is yielded whole, as `sub` with U_i replaced.

    The arrows into i come from i +- 1, so the hyperplanes depend only on
    U_{i-1}, U_i and U_{i+1}; `memo`, one dict per walk, keeps them under
    that key.  With t the last index where phi_t != 0, the rows row_j -
    (phi_j / phi_t) row_t (j != t) are already the rref of ker phi: row_t
    is zero left of its pivot and at the other pivots, and phi_j = 0 for j > t.
    """
    key = (i,) + sub[max(i - 2, 0) : i + 1]
    if key not in memo:
        memo[key] = hyperplanes = []
        p = rep.field
        space = sub[i - 1]
        w_rows = []
        for v in (i - 1, i + 1):
            if 1 <= v < rep.m:
                mat = rep.maps[(v, i)]
                for row in sub[v - 1]:
                    img = mat_vec(mat, row, p)
                    if any(img):
                        c = coords(img, space, p)
                        if c is None:
                            return  # an image leaves U_i: no invariant hyperplane
                        w_rows.append(c)
        ann = null_space(w_rows, len(space), p)
        ann_cols = tuple(zip(*ann))
        for lead in reversed(range(len(ann))):  # projective points, first nonzero 1
            for rest in iproduct(range(p), repeat=len(ann) - lead - 1):
                point = (0,) * lead + (1,) + rest
                hyperplanes.append(_kernel_rref(space, mat_vec(ann_cols, point, p), p))
    head, tail = sub[: i - 1], sub[i:]
    for h in memo[key]:
        yield head + (h,) + tail


def _kernel_rref(space, phi, p: int) -> tuple:
    """The rref of the kernel of phi != 0 on the rref rows `space`, as in `_children`."""
    t = max(j for j, f in enumerate(phi) if f)
    pivot, inv = space[t], pow(phi[t], -1, p)
    return tuple(
        tuple([(a - c * b) % p for a, b in zip(row, pivot)]) if (c := f * inv) else row
        for row, f in zip(space[:t], phi)
    ) + space[t + 1 :]


# -- Euler characteristics by interpolation ----------------------------------------


def euler_interpolate(counts, degree_bound: int) -> int:
    """Value at q=1 of the exact interpolating polynomial through the counts.

    Requires at least degree_bound + 1 distinct sample primes; any extra
    samples must lie exactly on the fitted polynomial, else the counts are
    not polynomial in q and the method does not apply.  The interpolant P
    through the first degree_bound + 1 points (x_i, y_i) is evaluated in
    Lagrange form over the integers: with w_i = prod_{j != i} (x_i - x_j)
    and D the lcm of the w_i, D * P(x) = sum_i y_i (D / w_i) prod_{j != i}
    (x - x_j).
    """
    pts = sorted(dict(counts).items())
    if len(pts) < degree_bound + 1:
        raise ValueError("not enough sample points for the degree bound")
    xs = [x for x, _ in pts[: degree_bound + 1]]
    weights = [prod(xi - xj for xj in xs if xj != xi) for xi in xs]
    den = lcm(*weights)
    scaled = [y * (den // w) for (_, y), w in zip(pts, weights)]

    def scaled_value(x):  # den * P(x)
        return sum(c * prod(x - xj for xj in xs if xj != xi) for c, xi in zip(scaled, xs))

    for qx, y in pts[degree_bound + 1 :]:
        if scaled_value(qx) != y * den:
            raise ValueError(
                f"counts are not polynomial of degree <= {degree_bound}: "
                f"misfit at q={qx}"
            )
    value, rest = divmod(scaled_value(1), den)
    if rest:
        raise ValueError("interpolated value at q=1 is not an integer")
    return value


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


def flag_function(rep: QuiverRep, primes=DEFAULT_PRIMES, method="direct") -> RatFunc:
    """The rational function sum of chi(F_i) * Dbar_i over Seq(dim vector).

    method "direct" (the default) adds the Dbar_i as RatFuncs;
    "interpolate" reconstructs the sum from values on a grid, which is
    far slower at rank 5 and is kept as an independent route.
    """
    chi = flag_data(rep, primes)
    return flag_function_from_chi(rep.m, chi, method=method)


def flag_function_from_chi(m: int, chi: dict, method="direct") -> RatFunc:
    if method not in ("direct", "interpolate"):
        raise ValueError(f"unknown flag-function method {method!r}")
    nu = next((seq_weight(m, seq) for seq, c in chi.items() if c), None)
    if nu is None:
        # every chi vanished (the zero module has chi {(): 1}): an empty sum
        return RatFunc.constant(alpha_names(m), 0)
    if method == "interpolate":
        return _flag_function_interpolated(m, _nonzero_of_weight(m, chi, nu))
    return measure_from_coeffs(m, chi, nu, "dbar")


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
    raise ArithmeticError("flag function does not clear against the root product "
                          f"(certificate: {_CERTIFY_TRIALS} random points, seed {_CERTIFY_SEED})")


def _flag_eval(m: int, chi: dict, alpha_values: dict) -> Fraction:
    """Sum of chi_i * Dbar_i at a point of alpha values, in ints and one Fraction per sequence."""
    d, point = _scaled_point(alpha_values, alpha_names(m))
    tail_cache: dict = {}

    def tail_value(tail: tuple) -> int:
        # beta_k - beta_p = -(alpha coordinates of the letters after k), times d at xs / d
        if tail not in tail_cache:
            tail_cache[tail] = -sum(c * x for c, x in zip(tail, point) if c)
        return tail_cache[tail]

    total = Fraction(0)
    for seq, c in chi.items():
        tail = [0] * (m - 1)
        den = 1
        for i in reversed(seq):
            tail[i - 1] += 1
            v = tail_value(tuple(tail))
            if v == 0:
                raise ZeroDivisionError("grid point hits a pole")
            den *= v
        total += Fraction(c * d ** len(seq), den)
    return total


def _roots_eval(m: int, alpha_values: dict) -> Fraction:
    """Product of the positive roots alpha_i + ... + alpha_{j-1} at a point, in ints."""
    d, point = _scaled_point(alpha_values, alpha_names(m))
    num = prod(sum(point[i:j]) for i in range(m - 1) for j in range(i + 1, m))
    return Fraction(num, d ** (m * (m - 1) // 2))


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


_CERTIFY_SEED, _CERTIFY_TRIALS = 20240817, 4


def _certify_flag(m: int, chi: dict, candidate: RatFunc) -> bool:
    """candidate == the sequence sum at _CERTIFY_TRIALS random points drawn with _CERTIFY_SEED.

    Every alpha value is positive there, so no root and no tail of a sequence vanishes."""
    rng = random.Random(_CERTIFY_SEED)
    points = ({n: rng.randint(101, 997) for n in alpha_names(m)} for _ in range(_CERTIFY_TRIALS))
    return all(candidate.evaluate(pt) == _flag_eval(m, chi, pt) for pt in points)


def flag_function_generic(builder, values=(Fraction(2), Fraction(3)),
                          primes=None) -> RatFunc:
    """Flag function of a family: evaluate the parameter twice, require agreement.

    Equal composition-series data implies equal flag functions, so the
    assembly runs once when the two evaluations already agree at the
    counting level; otherwise both functions are built and compared.
    """
    data = []
    for a in values:
        rep = builder(Fraction(a))
        ps = primes or _primes_avoiding(a)
        data.append(flag_data(rep, primes=ps))
    if data[0] == data[1]:
        m = builder(Fraction(values[0])).m
        return flag_function_from_chi(m, data[0])
    results = [
        flag_function_from_chi(builder(Fraction(a)).m, chi)
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
    index = {cell: basis[vertex[cell]].index(cell) for cell in cells}
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
    return QuiverRep(m, dims, {(v + 1, v): [[1]] for v in range(i, j - 1)}, "Q")


# -- submodule polytope support -------------------------------------------------------


def pol_M(rep: QuiverRep, primes=(2, 3)) -> set:
    """Negated dimension vectors of the F_q-submodules, checked across primes."""
    sets = []
    for p in primes[:2]:
        lat = SubmoduleLattice(rep.reduce_mod(p) if rep.field == "Q" else rep)
        sets.append(lat.submodule_dim_vectors())
    if sets[0] != sets[1]:
        raise ValueError("submodule dimension set is unstable across primes")
    return {-Weight.from_alpha(rep.m, dims) for dims in sets[0]}


# -- Harder-Narasimhan certificates ----------------------------------------------------


class FiltrationCertificate:
    """Ordered layers (root, multiplicity, spanning set of the layer below)."""

    def __init__(self, m: int, layers):
        self.m = m
        self.layers = []
        for root, mult, span in layers:
            root = tuple(root)
            self.layers.append((root, int(mult), {int(v): list(vs) for v, vs in span.items()}))


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
    prev = list(_full_module(rep))
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
            current.append(rref(vectors))
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
            if coords(row, big[v - 1]) is None:
                raise ValueError(f"layer {layer_no}: not contained in the previous layer")
    for (src, dst) in arrow_pairs(m):
        mat = rep.maps[(src, dst)]
        for row in small[src - 1]:
            if coords(mat_vec(mat, row), small[dst - 1]) is None:
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
        span = small[v - 1]
        for row in big[v - 1]:
            if coords(row, span) is None:
                lift.append(row)
                span = rref(span + (row,))
        lifts.append(lift)
    for v in range(i, j - 1):
        # down arrow v+1 -> v must be an isomorphism on the quotient:
        # the images of the lifts stay independent modulo small
        mat = rep.maps[(v + 1, v)]
        images = tuple(mat_vec(mat, row) for row in lifts[v])
        if len(rref(small[v - 1] + images)) - len(small[v - 1]) != mult:
            raise ValueError(f"layer {layer_no}: down arrow {v + 1}->{v} not full rank on the quotient")
    for v in range(i, j - 1):
        # up arrow v -> v+1 must vanish on the quotient
        mat = rep.maps[(v, v + 1)]
        for row in lifts[v - 1]:
            if coords(mat_vec(mat, row), small[v]) is None:
                raise ValueError(f"layer {layer_no}: up arrow {v}->{v + 1} nonzero on the quotient")


# -- fixtures -----------------------------------------------------------------------


def _read_fixture(payload, params):
    """The fixture dict (read from a path if given one) and its entry parser.

    Entries may be polynomials in the fixture's parameters; every parameter
    needs a value in `params`.
    """
    if isinstance(payload, str):
        with open(payload) as fh:
            payload = json.load(fh)
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

    return payload, entry


def load_module_fixture(payload, params=None) -> QuiverRep:
    """Build a representation from a fixture dict, evaluating parameters."""
    payload, entry = _read_fixture(payload, params)
    maps = {}
    for key, rows in payload["arrows"].items():
        src, dst = key.split("->")
        maps[(int(src), int(dst))] = [[entry(v) for v in row] for row in rows]
    return QuiverRep(payload["m"], payload["dims"], maps, "Q")


def load_certificate(payload, params=None) -> FiltrationCertificate:
    """Parse an HN certificate; entries may involve the fixture parameters."""
    payload, entry = _read_fixture(payload, params)
    layers = []
    for layer in payload["hn_certificate"]:
        span = {}
        for v, vectors in layer.get("sub", {}).items():
            span[int(v)] = [[entry(x) for x in vec] for vec in vectors]
        layers.append((tuple(layer["root"]), layer["mult"], span))
    return FiltrationCertificate(payload["m"], layers)
