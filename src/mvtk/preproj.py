"""Representations of the type-A preprojective algebra and their flag counts.

A representation assigns a space to each vertex 1..m-1 of the A_{m-1}
diagram and a matrix to each oriented edge, subject to the relation that at
every vertex the down-then-up composite equals the up-then-down composite
(sign function: +1 on arrows i -> i+1, -1 on arrows i+1 -> i).

Euler characteristics of submodule and flag varieties are obtained by
counting F_q-points for several primes, fitting the exact interpolating
polynomial, and evaluating at q = 1; a fit failure (non-polynomial counts)
is a hard error, never a warning.  Chain counts take a chain length n >= 0.
"""

from __future__ import annotations

import json
import random
import re
from collections.abc import Mapping, ValuesView
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from itertools import chain, islice, repeat, product as iproduct
from math import isqrt, lcm, prod
from numbers import Integral

from .exactalg.linalg import coords, identity, inverse, mat_mul, mat_vec, null_space, rref
from .exactalg.poly import MultiPoly, _exact, _scaled_point
from .measures import RatFunc, dbar_i
from .roota import (
    Weight, _counts, alpha_names, multichains, positive_roots, root_positions, seq_weight,
)


# -- the representations ----------------------------------------------------------


def arrow_pairs(m):
    """Oriented edges (i, j) of the doubled A_{m-1} diagram."""
    return [edge for i in range(1, m - 1) for edge in ((i, i + 1), (i + 1, i))]


class QuiverRep:
    """A module over the preprojective algebra of A_{m-1}.

    `field` is 'Q' (Fraction entries) or a prime p (int entries mod p); any
    other field, such as Z/4 or Z/9, is refused with ValueError.  Matrices
    are stored as tuples of row tuples, shape (dim target, dim source);
    missing arrows are zero.
    """

    def __init__(self, m, dims, maps, field="Q", check=True):
        self.m = m
        self.dims = tuple(dims)
        if not all(isinstance(d, int) for d in self.dims):
            raise TypeError(f"dimensions must be ints: {self.dims!r}")
        if len(self.dims) != m - 1 or min(self.dims, default=0) < 0:
            raise ValueError(f"need a dimension >= 0 at each vertex 1..m-1: {self.dims!r}")
        self.field = _check_field(field)
        unknown = set(maps) - set(arrow_pairs(m))
        if unknown:
            raise ValueError(f"arrows {sorted(unknown)} are not edges of the doubled diagram")
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
            self.maps[(i, j)] = mat
        if check and not self.relation_holds():
            raise ValueError("preprojective relation fails")

    def _zero(self):
        return 0 if self.field != "Q" else Fraction(0)

    def _coerce(self, v):
        if self.field == "Q":
            return _exact(v)
        if not isinstance(v, (int, Integral)):   # int first: the ABC check is slow
            raise TypeError(f"{type(v).__name__} {v!r} as an entry over F_{self.field}; pass an int")
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
        for (i, j) in arrow_pairs(self.m):  # block diagonal: each side padded by zeros
            pad_a, pad_b = (self._zero(),) * other.dims[i - 1], (self._zero(),) * self.dims[i - 1]
            maps[(i, j)] = (tuple(row + pad_a for row in self.maps[(i, j)])
                            + tuple(pad_b + row for row in other.maps[(i, j)]))
        return QuiverRep(self.m, dims, maps, self.field)

    def reduce_mod(self, p: int) -> "QuiverRep":
        if self.field != "Q":
            raise ValueError("already over a prime field")
        _check_field(p)

        def entry(v):
            if v.denominator % p == 0:
                raise ValueError(f"entry {v} not reducible mod {p}")
            return (v.numerator * pow(v.denominator, p - 2, p)) % p

        maps = {key: tuple(tuple(map(entry, row)) for row in mat) for key, mat in self.maps.items()}
        return QuiverRep(self.m, self.dims, maps, p)

    def socle_dims(self):
        """Dimension, per vertex, of the joint kernel of all outgoing arrows."""
        if self.field == "Q":
            raise ValueError("socle check implemented over prime fields; reduce first")
        p = self.field
        out = []
        for v in range(1, self.m):
            stacked = [row for w in (v - 1, v + 1) if 1 <= w < self.m for row in self.maps[(v, w)]]
            out.append(len(null_space(stacked, self.dims[v - 1], p)))
        return tuple(out)


def _check_field(field):
    """`field` if it is 'Q' or a prime; ValueError naming it otherwise."""
    if field != "Q" and not (isinstance(field, int) and field > 1
                             and all(field % d for d in range(2, isqrt(field) + 1))):
        raise ValueError(f"field {field!r} is neither 'Q' nor a prime")
    return field


# -- submodule lattices ------------------------------------------------------------


class SubmoduleLattice:
    """All submodules of a nilpotent representation over F_p, with containment.

    The lattice is built top-down by a breadth-first search from the full
    module on one `_Walk`: a child of N replaces the space U_i at one vertex
    i by a hyperplane of U_i that contains the images of the arrows into i.
    A node is a tuple of the walk's space ids, and the search reads the
    step memo directly on a hit.  At the end the spaces are ranked once in
    rref order and the nodes sorted by total dimension, then by their ranks
    (the order of their rref tuples: equal spaces share one id), and decoded.
    The field is a prime, as QuiverRep refuses any other.  The search
    reaches every submodule exactly when it reaches zero, i.e. when the
    module is nilpotent; otherwise it raises ValueError.  Every module over
    the preprojective algebra is nilpotent, but a QuiverRep built with
    check=False need not be.

    subs: the submodules as tuples of rref tuples, one per vertex, sorted
      by total dimension and then by the tuple; subs[0] is zero and the
      last is the full module; dim_vectors[i] is the dimension vector of
      subs[i].
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
        self.subs, self.covers, self.dim_vectors = self._search()

    def _search(self):
        nv, walk = self.rep.m - 1, _Walk(self.rep)
        children, steps = {}, walk.steps  # node -> [(codimension-1 node, letter)]
        vertices = [(i, max(i - 2, 0)) for i in range(1, nv + 1)]
        level = [walk.top]
        while level:
            lower = set()  # submodules one dimension down
            for sub in level:
                kids = children[sub] = []
                for i, lo in vertices:
                    hyperplanes = steps.get((i,) + sub[lo : i + 1])
                    if hyperplanes is None:
                        hyperplanes = walk.step(sub, i)
                    if hyperplanes:
                        head, tail = sub[: i - 1], sub[i:]
                        for h in hyperplanes:
                            child = head + (h,) + tail
                            kids.append((child, i))
                            lower.add(child)
            level = lower
        if (walk.ids.get(()),) * nv not in children:
            raise ValueError(
                "module is not nilpotent: the top-down search does not reach "
                "the zero submodule"
            )
        spaces, dims = walk.spaces, [len(u) for u in walk.spaces]
        rank = {sid: r for r, sid in enumerate(sorted(range(len(spaces)), key=spaces.__getitem__))}
        nodes = sorted(children, key=lambda s: (sum(map(dims.__getitem__, s)),
                                                tuple(map(rank.__getitem__, s))))
        index = {sub: k for k, sub in enumerate(nodes)}
        covers = [
            sorted((index[child], letter) for child, letter in children[sub])
            for sub in nodes
        ]
        subs = [tuple(map(spaces.__getitem__, sub)) for sub in nodes]
        return subs, covers, [tuple(map(dims.__getitem__, sub)) for sub in nodes]

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
        """Chains 0 <= M^1 <= ... <= M^n <= M, bucketed by sum of dim M^k; n >= 0."""
        _check_chain_length(n)
        if n == 0:
            return {(0,) * (self.rep.m - 1): 1}
        total: dict = {}
        for table in multichains(self.below, self.dim_vectors, n):
            for grade, cnt in table.items():
                total[grade] = total.get(grade, 0) + cnt
        return total

    def chain_counts_by_last(self, n: int) -> dict:
        """Chains as above, bucketed by the dimension vector of M^n; n >= 0."""
        _check_chain_length(n)
        if n == 0:
            return {(0,) * (self.rep.m - 1): 1}
        out: dict = {}
        tables = multichains(self.below, [()] * len(self.subs), n)  # empty grades: counts
        for dv, table in zip(self.dim_vectors, tables):
            out[dv] = out.get(dv, 0) + table[()]
        return out


def _check_chain_length(n: int):
    if type(n) is not int:
        raise TypeError(f"chain counts need an int n, not {n!r}")
    if n < 0:
        raise ValueError(f"chain counts need n >= 0, not {n}")


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


def count_points(rep: QuiverRep, query, q: int) -> int:
    """Composition series of `rep` over F_q of one type: query is ("compseries", seq).

    seq lists the simple quotients from the bottom up.  `rep` is over Q (it
    is reduced mod q) or over F_q.  The series are counted by peeling simple
    quotients off the top, memoised on the submodule reached, so the count
    stays feasible on modules whose full submodule lattice would not; the
    peel runs on its own `_Walk`, on space ids.  A letter outside 1..m-1
    raises ValueError.
    """
    if not (isinstance(query, tuple) and len(query) == 2 and query[0] == "compseries"):
        raise ValueError(f"count_points answers the query ('compseries', seq) only, not {query!r}")
    if rep.field == "Q":
        rep = rep.reduce_mod(q)
    elif rep.field != q:
        raise ValueError(f"rep is over F_{rep.field}, so it has no points over F_{q}")
    seq = tuple(query[1])
    if tuple(_counts(seq, rep.m - 1, "letter")) != rep.dims:
        return 0

    walk = _Walk(rep)

    @cache
    def rec(state, k):  # series of type seq[:k] up to the submodule `state`, as ids
        if k == 0:
            return 1
        i = seq[k - 1]
        head, tail = state[: i - 1], state[i:]
        return sum(rec(head + (h,) + tail, k - 1) for h in walk.step(state, i))

    return rec(walk.top, len(seq))


class _Walk:
    """One walk down a submodule lattice: spaces[id] is an rref, ids[rref] its id.

    A submodule is the tuple of its m - 1 space ids; `top` is the full
    module.  `steps` keeps the hyperplane ids of `step` per (i, id_{i-1},
    id_i, id_{i+1}), on which alone they depend, `spans` keeps W per
    (i, id_{i-1}, id_{i+1}) (no id past either end of the diagram), and
    `images` the rows of space v's image under the arrow v -> i per (v, i, id_v).
    """

    def __init__(self, rep: QuiverRep):
        self.rep = rep
        self.spaces, self.ids = [], {}
        self.steps, self.spans, self.images = {}, {}, {}
        self.top = tuple(self.intern(tuple(map(tuple, identity(d, rep.field)))) for d in rep.dims)

    def intern(self, space) -> int:
        sid = self.ids.get(space)
        if sid is None:
            sid = self.ids[space] = len(self.spaces)
            self.spaces.append(space)
        return sid

    def step(self, sub, i: int) -> list:
        """The hyperplane ids at vertex i for the submodule ids `sub`, from the memo or computed.

        A child replaces U_i by a hyperplane of U_i that contains W, the
        span of the images of U_{i-1} and U_{i+1} under the arrows into i.
        W is built once, as an rref in the coordinates of M_i, and c =
        dim U_i - dim W decides:

        - c <= 0: no child.  If W lies in U_i, then W = U_i and no hyperplane
          contains it; otherwise an image leaves U_i.
        - c >= 1: if a row of W lies outside U_i (`coords` is None), no child.
          At c = 1 the one child's space is W itself, whose rref is canonical.
          At c >= 2 a hyperplane is the kernel of a functional phi on U_i that
          vanishes on W: one per projective point of the annihilator of W's
          coordinates.  With t the last index where phi_t != 0, the rows row_j
          - (phi_j / phi_t) row_t (j != t) are already the rref of ker phi:
          row_t is zero left of its pivot and at the other pivots, and phi_j =
          0 for j > t (`_kernel_rref`).
        """
        key = (i,) + sub[max(i - 2, 0) : i + 1]
        hyperplanes = self.steps.get(key)
        if hyperplanes is not None:
            return hyperplanes
        self.steps[key] = hyperplanes = []
        rep, p, images, spaces = self.rep, self.rep.field, self.images, self.spaces
        around = (i,) + sub[max(i - 2, 0) : i - 1] + sub[i : i + 1]
        span = self.spans.get(around)
        if span is None:
            rows = []
            for v in (i - 1, i + 1):
                if 1 <= v < rep.m:
                    img = images.get(src := (v, i, sub[v - 1]))
                    if img is None:
                        img = images[src] = [mat_vec(rep.maps[v, i], r, p) for r in spaces[src[2]]]
                    rows += img
            span = self.spans[around] = rref(rows, p)
        space = self.spaces[sub[i - 1]]
        c = len(space) - len(span)
        if c <= 0:
            return hyperplanes
        w_rows = [coords(row, space, p) for row in span]
        if None in w_rows:
            return hyperplanes
        if c == 1:
            hyperplanes.append(self.intern(span))
        else:
            ann = null_space(w_rows, len(space), p)
            ann_cols = tuple(zip(*ann))
            for lead in reversed(range(c)):  # projective points, first nonzero 1
                for rest in iproduct(range(p), repeat=c - lead - 1):
                    point = (0,) * lead + (1,) + rest
                    kernel = _kernel_rref(space, mat_vec(ann_cols, point, p), p)
                    hyperplanes.append(self.intern(kernel))
        return hyperplanes


def _kernel_rref(space, phi, p: int) -> tuple:
    """The rref of the kernel of phi != 0 on the rref rows `space`, as in `_Walk.step`."""
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
    Lagrange form over the integers: with w_i = prod_{j != i} (x_i - x_j), D
    the lcm of the w_i and L(x) = prod_j (x - x_j), D * P(x) = L(x) * sum_i
    y_i (D / w_i) / (x - x_i) off the nodes, each quotient exact.  Two counts
    at one q, or a negative bound, raise ValueError; a q or a count that is
    not an int, or is a bool, raises TypeError.
    """
    if degree_bound < 0:
        raise ValueError(f"degree bound {degree_bound} is negative")
    samples: dict = {}
    for qx, y in counts:
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (qx, y)):
            raise TypeError(f"sample ({qx!r}, {y!r}): q and the count must be ints")
        if samples.setdefault(qx, y) != y:
            raise ValueError(f"two counts at q={qx}: {samples[qx]} and {y}")
    pts = sorted(samples.items())
    if len(pts) < degree_bound + 1:
        raise ValueError("not enough sample points for the degree bound")
    xs = tuple(x for x, _ in pts[: degree_bound + 1])
    den, factors = _lagrange_factors(xs)
    scaled = [y * f for (_, y), f in zip(pts, factors)]

    def scaled_value(x):  # den * P(x)
        if not (nodes := prod(x - xj for xj in xs)):
            return samples[x] * den  # x is a node
        return sum(c * (nodes // (x - xi)) for c, xi in zip(scaled, xs))

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


@lru_cache(maxsize=64)
def _lagrange_factors(xs: tuple) -> tuple:
    """(D, the D / w_i) of the nodes xs, as in `euler_interpolate`; they depend on xs alone."""
    weights = [prod(xi - xj for xj in xs if xj != xi) for xi in xs]
    den = lcm(*weights)
    return den, tuple(den // w for w in weights)


DEFAULT_PRIMES = (2, 3, 5, 7)


# -- flag functions -----------------------------------------------------------------


def _reductions(rep: QuiverRep, primes):
    """(p, rep mod p) for each of `primes` that divides no entry denominator of `rep`.

    A non-prime raises ValueError; only a prime that divides a denominator is skipped.
    """
    for p in primes:
        _check_field(p)
        try:
            yield p, rep.reduce_mod(p)
        except ValueError:
            continue


def flag_data(rep: QuiverRep, primes=DEFAULT_PRIMES) -> dict:
    """Euler characteristics of the composition-series varieties, per sequence.

    `rep` is over Q; its counts over F_p, at each of `primes` that reduces
    it, are interpolated to q = 1.
    """
    if rep.field != "Q":
        raise ValueError(f"flag data needs the module over Q, not over F_{rep.field}")
    reduced = dict(_reductions(rep, primes))
    if len(reduced) < 3:
        raise ValueError("need at least three usable primes")
    per_prime = {p: SubmoduleLattice(r).composition_series_counts() for p, r in reduced.items()}
    seqs = set().union(*per_prime.values())
    chi = {}
    for seq in sorted(seqs):
        samples = [(p, counts.get(seq, 0)) for p, counts in per_prime.items()]
        value = euler_interpolate(samples, len(per_prime) - 2)
        if value:
            chi[seq] = value
    return chi


def flag_function(rep: QuiverRep, primes=DEFAULT_PRIMES, method="direct") -> RatFunc:
    """The rational function sum of chi(F_i) * Dbar_i over Seq(dim vector), for `rep` over Q.

    method "direct" (the default) sums in RatFuncs along the prefix trie of
    the sequences (see flag_function_from_chi); "interpolate" reconstructs
    the sum from values on a grid, which is far slower at rank 5 and is
    kept as an independent route.
    """
    chi = flag_data(rep, primes)
    return flag_function_from_chi(rep.m, chi, method=method)


def flag_function_from_chi(m: int, chi: dict, method="direct") -> RatFunc:
    """Sum of chi[i] * Dbar_i, along the prefix trie of the sequences ("direct") or on a grid.

    The sequences with nonzero chi must share one weight nu, else
    ValueError.  The k-th factor 1/(beta_k - nu) of Dbar_seq depends only on
    the prefix t = seq[:k], whose form beta(t) - nu has the letter counts of
    t minus those of nu as alpha coordinates.  So the direct route gives each
    sequence its chi, each shorter prefix the sum over its children divided
    once by its form, and returns the value of the empty prefix.
    """
    if method not in ("direct", "interpolate"):
        raise ValueError(f"unknown flag-function method {method!r}")
    chi = {seq: c for seq, c in chi.items() if c}
    nu = next((seq_weight(m, seq) for seq in chi), None)
    for seq in chi:
        if seq_weight(m, seq) != nu:
            raise ValueError(f"sequence {seq} does not have weight {nu}")
    if method == "interpolate" and chi:
        return _flag_function_interpolated(m, chi)
    names = alpha_names(m)
    if not chi:  # every chi vanished; the zero module has chi {(): 1}
        return RatFunc.constant(names, 0)
    const, top = (0,) * (m - 1), nu.alpha_coords()
    level = {}
    for seq, c in chi.items():
        c = _exact(c)
        level[seq] = RatFunc._make(names, c.denominator, {const: c.numerator}, {})
    for k in reversed(range(len(next(iter(chi))))):
        sums = {}
        for seq, f in level.items():
            t = seq[:k]
            sums[t] = sums[t] + f if t in sums else f
        level = {t: f.divide_by_form(tuple(t.count(i) - n for i, n in enumerate(top, 1)))
                 for t, f in sums.items()}
    return level[()]


def _flag_function_interpolated(m: int, chi: dict) -> RatFunc:
    """Reconstruct the flag function over a power of the all-roots denominator.

    For mult = 1, 2, ... up to the largest power of a positive root in any
    Dbar_i (see _root_power_bound): interpolates the numerator (homogeneous,
    degree mult * #roots - sequence length) from the sequence sum times the
    root product to the mult on a tensor grid, then certifies the result at
    fresh sample points.  A numerator that is not a polynomial of that
    degree moves on to the next mult.  Every grid coordinate is positive, so
    no root and no tail of a sequence vanishes there.
    """
    names = alpha_names(m)
    roots = positive_roots(m)
    p_len = len(next(iter(chi)))
    for mult in range(1, _root_power_bound(m, chi) + 1):
        num = _interpolate_homogeneous(
            names, mult * len(roots) - p_len,
            lambda pt: _flag_eval(m, chi, pt) * _roots_eval(m, pt) ** mult,
        )
        if num is None:
            continue
        candidate = RatFunc(num, {r.alpha_coords(): mult for r in roots})
        if _certify_flag(m, chi, candidate):
            return candidate
    raise ArithmeticError("flag function does not clear against the root product "
                          f"(certificate: {_CERTIFY_TRIALS} random points, seed {_CERTIFY_SEED})")


def _root_power_bound(m: int, chi: dict) -> int:
    """The largest power of a positive root among the denominators of the Dbar_i, at least 1.

    The sum's denominator holds a root no more often than some Dbar_i does.
    Keys of Dbar_i that are not roots (poles the root product cannot clear)
    do not count.
    """
    keys = {r.alpha_coords() for r in positive_roots(m)}
    return max((c for seq in chi for key, c in dbar_i(m, seq).den.items() if key in keys),
               default=1)


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
            den *= tail_value(tuple(tail))
        total += Fraction(c * d ** len(seq), den)
    return total


def _roots_eval(m: int, alpha_values: dict) -> Fraction:
    """Product of the positive roots alpha_i + ... + alpha_{j-1} at a point, in ints."""
    d, point = _scaled_point(alpha_values, alpha_names(m))
    num = prod(sum(point[i:j]) for i in range(m - 1) for j in range(i + 1, m))
    return Fraction(num, d ** (m * (m - 1) // 2))


def _interpolate_homogeneous(names, deg, value_fn) -> MultiPoly | None:
    """The homogeneous polynomial of degree `deg` with the values of `value_fn`, or None.

    Dehomogenizes at the last variable = 1 and samples the tensor grid with
    nodes 17 + 6k + j (j = 0..deg) on axis k.  Each axis is one Vandermonde
    solve: the inverse matrix of its nodes maps every line of values along
    that axis to monomial coefficients.  None means the values are not those
    of a polynomial of degree <= deg, for instance of a function with a pole.
    A negative degree has only the zero polynomial, returned without sampling
    (the caller's certificate decides).
    """
    if deg < 0:
        return MultiPoly.zero(tuple(names))
    n, free = deg + 1, len(names) - 1
    nodes = [[17 + 6 * k + j for j in range(n)] for k in range(free)]
    grid = list(iproduct(range(n), repeat=free))  # row-major: the last axis varies fastest
    table = [value_fn(dict(zip(names, [xs[i] for xs, i in zip(nodes, idx)] + [1])))
             for idx in grid]
    # solve along the last axis, then move it to the front; after every axis
    # the order is row-major again, in exponents instead of node indices
    for xs in reversed(nodes):
        inv = inverse([[x ** e for e in range(n)] for x in xs])
        lines = [mat_vec(inv, table[i:i + n]) for i in range(0, len(table), n)]
        table = [c for column in zip(*lines) for c in column]
    if any(c and sum(exps) > deg for exps, c in zip(grid, table)):
        return None
    return MultiPoly(tuple(names), {exps + (deg - sum(exps),): c for exps, c in zip(grid, table)})


_CERTIFY_SEED, _CERTIFY_TRIALS = 20240817, 4


def _certify_flag(m: int, chi: dict, candidate: RatFunc) -> bool:
    """candidate == the sequence sum at _CERTIFY_TRIALS random points drawn with _CERTIFY_SEED.

    Every alpha value is positive there, so no root and no tail of a sequence vanishes."""
    rng = random.Random(_CERTIFY_SEED)
    points = ({n: rng.randint(101, 997) for n in alpha_names(m)} for _ in range(_CERTIFY_TRIALS))
    return all(candidate.evaluate(pt) == _flag_eval(m, chi, pt) for pt in points)


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
        for (r, c) in basis[v]:
            if c + 1 <= width:
                rows[index[(r, c + 1)]][index[(r, c)]] = 1
        maps[(v, v + 1)] = rows
        # down arrow v+1 -> v: (r, c) -> (r+1, c)
        rows = [[0] * dims[v] for _ in range(dims[v - 1])]
        for (r, c) in basis[v + 1]:
            if r + 1 <= height:
                rows[index[(r + 1, c)]][index[(r, c)]] = 1
        maps[(v + 1, v)] = rows
    rep = QuiverRep(m, dims, maps, "Q")
    socle = rep.reduce_mod(97).socle_dims()
    if socle != tuple(1 if v == i else 0 for v in range(1, m)):
        raise AssertionError("socle certificate failed for the rectangle model")
    return rep


def simple_module(m: int, i: int) -> QuiverRep:
    if not 0 < i < m:
        raise ValueError(f"simple module S_{i} needs i in 1..{m - 1}")
    dims = tuple(1 if v == i else 0 for v in range(1, m))
    return QuiverRep(m, dims, {}, "Q")


def brick_module(m: int, i: int, j: int) -> QuiverRep:
    """The brick supported on vertices i..j-1 with down arrows equal to 1."""
    if not 1 <= i < j <= m:
        raise ValueError("need a positive root eps_i - eps_j")
    dims = tuple(1 if i <= v <= j - 1 else 0 for v in range(1, m))
    return QuiverRep(m, dims, {(v + 1, v): [[1]] for v in range(i, j - 1)}, "Q")


# -- submodule polytope support -------------------------------------------------------


def pol_M(rep: QuiverRep) -> set:
    """Negated dimension vectors of the submodules; over Q, checked to agree at two primes."""
    reps = [rep]
    if rep.field == "Q":
        reps = [r for _, r in islice(_reductions(rep, DEFAULT_PRIMES), 2)]
        if len(reps) < 2:
            raise ValueError(f"fewer than two of the primes {DEFAULT_PRIMES} reduce the module")
    sets = [set(SubmoduleLattice(r).dim_vectors) for r in reps]
    if any(s != sets[0] for s in sets):
        raise ValueError("submodule dimension set is unstable across primes")
    return {-Weight.from_alpha(rep.m, dims) for dims in sets[0]}


# -- Harder-Narasimhan certificates ----------------------------------------------------


class FiltrationCertificate:
    """Ordered layers (root, multiplicity, spanning set of the layer below)."""

    def __init__(self, m: int, layers):
        self.m = m
        self.layers = [(tuple(root), int(mult), {int(v): list(vs) for v, vs in span.items()})
                       for root, mult, span in layers]


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
    if cert.m != m:
        raise ValueError(f"the certificate is for m = {cert.m}, the module for m = {m}")
    order = root_positions(m)
    rank = {pos: k for k, pos in enumerate(order)}
    datum = [0] * len(order)
    prev = [tuple(map(tuple, identity(d))) for d in rep.dims]
    last_rank = -1
    for layer_no, (root, mult, span) in enumerate(cert.layers):
        if root not in rank:
            raise ValueError(f"unknown root {root}")
        if rank[root] <= last_rank:
            raise ValueError("certificate roots are not strictly increasing")
        last_rank = rank[root]
        current = [rref(span.get(v, [])) for v in range(1, m)]
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
        span = {int(v): [[entry(x) for x in vec] for vec in vectors]
                for v, vectors in layer.get("sub", {}).items()}
        layers.append((tuple(layer["root"]), layer["mult"], span))
    return FiltrationCertificate(payload["m"], layers)
