"""Buchberger engine and ideal operations.

Deterministic by construction: normal pair selection (degree of the lcm,
then term order on the lcm), the Gebauer-Moeller update (J. Symbolic
Comput. 6, 1988; Becker-Weispfenning, Groebner Bases, sec. 5.5, UPDATE) and
a fully reduced, monic output basis.  When g joins the basis, a pending pair
(f, h) goes if lm(g) divides its lcm and that lcm differs from lcm(f, g) and
lcm(h, g) (criterion B); the new pairs (f, g) are grouped by lcm (F); a class
goes if another class's lcm strictly divides its own (M), or if one of its
pairs has coprime leads and so reduces to zero (product criterion).  Any
other class keeps its pair with the oldest f.  The kernel works on
integer coefficient dictionaries: it packs a MultiPoly's `ints` as they
stand, and unpacks a content-free entry with lead coefficient lc as the
monic (|lc|, +-ints), so it makes no Fraction.  A run keeps the exponents
of its leads in one list, appended on each arrival, which every normal
form reads; a GroebnerBasis keeps that list of its members with their
packing.

A basis's order is one int, `block`: grevlex on its first `block`
variables, ties broken by grevlex on the rest.  Block 0 is grevlex; only
`eliminate` runs `groebner` with a positive block, the number of variables
it drops.  Inside the kernel a monomial is one int K whose integer order
is that order (packed monomials, as in Monagan-Pearce, J. Symbolic Comput.
46, 2011), and `_Packing` is the order's one implementation: the variables
fall into at most two blocks, the first `block` ones and the rest.  A
block of b variables holds, in F-bit fields, the prefix sums s_1 <= ... <=
s_b of its exponents with the block degree s_b in its top field, and
earlier blocks sit above later ones; comparing s_b, s_(b-1), ... in turn
is grevlex on the block.  K is additive: a product is a sum of keys and
the cofactor of a divisor a difference.  As prefix sums never decrease,
K - ((K << F) & diff), diff masking every field but the lowest of each
block, is the exponent vector E in the same fields, with no borrow.  Each
field keeps its top bit clear as a guard, so a divides b exactly when
((E_b | guard) - E_a) & guard == guard, an lcm is a field-at-a-time
(SWAR) max built from the same borrows, and two leads are coprime when
their lcm is their product.  Fields start at 16 bits.  Packing refuses a
total degree that reaches the guard bit, and a sum made in the kernel a
block degree that does, by raising `_Overflow`.  Every kernel run goes
through `GroebnerBasis._packed`, which then starts it again with fields
twice as wide and keeps the width for the basis's next run.

A basis already in hand enters Buchberger as it stands: its members are
never paired with each other, and only the new generators run the update.
A reduced grevlex basis G stays a reduced Groebner basis of the ideal it
generates when carried into a ring with more variables, under an order
that restricts to grevlex on G's variables: grevlex itself, or the block
order of `eliminate` when G's variables lie in one block in their own
order.  The leading terms do not change, and each S-polynomial of two
members reduces to zero by the same steps as before, so Buchberger's
criterion still holds, and no tail term meets a lead.  A GroebnerBasis
standing first among the generators of `groebner`, `eliminate` or
`saturate` enters this way wherever that holds (`_carry`), and otherwise
counts as plain generators.  `eliminate` carries it into its block ring
itself, and `saturate` hands it on to `eliminate`: 1 - y*f and the
eliminated variables sit outside the basis's ring.

`ideals_equal` tests generators of J against a reduced basis K in hand by
the lead-cover criterion: a subset of an ideal whose leads generate its
initial ideal is a Groebner basis of it (Cox-Little-O'Shea, ch. 2, sec. 5).
J lies in K when its generators reduce to zero modulo K.  Buchberger on them
that reaches a partial basis B whose leads divide every lead of K makes B,
inside J, a Groebner basis of K, so K = (B) lies in J; if it ends first, a
lead of K lies outside in(J) = (lm(B)), so in(J) != in(K) and J != K.
"""

from __future__ import annotations

import heapq
from itertools import chain, count
from math import gcd
from operator import mul
from typing import Iterable, Sequence

from .poly import MultiPoly, _rescaled

IntPoly = dict  # monomial -> int: packed keys in the kernel, exponent tuples before packing


class _Overflow(Exception):
    """A block degree reached the guard bit of its field."""


class _Packing:
    """Packed monomials of n variables under the order of `block`, `bits` bits a field.

    `weights` pack an exponent tuple in one dot product and `shifts` place
    each exponent in E; `blocks` holds (shift, mask, ones) per block,
    `tops` the shifts of the block-degree fields, `top` their guard bits,
    `guard` the guard bits of every field and `diff` the mask above.
    """

    __slots__ = ("bits", "weights", "shifts", "blocks", "tops", "top", "guard", "diff")

    def __init__(self, block: int, n: int, bits: int):
        # block [a, b) of the variables takes the fields n - b .. n - a - 1
        cuts = sorted({0, n, min(block, n)})
        self.bits, self.blocks, self.tops, self.shifts, self.weights = bits, [], [], [], []
        self.diff = 0
        for a, b in zip(cuts, cuts[1:]):
            low, size = bits * (n - b), b - a
            ones = sum(1 << bits * j for j in range(size))
            self.blocks.append((low, (1 << bits * size) - 1, ones))
            self.tops.append(low + bits * (size - 1))
            for j in range(size):
                self.shifts.append(low + bits * j)
                self.weights.append(sum(1 << low + bits * i for i in range(j, size)))
            self.diff |= ((1 << bits * (size - 1)) - 1) << low + bits  # all but the lowest field
        self.guard = sum(1 << s + bits - 1 for s in self.shifts)
        self.top = sum(1 << t + bits - 1 for t in self.tops)

    def pack_poly(self, p: IntPoly) -> IntPoly:
        # a field past its width would carry into the next one, so the total
        # degree, which bounds every block degree, is tested before packing
        if max(map(sum, p), default=0) >> self.bits - 1:
            raise _Overflow
        weights = self.weights
        return {sum(map(mul, m, weights)): c for m, c in p.items()}

    def exps(self, k: int) -> int:
        return k - ((k << self.bits) & self.diff)

    def key(self, e: int) -> int:
        """The packed key of the exponent vector e: prefix sums per block."""
        k = 0
        for s, mask, ones in self.blocks:
            k |= ((e >> s & mask) * ones & mask) << s
        return k

    def lcm(self, a: int, b: int) -> int:
        """Field-wise max of two exponent vectors; `_buchberger`'s update inlines it."""
        ge = ((a | self.guard) - b) & self.guard  # guards of the fields where a >= b
        ge -= ge >> self.bits - 1
        return b ^ ((a ^ b) & ge)

    def degree(self, k: int) -> int:
        field = (1 << self.bits) - 1
        return sum([k >> t & field for t in self.tops])

    def entry(self, p: IntPoly) -> tuple:
        """Kernel entry (lm, its exponents, lead coefficient, [(m, c) of the tail])."""
        lm = max(p)
        return lm, self.exps(lm), p[lm], [(m, c) for m, c in p.items() if m != lm]

    def monomial(self, k: int) -> tuple:
        """The exponent tuple of a packed monomial."""
        e = self.exps(k)
        field = (1 << self.bits) - 1
        return tuple([e >> s & field for s in self.shifts])

    def to_poly(self, entry: tuple, variables: tuple) -> MultiPoly:
        """The monic MultiPoly of a content-free entry: its ints over |lc|, signed like lc."""
        lm, _, lc, tail = entry
        sign = -1 if lc < 0 else 1
        ints = {self.monomial(m): sign * c for m, c in [(lm, lc)] + tail}
        return MultiPoly._make(variables, abs(lc), ints)


# -- raw integer polynomial helpers -----------------------------------------


def _content_normalize(p: IntPoly) -> IntPoly:
    g = gcd(*p.values())
    if g > 1:
        for m in p:
            p[m] //= g
    return p


def _normal_form_full(p: IntPoly, basis: Sequence[tuple], divisors: Sequence[int],
                      pk: _Packing) -> tuple:
    """Full normal form of p against kernel entries (lm, exponents, lc, tail).

    `divisors` lists the entries' exponents (entry[1]), in their order; the
    caller keeps it beside the entries, so it is not rebuilt per call.
    Fraction-free: rescalings applied to the working polynomial are mirrored
    on the remainder.  Returns (r, num, den): r is content-free and equals
    (num / den) * (the normal form of p), num and den nonzero ints.  The
    working terms sit behind a lazy max-heap of negated keys, so the running
    lead is found without rescanning.
    """
    bits, diff, guard, top = pk.bits, pk.diff, pk.guard, pk.top
    remainder: IntPoly = {}
    work = dict(p)
    num = den = 1  # the scale applied so far, num / den in lowest terms
    heap = [-m for m in work]
    heapq.heapify(heap)
    steps = 0
    while heap:
        lm = -heapq.heappop(heap)
        cp = work.pop(lm, None)
        if cp is None:
            continue
        e = (lm - ((lm << bits) & diff)) | guard
        for k, d in enumerate(divisors):
            if (e - d) & guard == guard:
                break
        else:
            remainder[lm] = cp
            continue
        lm_g, _, cg, tail = basis[k]
        shift = lm - lm_g
        s = gcd(cp, cg)
        cp //= s
        cg //= s
        if cg != 1:
            t = gcd(den, cg)
            den //= t
            num *= cg // t
            for m in remainder:
                remainder[m] *= cg
            for m in work:
                work[m] *= cg
        # tail terms of g sit below lm_g, so their products sit below lm
        for m, c in tail:
            mm = m + shift
            old = work.get(mm)
            if old is None:
                if mm & top:
                    raise _Overflow
                work[mm] = -cp * c
                heapq.heappush(heap, -mm)
            elif old != cp * c:
                work[mm] = old - cp * c
            else:
                del work[mm]
        steps += 1
        if steps % 8 == 0 or not work:
            gg = 0
            for c in work.values():
                gg = gcd(gg, c)
                if gg == 1:
                    break
            if gg != 1:
                for c in remainder.values():
                    gg = gcd(gg, c)
                    if gg == 1:
                        break
            if gg > 1:
                t = gcd(num, gg)
                num //= t
                den *= gg // t
                for m in work:
                    work[m] //= gg
                for m in remainder:
                    remainder[m] //= gg
    gg = gcd(*remainder.values())
    if gg > 1:
        for m in remainder:
            remainder[m] //= gg
        den *= gg
    return remainder, num, den


def _spoly(f: tuple, g: tuple, lcm: int, pk: _Packing) -> IntPoly:
    """S-polynomial of two kernel entries whose leads have the packed lcm `lcm`."""
    lm_f, _, cf, tail_f = f
    lm_g, _, cg, tail_g = g
    s = gcd(cf, cg)
    cf //= s
    cg //= s
    sf = lcm - lm_f
    sg = lcm - lm_g
    out = {m + sf: c * cg for m, c in tail_f}
    for m, c in tail_g:
        mm = m + sg
        v = out.get(mm, 0) - c * cf
        if v:
            out[mm] = v
        else:
            out.pop(mm, None)
    if any(m & pk.top for m in out):
        raise _Overflow
    return _content_normalize(out)


# -- Buchberger with Gebauer-Moeller pruning ---------------------------------


def _buchberger(known: list, gens: list, pk: _Packing, until: set | None = None) -> list:
    """Kernel entries of a Groebner basis of `known` (entries of a basis) and `gens`; a
    partial one as soon as arriving leads have divided, and removed, every member of `until`."""
    guard, low = pk.guard, pk.bits - 1
    basis = list(known)
    exps = [entry[1] for entry in basis]  # the leads' exponents, appended on each arrival
    until = set() if until is None else until

    def arrive(entry) -> bool:  # append entry; True once it empties a nonempty `until`
        basis.append(entry)
        exps.append(entry[1])
        hit = [l for l in until if ((l | guard) - entry[1]) & guard == guard]
        until.difference_update(hit)
        return bool(hit) and not until

    # insert cheap reducers first: most of a redundant generating set then
    # drops out during the insertion normal forms
    def rank(p):
        lm = max(p)
        return (pk.degree(lm), len(p), lm)

    for p in sorted(gens, key=rank):
        p = _normal_form_full(p, basis, exps, pk)[0]
        if p and arrive(pk.entry(p)):
            return basis

    heap: list = []  # (deg lcm, lcm, i, j)
    live: dict = {}  # (i, j) -> exponents of the lcm, for pairs still pending

    def update(new_index: int):
        """Gebauer-Moeller update on arrival of basis[new_index]."""
        e_new = exps[new_index]
        # lcm(exps[i], e_new) for each older member, `_Packing.lcm` inline
        lcms = [e_new ^ ((a ^ e_new) & (ge - (ge >> low)))
                for a in exps[:new_index] for ge in [((a | guard) - e_new) & guard]]
        # criterion B: of the pending pairs whose lcm the new lead divides,
        # drop those strictly refined by the new element
        hit = [(ij, l) for ij, l in live.items() if ((l | guard) - e_new) & guard == guard]
        for (i, j), l in hit:
            if lcms[i] != l and lcms[j] != l:
                del live[(i, j)]
        # criterion F: one class per lcm value, [first index, coprime]
        by_lcm: dict = {}
        for i, l in enumerate(lcms):
            coprime = l == exps[i] + e_new  # no field holds both exponents
            cls = by_lcm.get(l)
            if cls is None:
                by_lcm[l] = [i, coprime]
            elif coprime:
                cls[1] = True
        # criterion M among the classes: a strict divisor of an lcm is a
        # smaller int in the same fields, so ascending ints meet it first
        kept: list = []
        for l in sorted(by_lcm):
            gl = l | guard
            for l2 in kept:
                if (gl - l2) & guard == guard:
                    break
            else:
                kept.append(l)
                # product criterion: a coprime pair reduces to zero, and with
                # it every pair of its class (Becker-Weispfenning, UPDATE)
                i, coprime = by_lcm[l]
                if not coprime:
                    k = pk.key(l)
                    if k & pk.top:
                        raise _Overflow
                    live[(i, new_index)] = l
                    heapq.heappush(heap, (pk.degree(k), k, i, new_index))

    for idx in range(len(known), len(basis)):
        update(idx)

    while heap:
        _, k, i, j = heapq.heappop(heap)
        if (i, j) not in live:
            continue
        del live[(i, j)]
        s = _spoly(basis[i], basis[j], k, pk)
        s = _normal_form_full(s, basis, exps, pk)[0]
        if s:
            if arrive(pk.entry(s)):
                return basis
            update(len(basis) - 1)
    return basis


def _interreduce(basis: list, pk: _Packing) -> list:
    """Minimal then fully reduced basis, sorted by leading monomial, largest first."""
    # minimality: drop members whose lead is divisible by another lead, of
    # equal leads all but the first
    guard = pk.guard
    keep = []
    for i, entry in enumerate(basis):
        lm, e = entry[0], entry[1] | guard
        for j, other in enumerate(basis):
            if (e - other[1]) & guard == guard and j != i and (other[0] != lm or j < i):
                break
        else:
            keep.append(entry)
    keep.sort()
    exps = [entry[1] for entry in keep]
    reduced = []
    for idx, (lm, _, lc, tail) in enumerate(keep):
        r = _normal_form_full({**dict(tail), lm: lc}, keep[:idx] + keep[idx + 1:],
                              exps[:idx] + exps[idx + 1:], pk)[0]
        if r:
            reduced.append(pk.entry(r))
    reduced.sort(reverse=True)
    return reduced


# -- public API ---------------------------------------------------------------


class GroebnerBasis:
    """Reduced Groebner basis; members are monic MultiPoly.

    It is built only from members already reduced for the order of `block`
    (by `groebner`, `eliminate`, `saturate`, `homogenize`), so the operations
    that take generators accept it without running Buchberger again.
    """

    __slots__ = ("block", "gens", "variables", "_kernel")

    def __init__(self, variables, gens: Sequence[MultiPoly], block: int = 0):
        if type(block) is not int or block < 0:
            raise ValueError(f"block = {block!r}: a block size is an int >= 0")
        self.variables = tuple(variables)
        self.gens = tuple(gens)
        self.block = block
        self._kernel = None

    def _packed(self, run):
        """run(packing, the members as kernel entries, their leads' exponents) at the width
        kept (16 bits a field at first), each `_Overflow` doubling it; the packing that ran
        is kept, with the entries and exponents, for the next call."""
        bits = self._kernel[0].bits if self._kernel is not None else 16
        while True:
            try:
                if self._kernel is None or self._kernel[0].bits != bits:
                    pk = _Packing(self.block, len(self.variables), bits)
                    entries = [pk.entry(pk.pack_poly(g.ints)) for g in self.gens]
                    self._kernel = (pk, entries, [entry[1] for entry in entries])
                return run(*self._kernel)
            except _Overflow:
                bits *= 2

    def leading_monomials(self) -> list:
        """The members' leads, read off the kernel entries: `_Packing` alone knows the order."""
        return self._packed(lambda pk, entries, _: [pk.monomial(entry[0]) for entry in entries])

    def __iter__(self):
        return iter(self.gens)

    def __len__(self):
        return len(self.gens)

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and self.variables == other.variables
            and self.block == other.block
            and set(self.gens) == set(other.gens)
        )

    def __repr__(self):
        return f"GroebnerBasis({len(self.gens)} gens, block {self.block})"


def _check_same_ring(gens: Sequence[MultiPoly]):
    rings = {g.variables for g in gens}
    if len(rings) > 1:
        raise ValueError("generators live in different rings")
    return rings.pop() if rings else None


def _carry(G: GroebnerBasis, variables: tuple, block: int) -> GroebnerBasis | None:
    """G in the ring `variables` as a reduced basis for the order of `block`, or
    None where it need not stay one (see the module docstring)."""
    if G.variables == variables and G.block == block:
        return G
    if G.block:
        return None
    pos = [variables.index(v) for v in G.variables]
    if pos != sorted(pos) or (block and pos and pos[0] < block <= pos[-1]):
        return None
    return GroebnerBasis(variables, [g.rename(variables) for g in G.gens], block)


def _split(gens) -> tuple:
    """(basis, polys, ring) of generators given as a GroebnerBasis, or as a
    list whose first entry may be one: the basis if it is nonempty, the
    nonzero MultiPoly generators, and their ring (the basis's if there are
    none, None if there is nothing).  The basis may live in a ring of some
    of the variables of the others."""
    gens = [gens] if isinstance(gens, GroebnerBasis) else list(gens)
    known = None
    if gens and isinstance(gens[0], GroebnerBasis):
        known, *gens = gens
    polys = [g for g in gens if not g.is_zero()]
    ring = _check_same_ring(polys)
    if known is None or not known.gens:
        return None, polys, ring
    ring = ring or known.variables
    if not set(known.variables) <= set(ring):
        raise ValueError("generators live in different rings")
    return known, polys, ring


def groebner(gens: Sequence[MultiPoly] | GroebnerBasis, block: int = 0) -> GroebnerBasis:
    """Reduced basis of the ideal the generators generate, for the order of `block`.

    A GroebnerBasis may stand first among the generators, in a ring of some
    of their variables.  Where it stays a basis for that order in their ring
    (`_carry`) it enters Buchberger as a basis in hand, its members never
    paired with each other; otherwise its members count as plain generators.
    """
    if isinstance(gens, GroebnerBasis) and gens.block == block:
        return gens
    known, polys, variables = _split(gens)
    if variables is None:
        return GroebnerBasis((), (), block)
    if known is not None:
        carried = _carry(known, variables, block)
        if carried is None:
            polys += [g.rename(variables) for g in known.gens]
        elif not polys:
            return carried
        known = carried
    if known is None:
        known = GroebnerBasis(variables, (), block)

    def run(pk, start, _):
        return pk, _interreduce(_buchberger(start, [pk.pack_poly(g.ints) for g in polys], pk), pk)

    pk, basis = known._packed(run)
    G = GroebnerBasis(variables, [pk.to_poly(e, variables) for e in basis], block)
    G._kernel = (pk, basis, [entry[1] for entry in basis])
    return G


def normal_form(f: MultiPoly, G: GroebnerBasis) -> MultiPoly:
    """Remainder of f modulo the reduced basis; zero iff f lies in the ideal.

    The heap kernel reduces f's ints, d * f; d and the scale num / den the
    kernel reports turn its output r back into the exact remainder
    r * den / (num * d).
    """
    if not G.gens:
        return f
    if f.variables != G.variables:
        raise ValueError("polynomial and basis live in different rings")
    if f.is_zero():
        return f

    def run(pk, entries, exps):
        remainder, num, den = _normal_form_full(pk.pack_poly(f.ints), entries, exps, pk)
        ints = {pk.monomial(m): c for m, c in remainder.items()}
        return MultiPoly._make(f.variables, *_rescaled(f.d, ints, den, num))

    return G._packed(run)


def ideals_equal(gens_a: Sequence[MultiPoly], gens_b: Sequence[MultiPoly]) -> bool:
    """Equality of two ideals in one ring; nonzero ideals in different rings differ.

    Generators of J against a grevlex GroebnerBasis K go by the lead-cover
    criterion of the module docstring: they must reduce to zero modulo K (J in
    K), and Buchberger on them stops once its leads divide every lead of K (K
    in J) or ends first (in(J) != in(K)).  Otherwise the reduced grevlex bases,
    unique, are compared; the zero ideal's is empty in any ring.
    """
    for K, J in ((gens_a, gens_b), (gens_b, gens_a)):
        if isinstance(K, GroebnerBasis) and not K.block and not isinstance(J, GroebnerBasis):
            known, polys, ring = _split(J)
            if known is None:
                return _equals_basis(K, polys, ring)
    Ga, Gb = groebner(gens_a), groebner(gens_b)
    return Ga == Gb or not (Ga.gens or Gb.gens)


def _equals_basis(K: GroebnerBasis, polys: list, ring) -> bool:
    """Whether the nonzero `polys`, in `ring`, generate the ideal of K (see `ideals_equal`)."""
    if not (K.gens and polys) or ring != K.variables:
        return not (K.gens or polys)

    def run(pk, entries, exps):
        raw = [pk.pack_poly(g.ints) for g in polys]
        if any(_normal_form_full(p, entries, exps, pk)[0] for p in raw):
            return False  # J is not inside K
        uncovered = set(exps)
        _buchberger([], raw, pk, uncovered)
        return not uncovered

    return K._packed(run)


# -- variable bookkeeping -----------------------------------------------------


def _fresh_name(variables, stem: str) -> str:
    names = chain((stem,), (f"{stem}{k}" for k in count(1)))
    return next(name for name in names if name not in variables)


def eliminate(gens: Sequence[MultiPoly] | GroebnerBasis, drop: Iterable[str]) -> GroebnerBasis:
    """Reduced grevlex basis of the ideal intersected with the subring without `drop`.

    The block order compares the `drop` variables first and breaks ties by
    grevlex on the rest, so by the Elimination Theorem (Cox-Little-O'Shea,
    Ideals, Varieties, and Algorithms, ch. 3, sec. 1) the members of its
    reduced basis free of `drop` form a Groebner basis of the elimination
    ideal for grevlex.  Restricting them to the kept variables changes no
    term, so they stay monic and reduced, in the same order.  A grevlex
    GroebnerBasis, alone or first among the generators and in a ring of
    some of their variables, enters the block order as a basis when its
    variables lie in one block in their order.
    """
    known, polys, variables = _split(gens)
    drop = tuple(drop)
    if variables is None:
        return groebner(())
    for v in drop:
        if v not in variables:
            raise ValueError(f"cannot drop unknown variable {v!r}")
    keep = tuple(v for v in variables if v not in drop)
    ring, k = drop + keep, len(drop)
    reordered = [g.rename(ring) for g in polys]
    if known is not None:
        # carried here, so that the ring is the block ring even with no polys
        carried = _carry(known, ring, k)
        if carried is None:
            reordered += [g.rename(ring) for g in known.gens]
        else:
            reordered.insert(0, carried)
    G = groebner(reordered, k)
    out = [MultiPoly._make(keep, g.d, {m[k:]: c for m, c in g.ints.items()})
           for g in G.gens if not any(any(m[:k]) for m in g.ints)]
    return GroebnerBasis(keep, out)


def saturate(gens: Sequence[MultiPoly] | GroebnerBasis, f: MultiPoly) -> GroebnerBasis:
    """Reduced grevlex basis of (I : f^infinity), by the extra-variable method.

    (I : f^infinity) = (I + (1 - y*f)) cap k[x]; the auxiliary y goes in
    front of the ring, so `eliminate` returns the basis in the ring of I.
    A grevlex basis of I enters as a basis: no two of its members are paired.
    """
    if f.is_zero():
        raise ValueError("cannot saturate by zero")
    known, polys, variables = _split(gens)
    variables = variables or f.variables
    if f.variables != variables:
        raise ValueError("saturating element lives in a different ring")
    if known is None and not polys:
        return GroebnerBasis(variables, ())
    aux = _fresh_name(variables, "zsat")
    new_vars = (aux,) + variables
    lifted = [g.rename(new_vars) for g in polys]
    y = MultiPoly.var(new_vars, aux)
    lifted.append(y * f.rename(new_vars) - MultiPoly.constant(new_vars, 1))
    return eliminate(lifted if known is None else [known, *lifted], (aux,))


def homogenize(gens: Sequence[MultiPoly], hvar: str) -> GroebnerBasis:
    """Reduced grevlex basis of the homogenization (in total degree) of the ideal.

    The ring is the ideal's variables followed by `hvar`.  Homogenizing the
    reduced grevlex basis G of I gives a Groebner basis of I^h
    (Cox-Little-O'Shea, ch. 8, sec. 4, Theorem 4): on homogeneous polynomials
    the order used there is grevlex with `hvar` last.  Each g^h keeps the
    leading monomial of g and maps no other term onto a multiple of a lead,
    so G^h is reduced, monic and in the same order.  In particular I^h is
    saturated with respect to hvar.
    """
    G = groebner(gens)
    new_vars = G.variables + (hvar,)
    out = [MultiPoly._make(new_vars, g.d, {m + (d - sum(m),): c for m, c in g.ints.items()})
           for g, d in zip(G.gens, map(MultiPoly.total_degree, G.gens))]
    return GroebnerBasis(new_vars, out)
