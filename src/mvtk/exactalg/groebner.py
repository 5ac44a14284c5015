"""Buchberger engine and ideal operations.

Deterministic by construction: normal pair selection (degree of the lcm,
then term order on the lcm), the Gebauer-Moeller update (J. Symbolic
Comput. 6, 1988; Becker-Weispfenning, Groebner Bases, sec. 5.5, UPDATE) and
a fully reduced, monic output basis.  When g joins the basis, a pending pair
(f, h) goes if lm(g) divides its lcm and that lcm differs from lcm(f, g) and
lcm(h, g) (criterion B); the new pairs (f, g) are grouped by lcm (F); a class
goes if another class's lcm strictly divides its own (M), or if one of its
pairs has coprime leads and so reduces to zero (product criterion).  Any
other class keeps its pair with the oldest f.  The hot loop works on
primitive integer coefficient dictionaries; Fractions only appear at the
API boundary.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add, le, sub
from typing import Callable, Iterable, Sequence

from .poly import GREVLEX, MultiPoly, TermOrder

IntPoly = dict  # monomial tuple -> int coefficient, content-free


# -- raw integer polynomial helpers -----------------------------------------


def _content_normalize(p: IntPoly) -> IntPoly:
    if not p:
        return p
    g = 0
    for c in p.values():
        g = gcd(g, c)
    if g > 1:
        for m in p:
            p[m] //= g
    return p


def _to_int_poly(f: MultiPoly) -> IntPoly:
    part, _ = f.primitive()
    return {m: int(c) for m, c in part.terms.items()}


def _from_int_poly(p: IntPoly, variables) -> MultiPoly:
    return MultiPoly(variables, {m: Fraction(c) for m, c in p.items()})


# map() over two tuples loops in C: these are the innermost calls of Buchberger
def _mon_mul(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def _mon_divides(a: tuple, b: tuple) -> bool:
    return all(map(le, a, b))


def _mon_div(a: tuple, b: tuple) -> tuple:
    return tuple(map(sub, a, b))


def _mon_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def _lead(p: IntPoly, key: Callable) -> tuple:
    return max(p, key=key)


def _mon_mask(mon: tuple) -> int:
    mask = 0
    for i, e in enumerate(mon):
        if e:
            mask |= 1 << i
    return mask


def _normal_form_full(p: IntPoly, basis: Sequence[tuple], order) -> tuple:
    """Full normal form of p against basis entries (lm, poly, deg, mask).

    Fraction-free: rescalings applied to the working polynomial are mirrored
    on the remainder.  Returns (r, scale): r is content-free and equals
    scale * (the normal form of p), scale a Fraction.  The working terms sit
    behind a lazy max-heap so the running lead is found without rescanning.
    """
    import heapq

    heap_key = order.heap_key
    remainder: IntPoly = {}
    work = dict(p)
    num = den = 1  # the scale applied so far, num / den in lowest terms
    heap = [(heap_key(m), m) for m in work]
    heapq.heapify(heap)
    steps = 0
    while heap:
        _, lm = heapq.heappop(heap)
        if lm not in work:
            continue
        dlm = sum(lm)
        mlm = _mon_mask(lm)
        hit = None
        for entry in basis:
            if entry[2] > dlm or (entry[3] & ~mlm):
                continue
            if _mon_divides(entry[0], lm):
                hit = entry
                break
        if hit is None:
            remainder[lm] = work.pop(lm)
            continue
        lm_g, g = hit[0], hit[1]
        shift = _mon_div(lm, lm_g)
        trivial_shift = not any(shift)
        cp = work[lm]
        cg = g[lm_g]
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
        for m, c in g.items():
            mm = m if trivial_shift else _mon_mul(m, shift)
            old = work.get(mm)
            v = (old or 0) - cp * c
            if v:
                work[mm] = v
                if old is None and mm != lm:
                    heapq.heappush(heap, (heap_key(mm), mm))
            else:
                work.pop(mm, None)
        work.pop(lm, None)
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
    gg = 0
    for c in remainder.values():
        gg = gcd(gg, c)
    if gg > 1:
        for m in remainder:
            remainder[m] //= gg
        den *= gg
    return remainder, Fraction(num, den)


def _spoly(f: IntPoly, lm_f: tuple, g: IntPoly, lm_g: tuple) -> IntPoly:
    l = _mon_lcm(lm_f, lm_g)
    cf = f[lm_f]
    cg = g[lm_g]
    s = gcd(cf, cg)
    cf //= s
    cg //= s
    sf = _mon_div(l, lm_f)
    sg = _mon_div(l, lm_g)
    out: IntPoly = {}
    for m, c in f.items():
        out[_mon_mul(m, sf)] = c * cg
    for m, c in g.items():
        mm = _mon_mul(m, sg)
        v = out.get(mm, 0) - c * cf
        if v:
            out[mm] = v
        else:
            out.pop(mm, None)
    return _content_normalize(out)


# -- Buchberger with Gebauer-Moeller pruning ---------------------------------


def _buchberger(gens: list, order) -> list:
    import heapq

    key = order.key

    basis: list = []  # entries (lm, poly, deg, mask)

    def enrich(p):
        lm = _lead(p, key)
        return (lm, p, sum(lm), _mon_mask(lm))

    # insert cheap reducers first: most of a redundant generating set then
    # drops out during the insertion normal forms
    def rank(p):
        lm = _lead(p, key)
        return (sum(lm), len(p), key(lm))

    for p in sorted(gens, key=rank):
        p, _ = _normal_form_full(p, basis, order)
        if p:
            basis.append(enrich(p))

    heap: list = []  # (deg lcm, key(lcm), i, j); lcm cached in `live`
    live: dict = {}  # (i, j) -> (lcm, its mask), for pairs still pending

    def push(i, j, l, ml):
        live[(i, j)] = (l, ml)
        heapq.heappush(heap, (sum(l), key(l), i, j))

    def update(new_index: int):
        """Gebauer-Moeller update on arrival of basis[new_index]."""
        lm_new, _, _, mask_new = basis[new_index]
        lcms = [_mon_lcm(e[0], lm_new) for e in basis[:new_index]]
        # criterion B: drop old pairs strictly refined by the new element
        for (i, j), (l, ml) in list(live.items()):
            if mask_new & ~ml:
                continue
            if _mon_divides(lm_new, l) and lcms[i] != l and lcms[j] != l:
                del live[(i, j)]
        # criterion F: one class per lcm value, [first index, mask, coprime];
        # an lcm's support is the union of the two leads' supports
        by_lcm: dict = {}
        for i, l in enumerate(lcms):
            mask_i = basis[i][3]
            cls = by_lcm.get(l)
            if cls is None:
                by_lcm[l] = [i, mask_i | mask_new, not mask_i & mask_new]
            elif not mask_i & mask_new:
                cls[2] = True
        # criterion M among the classes, smallest degrees first: equal-degree
        # lcms cannot divide each other strictly, and the heap orders the pairs
        kept: list = []
        for l in sorted(by_lcm, key=sum):
            i, ml, coprime = by_lcm[l]
            dl = sum(l)
            dominated = False
            for l2, m2, d2 in kept:
                if d2 >= dl or (m2 & ~ml):
                    continue
                if _mon_divides(l2, l):
                    dominated = True
                    break
            if dominated:
                continue
            kept.append((l, ml, dl))
            # product criterion: a coprime pair reduces to zero, and with it
            # every pair of its class (Becker-Weispfenning, UPDATE)
            if not coprime:
                push(i, new_index, l, ml)

    for idx in range(len(basis)):
        update(idx)

    while heap:
        _, _, i, j = heapq.heappop(heap)
        if (i, j) not in live:
            continue
        del live[(i, j)]
        s = _spoly(basis[i][1], basis[i][0], basis[j][1], basis[j][0])
        s, _ = _normal_form_full(s, basis, order)
        if s:
            basis.append(enrich(s))
            update(len(basis) - 1)
    return basis


def _interreduce(basis: list, order) -> list:
    """Minimal then fully reduced basis, sorted by leading monomial."""
    key = order.key
    # minimality: drop members whose lead is divisible by another lead
    keep = []
    for i, entry in enumerate(basis):
        lm = entry[0]
        dominated = False
        for j, other in enumerate(basis):
            lm2 = other[0]
            if i == j:
                continue
            if _mon_divides(lm2, lm) and (lm2 != lm or j < i):
                dominated = True
                break
        if not dominated:
            keep.append(entry)
    keep.sort(key=lambda e: key(e[0]))
    reduced = []
    for idx, entry in enumerate(keep):
        r, _ = _normal_form_full(entry[1], keep[:idx] + keep[idx + 1:], order)
        if r:
            reduced.append((_lead(r, key), r))
    reduced.sort(key=lambda t: key(t[0]), reverse=True)
    return reduced


# -- public API ---------------------------------------------------------------


class GroebnerBasis:
    """Reduced Groebner basis; members are monic MultiPoly.

    It is built only from members already reduced for `order` (by
    `groebner`, `eliminate`, `saturate`, `homogenize`), so the operations
    that take generators accept it without running Buchberger again.
    """

    __slots__ = ("order", "gens", "variables", "_entries")

    def __init__(self, variables, gens: Sequence[MultiPoly], order: TermOrder):
        self.variables = tuple(variables)
        self.gens = tuple(gens)
        self.order = order
        self._entries = None

    def _kernel_entries(self) -> list:
        """The members as normal-form kernel entries (lm, IntPoly, deg, mask), built once."""
        if self._entries is None:
            self._entries = []
            for g in self.gens:
                lm = g.leading_monomial(self.order)
                self._entries.append((lm, _to_int_poly(g), sum(lm), _mon_mask(lm)))
        return self._entries

    def leading_monomials(self) -> list:
        return [g.leading_monomial(self.order) for g in self.gens]

    def __iter__(self):
        return iter(self.gens)

    def __len__(self):
        return len(self.gens)

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and self.variables == other.variables
            and self.order == other.order
            and set(self.gens) == set(other.gens)
        )

    def __repr__(self):
        return f"GroebnerBasis({len(self.gens)} gens, {self.order!r})"


def _check_same_ring(gens: Sequence[MultiPoly]):
    vars0 = None
    for g in gens:
        if vars0 is None:
            vars0 = g.variables
        elif g.variables != vars0:
            raise ValueError("generators live in different rings")
    return vars0


def groebner(gens: Sequence[MultiPoly], order: TermOrder = GREVLEX) -> GroebnerBasis:
    if isinstance(gens, GroebnerBasis) and gens.order == order:
        return gens
    gens = [g for g in gens if not g.is_zero()]
    variables = _check_same_ring(gens)
    if variables is None:
        return GroebnerBasis((), (), order)
    raw = [_to_int_poly(g) for g in gens]
    basis = _buchberger(raw, order)
    basis = _interreduce(basis, order)
    out = [_from_int_poly(p, variables).monic(order) for _, p in basis]
    return GroebnerBasis(variables, out, order)


def normal_form(f: MultiPoly, G: GroebnerBasis) -> MultiPoly:
    """Remainder of f modulo the reduced basis; zero iff f lies in the ideal.

    The heap kernel reduces f's primitive integer part; the content and the
    scale the kernel reports turn its output back into the exact remainder.
    """
    if not G.gens:
        return f
    if f.variables != G.variables:
        raise ValueError("polynomial and basis live in different rings")
    if f.is_zero():
        return f
    part, content = f.primitive()
    raw = {m: int(c) for m, c in part.terms.items()}
    remainder, scale = _normal_form_full(raw, G._kernel_entries(), G.order)
    factor = content / scale
    return MultiPoly._make(f.variables, {m: c * factor for m, c in remainder.items()})


def in_ideal(f: MultiPoly, G: GroebnerBasis) -> bool:
    return normal_form(f, G).is_zero()


def ideals_equal(gens_a: Sequence[MultiPoly], gens_b: Sequence[MultiPoly],
                 order: TermOrder = GREVLEX) -> bool:
    """Equality of two ideals in one ring, by comparing their reduced bases.

    The reduced basis of an ideal is unique for the order, so the ideals are
    equal exactly when the bases are.  Either side may already be a basis.
    The zero ideal's basis is empty whatever ring it was built in.
    """
    Ga = groebner(gens_a, order)
    Gb = groebner(gens_b, order)
    return Ga == Gb or not (Ga.gens or Gb.gens)


# -- variable bookkeeping -----------------------------------------------------


def _fresh_name(variables, stem: str) -> str:
    name = stem
    k = 0
    while name in variables:
        k += 1
        name = f"{stem}{k}"
    return name


def _extend_ring(gens: Sequence[MultiPoly], extra: str, front: bool):
    """Re-embed generators into a ring with one extra variable."""
    variables = gens[0].variables
    new_vars = (extra,) + variables if front else variables + (extra,)
    return new_vars, [g.rename(new_vars) for g in gens]


def eliminate(gens: Sequence[MultiPoly], drop: Iterable[str]) -> GroebnerBasis:
    """Reduced grevlex basis of the ideal intersected with the subring without `drop`.

    The block order compares the `drop` variables first and breaks ties by
    grevlex on the rest, so by the Elimination Theorem (Cox-Little-O'Shea,
    Ideals, Varieties, and Algorithms, ch. 3, sec. 1) the members of its
    reduced basis free of `drop` form a Groebner basis of the elimination
    ideal for grevlex.  Restricting them to the kept variables changes no
    term, so they stay monic and reduced, in the same order.
    """
    gens = [g for g in gens if not g.is_zero()]
    variables = _check_same_ring(gens)
    drop = tuple(drop)
    if variables is None:
        return groebner(())
    for v in drop:
        if v not in variables:
            raise ValueError(f"cannot drop unknown variable {v!r}")
    keep = tuple(v for v in variables if v not in drop)
    reordered = [g.rename(drop + keep) for g in gens]
    G = groebner(reordered, TermOrder("block", len(drop)))
    dropped = set(drop)
    out = [g.restrict(keep) for g in G.gens if not g.support_variables() & dropped]
    return GroebnerBasis(keep, out, GREVLEX)


def saturate(gens: Sequence[MultiPoly], f: MultiPoly) -> GroebnerBasis:
    """Reduced grevlex basis of (I : f^infinity), by the extra-variable method.

    (I : f^infinity) = (I + (1 - y*f)) cap k[x]; the auxiliary y goes in
    front of the ring, so `eliminate` returns the basis in the ring of I.
    """
    if f.is_zero():
        raise ValueError("cannot saturate by zero")
    gens = [g for g in gens if not g.is_zero()]
    variables = _check_same_ring(gens) or f.variables
    if f.variables != variables:
        raise ValueError("saturating element lives in a different ring")
    if not gens:
        return GroebnerBasis(variables, (), GREVLEX)
    aux = _fresh_name(variables, "zsat")
    new_vars, lifted = _extend_ring(gens, aux, front=True)
    f_l = f.rename(new_vars)
    y = MultiPoly.var(new_vars, aux)
    lifted.append(y * f_l - MultiPoly.constant(new_vars, 1))
    return eliminate(lifted, (aux,))


def _exact_poly_division(g: MultiPoly, f: MultiPoly) -> MultiPoly:
    """g / f when the division is exact; raises ArithmeticError otherwise.

    The working terms sit behind a lazy max-heap, as in _normal_form_full:
    each step pops the running lead instead of rescanning, and only terms
    new to the working polynomial are pushed.  The division fails as soon
    as the lead is not divisible by lm(f).
    """
    import heapq

    if g.is_zero():
        return g
    heap_key = GREVLEX.heap_key
    lm_f = f.leading_monomial(GREVLEX)
    lc_f = f.terms[lm_f]
    # the lead of f cancels the running lead exactly, so only its tail is applied
    tail = [(m, c) for m, c in f.terms.items() if m != lm_f]
    work = dict(g.terms)
    heap = [(heap_key(m), m) for m in work]
    heapq.heapify(heap)
    quo: dict = {}
    while heap:
        lm = heapq.heappop(heap)[1]
        c = work.pop(lm, None)
        if c is None:  # cancelled after it was pushed
            continue
        if not _mon_divides(lm_f, lm):
            raise ArithmeticError("inexact polynomial division")
        shift = _mon_div(lm, lm_f)
        c /= lc_f
        quo[shift] = c
        for m, cf in tail:
            mm = _mon_mul(m, shift)
            old = work.get(mm)
            if old is None:
                work[mm] = -c * cf
                heapq.heappush(heap, (heap_key(mm), mm))
            else:
                v = old - c * cf
                if v:
                    work[mm] = v
                else:
                    del work[mm]
    return MultiPoly._make(g.variables, quo)


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
    G = groebner(gens, GREVLEX)
    new_vars = G.variables + (hvar,)
    out = []
    for g in G.gens:
        d = g.total_degree()
        terms = {}
        for m, c in g.terms.items():
            terms[m + (d - sum(m),)] = c
        out.append(MultiPoly._make(new_vars, terms))
    return GroebnerBasis(new_vars, out, GREVLEX)
