"""Tableaux, chart ideals from rank conditions, multidegrees, and sections.

The pipeline: a semistandard tableau fixes a chain of Jordan types; rank
conditions on powers of leading principal blocks of the generic chart
matrix cut out the closure; saturating by minors that are nonzero at
generic points extracts the top-dimensional component, certified by the
dimension count.  The multidegree of that component over the chart weight
product is the equivariant multiplicity.  In the two-step lattice window
(mu = (1,...,1), at most two columns) the same chart embeds into a minor
coordinate space whose homogeneous coordinate ring carries the section
counts, bucketed by torus weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .exactalg import (
    GroebnerBasis,
    MultiPoly,
    WeightAssignment,
    dimension,
    eliminate,
    groebner,
    homogenize,
    ideals_equal,
    multidegree,
    multigraded_hilbert,
    normal_form,
    saturate,
)
from .exactalg.linalg import solve
from .measures import RatFunc
from .roota import Weight, alpha_names, root_positions


# -- tableaux ---------------------------------------------------------------------


class Tableau:
    """Semistandard Young tableau with entries in 1..m."""

    __slots__ = ("rows", "m")

    def __init__(self, rows, m=None):
        self.rows = tuple(tuple(int(x) for x in row) for row in rows)
        if not self.rows or any(not r for r in self.rows):
            raise ValueError("empty tableau or empty row")
        entries = [x for row in self.rows for x in row]
        self.m = m if m is not None else max(entries)
        self._validate()

    def _validate(self):
        rows = self.rows
        lengths = [len(r) for r in rows]
        if any(lengths[i] < lengths[i + 1] for i in range(len(rows) - 1)):
            raise ValueError("row lengths must weakly decrease")
        for r in rows:
            if any(r[i] > r[i + 1] for i in range(len(r) - 1)):
                raise ValueError("rows must weakly increase")
        for i in range(len(rows) - 1):
            for c in range(len(rows[i + 1])):
                if rows[i][c] >= rows[i + 1][c]:
                    raise ValueError("columns must strictly increase")
        if any(x < 1 or x > self.m for row in rows for x in row):
            raise ValueError("entries out of range")

    def shape(self) -> tuple:
        return tuple(len(r) for r in self.rows)

    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def content(self) -> tuple:
        """Number of boxes with each entry 1..m (the chart type mu)."""
        mu = [0] * self.m
        for row in self.rows:
            for x in row:
                mu[x - 1] += 1
        return tuple(mu)

    def restricted_shape(self, i: int) -> tuple:
        """Shape after deleting all boxes with entries > i, padded to m parts."""
        sh = []
        for row in self.rows:
            k = sum(1 for x in row if x <= i)
            sh.append(k)
        sh = [x for x in sh]
        while len(sh) < self.m:
            sh.append(0)
        return tuple(sh)

    def weight_lambda(self) -> Weight:
        lam = list(self.shape()) + [0] * (self.m - len(self.rows))
        return Weight(lam)

    def weight_mu(self) -> Weight:
        return Weight(self.content())

    def weight_nu(self) -> Weight:
        return self.weight_lambda() - self.weight_mu()

    def __repr__(self):
        return f"Tableau({[list(r) for r in self.rows]})"


def lusztig_datum(tau: Tableau) -> tuple:
    """Entry at eps_i - eps_j counts the boxes in row i filled with j."""
    m = tau.m
    out = []
    for (i, j) in root_positions(m):
        count = 0
        if i <= len(tau.rows):
            count = sum(1 for x in tau.rows[i - 1] if x == j)
        out.append(count)
    return tuple(out)


def lusztig_weight(m: int, datum) -> Weight:
    w = Weight.zero(m)
    for n, (i, j) in zip(datum, root_positions(m)):
        if n:
            w = w + Weight.root(m, i, j) * n
    return w


# -- the chart ---------------------------------------------------------------------


class TmuChart:
    """Free coordinates of the transverse slice chart, with torus weights."""

    def __init__(self, m: int, mu):
        self.m = m
        self.mu = tuple(int(x) for x in mu)
        if len(self.mu) != m:
            raise ValueError("mu needs m parts")
        if any(self.mu[i] < self.mu[i + 1] for i in range(m - 1)):
            raise ValueError("mu must be dominant")
        self.N = sum(self.mu)
        offsets = [0]
        for part in self.mu:
            offsets.append(offsets[-1] + part)
        self.offsets = offsets
        coords = []
        for bi in range(1, m):
            grow = offsets[bi] - 1  # 0-based global row: last row of block-row bi
            for bj in range(bi + 1, m + 1):
                for c in range(min(self.mu[bi - 1], self.mu[bj - 1])):
                    gcol = offsets[bj - 1] + c
                    coords.append((grow, gcol, bi, bj))
        coords.sort(key=lambda t: (t[0], t[1]))
        self.positions = tuple((r, c) for r, c, _, _ in coords)
        self.blocks = tuple((bi, bj) for _, _, bi, bj in coords)
        self.variables = tuple(f"a{k}" for k in range(1, len(coords) + 1))
        self.weights = {
            name: Weight.root(m, bi, bj)
            for name, (bi, bj) in zip(self.variables, self.blocks)
        }

    def weight_assignment(self) -> WeightAssignment:
        return WeightAssignment(self.variables, self.weights, alpha_names(self.m))

    def generic_matrix(self):
        """The N x N chart matrix: regular Jordan ones plus the coordinates."""
        zero = MultiPoly.zero(self.variables)
        one = MultiPoly.constant(self.variables, 1)
        A = [[zero for _ in range(self.N)] for _ in range(self.N)]
        for bi in range(1, self.m + 1):
            base = self.offsets[bi - 1]
            for k in range(self.mu[bi - 1] - 1):
                A[base + k][base + k + 1] = one
        for name, (r, c) in zip(self.variables, self.positions):
            A[r][c] = MultiPoly.var(self.variables, name)
        return A


# -- rank conditions -----------------------------------------------------------------


def _poly_matmul(A, B, zero):
    n = len(A)
    k = len(B)
    mcols = len(B[0]) if B else 0
    out = []
    for i in range(n):
        row = []
        for j in range(mcols):
            s = zero
            for t in range(k):
                if not A[i][t].is_zero() and not B[t][j].is_zero():
                    s = s + A[i][t] * B[t][j]
            row.append(s)
        out.append(row)
    return out


def _det(mat, zero):
    n = len(mat)
    if n == 0:
        return None
    if n == 1:
        return mat[0][0]
    # expand along the sparsest row
    best = min(range(n), key=lambda r: sum(0 if mat[r][c].is_zero() else 1 for c in range(n)))
    total = zero
    for c in range(n):
        if mat[best][c].is_zero():
            continue
        sub = [row[:c] + row[c + 1 :] for r, row in enumerate(mat) if r != best]
        term = mat[best][c] * _det(sub, zero)
        if (best + c) % 2 == 0:
            total = total + term
        else:
            total = total - term
    return total


def _pivot_reduce(mat, zero):
    """Eliminate nonzero-constant pivots; returns (reduced matrix, pivot count).

    Row and column operations with invertible constants preserve the ideal
    of t-minors; each constant pivot trades a t-minor ideal for the
    (t-1)-minor ideal of the complement.
    """
    mat = [row[:] for row in mat]
    pivots = 0
    while True:
        mat = [row for row in mat if any(not e.is_zero() for e in row)]
        if not mat:
            return [], pivots
        ncols = len(mat[0])
        live_cols = [c for c in range(ncols) if any(not row[c].is_zero() for row in mat)]
        mat = [[row[c] for c in live_cols] for row in mat]
        if not mat or not mat[0]:
            return [], pivots
        pivot = None
        for r, row in enumerate(mat):
            for c, e in enumerate(row):
                if not e.is_zero() and e.is_constant():
                    pivot = (r, c, e.constant_term())
                    break
            if pivot:
                break
        if not pivot:
            return mat, pivots
        r0, c0, val = pivot
        for r in range(len(mat)):
            if r != r0 and not mat[r][c0].is_zero():
                factor = mat[r][c0] * Fraction(1, 1) / val
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[r0])]
        mat = [row[:c0] + row[c0 + 1 :] for r, row in enumerate(mat) if r != r0]
        pivots += 1


def _all_minors(mat, t, zero, cap=20000):
    rows = len(mat)
    cols = len(mat[0]) if mat else 0
    if t <= 0 or t > min(rows, cols):
        return []
    out = []
    count = 0
    for rs in combinations(range(rows), t):
        for cs in combinations(range(cols), t):
            count += 1
            if count > cap:
                raise ValueError("minor enumeration cap exceeded")
            d = _det([[mat[r][c] for c in cs] for r in rs], zero)
            if d is not None and not d.is_zero():
                out.append(d)
    return out


def _pivot_candidates(mat, t, limit=400):
    """Candidate t x t transversal selections, simplest entries first."""
    rows = len(mat)
    cols = len(mat[0]) if mat else 0
    entries = []
    for r in range(rows):
        for c in range(cols):
            e = mat[r][c]
            if not e.is_zero():
                entries.append((len(e.terms), e.total_degree(), r, c))
    entries.sort()
    found = []

    def rec(start, used_r, used_c, picked):
        if len(found) >= limit:
            return
        if len(picked) == t:
            found.append(picked)
            return
        if t - len(picked) > len(entries) - start:
            return
        for idx in range(start, len(entries)):
            _, _, r, c = entries[idx]
            if r in used_r or c in used_c:
                continue
            rec(idx + 1, used_r | {r}, used_c | {c}, picked + [(r, c)])
            if len(found) >= limit:
                return

    rec(0, frozenset(), frozenset(), [])
    for picked in found:
        yield sorted(p[0] for p in picked), sorted(p[1] for p in picked)


def _bordered_minors(mat, R, zero, vanishes=None):
    """(R+1)-minors containing a fixed R x R pivot block.

    The pivot determinant must not vanish on the variety cut so far
    (`vanishes` tests membership modulo the accumulated ideal); on the
    locus where it is invertible the bordered minors cut the rank <= R
    condition, and the pivot determinant joins the saturation witnesses.
    Returns (minors, pivot determinant) or None if no usable pivot exists.
    """
    pivot_det = None
    pick = None
    for rs, cs in _pivot_candidates(mat, R):
        d = _det([[mat[r][c] for c in cs] for r in rs], zero)
        if d is None or d.is_zero():
            continue
        if vanishes is not None and vanishes(d):
            continue
        pivot_det = d
        pick = (rs, cs)
        break
    if pick is None:
        return None
    rs, cs = pick
    rows = len(mat)
    cols = len(mat[0])
    out = []
    for r in range(rows):
        if r in rs:
            continue
        for c in range(cols):
            if c in cs:
                continue
            sub_rows = sorted(rs + [r])
            sub_cols = sorted(cs + [c])
            d = _det([[mat[a][b] for b in sub_cols] for a in sub_rows], zero)
            if d is not None and not d.is_zero():
                out.append(d)
    return out, pivot_det


@dataclass
class RankConditions:
    closure_gens: list
    witnesses: list  # ordered candidate polynomials, preferred first


def rank_condition_ideal(tau: Tableau, chart: TmuChart | None = None,
                         minor_cap: int = 60000,
                         full_minor_threshold: int = 700) -> RankConditions:
    """Closure equations and openness witnesses from the Jordan-type chain.

    Conditions are generated per restriction step and per power, with the
    matrix entries reduced modulo the ideal found so far: congruent entries
    give congruent minors, so the accumulated ideal is unchanged while the
    matrices stay small enough to enumerate.
    """
    m = tau.m
    chart = chart or TmuChart(m, tau.content())
    A = chart.generic_matrix()
    zero = MultiPoly.zero(chart.variables)
    gens = []
    witnesses = []
    basis = None

    def reduce_entry(e):
        if basis is None or e.is_zero():
            return e
        return normal_form(e.rename(basis.variables), basis).rename(chart.variables)

    def refresh_basis():
        nonlocal basis
        if gens:
            basis = groebner(gens)

    for i in range(1, m + 1):
        n_i = chart.offsets[i]
        block = [[reduce_entry(A[r][c]) if c < n_i and r < n_i else zero
                  for c in range(n_i)] for r in range(n_i)]
        sh = tau.restricted_shape(i)
        power = [row[:] for row in block]
        r = 1
        fresh = 0
        while True:
            R = sum(max(s - r, 0) for s in sh)
            if R == 0:
                for row in power:
                    for e in row:
                        if not e.is_zero():
                            gens.append(e)
                            fresh += 1
                break
            reduced, k = _pivot_reduce(power, zero)
            if k > R:
                raise ValueError(
                    f"rank condition at step {i}, power {r} is infeasible"
                )
            t = R + 1 - k
            nrows = len(reduced)
            ncols = len(reduced[0]) if reduced else 0
            n_minors = (
                comb(nrows, t) * comb(ncols, t) if t <= min(nrows, ncols) else 0
            )
            if n_minors > full_minor_threshold:
                vanishes = None
                if basis is not None:
                    vanishes = lambda d: normal_form(d, basis).is_zero()
                bordered = _bordered_minors(reduced, t - 1, zero, vanishes=vanishes)
                if bordered is None:
                    got = _all_minors(reduced, t, zero, cap=minor_cap)
                else:
                    got, pivot_det = bordered
                    witnesses.insert(0, pivot_det)
            else:
                got = _all_minors(reduced, t, zero, cap=minor_cap)
            gens.extend(got)
            fresh += len(got)
            witnesses.extend(_witness_candidates(reduced, R - k, zero))
            power = _poly_matmul(power, block, zero)
            power = [[reduce_entry(e) for e in row] for row in power]
            r += 1
        if fresh:
            gens = _dedupe_polys(gens)
            refresh_basis()
            if basis is not None:
                gens = list(basis.gens)
                gens = [g.rename(chart.variables) for g in gens]
    uniq = _dedupe_polys(gens)
    wuniq = []
    wseen = set()
    for w in witnesses:
        wp, _ = w.primitive()
        if wp not in wseen and not wp.is_constant():
            wseen.add(wp)
            wuniq.append(wp)
    return RankConditions(uniq, wuniq)


def _dedupe_polys(polys):
    seen = set()
    uniq = []
    for g in polys:
        if g.is_zero():
            continue
        gp, _ = g.primitive()
        if gp not in seen:
            seen.add(gp)
            uniq.append(gp)
    return uniq


def _witness_candidates(reduced, t, zero, limit=12):
    """Deterministic t-minors likely nonzero on the component: sparse first."""
    if t <= 0:
        return []
    rows = len(reduced)
    cols = len(reduced[0]) if reduced else 0
    if t > min(rows, cols):
        return []
    scored = []
    count = 0
    for rs in combinations(range(rows), t):
        for cs in combinations(range(cols), t):
            count += 1
            if count > 4000:
                break
            d = _det([[reduced[r][c] for c in cs] for r in rs], zero)
            if d is None or d.is_zero():
                continue
            scored.append((len(d.terms), sum(sum(mon) for mon in d.terms), str(d), d))
        if count > 4000:
            break
    scored.sort(key=lambda s: (s[0], s[1], s[2]))
    return [d for _, _, _, d in scored[:limit]]


# -- component extraction --------------------------------------------------------------


@dataclass
class OrbitalIdeal:
    chart: TmuChart
    basis: GroebnerBasis  # reduced, grevlex, in the ring without removed_vars
    provenance: str
    dim: int
    tableau: Tableau
    removed_vars: tuple = ()  # variables forced to zero, pruned from the ring

    @property
    def gens(self) -> tuple:
        return self.basis.gens

    def weight_assignment(self) -> WeightAssignment:
        live = [v for v in self.chart.variables if v not in self.removed_vars]
        return WeightAssignment(
            live, {v: self.chart.weights[v] for v in live}, alpha_names(self.chart.m)
        )

    def groebner_basis(self) -> GroebnerBasis:
        return self.basis


def _prune_zero_variables(gens, variables):
    """Remove variables that appear as bare generators; substitute zero.

    A reduced basis comes back as a basis: no other member of it contains
    a bare member's variable (that term would reduce by the bare member), so
    pruning only drops the bare members and shrinks the ring of the rest,
    leaving them reduced, monic and in their order.
    """
    removed = []
    current = list(gens)
    names = tuple(variables)
    while True:
        bare = None
        for g in current:
            if len(g.terms) == 1:
                (mon,) = g.terms
                if sum(mon) == 1:
                    idx = next(i for i, e in enumerate(mon) if e)
                    bare = g.variables[idx]
                    break
        if bare is None:
            break
        removed.append(bare)
        names = tuple(v for v in names if v != bare)
        nxt = []
        for g in current:
            kept = {}
            for mon, c in g.terms.items():
                i = g.variables.index(bare)
                if mon[i]:
                    continue
                kept[tuple(e for k, e in enumerate(mon) if k != i)] = c
            p = MultiPoly(tuple(v for v in g.variables if v != bare), kept)
            if not p.is_zero():
                nxt.append(p)
        current = nxt
    if isinstance(gens, GroebnerBasis):
        if removed:
            gens = GroebnerBasis(names, current, gens.order)
        return gens, names, tuple(removed)
    return current, names, tuple(removed)


def orbital_ideal(tau: Tableau, provenance: str = "computed-saturation") -> OrbitalIdeal:
    """Extract the top-dimensional component ideal by guarded saturation."""
    m = tau.m
    chart = TmuChart(m, tau.content())
    target = tau.weight_nu().height()
    rc = rank_condition_ideal(tau, chart)
    gens, live_names, removed = _prune_zero_variables(rc.closure_gens, chart.variables)

    def fit(poly):
        """Re-express a full-ring polynomial in the current live ring (or None)."""
        trimmed = _substitute_removed(poly, removed)
        if trimmed.is_zero():
            return None
        return trimmed.restrict(live_names)

    current = groebner(gens)
    for raw_w in rc.witnesses:
        if not current:
            break
        w = fit(raw_w)
        if w is None or w.is_constant():
            continue
        if normal_form(w, current).is_zero():
            continue
        sat = saturate(current, w)
        if any(g.is_constant() for g in sat):
            continue
        if dimension(sat, nvars=len(live_names)) < target:
            continue
        # the saturation's basis replaces I's (the same basis if nothing
        # changed); re-prune bare variables the saturation may have exposed
        current, live_names, removed2 = _prune_zero_variables(sat, live_names)
        removed = removed + removed2
    dim_final = dimension(current, nvars=len(live_names))
    if dim_final != target:
        raise ValueError(
            f"component extraction failed: dim {dim_final} != {target}; "
            f"witnesses tried: {[str(w) for w in rc.witnesses]}"
        )
    return OrbitalIdeal(
        chart=chart,
        basis=current,
        provenance=provenance,
        dim=dim_final,
        tableau=tau,
        removed_vars=removed,
    )


def orbital_multidegree(orb: OrbitalIdeal) -> MultiPoly:
    """Multidegree in the full chart: pruned zero variables multiply back in."""
    w = orb.weight_assignment()
    names = alpha_names(orb.chart.m)
    md = multidegree(orb.basis, w)
    for v in orb.removed_vars:
        md = md * orb.chart.weights[v].linear_form(names)
    return md


def dbar_mv(tau_or_orb) -> RatFunc:
    """Equivariant multiplicity: multidegree over the chart weight product."""
    from .roota import p_mu_factors

    orb = tau_or_orb if isinstance(tau_or_orb, OrbitalIdeal) else orbital_ideal(tau_or_orb)
    md = orbital_multidegree(orb)
    den = {}
    for wgt, mult in p_mu_factors(orb.chart.m, orb.chart.mu):
        key = wgt.alpha_coords()
        den[key] = den.get(key, 0) + mult
    return RatFunc(md, den)


# -- the minor coordinate window --------------------------------------------------------


@dataclass
class PluckerChart:
    m: int
    subsets: tuple        # tuple of tuples; negative entries mean barred columns
    variables: tuple      # u first, then b1.., aligned with subsets
    weights: dict         # variable -> Weight
    kernel: GroebnerBasis       # the affine kernel ideal in the b ring
    homogeneous: GroebnerBasis  # its homogenization, saturated by u, in (b..., u)


def _minor_subsets(m: int):
    """All m-element subsets of (1..m, -1..-m), unbarred part listed first."""
    universe = list(range(1, m + 1)) + [-k for k in range(1, m + 1)]
    return [tuple(c) for c in combinations(universe, m)]


def _minor_polynomial(subset, A, m, variables):
    zero = MultiPoly.zero(variables)
    cols = []
    for c in subset:
        if c > 0:
            col = [MultiPoly.constant(variables, 1 if r == c - 1 else 0) for r in range(m)]
        else:
            b = -c
            col = [A[b - 1][r] for r in range(m)]  # row b of A, as a column
        cols.append(col)
    mat = [[cols[j][i] for j in range(m)] for i in range(m)]
    d = _det(mat, zero)
    return d if d is not None else zero


def plucker_chart(tau: Tableau, orb: OrbitalIdeal | None = None,
                  fixture: dict | None = None) -> PluckerChart:
    """Minor coordinates of the chart image, with the kernel ideal.

    Requires the two-step window: mu = (1,...,1) and at most two columns.
    The kernel comes from eliminating the chart variables; when a fixture
    is supplied its generators must generate the same ideal.  The
    homogenized kernel is saturated by u once here, and the saturated
    basis is stored, so the section counts run no Buchberger.
    """
    m = tau.m
    mu = tau.content()
    lam = tau.shape()
    if any(x != 1 for x in mu):
        raise ValueError("minor window needs mu = (1,...,1)")
    if lam[0] > 2:
        raise ValueError("minor window needs at most two columns")
    orb = orb or orbital_ideal(tau)
    chart = orb.chart
    A = chart.generic_matrix()
    G = orb.basis
    live = G.variables if G.gens else tuple(v for v in chart.variables if v not in orb.removed_vars)

    def to_live(p: MultiPoly) -> MultiPoly:
        try:
            return p.restrict(live)
        except ValueError:
            return None

    minors = []
    subsets = []
    for subset in _minor_subsets(m):
        poly = _minor_polynomial(subset, A, m, chart.variables)
        reduced = to_live(_substitute_removed(poly, orb.removed_vars))
        if reduced is None:
            continue
        nf = normal_form(reduced, G) if G.gens else reduced
        if nf.is_zero():
            continue
        minors.append(nf)
        subsets.append(subset)
    # canonical identity subset first (the homogenizing coordinate)
    id_subset = tuple(range(1, m + 1))
    order = sorted(range(len(subsets)), key=lambda k: (subsets[k] != id_subset, subsets[k]))
    subsets = [subsets[k] for k in order]
    minors = [minors[k] for k in order]
    # coordinates that agree up to sign on the chart are redundant: dropping
    # the later one is a graded isomorphism onto a coordinate subspace
    kept_subsets = []
    kept_minors = []
    for subset, nf in zip(subsets, minors):
        if any(nf == old or nf == -old for old in kept_minors):
            continue
        kept_subsets.append(subset)
        kept_minors.append(nf)
    subsets, minors = kept_subsets, kept_minors
    names = ("u",) + tuple(f"b{k}" for k in range(1, len(subsets)))
    weights = {}
    for name, subset in zip(names, subsets):
        w = Weight.zero(m)
        for c in subset:
            w = w + Weight.eps(m, abs(c))
        weights[name] = w
    # the identity coordinate has weight 0 in the projective weight lattice
    u_w = weights["u"]
    weights = {name: w - u_w for name, w in weights.items()}

    # kernel: eliminate the chart variables from (b - minor) + I
    big_vars = live + tuple(n for n in names if n != "u")
    lifted = []
    for g in G.gens:  # the orbital relations
        lifted.append(g.rename(big_vars))
    for name, minor in zip(names, minors):
        if name == "u":
            continue  # the identity minor is 1 on the chart
        lifted.append(MultiPoly.var(big_vars, name) - minor.rename(big_vars))
    kernel = eliminate(lifted, live)
    if fixture is not None:
        _check_plucker_fixture(kernel, names, subsets, fixture)
    # homogenizing a grevlex basis already gives an ideal saturated by u;
    # the saturation is computed, not assumed, and its basis is the one kept
    hom = homogenize(kernel, "u")
    homogeneous = saturate(hom, MultiPoly.var(hom.variables, "u"))
    return PluckerChart(
        m=m,
        subsets=tuple(subsets),
        variables=names,
        weights=weights,
        kernel=kernel,
        homogeneous=homogeneous,
    )


def _substitute_removed(p: MultiPoly, removed) -> MultiPoly:
    if not removed:
        return p
    keep = {}
    removed_idx = [p.variables.index(v) for v in removed]
    for mon, c in p.terms.items():
        if any(mon[i] for i in removed_idx):
            continue
        keep[mon] = c
    return MultiPoly(p.variables, keep)


def _check_plucker_fixture(kernel, names, subsets, fixture):
    """Equality of the kernel ideal with fixture generators given per-subset labels.

    The reference coordinates may differ from the computed minors by signs
    (a choice of basis vector per wedge coordinate, invisible to every
    weight or dimension count).  A consistent sign vector is solved for
    from the relations themselves, then the ideals must agree exactly.
    """
    label_by_subset = {tuple(s): l for l, s in fixture["minors"].items()}
    rename = {}
    for name, subset in zip(names, subsets):
        label = label_by_subset.get(tuple(subset))
        if label:
            rename[label] = name
    missing = [l for l in fixture["minors"] if l not in rename]
    if missing:
        raise ValueError(f"fixture labels {missing} have no computed minor")
    bn = tuple(n for n in names if n != "u")
    labels = tuple(fixture["minors"].keys())
    parsed = [MultiPoly.parse(text, labels) for text in fixture["generators"]]
    kernel = groebner(kernel)  # returns the chart's basis as it is

    def substituted(poly, flips):
        images = {}
        for label, target in rename.items():
            if target == "u":
                img = MultiPoly.constant(bn, 1)
            else:
                img = MultiPoly.var(bn, target)
            if label in flips:
                img = -img
            images[label] = img
        return poly.substitute(images)

    # Solve for the sign flips over GF(2): per generator, exactly one
    # relative sign pattern of its terms lies in the kernel.
    # unknown: one flip per label not sent to u, by its index in labels
    flip_idx = [v for v, l in enumerate(labels) if rename.get(l) != "u"]
    rows, rhs = [], []
    for poly in parsed:
        mons = sorted(poly.terms)
        if len(mons) == 1:
            continue
        base = mons[0]
        found = None
        for pattern in range(1 << (len(mons) - 1)):
            trial = dict(poly.terms)
            for k, mon in enumerate(mons[1:]):
                if (pattern >> k) & 1:
                    trial[mon] = -trial[mon]
            cand = substituted(MultiPoly(labels, trial), set())
            if normal_form(cand, kernel).is_zero():
                found = pattern
                break
        if found is None:
            raise AssertionError("no sign pattern of a fixture generator lies in the kernel")
        for k, mon in enumerate(mons[1:]):
            # flips change this term's sign against the base term's by the
            # parity of their exponent differences
            rows.append([mon[v] - base[v] for v in flip_idx])
            rhs.append((found >> k) & 1)
    try:
        flips = solve(rows, rhs, len(flip_idx), p=2)
    except ValueError:
        raise AssertionError("inconsistent sign constraints for the fixture") from None
    flip_set = {labels[v] for v, f in zip(flip_idx, flips) if f}
    fixture_gens = [substituted(p, flip_set) for p in parsed]
    if not ideals_equal(fixture_gens, kernel):
        raise AssertionError("computed kernel does not match the fixture ideal")
    return flip_set


def plucker_sections(tau: Tableau, n: int, chart: PluckerChart | None = None,
                     calibrated: bool = True) -> dict:
    """Weight histogram of the degree-n sections of the projective closure.

    With calibrated=True the raw torus weights W are converted to module
    dimension-vector weights via nu = n*lambda - W (the frozen one-time
    normalization); otherwise the raw weights are returned.
    """
    chart = chart or plucker_chart(tau)
    m = chart.m
    ring = tuple(n2 for n2 in chart.variables if n2 != "u") + ("u",)
    wa = WeightAssignment(ring, {v: chart.weights[v] for v in ring}, alpha_names(m))
    raw = multigraded_hilbert(chart.homogeneous, wa, n)
    if not calibrated:
        return raw
    lam = tau.weight_lambda()
    out = {}
    for w, count in raw.items():
        nu = lam * n - w
        out[nu] = out.get(nu, 0) + count
    return out
