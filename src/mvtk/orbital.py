"""Tableaux, chart ideals from rank conditions, multidegrees, and sections.

The pipeline: a semistandard tableau fixes a chain of Jordan types, so a
rank R for each power of each leading principal block of the generic chart
matrix.  The minors of size R + 1 cut out a union of components, on some of
which a rank drops below R.  Z_tau is the component where every rank is
exactly R: saturating by one seeded random combination of the R-minors
per block and power removes the others, and the dimension count certifies
the result.  A multidegree adds over the top components of a union, so a
union left in would give a wrong value and no error.  The multidegree of
the component over the chart weight product is the equivariant
multiplicity.  In the two-step lattice window
(mu = (1,...,1), at most two columns) the same chart embeds into a minor
coordinate space whose homogeneous coordinate ring carries the section
counts, bucketed by torus weight.  Its minors are expanded from the chart
matrix with the pruned variables already zero, in the ring of the others.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb, lcm

from .exactalg import (
    GroebnerBasis,
    HilbertNumerator,
    MultiPoly,
    WeightAssignment,
    dimension,
    eliminate,
    groebner,
    hilbert_numerator,
    homogenize,
    ideals_equal,
    multidegree,
    multigraded_hilbert,
    normal_form,
    saturate,
)
from .exactalg.linalg import solve
from .exactalg.poly import _reduced
from .measures import RatFunc
from .roota import Weight, alpha_names, p_mu_factors, root_positions, subset_weight


# -- tableaux ---------------------------------------------------------------------


class Tableau:
    """Semistandard Young tableau with entries in 1..m."""

    __slots__ = ("rows", "m")

    def __init__(self, rows, m=None):
        self.rows = tuple(tuple(row) for row in rows)
        if not self.rows or any(not r for r in self.rows):
            raise ValueError("empty tableau or empty row")
        entries = [x for row in self.rows for x in row]
        if not all(isinstance(x, int) for x in entries) or not isinstance(m, (int, type(None))):
            raise TypeError(f"tableau entries and m must be ints: {rows!r}, m={m!r}")
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

    def content(self) -> tuple:
        """Number of boxes with each entry 1..m (the chart type mu)."""
        mu = [0] * self.m
        for row in self.rows:
            for x in row:
                mu[x - 1] += 1
        return tuple(mu)

    def restricted_shape(self, i: int) -> tuple:
        """Shape after deleting all boxes with entries > i, padded to m parts."""
        sh = [sum(1 for x in row if x <= i) for row in self.rows]
        return tuple(sh + [0] * (self.m - len(sh)))

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
    rows = tau.rows
    return tuple(rows[i - 1].count(j) if i <= len(rows) else 0 for (i, j) in root_positions(tau.m))


# -- the chart ---------------------------------------------------------------------


class TmuChart:
    """Free coordinates of the transverse slice chart, with torus weights."""

    def __init__(self, m: int, mu):
        self.m = m
        self.mu = tuple(mu)
        if not all(isinstance(x, int) for x in self.mu):
            raise TypeError(f"parts of mu must be ints: {self.mu!r}")
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
    """A * B, each sum over the positions t where both A[r][t] and B[t][c] are nonzero."""
    rows = [[(t, a) for t, a in enumerate(row) if not a.is_zero()] for row in A]
    cols = [{t for t, b in enumerate(col) if not b.is_zero()} for col in zip(*B)]
    return [[sum((a * B[t][c] for t, a in row if t in col), zero) for c, col in enumerate(cols)]
            for row in rows]


class _Minors:
    """The minors of one MultiPoly matrix, keyed by (rows, cols) index tuples.

    Each minor expands along its first row and keeps every sub-minor it
    meets, so the minors of one matrix share their smaller minors.
    """

    def __init__(self, mat, zero):
        self.mat = mat
        self.zero = zero
        self.shape = (len(mat), len(mat[0]) if mat else 0)
        self._memo = {}

    def __call__(self, rows, cols):
        if len(rows) == 1:
            return self.mat[rows[0]][cols[0]]
        d = self._memo.get((rows, cols))
        if d is None:
            row, rest = self.mat[rows[0]], rows[1:]
            d = self.zero
            for k, c in enumerate(cols):
                if not row[c].is_zero():
                    term = row[c] * self(rest, cols[:k] + cols[k + 1:])
                    d = d + term if k % 2 == 0 else d - term
            self._memo[(rows, cols)] = d
        return d

    def blocks(self, t):
        """The t x t (rows, cols) blocks, in lexicographic order."""
        nrows, ncols = self.shape
        if 0 < t <= min(nrows, ncols):
            for rs in combinations(range(nrows), t):
                for cs in combinations(range(ncols), t):
                    yield rs, cs


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
                factor = mat[r][c0] / val
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[r0])]
        mat = [row[:c0] + row[c0 + 1 :] for r, row in enumerate(mat) if r != r0]
        pivots += 1


def _all_minors(minor, t):
    """The nonzero t-minors; raises past MINOR_CAP blocks."""
    nrows, ncols = minor.shape
    if comb(nrows, t) * comb(ncols, t) > MINOR_CAP:
        raise ValueError("minor enumeration cap exceeded")
    return [d for rs, cs in minor.blocks(t) if not (d := minor(rs, cs)).is_zero()]


# enumerating the minors of one matrix stops past MINOR_CAP blocks; the
# exact-rank coefficients of `orbital_ideal` are seeded and bounded
MINOR_CAP = 60000
_EXACT_RANK_SEED = 1
_EXACT_RANK_RANGE = 1000


def _rank_walk(tau: Tableau, chart: TmuChart, reduce):
    """The rank conditions of tau, one step i and one power r at a time.

    Yields (i, r, R, k, minors) for i = 1..m and r = 1, 2, ... up to the
    first r with R = 0.  B_i^r, the r-th power of the leading block of the
    chart matrix through block row i, has rank R = sum_s max(s - r, 0) over
    `tau.restricted_shape(i)` on Z_tau; `minors` are those of B_i^r with k
    constant pivots eliminated (`_pivot_reduce`).  `reduce` takes each
    entry to a congruent one modulo the ideal in hand: congruent entries
    give congruent minors, and the matrices stay small.  It is called
    afresh on each block and each running power, so a caller may enlarge
    the ideal between two yields, as `orbital_ideal`, its one caller, does
    after each step.
    """
    A = chart.generic_matrix()
    zero = MultiPoly.zero(chart.variables)
    for i in range(1, tau.m + 1):
        n_i = chart.offsets[i]
        block = [[reduce(e) for e in row[:n_i]] for row in A[:n_i]]
        power = block
        sh = tau.restricted_shape(i)
        r = 1
        while True:
            R = sum(max(s - r, 0) for s in sh)
            reduced, k = _pivot_reduce(power, zero)
            if k > R:
                raise ValueError(f"rank condition at step {i}, power {r} is infeasible")
            yield i, r, R, k, _Minors(reduced, zero)
            if R == 0:
                break
            power = [[reduce(e) for e in row] for row in _poly_matmul(power, block, zero)]
            r += 1


# -- component extraction --------------------------------------------------------------


@dataclass
class OrbitalIdeal:
    chart: TmuChart
    basis: GroebnerBasis  # reduced, grevlex, in the ring without removed_vars
    dim: int
    tableau: Tableau
    removed_vars: tuple = ()  # variables forced to zero, pruned from the ring

    def weight_assignment(self) -> WeightAssignment:
        live = [v for v in self.chart.variables if v not in self.removed_vars]
        return WeightAssignment(
            live, {v: self.chart.weights[v] for v in live}, alpha_names(self.chart.m)
        )


def _prune_zero_variables(basis, variables):
    """Remove variables that appear as bare members of a reduced basis; substitute zero.

    The result is again a reduced basis: no other member contains a bare
    member's variable (that term would reduce by the bare member), so
    pruning only drops the bare members and shrinks the ring of the rest,
    leaving them reduced, monic and in their order.  The removed variables
    are listed in the order of their bare members.
    """
    removed, rest = [], []
    for g in basis:
        mon = next(iter(g.ints))
        if len(g.ints) == 1 and sum(mon) == 1:
            removed.append(g.variables[mon.index(1)])
        else:
            rest.append(g)
    if not removed:
        return basis, tuple(variables), ()
    names = tuple(v for v in variables if v not in removed)
    basis = GroebnerBasis(names, [g.restrict(names) for g in rest], basis.block)
    return basis, names, tuple(removed)


def _set_zero(p: MultiPoly, names) -> MultiPoly:
    """p with the variables `names` set to zero, in the ring of its other variables."""
    idx = [p.variables.index(v) for v in names]
    kept = {mon: c for mon, c in p.ints.items() if not any(mon[i] for i in idx)}
    return MultiPoly._make(p.variables, *_reduced(p.d, kept)).restrict(
        tuple(v for v in p.variables if v not in names))


def orbital_ideal(tau: Tableau) -> OrbitalIdeal:
    """The ideal of Z_tau in the chart: the rank conditions, saturated by exact-rank elements.

    One walk over the steps i and powers r (`_rank_walk`) gives both.  The
    (R+1)-minors of every B_i^r cut out the union of the varieties where
    each has rank at most R; each step's minors join the basis in hand,
    which reduces the entries of later steps.  Z_tau is the component where
    every rank is exactly R.  For each (i, r) with R - k > 0 (k constant
    pivots), d = sum_g c_g * g runs over the nonzero (R-k)-minors g of the
    same pivot-reduced B_i^r.  Its entries are reduced only modulo the
    basis in hand, which lies in the final ideal I, so d is congruent
    modulo I to an element of the ideal of R-minors of B_i^r, and I : d^inf
    depends only on d modulo I.  So d vanishes on a component where that
    rank drops below R, and on Z_tau only if the c_g are unlucky.  A step
    with R - k <= 0 needs no d: its pivots give rank >= R on the variety of
    the basis in hand, which contains V(I).  After the walk the bare
    variables are pruned; saturating by each d in (i, r) order then removes
    the components of lower rank, pruning bare variables after each.  The
    c_g are drawn uniform in -1000..1000 (`_EXACT_RANK_RANGE`) from
    random.Random(1) (`_EXACT_RANK_SEED`), and the dimension of the result
    must be ht(nu).  A d that vanishes on all of V(I), or a wrong
    dimension, raises ValueError naming the seed and the range.
    """
    chart = TmuChart(tau.m, tau.content())
    target = tau.weight_nu().height()
    rng = random.Random(_EXACT_RANK_SEED)
    certificate = f"seed {_EXACT_RANK_SEED}, coefficients in +-{_EXACT_RANK_RANGE}"
    basis = GroebnerBasis(chart.variables, ())
    gens, exact = [], []

    def reduce(e):
        return e if e.is_constant() else normal_form(e, basis)

    for i, r, R, k, minors in _rank_walk(tau, chart, reduce):
        gens.extend(_all_minors(minors, R + 1 - k))
        if R - k > 0:  # else the k pivots already give rank >= R
            gs = _all_minors(minors, R - k)
            den, acc = lcm(*(g.d for g in gs)), {}   # sum_g c_g * g over the lcm of the g.d
            for g in gs:
                c = rng.randint(-_EXACT_RANK_RANGE, _EXACT_RANK_RANGE) * (den // g.d)
                for mon, v in g.ints.items():
                    acc[mon] = acc.get(mon, 0) + c * v
            acc = {mon: v for mon, v in acc.items() if v}
            exact.append((i, r, R, MultiPoly._make(chart.variables, *_reduced(den, acc))))
        if R == 0 and gens:
            # primitive and deduplicated, the step's minors join the basis in hand
            basis = groebner([basis, *dict.fromkeys(g.primitive()[0] for g in gens)])
            gens = []
    basis, names, removed = _prune_zero_variables(basis, chart.variables)
    for i, r, R, d in exact:
        d = normal_form(_set_zero(d, removed), basis)
        if d.is_constant() and not d.is_zero():
            continue  # the rank is R on all of V(I)
        sat = None if d.is_zero() else saturate(basis, d)
        if sat is None or any(g.is_constant() for g in sat):
            raise ValueError(f"exact-rank element at step {i}, power {r} (R = {R}) vanishes "
                             f"on every component ({certificate})")
        basis, names, more = _prune_zero_variables(sat, names)
        removed += more
    dim_final = dimension(basis, nvars=len(names))
    if dim_final != target:
        raise ValueError(f"component extraction failed: dim {dim_final} != {target} "
                         f"({certificate})")
    return OrbitalIdeal(chart=chart, basis=basis, dim=dim_final, tableau=tau,
                        removed_vars=removed)


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
    homogeneous: GroebnerBasis  # its homogenization, in (b..., u); saturated by u
    numerator: HilbertNumerator  # K-polynomial of its initial ideal, by (degree, weight)

    def weight_assignment(self) -> WeightAssignment:
        """Weights of the homogeneous ring (b..., u)."""
        ring = tuple(v for v in self.variables if v != "u") + ("u",)
        return WeightAssignment(ring, {v: self.weights[v] for v in ring}, alpha_names(self.m))


def _minor_subsets(m: int):
    """All m-element subsets of (1..m, -1..-m), unbarred part listed first."""
    universe = list(range(1, m + 1)) + [-k for k in range(1, m + 1)]
    return [tuple(c) for c in combinations(universe, m)]


def plucker_chart(tau: Tableau, orb: OrbitalIdeal | None = None,
                  fixture: dict | None = None) -> PluckerChart:
    """Minor coordinates of the chart image, with the kernel ideal.

    Requires the two-step window: mu = (1,...,1) and at most two columns.
    The kernel comes from eliminating the chart variables; when a fixture
    is supplied its generators must generate the same ideal.  The
    homogenized kernel basis is already saturated by u (see `homogenize`),
    and it is stored with the K-polynomial of its initial ideal, so the
    section counts run no Buchberger and no pivot recursion.
    """
    m = tau.m
    mu = tau.content()
    lam = tau.shape()
    if any(x != 1 for x in mu):
        raise ValueError("minor window needs mu = (1,...,1)")
    if lam[0] > 2:
        raise ValueError("minor window needs at most two columns")
    orb = orb or orbital_ideal(tau)
    live = orb.weight_assignment().variables
    # the chart matrix with the removed variables at zero, in the ring of the
    # live ones: a minor that vanishes on the chart for that reason is zero
    # before it is expanded
    A = [[_set_zero(e, orb.removed_vars) for e in row] for row in orb.chart.generic_matrix()]
    zero = MultiPoly.zero(live)
    one = MultiPoly.constant(live, 1)
    # [I | A^T]: column c of a subset is the unit vector e_c for c > 0 and
    # row -c of A for c < 0
    minor = _Minors([[one if r == c else zero for c in range(m)] + [row[r] for row in A]
                     for r in range(m)], zero)
    # the identity subset first (the homogenizing coordinate); coordinates
    # that vanish on the chart go, and so does one that agrees up to sign with
    # an earlier one: dropping it is a graded isomorphism onto a coordinate
    # subspace
    id_subset = tuple(range(1, m + 1))
    subsets, minors, seen = [], [], set()
    for subset in sorted(_minor_subsets(m), key=lambda s: (s != id_subset, s)):
        poly = minor(tuple(range(m)), tuple(c - 1 if c > 0 else m - c - 1 for c in subset))
        nf = normal_form(poly, orb.basis)
        if nf.is_zero() or nf in seen:
            continue
        seen.update((nf, -nf))
        subsets.append(subset)
        minors.append(nf)
    names = ("u",) + tuple(f"b{k}" for k in range(1, len(subsets)))
    # the identity coordinate has weight 0 in the projective weight lattice
    u_w = subset_weight(m, id_subset)
    weights = {name: subset_weight(m, map(abs, s)) - u_w for name, s in zip(names, subsets)}

    # kernel: eliminate the chart variables from (b - minor) + I, past the
    # identity minor (1 on the chart); the orbital basis, in the chart
    # variables only, enters as a basis
    big_vars = live + names[1:]
    lifted = [orb.basis] + [MultiPoly.var(big_vars, name) - nf.rename(big_vars)
                            for name, nf in zip(names[1:], minors[1:])]
    kernel = eliminate(lifted, live)
    if fixture is not None:
        _check_plucker_fixture(kernel, names, subsets, fixture)
    homogeneous = homogenize(kernel, "u")
    chart = PluckerChart(
        m=m,
        subsets=tuple(subsets),
        variables=names,
        weights=weights,
        kernel=kernel,
        homogeneous=homogeneous,
        numerator=None,
    )
    chart.numerator = hilbert_numerator(homogeneous, chart.weight_assignment())
    return chart


def _check_plucker_fixture(kernel, names, subsets, fixture):
    """Equality of the kernel ideal with fixture generators given per-subset labels.

    The reference coordinates may differ from the computed minors by signs
    (a choice of basis vector per wedge coordinate, invisible to every
    weight or dimension count).  A consistent sign vector is solved for
    from the relations themselves, then the ideals must agree exactly.
    """
    label_by_subset = {tuple(s): l for l, s in fixture["minors"].items()}
    rename = {label_by_subset[tuple(s)]: name for name, s in zip(names, subsets)
              if tuple(s) in label_by_subset}
    missing = [l for l in fixture["minors"] if l not in rename]
    if missing:
        raise ValueError(f"fixture labels {missing} have no computed minor")
    bn = tuple(n for n in names if n != "u")
    labels = tuple(fixture["minors"].keys())
    parsed = [MultiPoly.parse(text, labels) for text in fixture["generators"]]
    images = {label: MultiPoly.constant(bn, 1) if target == "u" else MultiPoly.var(bn, target)
              for label, target in rename.items()}

    def substituted(poly, flips):
        return poly.substitute({l: -img if l in flips else img for l, img in images.items()})

    # Solve for the sign flips over GF(2): per generator, exactly one
    # relative sign pattern of its terms lies in the kernel.
    # unknown: one flip per label not sent to u, by its index in labels
    flip_idx = [v for v, l in enumerate(labels) if rename.get(l) != "u"]
    rows, rhs = [], []
    for poly in parsed:
        mons = sorted(poly.ints)
        if len(mons) == 1:
            continue
        base = mons[0]
        # normal forms are linear: reduce each substituted term once, then
        # try the patterns as signed sums of the reduced terms
        terms = [MultiPoly._make(labels, poly.d, {mon: poly.ints[mon]}) for mon in mons]
        head, *tail = [normal_form(substituted(term, set()), kernel) for term in terms]
        found = next((pattern for pattern in range(1 << len(tail)) if sum(
            (-r if pattern >> k & 1 else r for k, r in enumerate(tail)), head).is_zero()), None)
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


def plucker_sections(tau: Tableau, n: int, chart: PluckerChart | None = None) -> dict:
    """Weight histogram of the degree-n sections of the projective closure.

    The raw torus weights W are converted to module dimension-vector
    weights via nu = n*lambda - W (the frozen one-time normalization).
    """
    chart = chart or plucker_chart(tau)
    raw = multigraded_hilbert(chart.numerator, chart.weight_assignment(), n)
    lam = tau.weight_lambda()
    out = {}
    for w, count in raw.items():
        nu = lam * n - w
        out[nu] = out.get(nu, 0) + count
    return out
