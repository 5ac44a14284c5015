"""Type A root and weight combinatorics.

Weights live in the lattice Z^m / Z(1,...,1), stored canonically with last
entry zero.  The positive roots eps_i - eps_j (i < j) are kept in the fixed
convex order (1,2), (1,3), ..., (1,m), (2,3), ..., (m-1,m), which matches
row-major reading of an upper-triangular matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial

from .exactalg.poly import MultiPoly


def alpha_names(m: int) -> tuple:
    """Variable names for the simple-root coordinates of A_{m-1}."""
    return tuple(f"a{i}" for i in range(1, m))


class Weight:
    """Element of Z^m / Z(1,...,1), canonical form has last entry 0."""

    __slots__ = ("m", "entries")

    def __init__(self, entries):
        entries = tuple(int(e) for e in entries)
        if not entries:
            raise ValueError("empty weight")
        last = entries[-1]
        self.entries = tuple(e - last for e in entries)
        self.m = len(entries)

    # -- constructors

    @classmethod
    def zero(cls, m: int) -> "Weight":
        return cls((0,) * m)

    @classmethod
    def eps(cls, m: int, i: int) -> "Weight":
        return cls(tuple(1 if k == i - 1 else 0 for k in range(m)))

    @classmethod
    def alpha(cls, m: int, i: int) -> "Weight":
        if not 1 <= i <= m - 1:
            raise ValueError(f"alpha_{i} undefined for rank {m - 1}")
        return cls.eps(m, i) - cls.eps(m, i + 1)

    @classmethod
    def root(cls, m: int, i: int, j: int) -> "Weight":
        """eps_i - eps_j."""
        return cls.eps(m, i) - cls.eps(m, j)

    @classmethod
    def from_alpha(cls, m: int, coeffs) -> "Weight":
        w = cls.zero(m)
        for i, c in enumerate(coeffs, start=1):
            if c:
                w = w + cls.alpha(m, i) * c
        return w

    # -- arithmetic

    def __add__(self, other: "Weight") -> "Weight":
        if self.m != other.m:
            raise ValueError("rank mismatch")
        return Weight(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Weight") -> "Weight":
        return self + (-other)

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.entries))

    def __mul__(self, k: int) -> "Weight":
        return Weight(tuple(a * k for a in self.entries))

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, Weight) and self.m == other.m and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __lt__(self, other):
        return self.entries < other.entries

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    # -- root lattice coordinates

    def in_root_lattice(self) -> bool:
        return sum(self.entries) % self.m == 0

    def alpha_coords(self) -> tuple:
        """Coefficients on the simple roots; defined for root-lattice elements."""
        if not self.in_root_lattice():
            raise ValueError(f"{self} is not in the root lattice")
        shift = sum(self.entries) // self.m
        sum_zero = [e - shift for e in self.entries]
        coords = []
        acc = 0
        for e in sum_zero[:-1]:
            acc += e
            coords.append(acc)
        return tuple(coords)

    def in_Q_plus(self) -> bool:
        return self.in_root_lattice() and all(c >= 0 for c in self.alpha_coords())

    def height(self) -> int:
        """Sum of the alpha coordinates (the pairing with rho-check)."""
        return sum(self.alpha_coords())

    def dominates(self, other: "Weight") -> bool:
        return (self - other).in_Q_plus()

    # -- linear form in the alpha variables

    def linear_form(self, names=None) -> MultiPoly:
        """Expansion in the simple-root basis, as a degree-1 polynomial.

        Rational coefficients can occur off the root lattice (the alpha_i are
        only a Q-basis of P tensor Q); on Q the coefficients are integers.
        """
        names = tuple(names) if names is not None else alpha_names(self.m)
        n = len(names)
        shift = Fraction(sum(self.entries), self.m)
        acc = Fraction(0)
        terms = {}
        for k in range(self.m - 1):
            acc += self.entries[k] - shift
            if acc:
                mon = tuple(1 if j == k else 0 for j in range(n))
                terms[mon] = acc
        return MultiPoly(names, terms)

    def pair(self, point) -> Fraction:
        """Evaluate the linear form at x in the trace-zero Cartan, exactly."""
        total = Fraction(0)
        for e, x in zip(self.entries, point):
            total += e * Fraction(x)
        return total

    def __repr__(self):
        return f"Weight({list(self.entries)})"

    def __str__(self):
        return "[" + ",".join(str(e) for e in self.entries) + "]"


def positive_roots(m: int) -> tuple:
    """All eps_i - eps_j with i < j, in the fixed convex order."""
    return tuple(Weight.root(m, i, j) for i in range(1, m) for j in range(i + 1, m + 1))


def root_positions(m: int) -> tuple:
    return tuple((i, j) for i in range(1, m) for j in range(i + 1, m + 1))


# -- sequences and shuffles ----------------------------------------------------


def seq_weight(m: int, seq) -> Weight:
    w = Weight.zero(m)
    for i in seq:
        w = w + Weight.alpha(m, i)
    return w


def sequences(m: int, nu: Weight) -> list:
    """All sequences over {1..m-1} whose simple-root sum is nu, lexicographic."""
    if not nu.in_Q_plus():
        raise ValueError(f"{nu} is not a nonnegative root-lattice element")
    coords = list(nu.alpha_coords())

    out = []

    def rec(prefix, remaining):
        if all(c == 0 for c in remaining):
            out.append(tuple(prefix))
            return
        for i in range(1, m):
            if remaining[i - 1] > 0:
                remaining[i - 1] -= 1
                prefix.append(i)
                rec(prefix, remaining)
                prefix.pop()
                remaining[i - 1] += 1

    rec([], coords)
    return out


def sequence_count(nu: Weight) -> int:
    coords = nu.alpha_coords()
    total = sum(coords)
    count = factorial(total)
    for c in coords:
        count //= factorial(c)
    return count


def shuffles(j, k) -> list:
    """The multiset j-shuffle-k as a list with repetitions, length C(p+q, p)."""
    j = tuple(j)
    k = tuple(k)
    out = []

    def rec(a, b, prefix):
        if not a:
            out.append(prefix + b)
            return
        if not b:
            out.append(prefix + a)
            return
        rec(a[1:], b, prefix + a[:1])
        rec(a, b[1:], prefix + b[:1])

    rec(j, k, ())
    return out


def shuffle_multiplicity(j, k, s) -> int:
    """How often s occurs in shuffles(j, k), in O(|j| * |k|) steps.

    ways[b] after row a counts the interleavings of j[:a] and k[:b] that
    spell s[:a + b].
    """
    j, k, s = tuple(j), tuple(k), tuple(s)
    if len(s) != len(j) + len(k):
        return 0
    ways = [1] * (len(k) + 1)
    for b in range(1, len(k) + 1):
        ways[b] = ways[b - 1] if k[b - 1] == s[b - 1] else 0
    for a in range(1, len(j) + 1):
        ways[0] = ways[0] if j[a - 1] == s[a - 1] else 0
        for b in range(1, len(k) + 1):
            letter = s[a + b - 1]
            ways[b] = (ways[b] if j[a - 1] == letter else 0) + (
                ways[b - 1] if k[b - 1] == letter else 0
            )
    return ways[-1]


def shuffle_permutations(p: int, q: int):
    """Permutations sigma of {1..p+q} increasing on the first p and last q slots.

    Returned as the inverse images (sigma^{-1}(1), ..., sigma^{-1}(p+q)),
    which is the slot order in which the merged arguments appear.
    """
    n = p + q
    for first_positions in combinations(range(n), p):
        # sigma maps 1..p monotonically onto first_positions
        rest = [i for i in range(n) if i not in first_positions]
        sigma_inv = [0] * n
        for a, pos in enumerate(first_positions):
            sigma_inv[pos] = a + 1
        for b, pos in enumerate(rest):
            sigma_inv[pos] = p + b + 1
        yield tuple(sigma_inv)


def partial_sums(m: int, seq) -> list:
    """Weights beta_0 = 0, beta_1, ..., beta_p of a sequence."""
    sums = [Weight.zero(m)]
    for i in seq:
        sums.append(sums[-1] + Weight.alpha(m, i))
    return sums


# -- the chart weight product ---------------------------------------------------


def p_mu(m: int, mu) -> MultiPoly:
    """Product over i<j of (eps_i - eps_j)^{mu_j} in the alpha variables."""
    mu = tuple(int(x) for x in mu)
    if len(mu) != m:
        raise ValueError("mu must have m parts (pad with zeros)")
    if any(x < 0 for x in mu) or any(mu[i] < mu[i + 1] for i in range(m - 1)):
        raise ValueError("mu must be dominant (weakly decreasing, nonnegative)")
    names = alpha_names(m)
    result = MultiPoly.constant(names, 1)
    for i in range(1, m):
        for j in range(i + 1, m + 1):
            if mu[j - 1]:
                result = result * Weight.root(m, i, j).linear_form(names) ** mu[j - 1]
    return result


def p_mu_factors(m: int, mu) -> list:
    """The same product as a list of (linear form Weight, multiplicity)."""
    mu = tuple(int(x) for x in mu)
    out = []
    for i in range(1, m):
        for j in range(i + 1, m + 1):
            if mu[j - 1]:
                out.append((Weight.root(m, i, j), mu[j - 1]))
    return out


# -- minuscule poset chains ------------------------------------------------------


def _orbit_subsets(m: int, i: int):
    return combinations(range(1, m + 1), i)


def subset_weight(m: int, subset) -> Weight:
    w = Weight.zero(m)
    for c in subset:
        w = w + Weight.eps(m, c)
    return w


def minuscule_chains(m: int, i: int, gamma, n: int):
    """Multichains omega_i <= tau_1 <= ... <= tau_n <= gamma in W.omega_i.

    gamma is an i-subset of {1..m} or the corresponding Weight.  Returns
    (count, histogram) where the histogram buckets chains by the total
    weight sum_k (omega_i - tau_k).
    """
    if isinstance(gamma, Weight):
        match = [s for s in _orbit_subsets(m, i) if subset_weight(m, s) == gamma]
        if not match:
            raise ValueError("gamma is not in the orbit of omega_i")
        gamma = match[0]
    gamma = tuple(sorted(gamma))
    if len(gamma) != i or any(not 1 <= c <= m for c in gamma) or len(set(gamma)) != i:
        raise ValueError("gamma is not an i-subset of {1..m}")

    omega = tuple(range(1, i + 1))
    interval = [
        s
        for s in _orbit_subsets(m, i)
        if all(s[k] <= gamma[k] for k in range(i))
    ]
    # all s automatically dominate omega (s_k >= k+1)
    index = {s: t for t, s in enumerate(interval)}
    leq = [
        [all(a[k] <= b[k] for k in range(i)) for b in interval] for a in interval
    ]
    omega_w = subset_weight(m, omega)
    return _minuscule_chains_dp(interval, leq, index[gamma], omega_w, m, n)


def _minuscule_chains_dp(interval, leq, gamma_idx, omega_w, m, n):
    # f[t] maps the accumulated weight of (tau_1, ..., tau_k ending at t)
    # to the number of such multichains
    f = [dict() for _ in interval]
    for t, s in enumerate(interval):
        f[t] = {omega_w - subset_weight(m, s): 1}
    for _ in range(n - 1):
        g = [dict() for _ in interval]
        for t2, s2 in enumerate(interval):
            contrib = omega_w - subset_weight(m, s2)
            for t in range(len(interval)):
                if leq[t][t2]:
                    for acc, cnt in f[t].items():
                        key = acc + contrib
                        g[t2][key] = g[t2].get(key, 0) + cnt
        f = g
    histogram: dict = {}
    if n == 0:
        return 1, {Weight.zero(m): 1}
    for t in range(len(interval)):
        if leq[t][gamma_idx]:
            for acc, cnt in f[t].items():
                histogram[acc] = histogram.get(acc, 0) + cnt
    return sum(histogram.values()), histogram
