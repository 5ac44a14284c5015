"""Type A root and weight combinatorics.

Weights live in the lattice Z^m / Z(1,...,1), stored canonically with last
entry zero.  The positive roots eps_i - eps_j (i < j) are kept in the fixed
convex order (1,2), (1,3), ..., (1,m), (2,3), ..., (m-1,m), which matches
row-major reading of an upper-triangular matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations
from math import factorial
from operator import add, neg

from .exactalg.poly import MultiPoly, _exact, _reduced


@lru_cache(maxsize=None)
def alpha_names(m: int) -> tuple:
    """Variable names for the simple-root coordinates of A_{m-1}."""
    return tuple(f"a{i}" for i in range(1, m))


class Weight:
    """Element of Z^m / Z(1,...,1), canonical form has last entry 0.  `Weight(entries)`
    refuses a non-int entry and shifts the last to 0; `_make` trusts canonical int entries;
    `eps`, `root` and `from_alpha` check their arguments and compute in closed form."""

    __slots__ = ("m", "entries")

    def __init__(self, entries):
        entries = tuple(entries)
        if not entries or not all(isinstance(e, int) for e in entries):
            raise ValueError(f"a weight takes one or more integer entries, not {entries}")
        last = entries[-1]
        self.entries = tuple([e - last for e in entries])
        self.m = len(entries)

    # -- constructors

    @classmethod
    def _make(cls, entries: tuple) -> "Weight":
        """Trusted constructor: int entries already canonical (last entry 0)."""
        w = object.__new__(cls)
        w.entries = entries
        w.m = len(entries)
        return w

    @classmethod
    def zero(cls, m: int) -> "Weight":
        return cls((0,) * m)

    @classmethod
    def eps(cls, m: int, i: int) -> "Weight":
        """eps_i, 1 <= i <= m: the unit vector for i < m, and eps_m is (-1, ..., -1, 0)."""
        if not 1 <= i <= m:
            raise ValueError(f"eps_{i} undefined for m = {m}")
        entries = [-1 if i == m else 0] * m
        entries[i - 1] += 1
        return cls._make(tuple(entries))

    @classmethod
    @lru_cache(maxsize=None)
    def alpha(cls, m: int, i: int) -> "Weight":
        """The simple root alpha_i, built once per (m, i): weights are never mutated."""
        return cls.root(m, i, i + 1)

    @classmethod
    def root(cls, m: int, i: int, j: int) -> "Weight":
        """The positive root eps_i - eps_j, 1 <= i < j <= m, shifted up by 1 when j = m."""
        if not 1 <= i < j <= m:
            raise ValueError(f"eps_{i} - eps_{j} is not a positive root for m = {m}")
        entries = [1 if j == m else 0] * m
        entries[i - 1] += 1
        entries[j - 1] -= 1
        return cls._make(tuple(entries))

    @classmethod
    def from_alpha(cls, m: int, coeffs) -> "Weight":
        """sum_i c_i alpha_i for m - 1 integers c_i: the eps-entries c_k - c_{k-1}
        (c_0 = c_m = 0), shifted by c_{m-1} so that the last is 0."""
        c = tuple(coeffs)
        if len(c) != m - 1 or not all(isinstance(x, int) for x in c):
            raise ValueError(f"rank {m - 1} takes {m - 1} integer alpha coordinates, not {c}")
        prev = (0,) + c
        return cls._make(tuple([b - a + prev[-1] for a, b in zip(prev, c + (0,))]))

    # -- arithmetic: canonical operands give canonical results

    def __add__(self, other: "Weight") -> "Weight":
        if self.m != other.m:
            raise ValueError("rank mismatch")
        return Weight._make(tuple(map(add, self.entries, other.entries)))

    def __sub__(self, other: "Weight") -> "Weight":
        return self + (-other)

    def __neg__(self) -> "Weight":
        return Weight._make(tuple(map(neg, self.entries)))

    def __mul__(self, k: int) -> "Weight":
        if not isinstance(k, int):
            raise TypeError(f"{type(k).__name__} {k!r} scales a weight; pass an int")
        return Weight._make(tuple([a * k for a in self.entries]))

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
        return tuple(accumulate([e - shift for e in self.entries[:-1]]))

    def in_Q_plus(self) -> bool:
        return self.in_root_lattice() and all(c >= 0 for c in self.alpha_coords())

    def height(self) -> int:
        """Sum of the alpha coordinates: sum_{i<m} (m - i) e_i - (m - 1) sum(e) / 2."""
        m, total = self.m, sum(self.entries)
        if total % m:
            raise ValueError(f"{self} is not in the root lattice")
        return sum([(m - i) * e for i, e in enumerate(self.entries, 1)]) - (m - 1) * total // 2

    # -- linear form in the alpha variables

    def linear_form(self, names=None) -> MultiPoly:
        """Expansion in the simple-root basis, as a degree-1 polynomial.

        Rational coefficients can occur off the root lattice (the alpha_i are
        only a Q-basis of P tensor Q); on Q the coefficients are integers.
        """
        names = tuple(names) if names is not None else alpha_names(self.m)
        m, total = self.m, sum(self.entries)
        ints, acc = {}, 0
        for k in range(m - 1):
            acc += m * self.entries[k] - total  # m times the coefficient of alpha_(k+1)
            if acc:
                ints[tuple(int(j == k) for j in range(len(names)))] = acc
        return MultiPoly._make(names, *_reduced(m, ints))

    def pair(self, point) -> Fraction:
        """Evaluate the linear form at x in the trace-zero Cartan, exactly: ints and Fractions.

        The point has m entries, one per entry of the weight."""
        if len(point) != self.m:
            raise ValueError(f"pairing needs a point of {self.m} entries, not {point!r}")
        return sum([e * _exact(x) for e, x in zip(self.entries, point)], Fraction(0))

    def __repr__(self):
        return f"Weight({list(self.entries)})"

    def __str__(self):
        return "[" + ",".join(str(e) for e in self.entries) + "]"


def positive_roots(m: int) -> tuple:
    """All eps_i - eps_j with i < j, in the fixed convex order."""
    return tuple(Weight.root(m, i, j) for i in range(1, m) for j in range(i + 1, m + 1))


def root_positions(m: int) -> tuple:
    return tuple((i, j) for i in range(1, m) for j in range(i + 1, m + 1))


def lusztig_weight(m: int, counts) -> Weight:
    """sum of n_ij (eps_i - eps_j), one count n_ij per positive root in the fixed order
    (a Lusztig datum, or the exponents of a monomial in the entries n_ij): the eps-entry
    k is the row sum of the counts n_kj minus the column sum of the counts n_ik."""
    counts, positions = tuple(counts), root_positions(m)
    if len(counts) != len(positions):
        raise ValueError(f"rank {m - 1} takes {len(positions)} counts, one per positive root, "
                         f"not {counts}")
    entries = [0] * m
    for n, (i, j) in zip(counts, positions):
        entries[i - 1] += n
        entries[j - 1] -= n
    return Weight(entries)


# -- sequences and shuffles ----------------------------------------------------


def _counts(items, top: int, what: str) -> list:
    """How often each of 1..top occurs in items; ValueError for any other item."""
    counts = [0] * top
    for x in items:
        if not 1 <= x <= top:
            raise ValueError(f"{what} {x} is not in 1..{top}")
        counts[x - 1] += 1
    return counts


def seq_weight(m: int, seq) -> Weight:
    """sum of alpha_i over the letters i of seq, each in 1..m-1."""
    return Weight.from_alpha(m, _counts(seq, m - 1, "letter"))


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


# -- the chart weight product ---------------------------------------------------


def p_mu(m: int, mu) -> MultiPoly:
    """Product over i<j of (eps_i - eps_j)^{mu_j} in the alpha variables."""
    names = alpha_names(m)
    result = MultiPoly.constant(names, 1)
    for root, mult in p_mu_factors(m, mu):
        result = result * root.linear_form(names) ** mult
    return result


def p_mu_factors(m: int, mu) -> list:
    """The factors of p_mu as a list of (root Weight, multiplicity)."""
    mu = tuple(mu)
    if not all(isinstance(x, int) for x in mu):
        raise TypeError(f"parts of mu must be ints: {mu!r}")
    if len(mu) != m:
        raise ValueError("mu must have m parts (pad with zeros)")
    if any(x < 0 for x in mu) or any(mu[i] < mu[i + 1] for i in range(m - 1)):
        raise ValueError("mu must be dominant (weakly decreasing, nonnegative)")
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
    """sum of eps_c over the entries c of subset (a repeated entry counts again), each in 1..m."""
    return Weight(_counts(subset, m, "index"))


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
    if n == 0:
        return 1, {Weight.zero(m): 1}

    interval = [
        s
        for s in _orbit_subsets(m, i)
        if all(s[k] <= gamma[k] for k in range(i))
    ]
    # all s automatically dominate omega (s_k >= k+1)
    below = [
        [t for t, a in enumerate(interval) if all(x <= y for x, y in zip(a, b))]
        for b in interval
    ]
    omega_w = subset_weight(m, tuple(range(1, i + 1)))
    grades = [(omega_w - subset_weight(m, s)).entries for s in interval]
    tables = multichains(below, grades, n)
    histogram: dict = {}
    for t in below[interval.index(gamma)]:
        for grade, cnt in tables[t].items():
            w = Weight(grade)
            histogram[w] = histogram.get(w, 0) + cnt
    return sum(histogram.values()), histogram


def multichains(below, grades, n: int) -> list:
    """Multichains t_1 <= ... <= t_n in a finite poset, counted by total grade.

    The elements are 0, ..., len(below) - 1, and below[t] lists the
    elements <= t in ascending order, t itself included.  grades[t] is a
    tuple of ints.  Returns one dict per element t: the total grade
    grades[t_1] + ... + grades[t_n] (entrywise) of each multichain with
    t_n = t, mapped to the number of such multichains.  Summed over all t,
    the counts are the poset's zeta polynomial at n + 1 (Stanley, EC1,
    sec. 3.12).
    """
    if type(n) is not int:
        raise TypeError(f"multichains need an int n, not {n!r}")
    if n < 1:
        raise ValueError("multichains need n >= 1")
    tables = [{grade: 1} for grade in grades]
    for _ in range(n - 1):
        nxt = []
        for top, grade in enumerate(grades):
            acc: dict = {}
            for t in below[top]:
                for total, cnt in tables[t].items():
                    key = tuple(map(add, total, grade))
                    acc[key] = acc.get(key, 0) + cnt
            nxt.append(acc)
        tables = nxt
    return tables
