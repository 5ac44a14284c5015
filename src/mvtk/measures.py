"""Rational functions over the root lattice, and exponential sums.

A RatFunc is a polynomial numerator over a product of linear forms.  Every
denominator of the sequence calculus is a product of root-lattice weights
beta_k - beta_j, so `den` keys each factor by an integer coefficient tuple,
for a weight its `alpha_coords()`: a primitive tuple (coprime entries, the
first nonzero one positive) mapped to its multiplicity.  The content of a
factor (its gcd, signed like its first nonzero coefficient) is divided out
of the numerator once, when the factor enters; forms in other variables,
such as the x_j - x_i of the symbolic n_x, are keyed the same way.  The
numerator is kept cancelled against the denominator, never by a general
multivariate gcd: a factor f is divided out by exact division, tried only
when the numerator vanishes at a fixed point of the hyperplane f = 0 over
F_P.  A nonzero value there proves that f does not divide it: if num = f*q
and D is the lcm of num's coefficient denominators, D*q is integral by
Gauss's lemma (f is primitive), so num vanishes mod P wherever f does as
long as P does not divide D.  Each rational function thus has exactly one
(num, den), and equality compares the two.

An ExpSum is a finite weight-indexed family of RatFunc coefficients, the
Fourier-transform picture of a simplex measure: the product is convolution
on exponents.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm

from .exactalg.groebner import _exact_poly_division
from .exactalg.poly import MultiPoly, _exact, _scaled_point
from .roota import Weight, alpha_names, partial_sums, seq_weight


def _form_key(form, n: int):
    """(key, content) with form == content * key, key as in RatFunc.den.

    The form is a linear MultiPoly or a tuple of integer coefficients over
    n variables.
    """
    denom = 1
    if isinstance(form, MultiPoly):
        coeffs = [Fraction(0)] * len(form.variables)
        for mon, c in form.terms.items():
            if sum(mon) != 1:
                raise ValueError("denominator factors must be homogeneous linear forms")
            coeffs[mon.index(1)] = c
        denom = lcm(*(c.denominator for c in coeffs))
        form = tuple(int(c * denom) for c in coeffs)
    if len(form) != n:
        raise ValueError("denominator form and numerator have different variables")
    g = gcd(*form)
    if g == 0:
        raise ValueError("denominator factors must be nonzero linear forms")
    for c in form:
        if c:
            break
    if c < 0:
        g = -g
    if g == 1 and denom == 1:
        return form, 1
    return tuple(c // g for c in form), Fraction(g, denom)


@lru_cache(maxsize=4096)
def _form_poly(key: tuple, variables: tuple) -> MultiPoly:
    """The linear form of a denominator key, as a polynomial."""
    n = len(key)
    return MultiPoly(variables, {
        tuple(int(i == k) for i in range(n)): c for k, c in enumerate(key) if c
    })


# The hyperplane test of RatFunc._cancel runs over F_P at a fixed point; the
# point and the prime affect only how often it must fall back to division.
_P = (1 << 61) - 1


@lru_cache(maxsize=16)
def _base_point(n: int) -> tuple:
    # powers of one constant, not multiples of it: a homogeneous numerator at
    # c * (1, ..., n) is its value at small integers, which can vanish by structure
    return tuple(pow(0x9E3779B97F4A7C15, k + 1, _P) for k in range(n))


def _residues(num: MultiPoly):
    """(terms, degree) of num at the base point mod _P; None if _P divides a denominator.

    Each term is (monomial, value of the term at the base point).
    """
    deg = num.total_degree()
    pw = []
    for x in _base_point(len(num.variables)):
        powers = [1]
        for _ in range(deg):
            powers.append(powers[-1] * x % _P)
        pw.append(powers)
    terms = []
    for mon, c in num.terms.items():
        d = c.denominator
        if d % _P == 0:
            return None
        r = c.numerator
        if d != 1:
            r *= pow(d, -1, _P)
        for e, p in zip(mon, pw):
            if e:
                r *= p[e]
        terms.append((mon, r % _P))
    return terms, deg


@lru_cache(maxsize=4096)
def _hyperplane_point(key: tuple):
    """(j, x_j / b_j) for the point of key = 0 that differs from the base point b
    only in coordinate j, the first nonzero entry of key; None when _P divides key[j]."""
    j = next(k for k, c in enumerate(key) if c)
    if key[j] % _P == 0:
        return None
    base = _base_point(len(key))
    rest = sum(c * b for k, (c, b) in enumerate(zip(key, base)) if k != j)
    return j, -rest * pow(key[j] * base[j], -1, _P) % _P


def _off_hyperplane(residues, key: tuple) -> bool:
    """True when num, given by its residues, is nonzero at a point of key = 0 mod _P.

    At the point of _hyperplane_point each term's value at the base point
    is rescaled by (x_j / b_j)^e_j.  The test is skipped (False) when _P
    divides key[j].
    """
    point = _hyperplane_point(key)
    if point is None:
        return False
    j, ratio = point
    terms, deg = residues
    by_exponent = [0] * (deg + 1)
    for mon, r in terms:
        by_exponent[mon[j]] += r
    total = 0
    for s in reversed(by_exponent):
        total = (total * ratio + s) % _P
    return total != 0


class RatFunc:
    """num / prod of linear forms, kept factored and cancelled.

    Every RatFunc keeps one invariant: `den` maps primitive integer
    coefficient tuples (see the module docstring) to positive
    multiplicities, no key's form divides `num`, and a zero `num` has an
    empty `den`.  `RatFunc(...)` is the validating constructor: it also
    takes non-primitive tuples and linear MultiPoly forms as keys, moves
    their content into the numerator and cancels.  `RatFunc._make` trusts
    its arguments and checks nothing; sums and products, whose keys are
    already primitive, build with it and then cancel, and negation and
    nonzero scalar multiples, which keep a quotient cancelled, do not.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den=None):
        n = len(num.variables)
        clean: dict = {}
        scale = 1
        for form, mult in (den or {}).items():
            if mult == 0:
                continue
            if mult < 0:
                raise ValueError("negative denominator multiplicity")
            key, content = _form_key(form, n)
            if content != 1:
                scale *= content**mult
            clean[key] = clean.get(key, 0) + mult
        if scale != 1:
            num = num / scale
        self.num = num
        self.den = clean
        self._cancel()

    @classmethod
    def _make(cls, num: MultiPoly, den: dict) -> "RatFunc":
        """A RatFunc from parts that already meet the invariant; den is not copied."""
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    def _cancel(self) -> "RatFunc":
        """Divide out each denominator factor as often as it divides num; returns self.

        A factor is divided only after num vanishes at the hyperplane test's
        point (see the module docstring); a nonzero value rejects it
        without a division.  Neither the point nor _P decides a result.
        """
        num = self.num
        if num.is_zero():
            self.den = {}
            return self
        if num.is_constant() or not self.den:
            return self
        variables = num.variables
        residues = _residues(num)
        for key, mult in list(self.den.items()):
            while mult:
                if residues is not None and _off_hyperplane(residues, key):
                    break
                try:
                    num = _exact_poly_division(num, _form_poly(key, variables))
                except ArithmeticError:
                    break
                residues = _residues(num)
                mult -= 1
            if mult:
                self.den[key] = mult
            else:
                del self.den[key]
        self.num = num
        return self

    # -- constructors

    @classmethod
    def from_poly(cls, p: MultiPoly) -> "RatFunc":
        return cls(p, {})

    @classmethod
    def constant(cls, variables, c) -> "RatFunc":
        return cls(MultiPoly.constant(variables, c), {})

    @property
    def variables(self):
        return self.num.variables

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def degree(self) -> int:
        """Degree as a rational function (numerator minus denominator)."""
        return self.num.total_degree() - sum(self.den.values())

    # -- arithmetic

    def _common_den(self, other: "RatFunc"):
        common = dict(self.den)
        for key, mult in other.den.items():
            if mult > common.get(key, 0):
                common[key] = mult
        return self._lift(common), other._lift(common), common

    def _lift(self, common: dict) -> MultiPoly:
        """num over the denominator `common`: one product, by the forms den lacks."""
        variables = self.variables
        missing = None
        for key, mult in common.items():
            for _ in range(mult - self.den.get(key, 0)):
                form = _form_poly(key, variables)
                missing = form if missing is None else missing * form
        return self.num if missing is None else self.num * missing

    def __add__(self, other):
        if not isinstance(other, RatFunc):
            other = RatFunc.constant(self.variables, other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        a, b, common = self._common_den(other)
        return RatFunc._make(a + b, common)._cancel()

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._make(-self.num, dict(self.den))

    def __sub__(self, other):
        if not isinstance(other, RatFunc):
            other = RatFunc.constant(self.variables, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RatFunc):
            den = dict(self.den)
            for key, mult in other.den.items():
                den[key] = den.get(key, 0) + mult
            return RatFunc._make(self.num * other.num, den)._cancel()
        num = self.num * other
        if isinstance(other, MultiPoly):
            return RatFunc._make(num, dict(self.den))._cancel()
        return RatFunc._make(num, {} if num.is_zero() else dict(self.den))

    __rmul__ = __mul__

    def divide_by_form(self, form) -> "RatFunc":
        """self / form, for a linear MultiPoly form or a coefficient tuple."""
        den = dict(self.den)
        den[form] = den.get(form, 0) + 1
        return RatFunc(self.num, den)

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            other = RatFunc.from_poly(other)
        elif not isinstance(other, RatFunc):
            try:
                other = RatFunc.constant(self.variables, other)
            except (TypeError, ValueError):
                return NotImplemented
        # both sides are cancelled with canonical keys, so the pair is unique
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.num, frozenset(self.den.items())))

    def evaluate(self, values) -> Fraction:
        """The value at a point in ints and one Fraction: at xs / d a form k is (k . xs) / d."""
        d, xs = _scaled_point(values, self.variables)
        num, den = self.num._eval_scaled(d, xs)
        for key, mult in self.den.items():
            v = sum(c * x for c, x in zip(key, xs) if c)
            if v == 0:
                raise ZeroDivisionError("denominator vanishes at the point")
            den *= v**mult
        return Fraction(num * d ** sum(self.den.values()), den)

    def __str__(self):
        if not self.den:
            return str(self.num)
        variables = self.variables
        factors = []
        for form, mult in sorted(
            (str(_form_poly(key, variables)), mult) for key, mult in self.den.items()
        ):
            factors.append(f"({form})" + (f"^{mult}" if mult > 1 else ""))
        return f"({self.num}) / ({'*'.join(factors)})"

    def __repr__(self):
        return f"RatFunc({str(self)})"


# -- the sequence calculus -----------------------------------------------------


def _simplex_term(names, coords, j: int) -> RatFunc:
    """1 / prod over k != j of (beta_k - beta_j), from the alpha coordinates.

    For k > j the key is beta_k - beta_j, and for k < j it is beta_j - beta_k,
    which contributes a sign: both have nonnegative coordinates.  The keys'
    contents go into the constant numerator, so RatFunc._make can build it.
    """
    bj = coords[j]
    den: dict = {}
    content = 1
    for k, bk in enumerate(coords):
        if k != j:
            key, g = _form_key(tuple(abs(a - b) for a, b in zip(bk, bj)), len(bj))
            content *= g
            den[key] = den.get(key, 0) + 1
    return RatFunc._make(MultiPoly.constant(names, Fraction((-1) ** j) / content), den)


def dbar_i(m: int, seq) -> RatFunc:
    """Product over k < p of 1/(beta_k - beta_p) for the sequence's partial sums."""
    coords = [b.alpha_coords() for b in partial_sums(m, seq)]
    return _simplex_term(alpha_names(m), coords, len(coords) - 1)


def ft_i(m: int, seq) -> "ExpSum":
    """Fourier transform of the simplex measure of a sequence.

    Sum over j of e^{-beta_j} / prod_{k != j} (beta_k - beta_j); the partial
    sums are pairwise distinct in type A, which the construction checks.
    """
    names = alpha_names(m)
    sums = partial_sums(m, seq)
    if len(set(sums)) != len(sums):
        raise ValueError("repeated partial sums; transform undefined")
    coords = [b.alpha_coords() for b in sums]
    return ExpSum(m, {bj: _simplex_term(names, coords, j) for j, bj in enumerate(sums)})


class ExpSum:
    """Finite sum of e^{-beta} with RatFunc coefficients, beta in Q_+."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: dict):
        self.m = m
        self.coeffs = {b: c for b, c in coeffs.items() if not c.is_zero()}

    @classmethod
    def point_mass(cls, m: int) -> "ExpSum":
        names = alpha_names(m)
        return cls(m, {Weight.zero(m): RatFunc.constant(names, 1)})

    def __add__(self, other: "ExpSum") -> "ExpSum":
        out = dict(self.coeffs)
        for b, c in other.coeffs.items():
            out[b] = out[b] + c if b in out else c
        return ExpSum(self.m, out)

    def __sub__(self, other: "ExpSum") -> "ExpSum":
        return self + other.scale(-1)

    def scale(self, k) -> "ExpSum":
        return ExpSum(self.m, {b: c * k for b, c in self.coeffs.items()})

    def __mul__(self, other: "ExpSum") -> "ExpSum":
        out: dict = {}
        for b1, c1 in self.coeffs.items():
            for b2, c2 in other.coeffs.items():
                b = b1 + b2
                c = c1 * c2
                out[b] = out[b] + c if b in out else c
        return ExpSum(self.m, out)

    def __eq__(self, other):
        if not isinstance(other, ExpSum):
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        names = alpha_names(self.m)
        zero = RatFunc.constant(names, 0)
        return all(
            self.coeffs.get(b, zero) == other.coeffs.get(b, zero) for b in keys
        )

    def coefficient(self, beta: Weight) -> RatFunc:
        return self.coeffs.get(beta, RatFunc.constant(alpha_names(self.m), 0))

    def support(self):
        return set(self.coeffs)

    def evaluate(self, x, t) -> Fraction:
        """Evaluate at a regular point x (trace-zero tuple) and torus point t.

        e^{-beta} evaluates to prod t_i^{-beta_i} using the sum-zero
        integer representative of beta.  Floats in x or t are refused.
        """
        values = dict(zip(alpha_names(self.m), _alpha_values(x)))
        t = [_exact(ti) for ti in t]
        total = Fraction(0)
        for b, c in self.coeffs.items():
            shift = sum(b.entries) // b.m
            exps = [e - shift for e in b.entries]
            tpow = Fraction(1)
            for e, ti in zip(exps, t):
                tpow *= ti ** (-e)
            total += tpow * c.evaluate(values)
        return total

    def serialize(self) -> list:
        out = []
        for b in sorted(self.coeffs, key=lambda w: w.entries):
            out.append({"exponent": str(b), "coeff": str(self.coeffs[b])})
        return out

    def __repr__(self):
        parts = [f"e^-{b} * {c}" for b, c in sorted(self.coeffs.items(), key=lambda kv: kv[0].entries)]
        return "ExpSum(" + " + ".join(parts) + ")"


def _alpha_values(x):
    return [_exact(a) - _exact(b) for a, b in zip(x, x[1:])]


def expsum_mul(a: ExpSum, b: ExpSum) -> ExpSum:
    return a * b


def _nonzero_of_weight(m: int, c: dict, nu: Weight) -> dict:
    """The nonzero entries of c; ValueError unless each of their sequences has weight nu."""
    c = {seq: v for seq, v in c.items() if v}
    for seq in c:
        if seq_weight(m, seq) != nu:
            raise ValueError(f"sequence {seq} does not have weight {nu}")
    return c


def measure_from_coeffs(m: int, c: dict, nu: Weight, mode: str):
    """Assemble sum of c(i) * Dbar_i (mode 'dbar') or c(i) * FT(D_i) (mode 'ft').

    This is the one sum over sequences: the flag side (chi of the
    composition-series varieties) and the measure side (word pairings)
    both assemble here, term by term in sorted sequence order.  Zero
    coefficients are dropped first, so they cost no weight check; every
    other sequence must have weight nu, else ValueError (_nonzero_of_weight).
    """
    c = _nonzero_of_weight(m, c, nu)
    if mode == "dbar":
        total = RatFunc.constant(alpha_names(m), 0)
        for seq in sorted(c):
            total = total + dbar_i(m, seq) * c[seq]
        return total
    if mode == "ft":
        total = ExpSum(m, {})
        for seq in sorted(c):
            total = total + ft_i(m, seq).scale(c[seq])
        return total
    raise ValueError(f"unknown mode {mode!r}")


def ft_total_mass(e: ExpSum, p: int, direction=None) -> Fraction:
    """Limit of the transform along alpha -> t * direction as t -> 0.

    Substituting alpha_i = c_i t turns each coefficient into a Laurent
    series in t; for the transform of a length-p sequence measure the limit
    is the coefficient of t^0, computed from truncated exponential series.
    The result should be the simplex volume 1/p!.
    """
    m = e.m
    if direction is None:
        direction = tuple(range(1, m))  # generic positive integers
    # evaluate sum_j exp(-b_j t)/prod(c_k - c_j) * t^{-p}: collect t^p coefficient
    total = Fraction(0)
    for b, coeff in e.coeffs.items():
        # along the ray the coefficient is cnum / (prod of form values * t^p);
        # the t^p coefficient of exp(-bval * t) is (-bval)^p / p!
        if not coeff.num.is_constant():
            raise ValueError("total-mass check expects simplex transforms")
        forms_val = Fraction(1)
        for key, mult in coeff.den.items():
            forms_val *= sum(c * d for c, d in zip(key, direction)) ** mult
        if sum(coeff.den.values()) != p:
            raise ValueError("coefficient is not a pure degree -p term")
        bval = b.pair(_ray_point(m, direction))
        total += coeff.num.constant_term() * Fraction((-bval) ** p, factorial(p)) / forms_val
    return total


def _ray_point(m: int, direction):
    """A trace-zero point whose alpha values are the direction entries."""
    # x with x_i - x_{i+1} = direction_i
    x = [Fraction(0)] * m
    for i in range(m - 2, -1, -1):
        x[i] = x[i + 1] + Fraction(direction[i])
    shift = sum(x) / m
    return [v - shift for v in x]
