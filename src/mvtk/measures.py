"""Rational functions over the root lattice, and exponential sums.

A RatFunc is a polynomial numerator over a product of linear forms.  Every
denominator of the sequence calculus is a product of root-lattice weights
beta_k - beta_j, so `den` keys each factor by an integer coefficient tuple,
for a weight its alpha coordinates: a primitive tuple (coprime entries, the
first nonzero one positive) mapped to its multiplicity.  The content of a
factor (its gcd, signed like its first nonzero coefficient) is divided out
of the numerator once, when the factor enters.  Forms in other variables,
such as the x_j - x_i of the symbolic n_x, are keyed the same way.  Every
key a caller passes is such a tuple; any other raises ValueError.

The numerator is stored in integers, as num = terms / d with `terms` a
{monomial: nonzero int} and d > 0 coprime to every coefficient: the
canonical (d, ints) of a MultiPoly, which `RatFunc(num, den)` takes and
`num` hands back as they stand.  A sum lifts both sides by the forms each
lacks and adds them over lcm(d_a, d_b), a product multiplies the integer
polynomials over d_a*d_b, and one gcd (`poly._reduced`) brings the result
to lowest terms; no Fraction is made.  The numerator is kept cancelled
against the denominator, never by a general multivariate gcd: a factor f is
divided out of terms by exact integer trial division (_divide_by_form).
If num = f*q, then terms = f*(d*q) with d*q integral by Gauss's lemma (f is
primitive), so the division fails only when f does not divide num.  So
each rational function has one (d, terms, den), and equality compares
them; a RatFunc with no denominator hashes like its numerator MultiPoly,
which it equals.

Only a key that can divide the result is tested.  Z[x] is a UFD, and
distinct keys are non-associate primes, none dividing either operand's
numerator.  So a sum tests only the keys both operands carry equally often:
a key that one side carries less often divides that side's numerator once
lifted to the common denominator, and not the other's, so not the sum.  A
product tests every key, as a key of one factor can divide the other's
numerator, and divide_by_form only the new key.  The exponents of x_j,
the key's first variable, settle many trials before any long division: a
key x_j divides exactly when every term holds x_j, and a key of two or more
terms never divides a numerator in which x_j has one power only, such as a
monomial (`_divide_by_form` gives both proofs).

An ExpSum is a finite weight-indexed family of RatFunc coefficients, the
Fourier-transform picture of a simplex measure: the product is convolution
on exponents.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm, prod
from operator import mul

from .exactalg.poly import (MultiPoly, _exact, _int_product, _int_value, _reduced, _rescaled,
                            _scaled_point, _times_form)
from .roota import Weight, alpha_names


def _form_key(form, n: int):
    """(key, content) with form == content * key, key as in RatFunc.den.

    The form is a tuple of n integer coefficients; the content is an int.
    """
    try:
        g = gcd(*form) if type(form) is tuple and len(form) == n else None
    except TypeError:
        g = None
    if g is None:
        raise ValueError(f"a denominator form is a tuple of {n} integer coefficients, not {form!r}")
    if g == 0:
        raise ValueError("denominator factors must be nonzero linear forms")
    for c in form:
        if c:
            break
    if c < 0:
        g = -g
    if g == 1:
        return form, 1
    return tuple(c // g for c in form), g


def _form_poly(key: tuple, variables: tuple) -> MultiPoly:
    """The linear form of a denominator key, as a polynomial."""
    n = len(key)
    return MultiPoly._make(variables, 1, {
        tuple(int(i == k) for i in range(n)): c for k, c in enumerate(key) if c
    })


def _divide_by_form(terms: dict, key: tuple):
    """The quotient of an integer polynomial by the primitive form key; None if inexact.

    With j the first nonzero entry, key = key[j]*x_j + r.  If r = 0, key is
    x_j (primitive): the quotient lowers each power of x_j, and a term free
    of x_j proves it inexact.  If all terms share one power e of x_j (say a
    monomial), terms = x_j^e * u with u free of x_j; key, prime in the UFD
    Z[x] and not associate to x_j, would divide u, of degree 0 in x_j: it is
    inexact.  Else, from the top power of x_j down, each term c*x_j^e*u gives
    the quotient term (c / key[j])*x_j^(e-1)*u, and r times it is subtracted
    at power e - 1.  The quotient is integral (Gauss's lemma), so the first c
    that key[j] does not divide, or a term left at power 0, proves it inexact.
    """
    j = next(k for k, c in enumerate(key) if c)
    rest = [(k, c) for k, c in enumerate(key) if c and k != j]
    if not rest:   # key = x_j
        if not all(mon[j] for mon in terms):
            return None
        return {mon[:j] + (mon[j] - 1,) + mon[j + 1:]: c for mon, c in terms.items()}
    if len({mon[j] for mon in terms}) == 1:   # one power of x_j
        return None
    levels: dict = {}
    for mon, c in terms.items():
        levels.setdefault(mon[j], {})[mon] = c
    quo = {}
    for e in range(max(levels, default=0), 0, -1):
        below = levels.setdefault(e - 1, {})
        for mon, c in levels.get(e, {}).items():
            if not c:
                continue
            q, r = divmod(c, key[j])
            if r:
                return None
            qmon = mon[:j] + (e - 1,) + mon[j + 1:]
            quo[qmon] = q
            for k, ck in rest:
                m = qmon[:k] + (qmon[k] + 1,) + qmon[k + 1:]
                below[m] = below.get(m, 0) - q * ck
    if any(levels.get(0, {}).values()):
        return None
    return quo


def _divide_out(terms: dict, den: dict, keys) -> dict:
    """terms divided by each of `keys` as often as it divides (terms itself if none does).

    `keys` holds every key of den that can divide terms (see the module
    docstring), and den's multiplicities are lowered in place.
    """
    if not keys or len(terms) == 1 and not any(next(iter(terms))):  # no key, or a constant
        return terms
    for key in keys:
        left = den[key]
        while left and (quo := _divide_by_form(terms, key)) is not None:
            terms, left = quo, left - 1
        if left:
            den[key] = left
        else:
            del den[key]
    return terms


class RatFunc:
    """num / prod of linear forms, kept factored and cancelled.

    A RatFunc stores `variables`, `d`, `terms` and `den`: num = terms / d
    with `terms` a {monomial: nonzero int}, d > 0 and gcd(d, every
    coefficient) = 1; `den` maps primitive integer coefficient tuples (see
    the module docstring) to positive multiplicities, and no key's form
    divides num.  Zero is d = 1 with empty `terms` and `den`.  (d, terms)
    is the canonical (d, ints) of the MultiPoly `num`.  `RatFunc(num, den)`
    is the validating constructor: its keys are integer coefficient tuples,
    and it moves the content of a non-primitive one into the numerator and
    cancels.
    `RatFunc._make` trusts its arguments and checks nothing; sums and
    products build with `_from_ints`, which cancels and reduces,
    `divide_by_form` tests only the new key, and negation and nonzero
    scalar multiples, which keep a quotient cancelled, test none.
    """

    __slots__ = ("variables", "d", "terms", "den")

    def __init__(self, num: MultiPoly, den=None):
        clean: dict = {}
        scale = 1
        for form, mult in (den or {}).items():
            if mult == 0:
                continue
            if mult < 0:
                raise ValueError("negative denominator multiplicity")
            key, content = _form_key(form, len(num.variables))
            if content != 1:
                scale *= content**mult
            clean[key] = clean.get(key, 0) + mult
        d, terms = num.d, num.ints
        if scale != 1:
            d, terms = _rescaled(d, terms, 1, scale)
        r = RatFunc._from_ints(num.variables, d, terms, clean, tuple(clean))
        self.variables, self.d, self.terms, self.den = r.variables, r.d, r.terms, r.den

    @classmethod
    def _make(cls, variables: tuple, d: int, terms: dict, den: dict) -> "RatFunc":
        """A RatFunc from parts that already meet the invariant; nothing is copied."""
        self = object.__new__(cls)
        self.variables, self.d, self.terms, self.den = variables, d, terms, den
        return self

    @classmethod
    def _from_ints(cls, variables: tuple, d: int, terms: dict, den: dict, keys) -> "RatFunc":
        """(terms / d) / den, reduced, cancelled by the keys of den that can divide it."""
        if 0 in terms.values():
            terms = {m: c for m, c in terms.items() if c}
        if not terms:
            return cls._make(variables, 1, {}, {})
        return cls._make(variables, *_reduced(d, _divide_out(terms, den, keys)), den)

    # -- constructors

    @classmethod
    def from_poly(cls, p: MultiPoly) -> "RatFunc":
        return cls(p, {})

    @classmethod
    def constant(cls, variables, c) -> "RatFunc":
        return cls(MultiPoly.constant(variables, c), {})

    @property
    def num(self) -> MultiPoly:
        """The numerator terms / d as a MultiPoly; the two share (d, terms)."""
        return MultiPoly._make(self.variables, self.d, self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic

    def _coerce(self, other) -> "RatFunc":
        """other as a RatFunc over self's variables: a RatFunc, a MultiPoly or a constant."""
        if isinstance(other, MultiPoly):
            other = RatFunc.from_poly(other)
        elif not isinstance(other, RatFunc):
            return RatFunc.constant(self.variables, other)
        if other.variables != self.variables:
            raise ValueError("variable sets differ")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        d = lcm(self.d, other.d)
        a = self.terms if d == self.d else {m: c * (d // self.d) for m, c in self.terms.items()}
        b = other.terms if d == other.d else {m: c * (d // other.d) for m, c in other.terms.items()}
        den = dict(self.den)
        equal = []   # the keys both sides carry equally often: the only ones that can cancel
        for key, have in self.den.items():   # lift other by the forms it lacks
            for _ in range(have - other.den.get(key, 0)):
                b = _times_form(b, key)
        for key, mult in other.den.items():   # and self by those it lacks
            have = den.get(key, 0)
            if mult > have:
                den[key] = mult
                for _ in range(mult - have):
                    a = _times_form(a, key)
            elif mult == have:
                equal.append(key)
        a = dict(a) if a is self.terms else a
        for m, c in b.items():
            a[m] = a.get(m, 0) + c
        return RatFunc._from_ints(self.variables, d, a, den, equal)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._make(self.variables, self.d, {m: -c for m, c in self.terms.items()},
                             dict(self.den))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, (RatFunc, MultiPoly)):
            c = _exact(other)
            if not c or not self.terms:
                return RatFunc._make(self.variables, 1, {}, {})
            d, terms = _rescaled(self.d, self.terms, c.numerator, c.denominator)
            return RatFunc._make(self.variables, d, terms, dict(self.den))
        other = self._coerce(other)
        den = dict(self.den)
        for key, mult in other.den.items():
            den[key] = den.get(key, 0) + mult
        return RatFunc._from_ints(self.variables, self.d * other.d,
                                  _int_product(self.terms, other.terms), den, tuple(den))

    __rmul__ = __mul__

    def divide_by_form(self, form) -> "RatFunc":
        """self / form, for a tuple of integer coefficients.

        By the invariant no key of den divides num, so only the new form's
        key is tested, and only when it is not in den already.  A quotient
        by a primitive form keeps the content of terms, so stays reduced.
        """
        key, content = _form_key(form, len(self.variables))
        if not self.terms:
            return self
        d, terms = self.d, self.terms
        if content != 1:
            d, terms = _rescaled(d, terms, 1, content)
        den = dict(self.den)
        if key in den:
            den[key] += 1
        else:
            den[key] = 1
            terms = _divide_out(terms, den, (key,))
        return RatFunc._make(self.variables, d, terms, den)

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        # both sides are cancelled and reduced with canonical keys, so the triple is unique
        return self.d == other.d and self.terms == other.terms and self.den == other.den

    def __hash__(self):
        if not self.den:  # equal to its numerator, so hashed like it (a constant like its number)
            return hash(self.num)
        return hash((self.d, frozenset(self.terms.items()), frozenset(self.den.items())))

    def evaluate(self, values) -> Fraction:
        """The value at a point xs / e in ints and one Fraction; a form k is (k . xs) / e."""
        e, xs = _scaled_point(values, self.variables)
        num, deg = _int_value(self.terms, e, xs)
        den = self.d * e**deg
        for key, mult in self.den.items():
            v = sum(c * x for c, x in zip(key, xs) if c)
            if v == 0:
                raise ZeroDivisionError("denominator vanishes at the point")
            den *= v**mult
        return Fraction(num * e ** sum(self.den.values()), den)

    def __str__(self):
        if not self.den:
            return str(self.num)
        factors = sorted((str(_form_poly(key, self.variables)), mult) for key, mult in self.den.items())
        den = "*".join(f"({form})" + (f"^{mult}" if mult > 1 else "") for form, mult in factors)
        return f"({self.num}) / ({den})"

    def __repr__(self):
        return f"RatFunc({str(self)})"


# -- the sequence calculus -----------------------------------------------------


def _check_letters(m: int, seq: tuple):
    for i in seq:
        if not 0 < i < m:
            raise ValueError(f"letter {i} of a sequence is not in 1..{m - 1}")


def dbar_i(m: int, seq) -> RatFunc:
    """Product over k < p of 1/(beta_k - beta_p) for the sequence's partial sums.

    |beta_k - beta_p| is the letter count of seq[k:], so one backward run
    from p keys the factors, in O(p); the keys' contents (gcds) are
    positive, and their product is the d.
    """
    seq = tuple(seq)
    _check_letters(m, seq)
    sign = -1 if len(seq) % 2 else 1
    den, content, counts = {}, 1, [0] * (m - 1)
    for i in reversed(seq):
        counts[i - 1] += 1
        g = gcd(*counts)
        key = tuple(counts) if g == 1 else tuple([c // g for c in counts])
        den[key] = den.get(key, 0) + 1
        content *= g
    return RatFunc._make(alpha_names(m), content, {(0,) * (m - 1): sign}, den)


def ft_i(m: int, seq) -> "ExpSum":
    """Fourier transform of the simplex measure of a sequence.

    Sum over j of e^{-beta_j} / prod_{k != j} (beta_k - beta_j).  The
    partial sums are pairwise distinct, as each letter adds 1 to the height.
    |beta_k - beta_j| is the letter count of seq[j:k] or seq[k:j]: one
    running count per j keys each pair j < k once, for both of its ends.
    """
    seq = tuple(seq)
    _check_letters(m, seq)
    p = len(seq)
    dens, contents, runs = [{} for _ in range(p + 1)], [1] * (p + 1), []
    for k, i in enumerate(seq, 1):
        runs.append([0] * (m - 1))   # runs[j]: the letter counts of seq[j:k]
        for j, counts in enumerate(runs):
            counts[i - 1] += 1
            g = gcd(*counts)
            key = tuple(counts) if g == 1 else tuple([c // g for c in counts])
            dens[j][key] = dens[j].get(key, 0) + 1
            dens[k][key] = dens[k].get(key, 0) + 1
            contents[j] *= g
            contents[k] *= g
    names, const = alpha_names(m), (0,) * (m - 1)
    out = {Weight._make((0,) * m): RatFunc._make(names, contents[0], {const: 1}, dens[0])}
    beta = [0] * m   # eps coordinates: alpha_i = eps_i - eps_{i+1}, shifted to last entry 0
    for j, i in enumerate(seq, 1):
        beta[i - 1] += 1
        beta[i] -= 1
        term = RatFunc._make(names, contents[j], {const: -1 if j % 2 else 1}, dens[j])
        out[Weight._make(tuple([b - beta[-1] for b in beta]))] = term
    return ExpSum._make(m, out)


class ExpSum:
    """Finite sum of e^{-beta} with RatFunc coefficients, beta in Q_+."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: dict):
        self.m = m
        self.coeffs = {b: c for b, c in coeffs.items() if not c.is_zero()}

    @classmethod
    def _make(cls, m: int, coeffs: dict) -> "ExpSum":
        """An ExpSum from nonzero coefficients; nothing is copied."""
        self = object.__new__(cls)
        self.m, self.coeffs = m, coeffs
        return self

    @classmethod
    def point_mass(cls, m: int) -> "ExpSum":
        names = alpha_names(m)
        return cls(m, {Weight.zero(m): RatFunc._make(names, 1, {(0,) * len(names): 1}, {})})

    def __add__(self, other: "ExpSum") -> "ExpSum":
        if other.m != self.m:
            raise ValueError("rank mismatch")
        out = dict(self.coeffs)
        for b, c in other.coeffs.items():
            c = out[b] + c if b in out else c
            if c.terms:
                out[b] = c
            else:   # only a coefficient added here can vanish
                del out[b]
        return ExpSum._make(self.m, out)

    def __sub__(self, other: "ExpSum") -> "ExpSum":
        return self + other.scale(-1)

    def scale(self, k) -> "ExpSum":
        return ExpSum(self.m, {b: c * k for b, c in self.coeffs.items()})

    def __mul__(self, other: "ExpSum") -> "ExpSum":
        if other.m != self.m:
            raise ValueError("rank mismatch")
        out: dict = {}
        for b1, c1 in self.coeffs.items():
            for b2, c2 in other.coeffs.items():
                b = b1 + b2
                c = c1 * c2
                out[b] = out[b] + c if b in out else c
        return ExpSum(self.m, out)

    def __eq__(self, other):
        # no coefficient is zero, so equal sums have equal coefficient dicts
        if not isinstance(other, ExpSum):
            return NotImplemented
        return self.m == other.m and self.coeffs == other.coeffs

    def coefficient(self, beta: Weight) -> RatFunc:
        c = self.coeffs.get(beta)
        return c if c is not None else RatFunc._make(alpha_names(self.m), 1, {}, {})

    def evaluate(self, x, t) -> Fraction:
        """Evaluate at a regular point x (trace-zero tuple) and torus point t.

        e^{-beta} evaluates to prod t_i^{-beta_i} using the sum-zero
        integer representative of beta.  Floats in x or t are refused, as
        are an x or t of a length other than m and a t with a zero entry.
        """
        if len(x) != self.m or len(t) != self.m:
            raise ValueError(f"x and t need {self.m} entries each, not {x!r} and {t!r}")
        values = dict(zip(alpha_names(self.m), _alpha_values(x)))
        tvals = [_exact(ti) for ti in t]
        if not all(tvals):
            raise ValueError(f"the torus point {t!r} has a zero entry")
        total = Fraction(0)
        for b, c in self.coeffs.items():
            shift = sum(b.entries) // b.m
            tpow = prod([ti ** (shift - e) for e, ti in zip(b.entries, tvals)], start=Fraction(1))
            total += tpow * c.evaluate(values)
        return total

    def serialize(self) -> list:
        return [{"exponent": str(b), "coeff": str(self.coeffs[b])}
                for b in sorted(self.coeffs, key=lambda w: w.entries)]

    def __repr__(self):
        parts = [f"e^-{b} * {c}" for b, c in sorted(self.coeffs.items(), key=lambda kv: kv[0].entries)]
        return "ExpSum(" + " + ".join(parts) + ")"


def _alpha_values(x):
    return [_exact(a) - _exact(b) for a, b in zip(x, x[1:])]


def expsum_mul(a: ExpSum, b: ExpSum) -> ExpSum:
    return a * b


def ft_total_mass(e: ExpSum, p: int, direction=None) -> Fraction:
    """Limit of the transform along alpha -> t * direction as t -> 0.

    Substituting alpha_i = c_i t turns each coefficient into a Laurent
    series in t; for the transform of a length-p sequence measure the limit
    is the coefficient of t^0, computed from truncated exponential series.
    The result should be the simplex volume 1/p!.  A direction has m - 1
    entries and lies on no denominator form's hyperplane.
    """
    m = e.m
    if direction is None:
        direction = tuple(range(1, m))  # generic positive integers
    elif len(direction) != m - 1:
        raise ValueError(f"a direction has {m - 1} entries, not {direction!r}")
    # evaluate sum_j exp(-b_j t)/prod(c_k - c_j) * t^{-p}: collect t^p coefficient
    total = Fraction(0)
    for b, coeff in e.coeffs.items():
        # along the ray the coefficient is (cnum / d) / (prod of form values * t^p);
        # the t^p coefficient of exp(-bval * t) is (-bval)^p / p!
        cnum = coeff.terms.get((0,) * (m - 1))
        if cnum is None or len(coeff.terms) != 1:
            raise ValueError("total-mass check expects simplex transforms")
        forms_val = prod(sum(map(mul, key, direction)) ** mult for key, mult in coeff.den.items())
        if not forms_val:
            raise ValueError(f"a denominator form vanishes on the direction {direction!r}")
        if sum(coeff.den.values()) != p:
            raise ValueError("coefficient is not a pure degree -p term")
        # <b, x> at the point x with alpha(x) = direction
        bval = sum(map(mul, b.alpha_coords(), direction))
        total += Fraction(cnum * (-bval) ** p, coeff.d * factorial(p)) / forms_val
    return total
