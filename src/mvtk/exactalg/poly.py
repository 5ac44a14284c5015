"""Exact multivariate polynomials over Q, stored in integers.

A MultiPoly over a tuple `variables` of n names is ints / d: `ints` maps
tuples of n exponents to nonzero ints, and d > 0 is coprime to every
coefficient, so (variables, d, ints) is canonical; equality and hashing
compare it.  A constant also equals the int or Fraction it is and hashes
like it; a str or a float equals no MultiPoly.  Arithmetic, the ring maps,
`primitive` and `evaluate` run in ints and make no Fraction, and `_reduced`
brings a result to lowest terms with one gcd.  RatFunc's numerator and the
Groebner kernel take (d, ints) as they stand; `terms`, the {monomial:
Fraction} view, is built on each read.  `MultiPoly(variables, terms)`
validates outside input: it takes ints and Fractions only, checks exponent
lengths, merges and drops zeros, and puts the terms over the lcm of their
denominators, which no prime divides along with every numerator.
`MultiPoly._make` trusts a canonical (variables, d, ints).  `evaluate`
scales the point by the lcm of its denominators and makes one Fraction.
The canonical text syntax is

    3*a1^2*a6 - 1/2*a2*a8 + a5

with variables matching [a-z][a-z0-9]* and terms printed in descending
grevlex order.  Grevlex is the only order a MultiPoly knows: it also picks
`leading_monomial` and the sign of `primitive`.  The Groebner layer packs
its orders, grevlex and the elimination block order, into int keys of its
own (`groebner._Packing`).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from operator import add, neg
from typing import Iterable, Mapping


def _grevlex_key(mon: tuple) -> tuple:
    """Sort key of grevlex: a larger key is a larger monomial."""
    return (sum(mon), tuple(map(neg, reversed(mon))))


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>[a-z][a-z0-9]*)|(?P<op>[+\-*^()]))"
)


def _exact(c) -> Fraction:
    """c as a Fraction, for c an int or a Fraction (a numbers.Rational).

    Anything else is refused: a float is not exact, and a string would be
    parsed, which no other operation does.  An int still becomes a
    Fraction, so that a negative power of it stays exact.
    """
    if type(c) is Fraction:  # immutable, so returned as it is
        return c
    if type(c) is int:
        return Fraction(c)
    if not isinstance(c, Rational):
        raise TypeError(f"{type(c).__name__} {c!r} in exact arithmetic; pass an int or a Fraction")
    return Fraction(c)


def _scaled_point(values: Mapping, names) -> tuple[int, list]:
    """(d, xs) with the values at `names` equal to xs / d, d the lcm of their denominators."""
    try:
        point = [_exact(values[v]) for v in names]
    except KeyError as missing:
        raise ValueError(f"the point gives no value for the variable {missing}") from None
    d = lcm(*(x.denominator for x in point))
    return d, [x.numerator * (d // x.denominator) for x in point]


def _positions(names, ring: tuple) -> list:
    """The index in `ring` of each of `names`; a ValueError names the first one missing."""
    try:
        return [ring.index(v) for v in names]
    except ValueError:
        missing = next(v for v in names if v not in ring)
        raise ValueError(f"variable {missing!r} is not among {ring}") from None


def _reduced(d: int, ints: dict) -> tuple[int, dict]:
    """(d, ints) over gcd(d, every coefficient): canonical, for d > 0 and nonzero ints."""
    g = gcd(d, *ints.values()) if d != 1 else 1
    return (d, ints) if g == 1 else (d // g, {m: c // g for m, c in ints.items()})


def _rescaled(d: int, ints: dict, num: int, den: int) -> tuple[int, dict]:
    """The canonical (d', ints') with ints' / d' = (num / den) * ints / d, for nonzero num, den."""
    if den < 0:
        num, den = -num, -den
    return _reduced(d * den, ints if num == 1 else {m: c * num for m, c in ints.items()})


def _int_value(terms: Mapping, d: int, xs) -> tuple[int, int]:
    """(N, deg) in ints, N / d**deg the value of {monomial: int} terms at xs / d:
    each term is padded by d to the top degree deg."""
    deg = max(map(sum, terms), default=0)
    total = 0
    for m, c in terms.items():
        for e, x in zip(m, xs):
            if e:
                c *= x**e
        total += c * d ** (deg - sum(m))
    return total, deg


def _times_form(terms: dict, key: tuple) -> dict:
    """{monomial: int} terms times the linear form sum_k key[k]*x_k; terms that cancel stay, as 0."""
    out: dict = {}
    for k, ck in enumerate(key):
        if ck:
            for mon, c in terms.items():
                m = mon[:k] + (mon[k] + 1,) + mon[k + 1:]
                out[m] = out.get(m, 0) + ck * c
    return out


def _int_product(a: dict, b: dict) -> dict:
    """The product of two {monomial: int} polynomials; terms that cancel stay, as 0."""
    ib = list(b.items())
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in ib:
            m = tuple(map(add, m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return out


class MultiPoly:
    """Immutable multivariate polynomial with exact rational coefficients, ints / d."""

    __slots__ = ("variables", "d", "ints")

    def __init__(self, variables, terms: Mapping[tuple, Fraction] | None = None):
        self.variables = tuple(variables)
        clean = {}
        if terms:
            n = len(self.variables)
            for mon, c in terms.items():
                c = _exact(c)
                if c == 0:
                    continue
                mon = tuple(mon)
                if len(mon) != n:
                    raise ValueError("exponent vector length mismatch")
                clean[mon] = clean.get(mon, 0) + c
            clean = {m: c for m, c in clean.items() if c != 0}
        self.d = d = lcm(*(c.denominator for c in clean.values()))
        self.ints = {m: c.numerator * (d // c.denominator) for m, c in clean.items()}

    # -- constructors -------------------------------------------------

    @classmethod
    def _make(cls, variables: tuple, d: int, ints: dict) -> "MultiPoly":
        """Trusted constructor: (d, ints) is already canonical."""
        p = object.__new__(cls)
        p.variables, p.d, p.ints = variables, d, ints
        return p

    @classmethod
    def zero(cls, variables) -> "MultiPoly":
        return cls._make(tuple(variables), 1, {})

    @classmethod
    def constant(cls, variables, c) -> "MultiPoly":
        variables = tuple(variables)
        c = _exact(c)
        return cls._make(variables, c.denominator, {(0,) * len(variables): c.numerator} if c else {})

    @classmethod
    def var(cls, variables, name) -> "MultiPoly":
        variables = tuple(variables)
        i, = _positions((name,), variables)
        mon = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls._make(variables, 1, {mon: 1})

    @classmethod
    def parse(cls, text: str, variables) -> "MultiPoly":
        """Parse the canonical syntax; also accepts parenthesised factors."""
        variables = tuple(variables)
        tokens, pos = [], 0
        while m := _TOKEN.match(text, pos):
            tokens.append(m)
            pos = m.end()
        if text[pos:].strip():
            raise ValueError(f"cannot tokenize {text[pos:]!r}")

        def parse_sum(i):
            acc = cls.zero(variables)
            while True:  # a run of signs, then a term
                sign = 1
                while i < len(tokens) and tokens[i]["op"] in ("+", "-"):
                    if tokens[i]["op"] == "-":
                        sign = -sign
                    i += 1
                term, i = parse_product(i)
                acc = acc + term * sign
                if i == len(tokens) or tokens[i]["op"] not in ("+", "-"):
                    return acc, i

        def parse_product(i):
            acc, i = parse_factor(i)
            while i < len(tokens) and tokens[i]["op"] == "*":
                nxt, i = parse_factor(i + 1)
                acc = acc * nxt
            return acc, i

        def parse_factor(i):
            if i >= len(tokens):
                raise ValueError("unexpected end of polynomial text")
            t = tokens[i]
            if t["op"] == "(":
                inner, i = parse_sum(i + 1)
                if i >= len(tokens) or tokens[i]["op"] != ")":
                    raise ValueError("unbalanced parenthesis")
                base, i = inner, i + 1
            elif t["num"]:
                base, i = cls.constant(variables, Fraction(t["num"])), i + 1
            elif t["var"]:
                name = t["var"]
                if name not in variables:
                    raise ValueError(f"unknown variable {name!r}")
                base, i = cls.var(variables, name), i + 1
            else:
                raise ValueError(f"unexpected token {t.group()!r}")
            if i < len(tokens) and tokens[i]["op"] == "^":
                exp = tokens[i + 1]["num"] if i + 1 < len(tokens) else None
                if not exp or "/" in exp:
                    raise ValueError("exponent must be a natural number")
                base, i = base ** int(exp), i + 2
            return base, i

        if not tokens:
            return cls.zero(variables)
        result, i = parse_sum(0)
        if i != len(tokens):
            raise ValueError("trailing tokens in polynomial text")
        return result

    # -- queries ------------------------------------------------------

    @property
    def terms(self) -> dict:
        """{monomial: Fraction coefficient}, built on each read."""
        d = self.d
        return {m: Fraction(c, d) for m, c in self.ints.items()}

    def is_zero(self) -> bool:
        return not self.ints

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.ints)

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention."""
        return max((sum(m) for m in self.ints), default=-1)

    def is_homogeneous(self) -> bool:
        return len({sum(m) for m in self.ints}) <= 1

    def leading_monomial(self) -> tuple:
        """The grevlex-largest monomial."""
        if not self.ints:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.ints, key=_grevlex_key)

    def coefficient(self, mon: tuple) -> Fraction:
        return Fraction(self.ints.get(tuple(mon), 0), self.d)

    def constant_term(self) -> Fraction:
        return Fraction(self.ints.get((0,) * len(self.variables), 0), self.d)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        """other as a MultiPoly over self's variables; NotImplemented, so that a
        reflected operator (RatFunc's) runs, if it is not a number."""
        if isinstance(other, MultiPoly):
            if other.variables != self.variables:
                raise ValueError("variable sets differ")
            return other
        if isinstance(other, (Rational, float)):
            return MultiPoly.constant(self.variables, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        # both sides over lcm(d_a, d_b), then one gcd for the sum
        d = self.d if self.d == other.d else lcm(self.d, other.d)
        sa, sb = d // self.d, d // other.d
        ints = dict(self.ints) if sa == 1 else {m: c * sa for m, c in self.ints.items()}
        for m, c in other.ints.items():
            s = ints.get(m)
            s = c * sb if s is None else s + c * sb
            if s:
                ints[m] = s
            else:
                del ints[m]
        return MultiPoly._make(self.variables, *_reduced(d, ints))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._make(self.variables, self.d, {m: -c for m, c in self.ints.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else other - self

    def _scale(self, c: Fraction) -> "MultiPoly":
        if not c:
            return MultiPoly._make(self.variables, 1, {})
        return MultiPoly._make(self.variables, *_rescaled(self.d, self.ints, c.numerator, c.denominator))

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (Rational, float)):
                return NotImplemented
            return self._scale(_exact(other))
        other = self._coerce(other)
        ints = {m: c for m, c in _int_product(self.ints, other.ints).items() if c}
        return MultiPoly._make(self.variables, *_reduced(self.d * other.d, ints))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other):
        if not isinstance(other, (Rational, float)):
            return NotImplemented
        return self._scale(1 / _exact(other))

    def __eq__(self, other):
        # a constant equals the int or Fraction it is, and hashes like it; a
        # str or a float equals no MultiPoly
        if isinstance(other, MultiPoly):
            return (self.variables, self.d, self.ints) == (other.variables, other.d, other.ints)
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_term() == other
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_term())
        return hash((self.variables, self.d, frozenset(self.ints.items())))

    # -- substitution and ring maps ------------------------------------

    def evaluate(self, values: Mapping[str, Fraction]) -> Fraction:
        """The value at a point given by name, in ints and one Fraction; floats are refused."""
        e, xs = _scaled_point(values, self.variables)
        num, deg = _int_value(self.ints, e, xs)
        return Fraction(num, self.d * e**deg)

    def substitute(self, images: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Ring map sending each variable to a polynomial (all in one target ring)."""
        if not images:
            raise ValueError("empty substitution")
        target = next(iter(images.values())).variables
        for v in self.variables:
            if v not in images:
                raise ValueError(f"no image for variable {v!r}")
        one = (0,) * len(target)
        out = MultiPoly.zero(target)
        for m, c in self.ints.items():
            term = MultiPoly._make(target, 1, {one: c})
            for e, v in zip(m, self.variables):
                if e:
                    term = term * images[v] ** e
            out = out + term
        return MultiPoly._make(target, *_reduced(out.d * self.d, out.ints))

    def rename(self, variables) -> "MultiPoly":
        """Reinterpret in a ring whose variables contain the current ones."""
        variables = tuple(variables)
        pos = _positions(self.variables, variables)
        n = len(variables)
        ints = {}
        for m, c in self.ints.items():
            mon = [0] * n
            for e, p in zip(m, pos):
                mon[p] = e
            ints[tuple(mon)] = c
        return MultiPoly._make(variables, self.d, ints)

    def restrict(self, variables) -> "MultiPoly":
        """Drop unused variables; fails if a dropped variable occurs."""
        variables = tuple(variables)
        keep = _positions(variables, self.variables)
        dropset = [i for i in range(len(self.variables)) if self.variables[i] not in variables]
        ints = {}
        for m, c in self.ints.items():
            if any(m[i] for i in dropset):
                raise ValueError("polynomial involves a dropped variable")
            ints[tuple(m[i] for i in keep)] = c
        return MultiPoly._make(variables, self.d, ints)

    # -- integer normal forms ------------------------------------------

    def primitive(self) -> tuple["MultiPoly", Fraction]:
        """Return (primitive integer part, content) with content * part == self."""
        if not self.ints:
            return self, Fraction(1)
        g = gcd(*self.ints.values())
        if self.ints[self.leading_monomial()] < 0:
            g = -g
        part = MultiPoly._make(self.variables, 1, {m: c // g for m, c in self.ints.items()})
        return part, Fraction(g, self.d)

    # -- printing -------------------------------------------------------

    def __str__(self):
        if not self.ints:
            return "0"
        d = self.d
        mons = sorted(self.ints, key=_grevlex_key, reverse=True)
        pieces = []
        for m in mons:
            c = self.ints[m]
            factors = [
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, m)
                if e
            ]
            mag = abs(c)
            if factors and mag == d:
                body = "*".join(factors)
            else:
                # |c| / d in lowest terms, printed as a Fraction prints
                g = gcd(mag, d)
                text = str(mag // g) if g == d else f"{mag // g}/{d // g}"
                body = "*".join([text] + factors)
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)

    def __repr__(self):
        return f"MultiPoly({str(self)!r})"


def poly_ring(names: Iterable[str]):
    """Convenience: return (names, var polynomials...) for a fresh ring."""
    names = tuple(names)
    return names, tuple(MultiPoly.var(names, v) for v in names)
