"""Exact multivariate polynomials over Q.

Coefficients are arbitrary-precision rationals (fractions.Fraction); no
floating point enters anywhere.  Monomials are exponent tuples over a fixed
ordered variable list.

Every MultiPoly keeps one invariant: `variables` is a tuple of n names and
`terms` maps tuples of n exponents to nonzero Fractions.  `MultiPoly(...)`
is the validating constructor for outside input: it coerces coefficients
(rejecting floats), checks exponent lengths, merges and drops zeros.
`MultiPoly._make` trusts its arguments to meet the invariant already and
checks nothing; arithmetic and the ring maps build their results with it.
`evaluate` scales the point by the lcm of its denominators, sums the terms
in ints and makes one Fraction; like coefficients, points refuse floats.
The canonical text syntax is

    3*a1^2*a6 - 1/2*a2*a8 + a5

with variables matching [a-z][a-z0-9]* and terms printed in descending
grevlex order.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from operator import add, neg
from typing import Iterable, Mapping


class TermOrder:
    """Monomial order: grevlex, lex, or an elimination block order.

    A block order compares the first `block` exponents by grevlex, then the
    rest by grevlex; any variable in the leading block dominates the tail,
    which is what elimination needs.  Keys sort so that larger key == larger
    monomial.
    """

    __slots__ = ("kind", "block")

    def __init__(self, kind: str = "grevlex", block: int = 0):
        if kind not in ("grevlex", "lex", "block"):
            raise ValueError(f"unknown term order kind {kind!r}")
        if kind == "block" and block <= 0:
            raise ValueError("block order needs a positive block size")
        self.kind = kind
        self.block = block if kind == "block" else 0

    @staticmethod
    def _grevlex_key(mon: tuple) -> tuple:
        return (sum(mon), tuple(map(neg, reversed(mon))))

    def key(self, mon: tuple) -> tuple:
        if self.kind == "grevlex":
            return self._grevlex_key(mon)
        if self.kind == "lex":
            return mon
        k = self.block
        return (self._grevlex_key(mon[:k]), self._grevlex_key(mon[k:]))

    def __eq__(self, other):
        return (
            isinstance(other, TermOrder)
            and self.kind == other.kind
            and self.block == other.block
        )

    def __hash__(self):
        return hash((self.kind, self.block))

    def __repr__(self):
        if self.kind == "block":
            return f"TermOrder('block', {self.block})"
        return f"TermOrder({self.kind!r})"


GREVLEX = TermOrder("grevlex")
LEX = TermOrder("lex")

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>[a-z][a-z0-9]*)|(?P<op>[+\-*^()]))"
)


def _exact(c) -> Fraction:
    """c as a Fraction, for c an int or a Fraction (a numbers.Rational).

    Anything else is refused: a float is not exact, and a string would be
    parsed, which no other operation does.
    """
    if not isinstance(c, Rational):
        raise TypeError(f"{type(c).__name__} {c!r} in exact arithmetic; pass an int or a Fraction")
    return Fraction(c)


def _scaled_point(values: Mapping, names) -> tuple[int, list]:
    """(d, xs) with the values at `names` equal to xs / d, d the lcm of their denominators."""
    point = [_exact(values[v]) for v in names]
    d = lcm(*(x.denominator for x in point))
    return d, [x.numerator * (d // x.denominator) for x in point]


def _integer_terms(terms: Mapping) -> tuple[int, dict]:
    """(D, D * terms) with D the lcm of the coefficients' denominators, as {monomial: int}."""
    d = lcm(*(c.denominator for c in terms.values()))
    if d == 1:
        return 1, {m: c.numerator for m, c in terms.items()}
    return d, {m: c.numerator * (d // c.denominator) for m, c in terms.items()}


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
    """Immutable multivariate polynomial with exact rational coefficients."""

    __slots__ = ("variables", "terms")

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
                clean[mon] = clean.get(mon, Fraction(0)) + c
            clean = {m: c for m, c in clean.items() if c != 0}
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def _make(cls, variables: tuple, terms: dict) -> "MultiPoly":
        """Trusted constructor: the arguments already meet the invariant."""
        p = object.__new__(cls)
        p.variables = variables
        p.terms = terms
        return p

    @classmethod
    def _from_ints(cls, variables: tuple, d: int, terms: dict) -> "MultiPoly":
        """terms / d from {monomial: int}: one Fraction per nonzero term."""
        return cls._make(variables, {m: Fraction(c, d) for m, c in terms.items() if c})

    @classmethod
    def zero(cls, variables) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, c) -> "MultiPoly":
        variables = tuple(variables)
        c = _exact(c)
        return cls._make(variables, {(0,) * len(variables): c} if c else {})

    @classmethod
    def var(cls, variables, name) -> "MultiPoly":
        variables = tuple(variables)
        i = variables.index(name)
        mon = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {mon: Fraction(1)})

    @classmethod
    def parse(cls, text: str, variables) -> "MultiPoly":
        """Parse the canonical syntax; also accepts parenthesised factors."""
        variables = tuple(variables)
        index = {v: i for i, v in enumerate(variables)}
        pos = 0
        tokens = []
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise ValueError(f"cannot tokenize {text[pos:]!r}")
                break
            pos = m.end()
            tokens.append(m)

        def parse_sum(i):
            sign = 1
            while i < len(tokens) and tokens[i]["op"] in ("+", "-"):
                if tokens[i]["op"] == "-":
                    sign = -sign
                i += 1
            acc, i = parse_product(i)
            acc = acc * sign
            while i < len(tokens) and tokens[i]["op"] in ("+", "-"):
                sign = 1
                while i < len(tokens) and tokens[i]["op"] in ("+", "-"):
                    if tokens[i]["op"] == "-":
                        sign = -sign
                    i += 1
                term, i = parse_product(i)
                acc = acc + term * sign
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
                if name not in index:
                    raise ValueError(f"unknown variable {name!r}")
                base, i = cls.var(variables, name), i + 1
            else:
                raise ValueError(f"unexpected token {t.group()!r}")
            if i < len(tokens) and tokens[i]["op"] == "^":
                exp_tok = tokens[i + 1]
                if not exp_tok["num"] or "/" in exp_tok["num"]:
                    raise ValueError("exponent must be a natural number")
                base, i = base ** int(exp_tok["num"]), i + 2
            return base, i

        if not tokens:
            return cls.zero(variables)
        result, i = parse_sum(0)
        if i != len(tokens):
            raise ValueError("trailing tokens in polynomial text")
        return result

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention."""
        return max((sum(m) for m in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def leading_monomial(self, order: TermOrder = GREVLEX) -> tuple:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=order.key)

    def coefficient(self, mon: tuple) -> Fraction:
        return self.terms.get(tuple(mon), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.variables), Fraction(0))

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
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m)
            s = c if s is None else s + c
            if s:
                terms[m] = s
            else:
                del terms[m]
        return MultiPoly._make(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._make(self.variables, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else other - self

    def _scale(self, c: Fraction) -> "MultiPoly":
        if not c:
            return MultiPoly._make(self.variables, {})
        return MultiPoly._make(self.variables, {m: k * c for m, k in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (Rational, float)):
                return NotImplemented
            return self._scale(_exact(other))
        # integer numerators over the lcm of each operand's denominators: the
        # pair products and sums stay in ints, one Fraction per output term
        da, a = _integer_terms(self.terms)
        db, b = _integer_terms(self._coerce(other).terms)
        return MultiPoly._from_ints(self.variables, da * db, _int_product(a, b))

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
        if isinstance(other, MultiPoly):
            return self.variables == other.variables and self.terms == other.terms
        if not self.is_constant() and not isinstance(other, (int, Fraction)):
            return NotImplemented
        try:
            return self.constant_term() == Fraction(other) and self.is_constant()
        except (TypeError, ValueError):
            return NotImplemented

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # -- substitution and ring maps ------------------------------------

    def evaluate(self, values: Mapping[str, Fraction]) -> Fraction:
        """The value at a point given by name, in ints and one Fraction; floats are refused."""
        d, xs = _scaled_point(values, self.variables)
        cden, ints = _integer_terms(self.terms)
        num, deg = _int_value(ints, d, xs)
        return Fraction(num, cden * d**deg)

    def substitute(self, images: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Ring map sending each variable to a polynomial (all in one target ring)."""
        target = None
        for img in images.values():
            target = img.variables
            break
        if target is None:
            raise ValueError("empty substitution")
        for v in self.variables:
            if v not in images:
                raise ValueError(f"no image for variable {v!r}")
        out = MultiPoly.zero(target)
        for m, c in self.terms.items():
            term = MultiPoly.constant(target, c)
            for e, v in zip(m, self.variables):
                if e:
                    term = term * images[v] ** e
            out = out + term
        return out

    def rename(self, variables) -> "MultiPoly":
        """Reinterpret in a ring whose variables contain the current ones."""
        variables = tuple(variables)
        pos = [variables.index(v) for v in self.variables]
        n = len(variables)
        terms = {}
        for m, c in self.terms.items():
            mon = [0] * n
            for e, p in zip(m, pos):
                mon[p] = e
            terms[tuple(mon)] = c
        return MultiPoly._make(variables, terms)

    def restrict(self, variables) -> "MultiPoly":
        """Drop unused variables; fails if a dropped variable occurs."""
        variables = tuple(variables)
        keep = [self.variables.index(v) for v in variables]
        dropset = [i for i in range(len(self.variables)) if self.variables[i] not in variables]
        terms = {}
        for m, c in self.terms.items():
            if any(m[i] for i in dropset):
                raise ValueError("polynomial involves a dropped variable")
            terms[tuple(m[i] for i in keep)] = c
        return MultiPoly._make(variables, terms)

    # -- integer normal forms ------------------------------------------

    def primitive(self) -> tuple["MultiPoly", Fraction]:
        """Return (primitive integer part, content) with content * part == self."""
        if not self.terms:
            return self, Fraction(1)
        den, ints = _integer_terms(self.terms)
        g = gcd(*ints.values())
        if ints[self.leading_monomial()] < 0:
            g = -g
        part = MultiPoly._from_ints(self.variables, 1, {m: c // g for m, c in ints.items()})
        return part, Fraction(g, den)

    # -- printing -------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        mons = sorted(self.terms, key=GREVLEX.key, reverse=True)
        pieces = []
        for m in mons:
            c = self.terms[m]
            factors = [
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, m)
                if e
            ]
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
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
