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

    def heap_key(self, mon: tuple) -> tuple:
        """Key that sorts ascending exactly when the monomial descends."""
        if self.kind == "grevlex":
            return (-sum(mon), tuple(reversed(mon)))
        if self.kind == "lex":
            return tuple(map(neg, mon))
        k = self.block
        return (
            (-sum(mon[:k]), tuple(reversed(mon[:k]))),
            (-sum(mon[k:]), tuple(reversed(mon[k:]))),
        )

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
    """c as a Fraction; floats are refused, since they are not exact."""
    if isinstance(c, float):
        raise TypeError(f"float {c!r} in exact arithmetic; pass an int or a Fraction")
    return Fraction(c)


def _scaled_point(values: Mapping, names) -> tuple[int, list]:
    """(d, xs) with the values at `names` equal to xs / d, d the lcm of their denominators."""
    point = [_exact(values[v]) for v in names]
    d = lcm(*(x.denominator for x in point))
    return d, [x.numerator * (d // x.denominator) for x in point]


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

    def leading_coefficient(self, order: TermOrder = GREVLEX) -> Fraction:
        return self.terms[self.leading_monomial(order)]

    def coefficient(self, mon: tuple) -> Fraction:
        return self.terms.get(tuple(mon), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.variables), Fraction(0))

    def support_variables(self) -> set:
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(self.variables[i])
        return used

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.variables != self.variables:
                raise ValueError("variable sets differ")
            return other
        return MultiPoly.constant(self.variables, other)

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in self._coerce(other).terms.items():
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
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def _scale(self, c: Fraction) -> "MultiPoly":
        if not c:
            return MultiPoly._make(self.variables, {})
        return MultiPoly._make(self.variables, {m: k * c for m, k in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self._scale(_exact(other))
        a, b = self.terms, self._coerce(other).terms
        # integer numerators over the lcm of each operand's denominators: the
        # pair products and sums stay in ints, one Fraction per output term
        da = lcm(*(c.denominator for c in a.values()))
        db = lcm(*(c.denominator for c in b.values()))
        ib = [(m, c.numerator * (db // c.denominator)) for m, c in b.items()]
        out: dict = {}
        for m1, c1 in a.items():
            c1 = c1.numerator * (da // c1.denominator)
            for m2, c2 in ib:
                m = tuple(map(add, m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        den = da * db
        return MultiPoly._make(
            self.variables, {m: Fraction(c, den) for m, c in out.items() if c}
        )

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
        return Fraction(*self._eval_scaled(*_scaled_point(values, self.variables)))

    def _eval_scaled(self, d: int, xs: list) -> tuple[int, int]:
        """(N, D) in ints, N / D the value at xs / d: each term is padded by d to the top degree."""
        cden = lcm(*(c.denominator for c in self.terms.values()))
        deg = max(map(sum, self.terms), default=0)
        total = 0
        for m, c in self.terms.items():
            v = c.numerator * (cden // c.denominator) * d ** (deg - sum(m))
            for e, x in zip(m, xs):
                if e:
                    v *= x**e
            total += v
        return total, cden * d**deg

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
        den = 1
        for c in self.terms.values():
            den = den * c.denominator // gcd(den, c.denominator)
        num = 0
        for c in self.terms.values():
            num = gcd(num, c.numerator * (den // c.denominator))
        lead = self.terms[self.leading_monomial()]
        sign = -1 if lead < 0 else 1
        content = Fraction(sign * num, den)
        part = MultiPoly._make(
            self.variables, {m: c / content for m, c in self.terms.items()}
        )
        return part, content

    def monic(self, order: TermOrder = GREVLEX) -> "MultiPoly":
        if not self.terms:
            return self
        lc = self.leading_coefficient(order)
        return MultiPoly._make(self.variables, {m: c / lc for m, c in self.terms.items()})

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
