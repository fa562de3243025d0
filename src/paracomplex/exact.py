"""Exact scalar tower: rationals, sparse multivariate polynomials, and
rational functions in named patch variables.

All coefficient arithmetic is done with ``fractions.Fraction``, so every
operation in this package is exact and every identity test is literal
equality.  A polynomial is a dict mapping exponent tuples (one entry per
variable) to nonzero rational coefficients; the zero polynomial has an empty
term dict.  A rational function keeps its denominator as a product of monic
factors with multiplicities, which lets the arithmetic cancel repeated
factors by trial exact division without a general multivariate gcd.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Fraction
Scalar = Union[int, Fraction]
Exponent = tuple[int, ...]


class PoleAtPoint(ArithmeticError):
    """A denominator vanished at the evaluation point."""


class ParseError(ValueError):
    """A scalar literal could not be parsed."""


def _term_key(exps: Exponent) -> tuple[int, Exponent]:
    # Degree-then-lex term order; only used to pick a deterministic leading term.
    return (sum(exps), exps)


class Poly:
    """Multivariate polynomial with Fraction coefficients.

    Immutable by convention: no method mutates ``terms`` after construction.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Exponent, Fraction] | None = None):
        self.nvars = nvars
        self.terms: dict[Exponent, Fraction] = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[e] = Fraction(c)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> Poly:
        return Poly(nvars)

    @staticmethod
    def const(nvars: int, value: Scalar) -> Poly:
        c = Fraction(value)
        return Poly(nvars, {(0,) * nvars: c} if c else None)

    @staticmethod
    def var(i: int, nvars: int) -> Poly:
        e = tuple(1 if j == i else 0 for j in range(nvars))
        return Poly(nvars, {e: Fraction(1)})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return all(not any(e) for e in self.terms)

    def const_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        (e, c), = self.terms.items()
        if any(e):
            raise ValueError("not a constant polynomial")
        return c

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, self.key()))

    def key(self) -> tuple:
        """Canonical hashable identity of the polynomial."""
        return tuple(sorted(self.terms.items()))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> Poly | None:
        if isinstance(other, Poly):
            return other if other.nvars == self.nvars else None
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.nvars, other)
        return None

    def __add__(self, other) -> Poly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in o.terms.items():
            s = terms.get(e, Fraction(0)) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        p = Poly(self.nvars)
        p.terms = terms
        return p

    __radd__ = __add__

    def __neg__(self) -> Poly:
        p = Poly(self.nvars)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other) -> Poly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> Poly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> Poly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, Fraction(0)) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        p = Poly(self.nvars)
        p.terms = terms
        return p

    __rmul__ = __mul__

    def __pow__(self, k: int) -> Poly:
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def scale(self, c: Scalar) -> Poly:
        c = Fraction(c)
        if not c:
            return Poly.zero(self.nvars)
        p = Poly(self.nvars)
        p.terms = {e: v * c for e, v in self.terms.items()}
        return p

    # -- leading term, division -------------------------------------------

    def leading(self) -> tuple[Exponent, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_term_key)
        return e, self.terms[e]

    def monic(self) -> tuple[Poly, Fraction]:
        """Return (self / lc, lc) where lc is the leading coefficient."""
        _, lc = self.leading()
        return self.scale(1 / lc), lc

    def exact_div(self, divisor: Poly) -> Poly | None:
        """Exact polynomial quotient, or None when the division fails.

        Single-divisor division w.r.t. the term order is a complete test of
        divisibility: it reaches zero remainder iff divisor | self.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return Poly.zero(self.nvars)
        de, dc = divisor.leading()
        rem = dict(self.terms)
        quot: dict[Exponent, Fraction] = {}
        while rem:
            e = max(rem, key=_term_key)
            c = rem[e]
            qe = tuple(a - b for a, b in zip(e, de))
            if any(x < 0 for x in qe):
                return None
            qc = c / dc
            quot[qe] = qc
            for fe, fc in divisor.terms.items():
                t = tuple(a + b for a, b in zip(qe, fe))
                s = rem.get(t, Fraction(0)) - qc * fc
                if s:
                    rem[t] = s
                else:
                    rem.pop(t, None)
        q = Poly(self.nvars)
        q.terms = quot
        return q

    # -- calculus ----------------------------------------------------------

    def partial(self, i: int) -> Poly:
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range")
        terms: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = tuple(a - 1 if j == i else a for j, a in enumerate(e))
                terms[ne] = terms.get(ne, Fraction(0)) + c * e[i]
        p = Poly(self.nvars)
        p.terms = {e: c for e, c in terms.items() if c}
        return p

    def jet_at(self, point: Sequence[Fraction], order: int = 0) -> tuple:
        """(value,), (value, gradient) or (value, gradient, Hessian) at the point
        for order 0, 1 or 2, in Q as plain tuples.  Term by term on integers:
        with the point X / D, coefficients c / C and total degree N, a partial
        d^o is the sum of c D^(N - |e|) d^o X^e over C D^(N - o)."""
        n = self.nvars
        if len(point) != n:
            raise ValueError("point length does not match variable count")
        den = math.lcm(*(x.denominator for x in point))
        cden = math.lcm(*(c.denominator for c in self.terms.values()))
        top = self.total_degree()
        xs = [x.numerator * (den // x.denominator) for x in point]
        pw = [[x ** k for k in range(top + 1)] for x in xs]  # pw[i][k] = X_i^k
        ns = range(n)
        parts = [()] + [(i,) for i in ns] * (order > 0) \
            + [(i, k) for i in ns for k in ns if i <= k] * (order > 1)
        sums = dict.fromkeys(parts, 0)
        for e, c in self.terms.items():
            c = c.numerator * (cden // c.denominator) * den ** (top - sum(e))
            for part in parts:
                f, ee = c, list(e)
                for i in part:
                    f, ee[i] = f * ee[i], ee[i] - 1
                if f:
                    sums[part] += f * math.prod(pw[i][k] for i, k in enumerate(ee))
        q = {part: Fraction(v, cden * den ** max(top - len(part), 0)) for part, v in sums.items()}
        out = (q[()],)
        if order:
            out += (tuple(q[i,] for i in ns),)
        if order > 1:
            out += (tuple(tuple(q[min(i, k), max(i, k)] for k in ns) for i in ns),)
        return out

    # -- display -----------------------------------------------------------

    def to_str(self, names: Sequence[str] | None = None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i + 1}" for i in range(self.nvars)]
        parts = []
        for e in sorted(self.terms, key=_term_key, reverse=True):
            c = self.terms[e]
            factors = []
            for name, k in zip(names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            parts.append(("- " if c < 0 else "+ ") + body)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else ("-" + s[2:])

    def __repr__(self) -> str:
        return f"Poly({self.to_str()})"


def _factors_mul(a: dict[tuple, tuple[Poly, int]], b: dict[tuple, tuple[Poly, int]]):
    out = dict(a)
    for k, (p, m) in b.items():
        if k in out:
            out[k] = (out[k][0], out[k][1] + m)
        else:
            out[k] = (p, m)
    return out


class RatFunc:
    """Rational function num / prod(factor^mult) with monic denominator factors.

    Equality is decided by cross-multiplication; no gcd normalization is
    required for correctness.  Trial exact division against the stored
    factors keeps denominators reduced in the common power-of-one-factor
    workloads (conformal metrics and their derivatives).
    """

    __slots__ = ("nvars", "num", "factors")

    def __init__(self, num: Poly, factors: dict | None = None):
        self.nvars = num.nvars
        self.num = num
        self.factors: dict[tuple, tuple[Poly, int]] = dict(factors) if factors else {}
        self._normalize()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(nvars: int, value: Scalar) -> RatFunc:
        return RatFunc(Poly.const(nvars, value))

    @staticmethod
    def zero(nvars: int) -> RatFunc:
        return RatFunc(Poly.zero(nvars))

    @staticmethod
    def one(nvars: int) -> RatFunc:
        return RatFunc(Poly.const(nvars, 1))

    @staticmethod
    def var(i: int, nvars: int) -> RatFunc:
        return RatFunc(Poly.var(i, nvars))

    @staticmethod
    def quotient(num: Poly, den: Poly) -> RatFunc:
        if den.is_zero():
            raise ZeroDivisionError("zero denominator polynomial")
        monic, lc = den.monic()
        f = RatFunc(num.scale(1 / lc))
        if not monic.is_const():
            f.factors = {monic.key(): (monic, 1)}
            f._normalize()
        return f

    # -- internals ----------------------------------------------------------

    def _normalize(self) -> None:
        if self.num.is_zero():
            self.factors = {}
            return
        factors = {}
        for k, (p, m) in self.factors.items():
            while m > 0:
                q = self.num.exact_div(p)
                if q is None:
                    break
                self.num = q
                m -= 1
            if m > 0:
                factors[k] = (p, m)
        self.factors = factors

    def den(self) -> Poly:
        d = Poly.const(self.nvars, 1)
        for p, m in self.factors.values():
            d = d * p ** m
        return d

    def _coerce(self, other) -> RatFunc | None:
        if isinstance(other, RatFunc):
            return other if other.nvars == self.nvars else None
        if isinstance(other, Poly):
            return RatFunc(other) if other.nvars == self.nvars else None
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(self.nvars, other)
        return None

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.is_zero() or (self.num.is_const() and not self.factors)

    def const_value(self) -> Fraction:
        if self.factors and not self.num.is_zero():
            raise ValueError("not a constant rational function")
        return self.num.const_value()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.num * o.den()) == (o.num * self.den())

    def __hash__(self) -> int:
        raise TypeError("RatFunc is not hashable (equality is semantic)")

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other) -> RatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero():
            return self
        if self.num.is_zero():
            return o
        # common denominator: lcm of the factored forms
        merged: dict[tuple, tuple[Poly, int]] = {}
        for k, (p, m) in self.factors.items():
            merged[k] = (p, m)
        for k, (p, m) in o.factors.items():
            if k in merged:
                merged[k] = (p, max(merged[k][1], m))
            else:
                merged[k] = (p, m)
        num1 = self.num
        for k, (p, m) in merged.items():
            extra = m - (self.factors[k][1] if k in self.factors else 0)
            if extra:
                num1 = num1 * p ** extra
        num2 = o.num
        for k, (p, m) in merged.items():
            extra = m - (o.factors[k][1] if k in o.factors else 0)
            if extra:
                num2 = num2 * p ** extra
        return RatFunc(num1 + num2, merged)

    __radd__ = __add__

    def __neg__(self) -> RatFunc:
        return RatFunc(-self.num, self.factors)

    def __sub__(self, other) -> RatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> RatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> RatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, _factors_mul(self.factors, o.factors))

    __rmul__ = __mul__

    def __truediv__(self, other) -> RatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        inv_num = o.den()
        monic, lc = o.num.monic()
        factors = dict(self.factors)
        if not monic.is_const():
            factors = _factors_mul(factors, {monic.key(): (monic, 1)})
        return RatFunc(self.num * inv_num.scale(1 / lc), factors)

    def __rtruediv__(self, other) -> RatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int) -> RatFunc:
        if k < 0:
            return RatFunc.one(self.nvars) / self ** (-k)
        if k == 0:
            return RatFunc.one(self.nvars)
        return RatFunc(self.num ** k, {key: (p, m * k) for key, (p, m) in self.factors.items()})

    # -- calculus ---------------------------------------------------------------

    def partial(self, i: int) -> RatFunc:
        """Exact quotient-rule derivative w.r.t. variable i.

        With den = prod f_s^{m_s} the derivative is
        [num' * prod f_s - num * sum m_s f_s' prod_{t!=s} f_t] / prod f_s^{m_s+1},
        which keeps the factored denominator structure.
        """
        if not self.factors:
            return RatFunc(self.num.partial(i))
        fs = list(self.factors.values())
        prod_all = Poly.const(self.nvars, 1)
        for p, _ in fs:
            prod_all = prod_all * p
        top = self.num.partial(i) * prod_all
        for s, (p, m) in enumerate(fs):
            rest = Poly.const(self.nvars, 1)
            for t, (q, _) in enumerate(fs):
                if t != s:
                    rest = rest * q
            top = top - self.num * p.partial(i).scale(m) * rest
        new_factors = {k: (p, m + 1) for k, (p, m) in self.factors.items()}
        return RatFunc(top, new_factors)

    def jet_at(self, point: Sequence, order: int = 0, cache: dict | None = None) -> tuple:
        """The jet at the point as Poly.jet_at gives it, by forward-mode Taylor
        arithmetic.  Each denominator factor's jet is read from `cache` (factor
        key -> jet) or computed and stored there, so a matrix computes it once."""
        jet = self.num.jet_at(point, order)
        cache = {} if cache is None else cache
        for key, (p, m) in self.factors.items():
            u = cache.get(key)
            if u is None:
                u = cache[key] = p.jet_at(point, order)
                if u[0] == 0:
                    raise PoleAtPoint(
                        f"denominator factor vanishes at ({', '.join(map(str, point))})")
            for _ in range(m):
                jet = _jet_div(jet, u)
        return jet

    def eval_at(self, point: Sequence[Fraction]) -> Fraction:
        return self.jet_at(point)[0]

    # -- display ---------------------------------------------------------------

    def to_str(self, names: Sequence[str] | None = None) -> str:
        num = self.num.to_str(names)
        if not self.factors:
            return num
        den_parts = []
        for p, m in sorted(self.factors.values(), key=lambda fm: fm[0].key()):
            base = f"({p.to_str(names)})"
            den_parts.append(base if m == 1 else f"{base}^{m}")
        return f"({num})/({'*'.join(den_parts)})"

    def __repr__(self) -> str:
        return f"RatFunc({self.to_str()})"


# -- module-level operations ------------------------------------------------------


def _jet_div(a: tuple, u: tuple) -> tuple:
    """The jet of q = a / u where u(p) != 0, solved from a = q u by the Leibniz
    rule: q_i = (a_i - q u_i) / u and q_ij = (a_ij - q_i u_j - q_j u_i - q u_ij) / u."""
    q = (a[0] / u[0],)
    if len(a) > 1:
        q += (tuple((ai - q[0] * ui) / u[0] for ai, ui in zip(a[1], u[1])),)
    if len(a) > 2:
        g, ug, ns = q[1], u[1], range(len(u[1]))
        q += (tuple(tuple((a[2][i][j] - g[i] * ug[j] - g[j] * ug[i] - q[0] * u[2][i][j]) / u[0]
                          for j in ns) for i in ns),)
    return q


def as_point(values: Iterable, nvars: int | None = None) -> tuple[Fraction, ...]:
    pt = tuple(Fraction(v) for v in values)
    if nvars is not None and len(pt) != nvars:
        raise ValueError(f"expected {nvars} coordinates, got {len(pt)}")
    return pt


# -- the 4-dimensional patch: coordinate names and default sample points ------------------------


VARS4 = ["x1", "x2", "x3", "x4"]

DEFAULT_POINTS = [
    (0, 0, 0, 0),
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5), 0),
    (1, 1, -1, Fraction(1, 2)),
]


# -- parsing ---------------------------------------------------------------------
#
# Grammar (whitespace insignificant):
#   expr   := term (('+'|'-') term)*
#   term   := unary (('*'|'/') unary)*
#   unary  := '-' unary | power
#   power  := atom ('^' nat)?
#   atom   := nat | varname | '(' expr ')'


class _Tokens:
    def __init__(self, text: str):
        self.toks: list[str] = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "+-*/^()":
                self.toks.append(ch)
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.toks.append(text[i:j])
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.toks.append(text[i:j])
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}")
        self.pos = 0

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok


def check_variables(variables) -> list:
    """The "vars" of a descriptor or metric file: a nonempty list of distinct
    identifier strings, else ParseError."""
    if not (isinstance(variables, list) and variables and len(set(variables)) == len(variables)
            and all(isinstance(v, str) and v.isidentifier() for v in variables)):
        raise ParseError(f'"vars" must be a list of distinct identifiers, got {variables!r}')
    return variables


def parse_ratfunc(text: str, variables: Sequence[str]) -> RatFunc:
    """Parse a rational-function literal over the given variable names."""
    if not isinstance(text, str):
        raise ParseError(f"expected a string literal, got {text!r}")
    nvars = len(variables)
    index = {name: i for i, name in enumerate(variables)}
    toks = _Tokens(text)

    def expr() -> RatFunc:
        value = term()
        while toks.peek() in ("+", "-"):
            op = toks.next()
            rhs = term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term() -> RatFunc:
        value = unary()
        while toks.peek() in ("*", "/"):
            op = toks.next()
            rhs = unary()
            if op == "/" and rhs.is_zero():
                raise ParseError(f"division by zero in {text!r}")
            value = value * rhs if op == "*" else value / rhs
        return value

    def unary() -> RatFunc:
        if toks.peek() == "-":
            toks.next()
            return -unary()
        return power()

    def power() -> RatFunc:
        base = atom()
        if toks.peek() == "^":
            toks.next()
            tok = toks.next()
            if not tok.isdigit():
                raise ParseError(f"exponent must be a nonnegative integer, got {tok!r}")
            return base ** int(tok)
        return base

    def atom() -> RatFunc:
        tok = toks.next()
        if tok == "(":
            value = expr()
            if toks.next() != ")":
                raise ParseError("missing closing parenthesis")
            return value
        if tok.isdigit():
            return RatFunc.const(nvars, int(tok))
        if tok in index:
            return RatFunc.var(index[tok], nvars)
        raise ParseError(f"unknown token {tok!r}")

    value = expr()
    if toks.peek() is not None:
        raise ParseError(f"trailing input at token {toks.peek()!r}")
    return value
