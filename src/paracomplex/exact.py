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
from operator import mul
from typing import Sequence, Union

Rational = Fraction
Scalar = Union[int, Fraction]
Exponent = tuple[int, ...]


class PoleAtPoint(ArithmeticError):
    """A denominator vanished at the evaluation point."""

    def __init__(self, point):
        super().__init__(f"denominator factor vanishes at ({', '.join(map(str, point))})")


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
        return _power(self, k, mul)

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
        """(D, jet): the value, gradient and Hessian at the point as integers over
        one denominator D > 0, jet being (value,), (value, gradient) or (value,
        gradient, Hessian) for order 0, 1 or 2, as plain tuples.  Term by term:
        with the point X / P, coefficients c / C and total degree N, D = C P^N
        and a partial d^o has the numerator sum of c P^(N - |e| + o) d^o X^e."""
        n = self.nvars
        if len(point) != n:
            raise ValueError("point length does not match variable count")
        den = math.lcm(*(x.denominator for x in point))
        cden = math.lcm(*(c.denominator for c in self.terms.values()))
        top = self.total_degree()
        xs = [x.numerator * (den // x.denominator) for x in point]
        pw = [[x ** k for k in range(top + 1)] for x in xs]  # pw[i][k] = X_i^k
        ns = range(n)
        value, grad, hess = 0, [0] * n, [[0] * n for _ in ns]
        for e, c in self.terms.items():
            c = c.numerator * (cden // c.denominator) * den ** (top - sum(e))
            m = [pw[i][k] for i, k in enumerate(e)]  # the factors of X^e, lowered in place
            value += c * math.prod(m)
            for i in range(n if order else 0):
                if not e[i]:
                    continue
                m[i], mi = pw[i][e[i] - 1], m[i]
                ci = c * den * e[i]
                grad[i] += ci * math.prod(m)
                if order > 1 and e[i] > 1:
                    m[i] = pw[i][e[i] - 2]
                    hess[i][i] += ci * den * (e[i] - 1) * math.prod(m)
                    m[i] = pw[i][e[i] - 1]
                for k in range(i + 1, n if order > 1 else 0):
                    if e[k]:
                        m[k], mk = pw[k][e[k] - 1], m[k]
                        hess[i][k] += ci * den * e[k] * math.prod(m)
                        m[k] = mk
                m[i] = mi
        out = (value,)
        if order:
            out += (tuple(grad),)
        if order > 1:
            out += (tuple(tuple(hess[min(i, k)][max(i, k)] for k in ns) for i in ns),)
        return cden * den ** top, out

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


def _power(p: Poly, k: int, times) -> Poly:
    """p^k for k >= 0 by repeated squaring, each product formed as times(a, b)."""
    result = Poly.const(p.nvars, 1)
    while k:
        if k & 1:
            result = times(result, p)
        p = times(p, p) if k > 1 else p
        k >>= 1
    return result


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
        """The jet at the point as Poly.jet_at gives it, (D, jet) on integers, by
        the quotient rule once per multiplicity of each denominator factor.  Each
        factor's jet is read from `cache` (factor key -> jet) or computed and
        stored there, so a matrix computes it once."""
        den, jet = self.num.jet_at(point, order)
        cache = {} if cache is None else cache
        for key, (p, m) in self.factors.items():
            u = cache.get(key)
            if u is None:
                e, u = p.jet_at(point, order)
                if u[0] == 0:
                    raise PoleAtPoint(point)
                if u[0] < 0:  # U / E = (-U) / (-E): keep the value's numerator positive
                    e, u = -e, _jet_neg(u)
                u = cache[key] = (e, u)
            for _ in range(m):
                den, jet = _jet_div(den, jet, u)
        return den, jet

    def eval_at(self, point: Sequence[Fraction]) -> Fraction:
        den, (value,) = self.jet_at(point)
        return Fraction(value, den)

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


def _jet_neg(jet: tuple) -> tuple:
    return tuple(-x if isinstance(x, int) else _jet_neg(x) for x in jet)


def _jet_div(den: int, a: tuple, u: tuple) -> tuple:
    """(den', q) with q / den' the jet of (a / den) / (U / E), for an integer jet
    u = (E, U) whose value w = U(p) is positive, by the quotient rule on
    integers: with o the order, den' = den w^(o+1), and the numerator of a
    partial of order k is w^(o-k) E times a_0, a_i w - a_0 U_i, or
    (a_ij w - a_i U_j - a_j U_i - a_0 U_ij) w + 2 a_0 U_i U_j."""
    e, (w, *du) = u
    order, a0 = len(a) - 1, a[0]
    q = (a0 * w ** order * e,)
    if order:
        ag, ug = a[1], du[0]
        f = w ** (order - 1) * e
        q += (tuple((ai * w - a0 * ui) * f for ai, ui in zip(ag, ug)),)
    if order > 1:
        ah, uh, n = a[2], du[1], len(ug)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = e * (
                    (ah[i][j] * w - ag[i] * ug[j] - ag[j] * ug[i] - a0 * uh[i][j]) * w
                    + 2 * a0 * ug[i] * ug[j])
        q += (tuple(map(tuple, rows)),)
    return den * w ** (order + 1), q


# -- the 4-dimensional patch: coordinate names and default sample points ------------------------


VARS4 = ["x1", "x2", "x3", "x4"]

DEFAULT_POINTS = [
    (0, 0, 0, 0),
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5), 0),
    (1, 1, -1, Fraction(1, 2)),
]


# -- rational literals ---------------------------------------------------------------
#
# A point coordinate, or the c of constcurv:<c>, is a Fraction literal: 7, -1/2,
# 0.25 or 1e-3.  Fraction expands a decimal exponent in full (1e9999999 is a
# ten-million-digit integer), so the exponent is read first and bounded.

MAX_EXPONENT = 1000
_DIGITS_BOUND = 10 ** (MAX_EXPONENT + 1)  # the least integer of MAX_EXPONENT + 2 digits


def parse_rational(text: str) -> Fraction:
    """The Fraction literal text, whose decimal exponent is at most MAX_EXPONENT
    in magnitude and whose numerator and denominator have at most
    MAX_EXPONENT + 1 digits (1e1000 has 1001); ValueError for another literal,
    ZeroDivisionError for n/0."""
    exponent = text.lower().partition("e")[2].strip().lstrip("+-").replace("_", "")
    if exponent.isdecimal() and (len(exponent.lstrip("0")) > 4 or int(exponent) > MAX_EXPONENT):
        raise ValueError(f"the exponent of {text.strip()!r} is above {MAX_EXPONENT} in magnitude")
    value = Fraction(text)
    if max(abs(value.numerator), value.denominator) >= _DIGITS_BOUND:
        raise ValueError(f"the numerator or denominator of {text.strip()!r} has more than "
                         f"{MAX_EXPONENT + 1} digits")
    return value


# -- parsing ---------------------------------------------------------------------
#
# Grammar (whitespace insignificant):
#   expr   := term (('+'|'-') term)*
#   term   := unary (('*'|'/') unary)*
#   unary  := '-' unary | power
#   power  := atom ('^' nat)?
#   atom   := nat | varname | '(' expr ')'
#
# A power's exponent and its total degree are at most MAX_POWER, and its
# exponent times the bit length of the base's largest numerator coefficient at
# most MAX_POWER_BITS: a longer exponent, or one nested in another, would expand
# past any use (x1^99999999999 tabulates that many powers of x1 per jet, and
# 2^99999999999 squares a constant that many bits long).
#
# Those bounds hold for each power, so a product of bounded powers could still
# expand in full: (x1+x2+x3+x4)^16*(x1+x2+x3+x4)^16 took 9 s.  So each product
# of polynomials the parser forms, for `*`, in the squarings of `^`, and between
# a numerator and the denominator factors that `+` and `/` multiply it by, is
# checked on its operands' term counts, and refused above MAX_TERM_PAIRS pairs.

MAX_POWER = 16
MAX_POWER_BITS = 1024
MAX_TERM_PAIRS = 4096


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
                raise ValueError(f"unexpected character {ch!r}")
        self.pos = 0

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of input")
        self.pos += 1
        return tok


# `integrability` sweeps a structure on n variables over C(2n, 2) frame pairs, so
# its time grows without bound in n; 16 leaves room for the dim-8 generalized
# reflector space (T + T* of rank 16)
MAX_VARS = 16


def check_variables(variables) -> list:
    """The "vars" of a descriptor or metric file: a nonempty list of at most
    MAX_VARS distinct identifier strings, else ValueError."""
    if not (isinstance(variables, list) and variables and len(set(variables)) == len(variables)
            and all(isinstance(v, str) and v.isidentifier() for v in variables)):
        raise ValueError(f'"vars" must be a list of distinct identifiers, got {variables!r}')
    if len(variables) > MAX_VARS:
        raise ValueError(f'"vars" has {len(variables)} names, above the bound of {MAX_VARS}')
    return variables


def parse_ratfunc(text: str, variables: Sequence[str]) -> RatFunc:
    """Parse a rational-function literal over the given variable names."""
    if not isinstance(text, str):
        raise ValueError(f"expected a string literal, got {text!r}")
    nvars = len(variables)
    index = {name: i for i, name in enumerate(variables)}
    toks = _Tokens(text)

    def check(m: int, n: int) -> None:
        if m * n > MAX_TERM_PAIRS:
            raise ValueError(f"a product in {text!r} is above the bound of {MAX_TERM_PAIRS} "
                             "term pairs")

    def times(a: Poly, b: Poly) -> Poly:
        check(len(a.terms), len(b.terms))
        return a * b

    def check_lift(f: RatFunc, factors: dict, have: dict) -> None:
        """Check the products that multiply f's numerator by each of the factors
        to its multiplicity above the one in have, as RatFunc + and / do; the
        size of each partial product is bounded by the product of the sizes."""
        size = max(len(f.num.terms), 1)
        for key, (p, m) in factors.items():
            extra = m - have[key][1] if key in have else m
            if extra > 0:
                lift = len(_power(p, extra, times).terms)
                check(size, lift)
                size *= lift

    def expr() -> RatFunc:
        value = term()
        while toks.peek() in ("+", "-"):
            op = toks.next()
            rhs = term()
            check_lift(value, rhs.factors, value.factors)
            check_lift(rhs, value.factors, rhs.factors)
            value = value + rhs if op == "+" else value - rhs
        return value

    def term() -> RatFunc:
        value = unary()
        while toks.peek() in ("*", "/"):
            op = toks.next()
            rhs = unary()
            if op == "*":
                check(len(value.num.terms), len(rhs.num.terms))
                value = value * rhs
            elif rhs.is_zero():
                raise ValueError(f"division by zero in {text!r}")
            else:
                check_lift(value, rhs.factors, {})
                value = value / rhs
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
                raise ValueError(f"exponent must be a nonnegative integer, got {tok!r}")
            k = int(tok)
            deg = max(base.num.total_degree(),
                      sum(m * p.total_degree() for p, m in base.factors.values()))
            bits = max((max(abs(c.numerator), c.denominator).bit_length()
                        for c in base.num.terms.values()), default=0)
            if max(k, k * deg) > MAX_POWER or k * bits > MAX_POWER_BITS:
                raise ValueError(f"power ^{tok} is above the bound: {MAX_POWER} on the exponent "
                                 f"and the degree, {MAX_POWER_BITS} on the coefficient bits")
            # base ** k, with each squaring checked
            return RatFunc(_power(base.num, k, times),
                           {key: (p, m * k) for key, (p, m) in base.factors.items()})
        return base

    def atom() -> RatFunc:
        tok = toks.next()
        if tok == "(":
            value = expr()
            if toks.next() != ")":
                raise ValueError("missing closing parenthesis")
            return value
        if tok.isdigit():
            return RatFunc.const(nvars, int(tok))
        if tok in index:
            return RatFunc.var(index[tok], nvars)
        raise ValueError(f"unknown token {tok!r}")

    value = expr()
    if toks.peek() is not None:
        raise ValueError(f"trailing input at token {toks.peek()!r}")
    return value
