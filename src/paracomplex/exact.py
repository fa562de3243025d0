"""Rational functions on integers in named patch variables, points, their jets,
and the literal readers.

A rational function is an integer numerator, a `paracomplex.poly.Poly`, over a
positive integer constant times primitive integer factors with positive
leading coefficients, each with a multiplicity: the content / primitive-part
representation (Geddes, Czapor and Labahn, Algorithms for Computer Algebra,
1992, ch. 2).  A factor's key is the tuple of its terms, all integers, and the
factored denominator lets the arithmetic cancel repeated factors by trial
exact division without a general multivariate gcd.  A point is an integer pair
(D, X) of a positive denominator and the numerators of its coordinates, and a
value there is such a pair too, so every operation is exact and every
identity test literal equality without a Fraction; `poly.rat_str` prints a
pair exactly as str(Fraction) does, and `paracomplex.reference` keeps the
Fraction rational function as the test oracle.
"""

from __future__ import annotations

import math
import re
import sys
from typing import Sequence

from paracomplex.poly import Poly, _power, rat_str


def point_strings(point: tuple) -> list[str]:
    """The coordinates of a point (D, X) as rat_str prints them."""
    den, xs = point
    return [rat_str(den, x) for x in xs]


class PoleAtPoint(ArithmeticError):
    """A denominator vanished at the evaluation point."""

    def __init__(self, point):
        super().__init__(f"denominator factor vanishes at ({', '.join(point_strings(point))})")


def _factors_mul(a: dict[tuple, tuple[Poly, int]], b: dict[tuple, tuple[Poly, int]]):
    out = dict(a)
    for k, (p, m) in b.items():
        if k in out:
            out[k] = (out[k][0], out[k][1] + m)
        else:
            out[k] = (p, m)
    return out


class RatFunc:
    """Rational function num / (den prod(factor^mult)): an integer numerator, a
    positive integer den that shares no factor with num's content, and
    primitive integer factors with positive leading coefficients.

    Equality is decided by cross-multiplication; no gcd normalization is
    required for correctness.  Trial exact division against the stored
    factors keeps denominators reduced in the common power-of-one-factor
    workloads (conformal metrics and their derivatives).  A factor p stands
    for the monic p / lc(p), so the factors, multiplicities and printed form
    are those of a numerator with rational coefficients over monic factors.
    """

    __slots__ = ("nvars", "num", "den", "factors")

    def __init__(self, num: Poly, factors: dict | None = None, den: int = 1):
        self.nvars = num.nvars
        self.num = num
        self.den = den
        self.factors: dict[tuple, tuple[Poly, int]] = dict(factors) if factors else {}
        self._normalize()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(nvars: int, value) -> RatFunc:
        """The constant value, an int or a rational with numerator and denominator."""
        return RatFunc(Poly.const(nvars, value.numerator), None, value.denominator)

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
            self.factors, self.den = {}, 1
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
        g = math.gcd(self.den, *self.num.terms.values()) if self.den > 1 else 1
        if g > 1:
            self.num = Poly(self.nvars, {e: c // g for e, c in self.num.terms.items()})
            self.den //= g

    def _den_poly(self) -> Poly:
        """The product of the factors to their multiplicities, without den."""
        d = Poly.const(self.nvars, 1)
        for p, m in self.factors.values():
            d = d * p ** m
        return d

    def _coerce(self, other) -> RatFunc | None:
        if isinstance(other, RatFunc):
            return other if other.nvars == self.nvars else None
        if isinstance(other, Poly):
            return RatFunc(other) if other.nvars == self.nvars else None
        try:
            return RatFunc.const(self.nvars, other)
        except AttributeError:  # not an int or a rational
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
        return ((self.num * o._den_poly()).scale(o.den)
                == (o.num * self._den_poly()).scale(self.den))

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
        # common denominator: lcm of the constants and of the factored forms
        merged: dict[tuple, tuple[Poly, int]] = dict(self.factors)
        for k, (p, m) in o.factors.items():
            if k in merged:
                merged[k] = (p, max(merged[k][1], m))
            else:
                merged[k] = (p, m)
        den = math.lcm(self.den, o.den)
        nums = []
        for f in (self, o):
            num = f.num.scale(den // f.den)
            for k, (p, m) in merged.items():
                extra = m - (f.factors[k][1] if k in f.factors else 0)
                if extra:
                    num = num * p ** extra
            nums.append(num)
        return RatFunc(nums[0] + nums[1], merged, den)

    __radd__ = __add__

    def __neg__(self) -> RatFunc:
        return RatFunc(-self.num, self.factors, self.den)

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
        return RatFunc(self.num * o.num, _factors_mul(self.factors, o.factors), self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> RatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        c, prim = o.num.primitive()
        factors = dict(self.factors)
        if not prim.is_const():
            factors = _factors_mul(factors, {prim.key(): (prim, 1)})
        num = (self.num * o._den_poly()).scale(o.den if c > 0 else -o.den)
        return RatFunc(num, factors, self.den * abs(c))

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
        return RatFunc(self.num ** k, {key: (p, m * k) for key, (p, m) in self.factors.items()},
                       self.den ** k)

    # -- calculus ---------------------------------------------------------------

    def partial(self, i: int) -> RatFunc:
        """Exact quotient-rule derivative w.r.t. variable i.

        With den = prod f_s^{m_s} the derivative is
        [num' * prod f_s - num * sum m_s f_s' prod_{t!=s} f_t] / prod f_s^{m_s+1},
        which keeps the factored denominator structure.
        """
        if not self.factors:
            return RatFunc(self.num.partial(i), None, self.den)
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
        return RatFunc(top, new_factors, self.den)

    def jet_at(self, point: tuple, order: int = 0, cache: dict | None = None) -> tuple:
        """The jet at the point (P, X) as Poly.jet_at gives it, (D, jet) on
        integers, by the quotient rule once per multiplicity of each denominator
        factor.  Each factor's jet is read from `cache` (factor key -> jet) or
        computed and stored there, so a matrix computes it once."""
        den, jet = self.num.jet_at(point, order)
        den *= self.den
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

    # -- display ---------------------------------------------------------------

    def to_str(self, names: Sequence[str] | None = None) -> str:
        """num / den over the monic factors p / lc(p), the factors ordered by
        the terms of their monic forms, which are compared on integers over
        the lcm of the leading coefficients."""
        fs = [(p, m, p.leading()[1]) for p, m in self.factors.values()]
        num = self.num.to_str(names, self.den * math.prod(lc ** m for _, m, lc in fs))
        if not fs:
            return num
        top = math.lcm(*(lc for *_, lc in fs))
        fs.sort(key=lambda f: tuple((e, c * (top // f[2])) for e, c in f[0].key()))
        den_parts = []
        for p, m, lc in fs:
            base = f"({p.to_str(names, lc)})"
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

# (0,0,0,0), (1,0,0,0), (0,1,0,0), (1/2,-1/3,1/5,0) and (1,1,-1,1/2) as points (D, X)
DEFAULT_POINTS = [
    (1, (0, 0, 0, 0)),
    (1, (1, 0, 0, 0)),
    (1, (0, 1, 0, 0)),
    (30, (15, -10, 6, 0)),
    (2, (2, 2, -2, 1)),
]


# -- rational literals ---------------------------------------------------------------
#
# A point coordinate, or the c of constcurv:<c>, is a Fraction literal: 7, -1/2,
# 0.25 or 1e-3, read by the grammar of fractions.Fraction on this interpreter:
# underscores between digits from 3.11, spaces around "/" from 3.12, and in 3.11
# and 3.12 a decimal part of the letter d, whose int() error Fraction passes on.
# A decimal exponent is expanded in full (1e9999999 is a ten-million-digit
# integer), so the exponent is read first and bounded.

MAX_EXPONENT = 1000
_DIGITS_BOUND = 10 ** (MAX_EXPONENT + 1)  # the least integer of MAX_EXPONENT + 2 digits
_DIGITS = r"\d+" if sys.version_info < (3, 11) else r"\d+(?:_\d+)*"
_SLASH = "/" if sys.version_info < (3, 12) else r"\s*/\s*"
_DECIMAL = ("d*|" if (3, 11) <= sys.version_info < (3, 13) else "") + r"\d*|" + _DIGITS
_LITERAL = (rf"\A\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*|{_DIGITS})"
            rf"(?:(?:{_SLASH}(?P<denom>{_DIGITS}))?"
            rf"|(?:\.(?P<decimal>{_DECIMAL}))?(?:E(?P<exp>[-+]?{_DIGITS}))?)\s*\Z")


def parse_rational(text: str) -> tuple[int, int]:
    """The Fraction literal text as an integer pair (d, n) in lowest terms, d > 0,
    for the value n / d, whose decimal exponent is at most MAX_EXPONENT in
    magnitude and whose n and d have at most MAX_EXPONENT + 1 digits (1e1000
    has 1001); ValueError with Fraction's text for another literal,
    ZeroDivisionError for n/0."""
    exponent = text.lower().partition("e")[2].strip().lstrip("+-").replace("_", "")
    if exponent.isdecimal() and (len(exponent.lstrip("0")) > 4 or int(exponent) > MAX_EXPONENT):
        raise ValueError(f"the exponent of {text.strip()!r} is above {MAX_EXPONENT} in magnitude")
    m = re.match(_LITERAL, text, re.IGNORECASE)
    if m is None:
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    num, den = int(m["num"] or "0"), 1
    if m["denom"]:
        den = int(m["denom"])
    else:
        if m["decimal"]:
            decimal = m["decimal"].replace("_", "")
            num, den = num * 10 ** len(decimal) + int(decimal), 10 ** len(decimal)
        if m["exp"]:
            exp = int(m["exp"])
            num, den = (num * 10 ** exp, den) if exp >= 0 else (num, den * 10 ** -exp)
    if m["sign"] == "-":
        num = -num
    if den == 0:
        raise ZeroDivisionError(f"Fraction({num}, 0)")
    g = math.gcd(num, den)
    num, den = num // g, den // g
    if max(abs(num), den) >= _DIGITS_BOUND:
        raise ValueError(f"the numerator or denominator of {text.strip()!r} has more than "
                         f"{MAX_EXPONENT + 1} digits")
    return den, num


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
            # the bit length of each coefficient of base's numerator over monic
            # factors, in lowest terms
            d = base.den * math.prod(p.leading()[1] ** m for p, m in base.factors.values())
            bits = max(((max(abs(c), d) // math.gcd(c, d)).bit_length()
                        for c in base.num.terms.values()), default=0)
            if max(k, k * deg) > MAX_POWER or k * bits > MAX_POWER_BITS:
                raise ValueError(f"power ^{tok} is above the bound: {MAX_POWER} on the exponent "
                                 f"and the degree, {MAX_POWER_BITS} on the coefficient bits")
            # base ** k, with each squaring checked
            return RatFunc(_power(base.num, k, times),
                           {key: (p, m * k) for key, (p, m) in base.factors.items()},
                           base.den ** k)
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
