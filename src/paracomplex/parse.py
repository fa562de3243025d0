"""The literal readers: a Fraction literal as an integer pair (`parse_rational`,
for point coordinates and constants), a rational-function literal over named
variables as a `paracomplex.exact.RatFunc` (`parse_ratfunc`), and the check
of a file's "vars" (`check_variables`).  Every read is bounded, so no literal
expands past its use: the decimal exponent and digits of a Fraction literal,
and each power and product of polynomials that the parser forms.
"""

from __future__ import annotations

import math
import re
import sys
from typing import Sequence

from paracomplex.exact import RatFunc
from paracomplex.poly import Poly, _power


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
