"""Sparse multivariate polynomials with integer coefficients, and `rat_str`,
the one formatter of a printed value.

A polynomial is a dict mapping exponent tuples (one entry per variable) to
nonzero integer coefficients; the zero polynomial has an empty term dict.
`Poly.to_str` prints a coefficient over a denominator with `rat_str`, which
prints an integer pair (d, n) exactly as str(Fraction(n, d)) does; the
rational functions over these polynomials and the jets are in
`paracomplex.exact`, the parser is in `paracomplex.parse`, and
`paracomplex.reference` keeps the Fraction polynomial as the test oracle.
"""

from __future__ import annotations

import math
import sys
from operator import add, mul
from typing import Sequence

Exponent = tuple[int, ...]


def rat_str(den: int, num: int) -> str:
    """num / den in lowest terms as str(Fraction(num, den)) prints it.  Reading
    an integer literal stays bounded by Python's limit on the digits of an int
    converted to str (3.10.7 on), but a printed value is exact however long, so
    the limit is lifted only while such a value is written."""
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    num, den = num // g, den // g
    limit = None
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        return rat_str(den, num)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _term_key(exps: Exponent) -> tuple[int, Exponent]:
    # Degree-then-lex term order; only used to pick a deterministic leading term.
    return (sum(exps), exps)


class Poly:
    """Multivariate polynomial with integer coefficients.

    Immutable by convention: no method mutates ``terms`` after construction.
    It combines only with a Poly in as many variables, and it is not
    hashable; ``key()`` is the hashable identity of a denominator factor.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Exponent, int] | None = None):
        self.nvars = nvars
        self.terms: dict[Exponent, int] = {e: c for e, c in terms.items() if c} if terms else {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> Poly:
        return Poly(nvars)

    @staticmethod
    def const(nvars: int, value: int) -> Poly:
        return Poly(nvars, {(0,) * nvars: value} if value else None)

    @staticmethod
    def var(i: int, nvars: int) -> Poly:
        e = tuple(1 if j == i else 0 for j in range(nvars))
        return Poly(nvars, {e: 1})

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
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def key(self) -> tuple:
        """Canonical hashable identity of the polynomial, a tuple of integers."""
        return tuple(sorted(self.terms.items()))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> Poly | None:
        return other if isinstance(other, Poly) and other.nvars == self.nvars else None

    def __add__(self, other) -> Poly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in o.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                del terms[e]
        p = Poly(self.nvars)
        p.terms = terms
        return p

    def __neg__(self) -> Poly:
        p = Poly(self.nvars)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other) -> Poly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other) -> Poly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms: dict[Exponent, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(map(add, e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        p = Poly(self.nvars)
        p.terms = terms
        return p

    def __pow__(self, k: int) -> Poly:
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, k, mul)

    def scale(self, c: int) -> Poly:
        if c == 1:
            return self
        p = Poly(self.nvars)
        p.terms = {e: v * c for e, v in self.terms.items()} if c else {}
        return p

    # -- leading term, content, division ---------------------------------------

    def leading(self) -> tuple[Exponent, int]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_term_key)
        return e, self.terms[e]

    def primitive(self) -> tuple[int, Poly]:
        """(c, p) with self = c p for the primitive p whose leading coefficient
        is positive: c is the content, with the sign of the leading coefficient."""
        c = math.gcd(*self.terms.values())
        if self.leading()[1] < 0:
            c = -c
        if c == 1:
            return c, self
        p = Poly(self.nvars)
        p.terms = {e: v // c for e, v in self.terms.items()}
        return c, p

    def exact_div(self, divisor: Poly) -> Poly | None:
        """The exact quotient with integer coefficients, or None when there is
        none.  Single-divisor division w.r.t. the term order reaches zero
        remainder iff divisor | self, and each quotient coefficient it forms is
        one of the quotient's; by Gauss's lemma the quotient by a primitive
        divisor over Q has integer coefficients, so for such a divisor None
        means that it does not divide self over Q."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return Poly.zero(self.nvars)
        de, dc = divisor.leading()
        rem = dict(self.terms)
        quot: dict[Exponent, int] = {}
        while rem:
            e = max(rem, key=_term_key)
            qe = tuple(a - b for a, b in zip(e, de))
            qc, r = divmod(rem[e], dc)
            if r or any(x < 0 for x in qe):
                return None
            quot[qe] = qc
            for fe, fc in divisor.terms.items():
                t = tuple(map(add, qe, fe))
                s = rem.get(t, 0) - qc * fc
                if s:
                    rem[t] = s
                else:
                    del rem[t]
        q = Poly(self.nvars)
        q.terms = quot
        return q

    # -- calculus ----------------------------------------------------------

    def partial(self, i: int) -> Poly:
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range")
        p = Poly(self.nvars)
        p.terms = {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in self.terms.items() if e[i]}
        return p

    def jet_at(self, point: tuple, order: int = 0) -> tuple:
        """(D, jet): the value, gradient and Hessian at the point (P, X), the
        coordinates X / P, as integers over one denominator D > 0, jet being
        (value,), (value, gradient) or (value, gradient, Hessian) for order 0,
        1 or 2, as plain tuples.  Term by term: with the total degree N,
        D = P^N and a partial d^o has the numerator sum of c P^(N - |e| + o) d^o X^e."""
        den, xs = point
        n = self.nvars
        if len(xs) != n:
            raise ValueError("point length does not match variable count")
        top = self.total_degree()
        pw = [[x ** k for k in range(top + 1)] for x in xs]  # pw[i][k] = X_i^k
        ns = range(n)
        value, grad, hess = 0, [0] * n, [[0] * n for _ in ns]
        for e, c in self.terms.items():
            c = c * den ** (top - sum(e))
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
        return den ** top, out

    # -- display -----------------------------------------------------------

    def to_str(self, names: Sequence[str] | None = None, den: int = 1) -> str:
        """The polynomial divided by den > 0, each coefficient printed by rat_str."""
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
                body = rat_str(den, abs(c))
            elif abs(c) == den:
                body = "*".join(factors)
            else:
                body = "*".join([rat_str(den, abs(c))] + factors)
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
