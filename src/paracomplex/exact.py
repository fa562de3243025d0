"""Rational functions on integers in named patch variables, points and their
jets; `paracomplex.parse` reads them from literals.

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
from typing import Sequence

from paracomplex.poly import Poly, rat_str


def point_strings(point: tuple) -> list[str]:
    """The coordinates of a point (D, X) as rat_str prints them."""
    den, xs = point
    return [rat_str(den, x) for x in xs]


class PoleAtPoint(ValueError):
    """A denominator vanished at the evaluation point: bad input, like any other fault."""

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
    required for correctness, and equal values can be stored with different
    factors, so a RatFunc is not hashable.  Its operands are RatFuncs in as
    many variables, ints and rationals, on either side.  Trial exact division against the stored
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
        return bool(self.num)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ((self.num * o._den_poly()).scale(o.den)
                == (o.num * self._den_poly()).scale(self.den))

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
