"""The paper's closed forms and the symbolic oracles, next to the routines
the tests and the demos use with them.

No command imports this module, so a CLI start never compiles it.  It holds
the Fraction oracle of the integer scalar tower (`FractionPoly` and
`FractionRatFunc`, the polynomial and rational function with Fraction
coefficients over monic factors that `poly` and `exact` replaced),
`int_point` and `eval_at` between Fraction points and the integer points
(D, X) of the commands, the sparse k-forms (`KForm`) and their exterior
derivative (`ext_deriv`), the oracle of `patch.cyclic_sums`, and the
Fraction wrappers the commands no longer use: vectors and
matrices over the scalar tower (`frac_mat`, `int_mats`, `mat_inv`,
`mat_rank`, `mat_jet`, and `SingularMatrix`, which the inverses raise),
bilinear forms (with Sylvester inertia, `signature`), endomorphisms,
2-vectors, the algebra of sections (`GenVector`, the oracles' section type;
the commands use the stacked list X + alpha), structures on T + T*
(`GenEndo`) and generalized metrics (`gen_metric`), with the entries that
convert them to the integer pairs of the one implementation of each check
(`as_ints`, `assemble_endo`, `is_compatible_endo`, `validate_structure`).  It holds the Levi-Civita and
Hitchin connections over rational functions, the oracle of the horizontal
obstruction residual (`horizontal_np_residual`, in Fractions from the
Hitchin torsion, dTheta and `assemble_endo`, with nothing imported from
`obstruction`), the pointwise reflector and
twistor Nijenhuis formulas on horizontal lifts (the gates of a total-space
computation), the B-transform law of the Courant bracket and the classical
Nijenhuis tensor, and the linear algebra of the fiber of compatible
structures: adapted and null bases, tangent vectors, the fiber metric,
orientation, the hyperboloid coordinates and the seeded draw of a compatible
structure (`random_compatible_structure`), and the extraction of a
structure's paracomplex pair, with `mat_det` and `j_triple`.  Conventions
are those of the module each routine builds on (`curv` for curvature signs,
`gpx` for forms as maps, `patch` for the Courant bracket).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul
from typing import Sequence

from paracomplex.assembled import validate_para
from paracomplex.curv import _ORDERED, DegenerateMetric, _riemann
from paracomplex.exact import RatFunc, _factors_mul
from paracomplex.frame import kernel_basis
from paracomplex.gpx import assemble, is_compatible, validate_gen_para
from paracomplex.linalg import (
    bareiss,
    int_inv,
    int_jet,
    j_structures,
    mat_add,
    mat_is_zero,
    mat_mul,
    mat_neg,
    mat_scale,
    mat_sub,
    mat_vec,
    transpose,
)
from paracomplex.para import hyperboloid_combination, hyperboloid_draw
from paracomplex.patch import _partial, courant_on_jets
from paracomplex.poly import _term_key

Vec = list
Mat = list


# -- the Fraction oracle of the scalar tower, and points ------------------------------


def int_point(values: Sequence) -> tuple:
    """The point (D, X) of the commands for a sequence of Fractions and ints,
    D their least common denominator."""
    values = [Fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in values))
    return den, tuple(v.numerator * (den // v.denominator) for v in values)


def eval_at(f: RatFunc, point: Sequence) -> Fraction:
    """The value of a RatFunc at a point of Fractions and ints."""
    den, (value,) = f.jet_at(int_point(point))
    return Fraction(value, den)


class FractionPoly:
    """Multivariate polynomial with Fraction coefficients: poly.Poly as it was
    before its coefficients became integers, kept as the oracle of that one.

    Immutable by convention: no method mutates ``terms`` after construction.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[tuple, Fraction] | None = None):
        self.nvars = nvars
        self.terms: dict[tuple, Fraction] = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[e] = Fraction(c)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> FractionPoly:
        return FractionPoly(nvars)

    @staticmethod
    def const(nvars: int, value) -> FractionPoly:
        c = Fraction(value)
        return FractionPoly(nvars, {(0,) * nvars: c} if c else None)

    @staticmethod
    def var(i: int, nvars: int) -> FractionPoly:
        e = tuple(1 if j == i else 0 for j in range(nvars))
        return FractionPoly(nvars, {e: Fraction(1)})

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
            other = FractionPoly.const(self.nvars, other)
        if not isinstance(other, FractionPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, self.key()))

    def key(self) -> tuple:
        """Canonical hashable identity of the polynomial."""
        return tuple(sorted(self.terms.items()))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> FractionPoly | None:
        if isinstance(other, FractionPoly):
            return other if other.nvars == self.nvars else None
        if isinstance(other, (int, Fraction)):
            return FractionPoly.const(self.nvars, other)
        return None

    def __add__(self, other) -> FractionPoly:
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
        p = FractionPoly(self.nvars)
        p.terms = terms
        return p

    __radd__ = __add__

    def __neg__(self) -> FractionPoly:
        p = FractionPoly(self.nvars)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other) -> FractionPoly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> FractionPoly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> FractionPoly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, Fraction(0)) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        p = FractionPoly(self.nvars)
        p.terms = terms
        return p

    __rmul__ = __mul__

    def __pow__(self, k: int) -> FractionPoly:
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = FractionPoly.const(self.nvars, 1)
        for _ in range(k):
            result = result * self
        return result

    def scale(self, c) -> FractionPoly:
        c = Fraction(c)
        if not c:
            return FractionPoly.zero(self.nvars)
        p = FractionPoly(self.nvars)
        p.terms = {e: v * c for e, v in self.terms.items()}
        return p

    # -- leading term, division -------------------------------------------

    def leading(self) -> tuple[tuple, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_term_key)
        return e, self.terms[e]

    def monic(self) -> tuple[FractionPoly, Fraction]:
        """Return (self / lc, lc) where lc is the leading coefficient."""
        _, lc = self.leading()
        return self.scale(1 / lc), lc

    def exact_div(self, divisor: FractionPoly) -> FractionPoly | None:
        """Exact polynomial quotient, or None when the division fails.

        Single-divisor division w.r.t. the term order is a complete test of
        divisibility: it reaches zero remainder iff divisor | self.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return FractionPoly.zero(self.nvars)
        de, dc = divisor.leading()
        rem = dict(self.terms)
        quot: dict[tuple, Fraction] = {}
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
        q = FractionPoly(self.nvars)
        q.terms = quot
        return q

    # -- calculus ----------------------------------------------------------

    def partial(self, i: int) -> FractionPoly:
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range")
        terms: dict[tuple, Fraction] = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = tuple(a - 1 if j == i else a for j, a in enumerate(e))
                terms[ne] = terms.get(ne, Fraction(0)) + c * e[i]
        p = FractionPoly(self.nvars)
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
        return f"FractionPoly({self.to_str()})"


class FractionRatFunc:
    """Rational function num / prod(factor^mult) with Fraction coefficients
    and monic denominator factors: exact.RatFunc as it was before it moved to
    integers, whose printed form and factors the integer one keeps.

    Equality is decided by cross-multiplication; no gcd normalization is
    required for correctness.  Trial exact division against the stored
    factors keeps denominators reduced in the common power-of-one-factor
    workloads (conformal metrics and their derivatives).
    """

    __slots__ = ("nvars", "num", "factors")

    def __init__(self, num: FractionPoly, factors: dict | None = None):
        self.nvars = num.nvars
        self.num = num
        self.factors: dict[tuple, tuple[FractionPoly, int]] = dict(factors) if factors else {}
        self._normalize()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(nvars: int, value) -> FractionRatFunc:
        return FractionRatFunc(FractionPoly.const(nvars, value))

    @staticmethod
    def zero(nvars: int) -> FractionRatFunc:
        return FractionRatFunc(FractionPoly.zero(nvars))

    @staticmethod
    def one(nvars: int) -> FractionRatFunc:
        return FractionRatFunc(FractionPoly.const(nvars, 1))

    @staticmethod
    def var(i: int, nvars: int) -> FractionRatFunc:
        return FractionRatFunc(FractionPoly.var(i, nvars))

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

    def den(self) -> FractionPoly:
        d = FractionPoly.const(self.nvars, 1)
        for p, m in self.factors.values():
            d = d * p ** m
        return d

    def _coerce(self, other) -> FractionRatFunc | None:
        if isinstance(other, FractionRatFunc):
            return other if other.nvars == self.nvars else None
        if isinstance(other, FractionPoly):
            return FractionRatFunc(other) if other.nvars == self.nvars else None
        if isinstance(other, (int, Fraction)):
            return FractionRatFunc.const(self.nvars, other)
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

    def __add__(self, other) -> FractionRatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero():
            return self
        if self.num.is_zero():
            return o
        # common denominator: lcm of the factored forms
        merged: dict[tuple, tuple[FractionPoly, int]] = {}
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
        return FractionRatFunc(num1 + num2, merged)

    __radd__ = __add__

    def __neg__(self) -> FractionRatFunc:
        return FractionRatFunc(-self.num, self.factors)

    def __sub__(self, other) -> FractionRatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> FractionRatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> FractionRatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FractionRatFunc(self.num * o.num, _factors_mul(self.factors, o.factors))

    __rmul__ = __mul__

    def __truediv__(self, other) -> FractionRatFunc:
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
        return FractionRatFunc(self.num * inv_num.scale(1 / lc), factors)

    def __rtruediv__(self, other) -> FractionRatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int) -> FractionRatFunc:
        if k < 0:
            return FractionRatFunc.one(self.nvars) / self ** (-k)
        if k == 0:
            return FractionRatFunc.one(self.nvars)
        return FractionRatFunc(self.num ** k,
                               {key: (p, m * k) for key, (p, m) in self.factors.items()})

    # -- calculus ---------------------------------------------------------------

    def partial(self, i: int) -> FractionRatFunc:
        """Exact quotient-rule derivative w.r.t. variable i.

        With den = prod f_s^{m_s} the derivative is
        [num' * prod f_s - num * sum m_s f_s' prod_{t!=s} f_t] / prod f_s^{m_s+1},
        which keeps the factored denominator structure.
        """
        if not self.factors:
            return FractionRatFunc(self.num.partial(i))
        fs = list(self.factors.values())
        prod_all = FractionPoly.const(self.nvars, 1)
        for p, _ in fs:
            prod_all = prod_all * p
        top = self.num.partial(i) * prod_all
        for s, (p, m) in enumerate(fs):
            rest = FractionPoly.const(self.nvars, 1)
            for t, (q, _) in enumerate(fs):
                if t != s:
                    rest = rest * q
            top = top - self.num * p.partial(i).scale(m) * rest
        new_factors = {k: (p, m + 1) for k, (p, m) in self.factors.items()}
        return FractionRatFunc(top, new_factors)

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
        return f"FractionRatFunc({self.to_str()})"


# -- sparse k-forms and the exterior derivative, the oracle of patch.cyclic_sums ---------


def sparse_add(comps: dict, key, value) -> None:
    """comps[key] += value in a dict of nonzero components; a zero sum drops key."""
    if not value:
        return
    if key in comps:
        value = comps[key] + value
    if value:
        comps[key] = value
    else:
        del comps[key]


def _sort_index(idx: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
    """Sorted index tuple and permutation sign; None for repeated indices."""
    if len(set(idx)) != len(idx):
        return None
    inversions = sum(a > b for a, b in itertools.combinations(idx, 2))
    return tuple(sorted(idx)), -1 if inversions % 2 else 1


class KForm:
    """Differential k-form; components stored on strictly increasing index
    tuples (the empty tuple for functions)."""

    def __init__(self, nvars: int, degree: int, comps: dict | None = None):
        self.nvars = nvars
        self.degree = degree
        self.comps: dict[tuple[int, ...], RatFunc] = {}
        if comps:
            for idx, c in comps.items():
                sorted_sign = _sort_index(tuple(idx))
                if sorted_sign is None:
                    continue
                key, sign = sorted_sign
                sparse_add(self.comps, key, c if sign > 0 else -c)

    def get(self, idx: tuple[int, ...]) -> RatFunc:
        sorted_sign = _sort_index(tuple(idx))
        if sorted_sign is None:
            return RatFunc.zero(self.nvars)
        key, sign = sorted_sign
        c = self.comps.get(key)
        if c is None:
            return RatFunc.zero(self.nvars)
        return c if sign > 0 else -c

    def __add__(self, other: KForm) -> KForm:
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        comps = dict(self.comps)
        for k, c in other.comps.items():
            sparse_add(comps, k, c)
        out = KForm(self.nvars, self.degree)
        out.comps = comps
        return out

    def is_zero(self) -> bool:
        return not self.comps

    def __eq__(self, other):
        if not isinstance(other, KForm) or self.degree != other.degree:
            return NotImplemented
        keys = set(self.comps) | set(other.comps)
        return all(self.get(k) == other.get(k) for k in keys)

    def __repr__(self):
        return f"KForm(deg={self.degree}, {{{', '.join(f'{k}: {c.to_str()}' for k, c in sorted(self.comps.items()))}}})"


def ext_deriv(omega: KForm) -> KForm:
    """Coordinate exterior derivative; d o d = 0."""
    n = omega.nvars
    out = KForm(n, omega.degree + 1)
    for idx, c in omega.comps.items():
        for i in range(n):
            sorted_sign = _sort_index((i,) + idx)
            if sorted_sign is None:
                continue
            key, sign = sorted_sign
            dc = c.partial(i)
            sparse_add(out.comps, key, dc if sign > 0 else -dc)
    return out


# -- the Fraction wrappers: vectors and matrices, forms, endomorphisms, 2-vectors, T + T* ------


class SingularMatrix(ZeroDivisionError):
    """Exact inversion of a singular matrix was attempted."""


def zero_like(x):
    return RatFunc.zero(x.nvars) if isinstance(x, RatFunc) else Fraction(0)


def one_like(x):
    return RatFunc.one(x.nvars) if isinstance(x, RatFunc) else Fraction(1)


def basis_vec(i: int, n: int, like=Fraction(1)) -> Vec:
    z, o = zero_like(like), one_like(like)
    return [o if j == i else z for j in range(n)]


def mat_identity(n: int, like=Fraction(1)) -> Mat:
    z, o = zero_like(like), one_like(like)
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def int_mats(mats) -> tuple[int, list]:
    """(D, [D m for m in mats]) with D the lcm of the entries' denominators, so
    every scaled matrix is an integer one; AttributeError for a RatFunc entry."""
    den = math.lcm(*(x.denominator for m in mats for row in m for x in row))
    return den, [[[x.numerator * (den // x.denominator) for x in row] for row in m]
                 for m in mats]


def frac_mat(den: int, m: Mat) -> Mat:
    """The Fraction matrix m / den of an integer matrix."""
    return [[Fraction(x, den) for x in row] for row in m]


def vec_add(u: Vec, v: Vec) -> Vec:
    return [a + b for a, b in zip(u, v)]


def vec_scale(c, u: Vec) -> Vec:
    return [c * a for a in u]


def mat_zero(n: int, m: int | None = None, like=Fraction(1)) -> Mat:
    m = n if m is None else m
    z = zero_like(like)
    return [[z for _ in range(m)] for _ in range(n)]


def mat_jet(a: Mat, point, order: int = 0) -> tuple:
    """int_jet in Fractions at a point of Fractions: (A(p),), then [d_i A(p)]
    for order 1, then [[d_i d_j A(p)]] for order 2."""
    (d0, value), *rest = int_jet(a, int_point(point), order)
    out = (frac_mat(d0, value),)
    if order:
        out += ([frac_mat(rest[0][0], m) for m in rest[0][1]],)
    if order > 1:
        out += ([[frac_mat(rest[1][0], m) for m in row] for row in rest[1][1]],)
    return out


def mat_eval(a: Mat, point) -> Mat:
    """Values at the point of a matrix of RatFuncs."""
    return mat_jet(a, point)[0]


def mat_from_columns(cols: list) -> Mat:
    return [list(row) for row in zip(*cols)]


def mat_eq(a: Mat, b: Mat) -> bool:
    """Entry-wise equality of two matrices of one shape; the commands compare
    lists with ==, which calls each entry's __eq__ just so."""
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_inv(a: Mat) -> Mat:
    """Exact inverse over Q, raising SingularMatrix when det = 0: it reads
    linalg.int_inv of the pair (D, D a)."""
    den, (m,) = int_mats([a])
    inv = int_inv((den, m))
    if inv is None:
        raise SingularMatrix("matrix is singular over the scalar field")
    return [[Fraction(x, inv[0]) for x in row] for row in inv[1]]


def mat_rank(a: Mat) -> int:
    """Rank over Q: the number of pivots of bareiss."""
    _, (m,) = int_mats([a])
    return len(bareiss(m)[1])


class Bilinear:
    """Bilinear form on the reference basis; entries[i][j] = b(e_i, e_j)."""

    def __init__(self, mat: Mat):
        self.mat = [list(row) for row in mat]
        self.dim = len(mat)

    @staticmethod
    def diag(values) -> Bilinear:
        n = len(values)
        m = mat_zero(n, like=Fraction(1))
        for i, v in enumerate(values):
            m[i][i] = Fraction(v) if isinstance(v, int) else v
        return Bilinear(m)

    def apply(self, u: Vec, v: Vec):
        return sum((u[i] * self.mat[i][j] * v[j]
                    for i in range(self.dim) for j in range(self.dim)),
                   start=zero_like(self.mat[0][0]))

    def map_mat(self) -> Mat:
        """Matrix of the induced map T -> T*, X |-> b(X, .) in the dual basis."""
        return transpose(self.mat)

    def is_symmetric(self) -> bool:
        return mat_eq(self.mat, transpose(self.mat))

    def is_antisymmetric(self) -> bool:
        return mat_eq(self.mat, mat_neg(transpose(self.mat)))

    def __repr__(self):
        return f"Bilinear({self.mat!r})"


class Endo:
    """Endomorphism acting on column vectors of the reference basis."""

    def __init__(self, mat: Mat):
        self.mat = [list(row) for row in mat]
        self.dim = len(mat)

    def apply(self, v: Vec) -> Vec:
        return mat_vec(self.mat, v)

    def __add__(self, other: Endo) -> Endo:
        return Endo(mat_add(self.mat, other.mat))

    def __sub__(self, other: Endo) -> Endo:
        return Endo(mat_sub(self.mat, other.mat))

    def __neg__(self) -> Endo:
        return Endo(mat_neg(self.mat))

    def scale(self, c) -> Endo:
        return Endo(mat_scale(c, self.mat))

    def trace(self):
        return sum((self.mat[i][i] for i in range(1, self.dim)),
                   start=self.mat[0][0])

    def is_zero(self) -> bool:
        return mat_is_zero(self.mat)

    def __eq__(self, other):
        return isinstance(other, Endo) and mat_eq(self.mat, other.mat)

    def __repr__(self):
        return f"Endo({self.mat!r})"


def is_g_skew(g: Bilinear, a: Endo) -> bool:
    """g(aX, Y) + g(X, aY) = 0, i.e. a^T g + g a = 0."""
    return mat_is_zero(mat_add(mat_mul(transpose(a.mat), g.mat),
                               mat_mul(g.mat, a.mat)))


class TwoVector:
    """Element of Lambda^2 T with components on e_i ^ e_j, i < j."""

    def __init__(self, dim: int, comps: dict[tuple[int, int], object] | None = None):
        self.dim = dim
        self.comps: dict[tuple[int, int], object] = {}
        if comps:
            for (i, j), c in comps.items():
                if i == j:
                    continue
                if i > j:
                    i, j, c = j, i, -c
                sparse_add(self.comps, (i, j), c)

    @staticmethod
    def wedge(u: Vec, v: Vec) -> TwoVector:
        n = len(u)
        comps = {}
        for i in range(n):
            for j in range(i + 1, n):
                c = u[i] * v[j] - u[j] * v[i]
                if c:
                    comps[(i, j)] = c
        return TwoVector(n, comps)

    @staticmethod
    def basis(i: int, j: int, dim: int) -> TwoVector:
        return TwoVector(dim, {(i, j): Fraction(1)})

    def get(self, i: int, j: int):
        if i == j:
            return Fraction(0)
        if i < j:
            return self.comps.get((i, j), Fraction(0))
        c = self.comps.get((j, i), Fraction(0))
        return -c

    def __add__(self, other: TwoVector) -> TwoVector:
        comps = dict(self.comps)
        for k, c in other.comps.items():
            sparse_add(comps, k, c)
        return TwoVector(self.dim, comps)

    def __sub__(self, other: TwoVector) -> TwoVector:
        return self + other.scale(Fraction(-1))

    def __neg__(self) -> TwoVector:
        return self.scale(Fraction(-1))

    def scale(self, c) -> TwoVector:
        return TwoVector(self.dim, {k: c * v for k, v in self.comps.items()})

    def is_zero(self) -> bool:
        return not self.comps

    def __eq__(self, other):
        if not isinstance(other, TwoVector):
            return NotImplemented
        keys = set(self.comps) | set(other.comps)
        return all(self.get(*k) == other.get(*k) for k in keys)

    def __repr__(self):
        return f"TwoVector({self.comps!r})"


def signature(b: Bilinear) -> tuple[int, int, int]:
    """Sylvester inertia (positive, negative, null) by exact symmetric reduction."""
    if not b.is_symmetric():
        raise ValueError("signature requires a symmetric form")
    n = b.dim
    m = [list(row) for row in b.mat]
    active = list(range(n))
    pos = neg = 0
    while active:
        piv = next((i for i in active if m[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in active for j in active
                         if i != j and m[i][j]), None)
            if pair is None:
                break
            i, j = pair
            # congruence: e_i <- e_i + e_j makes the (i,i) entry 2 b(e_i, e_j)
            for k in range(n):
                m[i][k] = m[i][k] + m[j][k]
            for k in range(n):
                m[k][i] = m[k][i] + m[k][j]
            piv = i
        p = m[piv][piv]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for k in active:
            if k != piv and m[k][piv]:
                f = m[k][piv] / p
                for t in range(n):
                    m[k][t] = m[k][t] - f * m[piv][t]
                for t in range(n):
                    m[t][k] = m[t][k] - f * m[t][piv]
        active.remove(piv)
    null = n - pos - neg
    return pos, neg, null


class GenVector:
    """Element X + alpha of T + T*, with X and alpha lists of the same
    scalars, and the algebra of sections that the oracles and the tests use;
    the commands work on the stacked list X + alpha, which `stacked` gives
    and patch.courant_on_jets takes and returns."""

    __slots__ = ("x", "alpha")

    def __init__(self, x: list, alpha: list):
        self.x, self.alpha = x, alpha

    def stacked(self) -> list:
        return list(self.x) + list(self.alpha)

    def __add__(self, other: GenVector) -> GenVector:
        return GenVector(vec_add(self.x, other.x), vec_add(self.alpha, other.alpha))

    def __sub__(self, other: GenVector) -> GenVector:
        return GenVector([a - b for a, b in zip(self.x, other.x)],
                         [a - b for a, b in zip(self.alpha, other.alpha)])

    def scale(self, c) -> GenVector:
        return GenVector(vec_scale(c, self.x), vec_scale(c, self.alpha))

    @staticmethod
    def vector(v: list) -> GenVector:
        return GenVector(list(v), [zero_like(v[0])] * len(v))

    @staticmethod
    def covector(a: list) -> GenVector:
        return GenVector([zero_like(a[0])] * len(a), list(a))

    def is_zero(self) -> bool:
        return all(not c for c in self.x) and all(not c for c in self.alpha)

    def __eq__(self, other):
        return (isinstance(other, GenVector)
                and list(self.x) == list(other.x) and list(self.alpha) == list(other.alpha))


def _bracket(a: GenVector, da: list, b: GenVector, db: list) -> GenVector:
    """patch.courant_on_jets of the stacked sections, as a GenVector."""
    twice = courant_on_jets(a.stacked(), [d.stacked() for d in da],
                            b.stacked(), [d.stacked() for d in db])
    return GenVector(twice[:len(a.x)], twice[len(a.x):])


class GenEndo:
    """Endomorphism of T + T* in blocks a: T->T, b: T*->T, c: T->T*, d: T*->T*."""

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d
        self.dim = len(a)

    @staticmethod
    def from_matrix(m: list) -> GenEndo:
        n = len(m) // 2
        a = [row[:n] for row in m[:n]]
        b = [row[n:] for row in m[:n]]
        c = [row[:n] for row in m[n:]]
        d = [row[n:] for row in m[n:]]
        return GenEndo(a, b, c, d)

    def as_matrix(self) -> list:
        top = [ra + rb for ra, rb in zip(self.a, self.b)]
        bottom = [rc + rd for rc, rd in zip(self.c, self.d)]
        return top + bottom

    def apply(self, v: GenVector) -> GenVector:
        x = vec_add(mat_vec(self.a, v.x), mat_vec(self.b, v.alpha))
        alpha = vec_add(mat_vec(self.c, v.x), mat_vec(self.d, v.alpha))
        return GenVector(x, alpha)

    def compose(self, other: GenEndo) -> GenEndo:
        return GenEndo.from_matrix(mat_mul(self.as_matrix(), other.as_matrix()))

    def __eq__(self, other):
        return isinstance(other, GenEndo) and mat_eq(self.as_matrix(), other.as_matrix())

    def __repr__(self):
        return f"GenEndo(a={self.a!r}, b={self.b!r}, c={self.c!r}, d={self.d!r})"


class GeneralizedMetric:
    """E' = {X + g(X) + Theta(X)} with E'' = {X - g(X) + Theta(X)} = E'^perp."""

    __slots__ = ("g", "theta", "frame_prime", "frame_dprime")

    def __init__(self, g: Bilinear, theta: Bilinear, frame_prime: list, frame_dprime: list):
        self.g, self.theta = g, theta
        self.frame_prime, self.frame_dprime = frame_prime, frame_dprime

    @property
    def dim(self) -> int:
        return self.g.dim


def gen_metric(g: Bilinear, theta: Bilinear) -> GeneralizedMetric:
    if not g.is_symmetric():
        raise ValueError("g must be symmetric")
    if not theta.is_antisymmetric():
        raise ValueError("Theta must be antisymmetric")
    n = g.dim
    if isinstance(g.mat[0][0], Fraction):
        pos, neg, null = signature(g)
        if null or pos != neg:
            raise ValueError(f"metric signature {(pos, neg, null)} is not neutral")
    g_map = g.map_mat()
    th_map = theta.map_mat()
    prime, dprime = [], []
    for i in range(n):
        e = basis_vec(i, n, like=g.mat[0][0])
        prime.append(GenVector(e, vec_add(mat_vec(g_map, e), mat_vec(th_map, e))))
        dprime.append(GenVector(e, vec_add(mat_vec(mat_neg(g_map), e), mat_vec(th_map, e))))
    return GeneralizedMetric(g, theta, prime, dprime)


def _bilinear(form: KForm) -> Bilinear:
    """The full matrix form(d_i, d_j) of a 2-form."""
    n = form.nvars
    return Bilinear([[form.get((i, j)) for j in range(n)] for i in range(n)])


def as_ints(m: list) -> tuple:
    """(D, D m) for a matrix m of Fractions (a metric, or a frame as its list of
    vectors) with D the least common denominator: the integer form that
    j_structures, random_compatible_structure, validate_para,
    assemble and is_compatible read."""
    den, (out,) = int_mats([m])
    return den, out


def assemble_endo(g: Bilinear, theta: Bilinear, k1: Endo, k2: Endo) -> GenEndo:
    """The structure of (g, Theta, K1, K2) over Q: e^Theta K e^-Theta for the
    K that gpx.assemble builds on the integers of g, g^-1, K1 and K2."""
    k = assemble(*(as_ints(m) for m in (g.mat, mat_inv(g.mat), k1.mat, k2.mat)))
    return b_conjugate(theta, GenEndo.from_matrix(frac_mat(*k)))


def is_compatible_endo(k: GenEndo, e: GeneralizedMetric) -> bool:
    """Whether a structure preserves the generalized metric of (g, Theta) over
    Q: gpx.is_compatible of e^-Theta K e^Theta and g, on their integers."""
    untwisted = b_conjugate(Bilinear(mat_neg(e.theta.mat)), k)
    return is_compatible(as_ints(untwisted.as_matrix()), as_ints(e.g.mat))


# -- the symbolic structures: one constructor per kind, over Q or rational functions ------


def gauss_jordan_inv(a: list) -> list:
    """Exact inverse by Gauss-Jordan elimination with division, over Q or over
    rational functions, raising SingularMatrix when det = 0.  Over rational
    functions its entries stay smaller than fraction-free ones; no command
    inverts such a matrix (mat_inv is the inverse over Q, on linalg.int_inv)."""
    n = len(a)
    work = [list(row) for row in a]
    inv = mat_identity(n, like=a[0][0])
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise SingularMatrix("matrix is singular over the scalar field")
        work[col], work[pivot] = work[pivot], work[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        p = work[col][col]
        work[col] = [x / p for x in work[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def pfaffian(m: list, rows: tuple, memo: dict):
    """The Pfaffian of the antisymmetric matrix m on the index tuple rows,
    expanded along the first index, so 0 for an odd count, with no division;
    memo maps each index tuple met to its Pfaffian.  Up to (n-1)!! terms: the
    oracle of the commands' decision by evaluation that an omega is
    nondegenerate (structures._jets_at)."""
    if not rows:
        return 1
    if rows not in memo:
        i, rest = rows[0], rows[1:]
        memo[rows] = sum(((-1) ** t * m[i][j] * pfaffian(m, rest[:t] + rest[t + 1:], memo)
                          for t, j in enumerate(rest) if m[i][j]), 0)
    return memo[rows]


def trivial_structure(n: int, like=Fraction(1)) -> GenEndo:
    """K(X + alpha) = X - alpha."""
    return GenEndo(mat_identity(n, like), mat_zero(n, like=like),
                   mat_zero(n, like=like), mat_neg(mat_identity(n, like)))


def omega_structure(omega: Bilinear) -> GenEndo:
    """K(X + alpha) = omega^{-1}(alpha) + omega(X) for nondegenerate skew omega."""
    if not omega.is_antisymmetric():
        raise ValueError("omega must be antisymmetric")
    omega_map = omega.map_mat()
    try:
        omega_inv = gauss_jordan_inv(omega_map)
    except ZeroDivisionError as exc:
        raise ValueError("omega field is degenerate") from exc
    n = omega.dim
    like = omega.mat[0][0]
    return GenEndo(mat_zero(n, like=like), omega_inv, omega_map, mat_zero(n, like=like))


def pi_structure(pi) -> GenEndo:
    """K(X + alpha) = (X - i_alpha pi) - alpha for a TwoVector or the
    antisymmetric matrix pi^{ij} of a bivector field."""
    full = pi if isinstance(pi, list) else [[pi.get(i, j) for j in range(pi.dim)]
                                            for i in range(pi.dim)]
    n, like = len(full), full[0][0]
    # (i_alpha pi)^l = sum_k alpha_k pi^{kl}, so the T* -> T block is +pi
    return GenEndo(mat_identity(n, like), full, mat_zero(n, like=like),
                   mat_neg(mat_identity(n, like)))


def product_structure(p: Endo) -> GenEndo:
    """K(X + alpha) = P X - P* alpha for a product structure P."""
    n = p.dim
    ident = mat_identity(n, like=p.mat[0][0])
    if not mat_eq(mat_mul(p.mat, p.mat), ident):
        raise ValueError("P^2 != Id as a rational-function identity")
    if mat_eq(p.mat, ident) or mat_eq(p.mat, mat_neg(ident)):
        raise ValueError("P = +-Id")
    z = mat_zero(n, like=p.mat[0][0])
    return GenEndo(p.mat, z, z, mat_neg(transpose(p.mat)))


# descriptor kind -> the constructor applied to that kind's n x n matrix of
# rational functions (cli._descriptor_structure): the symbolic K that
# gpx.structure_jet evaluates at a point
STRUCTURES = {
    "trivial": lambda zero: trivial_structure(len(zero), RatFunc.one(len(zero))),
    "omega": lambda omega: omega_structure(Bilinear(omega)),
    "pi": pi_structure,
    "product": lambda p: product_structure(Endo(p)),
}


def validate_structure(k: GenEndo) -> dict[str, bool]:
    """gpx.validate_gen_para of a structure over Q, on its integer matrix over
    the common denominator."""
    return validate_gen_para(*as_ints(k.as_matrix()))


# -- the symbolic frame sweep ----------------------------------------------------------------


def endo_jet(k: GenEndo) -> list[GenEndo]:
    """The first partials [d_1 K, ..., d_n K]; each nonconstant entry of K is
    differentiated once per coordinate."""
    m = k.as_matrix()
    return [GenEndo.from_matrix([[_partial(c, i) for c in row] for row in m])
            for i in range(k.dim)]


def _frame_jets(k: GenEndo, dk: list) -> list:
    """The jets (e_a, 0, K e_a, d(K e_a)) of the 2n constant frame sections
    (d_i + 0) and (0 + dx^j): the jet of K e_a is column a of K and of each d_i K."""
    n = k.dim
    cols = [[GenVector(c[:n], c[n:]) for c in transpose(e.as_matrix())] for e in [k] + dk]
    like = k.a[0][0]
    frames = [GenVector(c[:n], c[n:]) for c in mat_identity(2 * n, like)]
    zero_jet = [GenVector.vector([zero_like(like)] * n)] * n
    return [(frames[a], zero_jet, cols[0][a], [c[a] for c in cols[1:]]) for a in range(2 * n)]


def _nijenhuis(k: GenEndo, ja: tuple, jb: tuple) -> GenVector:
    """N(A, B) = [A,B] + [KA, KB] - K([KA, B] + [A, KB]) from the jets
    (A, dA, KA, d(KA)) and (B, dB, KB, d(KB))."""
    a, da, ka, dka = ja
    b, db, kb, dkb = jb
    twice = (_bracket(a, da, b, db) + _bracket(ka, dka, kb, dkb)
             - k.apply(_bracket(ka, dka, b, db) + _bracket(a, da, kb, dkb)))
    return twice.scale(Fraction(1, 2))


def symbolic_frame_sweep(k: GenEndo, dk: list | None = None):
    """N on all frame-section pairs from the 1-jet of K, its value k and its
    partials dk (default endo_jet(k)), in RatFuncs or in Fractions: the
    oracle of patch.gen_nijenhuis_frame_sweep, which runs on integers at a
    point.  Returns (all_zero, witnesses) where witnesses maps pair indices
    a < b to the nonzero section."""
    jets = _frame_jets(k, endo_jet(k) if dk is None else dk)
    witnesses = {}
    for i, j in itertools.combinations(range(len(jets)), 2):
        n = _nijenhuis(k, jets[i], jets[j])
        if not n.is_zero():
            witnesses[(i, j)] = n
    return not witnesses, witnesses


# -- linear algebra: the g-adjoint and the Lambda^2 inner product ---------------------


def g_adjoint(g: Bilinear, a: Endo) -> Endo:
    """a* with g(a X, Y) = g(X, a* Y):  a* = g^{-1} a^T g."""
    ginv = mat_inv(g.mat)
    return Endo(mat_mul(ginv, mat_mul(transpose(a.mat), g.mat)))


def lambda2_inner(g: Bilinear, a: TwoVector, b: TwoVector):
    """Induced inner product on Lambda^2:
    <v1^v2, v3^v4> = g(v1,v3) g(v2,v4) - g(v1,v4) g(v2,v3), extended bilinearly."""
    gm = g.mat
    total = zero_like(gm[0][0])
    for (i, j), ca in a.comps.items():
        for (k, l), cb in b.comps.items():
            total = total + ca * cb * (gm[i][k] * gm[j][l] - gm[i][l] * gm[j][k])
    return total


# -- adapted and null bases, the fiber Z(T), orientation, the hyperboloid ---------------


def _positive_norm_vector(g: Bilinear, basis: list) -> list | None:
    """Deterministic search for a rational vector of positive g-norm in the
    span of the given basis; combinations with small integer coefficients.
    A candidate's norm has the sign of c^T M c for the integer Gram matrix
    M / D of the basis, and only the accepted vector is built."""
    k = len(basis)
    _, (gram,) = int_mats([mat_mul(mat_mul(basis, g.mat), transpose(basis))])
    for bound in (1, 2, 3, 5):
        candidates = [
            c for c in itertools.product(range(-bound, bound + 1), repeat=k)
            if any(c) and max(abs(x) for x in c) == bound
        ]
        # prefer sparse, small, positive combinations (single basis vectors first)
        candidates.sort(key=lambda c: (sum(1 for x in c if x),
                                       sum(abs(x) for x in c),
                                       sum(1 for x in c if x < 0),
                                       tuple(-x for x in c)))
        for coeffs in candidates:
            if sum(map(mul, coeffs, [sum(map(mul, row, coeffs)) for row in gram])) > 0:
                return [sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(g.dim)]
    return None


def orthogonal_complement(g: list, span: list) -> list:
    """A basis of {w : g(v, w) = 0 for v in span} over Q for a matrix and
    vectors of Fractions, as Fraction vectors: the kernel_basis of the rows
    g^T v on integers, as frame.onb_search reads it."""
    gm = as_ints(g)[1]
    return frac_mat(*kernel_basis([mat_vec(transpose(gm), as_ints([v])[1][0]) for v in span],
                                  len(gm)))


def adapted_basis(g: Bilinear, k: Endo) -> tuple[list, list]:
    """Inductive para-Hermitian basis: vectors (e_1..e_n, Ke_1..Ke_n) with
    g(e_i, e_j) = lam_i delta_ij for positive rationals lam_i and all other
    pairings zero.  Returns (basis, norms).

    Unit norms may not exist over Q; any positive norm works because the
    downstream pairings are normalized instead of the vectors.
    """
    checks = validate_para(as_ints(g.mat), as_ints(k.mat))
    if not all(checks.values()):
        failures = [name for name, passed in checks.items() if not passed]
        raise ValueError(f"not a compatible paracomplex structure: {failures}")
    n2 = g.dim
    span: list = []
    es: list = []
    norms: list = []
    while len(span) < n2:
        complement = orthogonal_complement(g.mat, span)
        v = _positive_norm_vector(g, complement)
        if v is None:
            raise ValueError("no positive-norm rational vector in the complement")
        kv = k.apply(v)
        es.append(v)
        norms.append(g.apply(v, v))
        span.extend([v, kv])
    basis = es + [k.apply(e) for e in es]
    return basis, norms


def null_basis(g: Bilinear, k: Endo) -> list:
    """Null eigenbasis (a_1..a_2n): K a_i = a_i, K a_{n+i} = -a_{n+i},
    g(a_i, a_{n+j}) = delta_ij, all other pairings zero.  Built from the
    adapted basis via a_i = e_i + Ke_i, a_{n+i} = (e_i - Ke_i) / (2 lam_i)."""
    basis, norms = adapted_basis(g, k)
    n = len(norms)
    a_plus = []
    a_minus = []
    for i in range(n):
        e, ke = basis[i], basis[n + i]
        a_plus.append([x + y for x, y in zip(e, ke)])
        scale = Fraction(1) / (2 * norms[i])
        a_minus.append([scale * (x - y) for x, y in zip(e, ke)])
    return a_plus + a_minus


def z_tangent_project(g: Bilinear, k: Endo, a: Endo) -> Endo:
    """Project an endomorphism onto the tangent space of Z(T) at K: take the
    g-skew part a0, then (a0 - K a0 K) / 2, which anti-commutes with K."""
    a0 = (a - g_adjoint(g, a)).scale(Fraction(1, 2))
    kak = Endo(mat_mul(k.mat, mat_mul(a0.mat, k.mat)))
    return (a0 - kak).scale(Fraction(1, 2))


def anticommutes(k: Endo, v: Endo) -> bool:
    return mat_is_zero(mat_add(mat_mul(v.mat, k.mat), mat_mul(k.mat, v.mat)))


def is_fiber_tangent(g: Bilinear, k: Endo, v: Endo) -> bool:
    return anticommutes(k, v) and is_g_skew(g, v)


def fiber_metric(v: Endo, w: Endo):
    """Fiber metric G(V, W) = -1/2 Trace(V W)."""
    prod = mat_mul(v.mat, w.mat)
    tr = sum((prod[i][i] for i in range(1, len(prod))), start=prod[0][0])
    return -tr / 2


def _fiber_constraint_rows(g: Bilinear, k: Endo) -> list:
    """Rows of the linear system cutting out {V : V g-skew, VK + KV = 0},
    with V flattened row-major."""
    n = g.dim
    unknowns = [(a, b) for a in range(n) for b in range(n)]
    rows = []
    # skew:  (V^T g + g V)[i][j] = sum_k V[k][i] g[k][j] + g[i][k] V[k][j]
    for i in range(n):
        for j in range(n):
            row = []
            for (a, b) in unknowns:
                c = Fraction(0)
                if b == i:
                    c += g.mat[a][j]
                if b == j:
                    c += g.mat[i][a]
                row.append(c)
            rows.append(row)
    # anti-commutation:  (VK + KV)[i][j] = sum_k V[i][k] K[k][j] + K[i][k] V[k][j]
    for i in range(n):
        for j in range(n):
            row = []
            for (a, b) in unknowns:
                c = Fraction(0)
                if a == i:
                    c += k.mat[b][j]
                c += k.mat[i][a] if b == j else 0
                row.append(c)
            rows.append(row)
    return rows


def fiber_tangent_dim(g: Bilinear, k: Endo) -> int:
    """Dimension of {V : V g-skew, VK + KV = 0}, solved as a linear system.
    Equals n^2 - n for T of dimension 2n."""
    n = g.dim
    return n * n - mat_rank(_fiber_constraint_rows(g, k))


def fiber_tangent_basis(g: Bilinear, k: Endo) -> list:
    """Basis of the fiber tangent space at K, as endomorphisms."""
    n = g.dim
    flat = frac_mat(*kernel_basis(as_ints(_fiber_constraint_rows(g, k))[1], n * n))
    return [Endo([v[i * n:(i + 1) * n] for i in range(n)]) for v in flat]


def induced_orientation(g: Bilinear, k: Endo) -> int:
    """Sign (+1 / -1) of det of the transition from the reference basis to an
    adapted basis (e_i, Ke_i); for n even this is the orientation induced by K.
    Positive rescalings of the e_i do not change the sign."""
    basis, _ = adapted_basis(g, k)
    det = mat_det(mat_from_columns(basis))
    return 1 if det > 0 else -1


def mat_det(a: list) -> Fraction:
    """Exact determinant over Q: sign d / D^n from linalg.bareiss of D a, or 0."""
    den, (m,) = int_mats([a])
    _, pivots, d, sign = bareiss(m)
    return Fraction(sign * d, den ** len(m)) if len(pivots) == len(m) else Fraction(0)


def j_triple(g: Bilinear, onb: list, sign: int = +1) -> list:
    """j_structures(g, onb, sign) for g and the frame in Fractions, as endomorphisms."""
    den, js = j_structures(as_ints(g.mat), as_ints(onb), sign)
    return [Endo(frac_mat(den, j)) for j in js]


def hyperboloid_structure(g: Bilinear, onb: list, y1, y2, y3) -> Endo:
    """K = y1 J1 + y2 J2 + y3 J3 for a rational point on the one-sheeted
    hyperboloid -y1^2 + y2^2 + y3^2 = 1; a compatible paracomplex structure
    inducing the + orientation."""
    y1, y2, y3 = Fraction(y1), Fraction(y2), Fraction(y3)
    if -y1 * y1 + y2 * y2 + y3 * y3 != 1:
        raise ValueError(f"({y1}, {y2}, {y3}) is not on the hyperboloid")
    j1, j2, j3 = j_triple(g, onb)
    return j1.scale(y1) + j2.scale(y2) + j3.scale(y3)


def hyperboloid_coords(g: Bilinear, onb: list, k: Endo) -> tuple:
    """Read back (y1, y2, y3) from K via fiber-metric projections onto the J_i;
    inverse of hyperboloid_structure on hyperboloid points."""
    j1, j2, j3 = j_triple(g, onb)
    # G(J1, J1) = 2 and G(J2, J2) = G(J3, J3) = -2
    return (
        fiber_metric(k, j1) / 2,
        -fiber_metric(k, j2) / 2,
        -fiber_metric(k, j3) / 2,
    )


def random_compatible_structure(g: tuple, onb: tuple, rng, orientation: int = +1,
                                js: tuple | None = None) -> tuple[int, list]:
    """Random g-compatible paracomplex structure of the given orientation in
    dim 4: y1 J1 + y2 J2 + y3 J3 at the hyperboloid_draw point (y1, y2, y3),
    for g and the frame on integers as j_structures takes them, as the pair
    (e, K) of hyperboloid_combination.  It is the draw of the theorem's
    witness search, hyperboloid_combination(hyperboloid_draw(rng), js) for
    the J-triple js = j_structures(g, onb, orientation), which a caller may
    pass; the draws from rng are the same either way."""
    point = hyperboloid_draw(rng)
    if js is None:
        js = j_structures(g, onb, +1 if orientation > 0 else -1)
    return hyperboloid_combination(point, js)


def standard_para_structure(n: int) -> Endo:
    """K e_i = e_{n+i}, K e_{n+i} = e_i on a 2n-dimensional space; compatible
    with diag(1..1, -1..-1)."""
    m = mat_zero(2 * n)
    for i in range(n):
        m[n + i][i] = Fraction(1)
        m[i][n + i] = Fraction(1)
    return Endo(m)


# -- T + T*: pairing, B-transforms, extraction, the fiber of compatible structures ------


def gen_pairing(a: GenVector, b: GenVector):
    """<X + alpha, Y + beta> = (alpha(Y) + beta(X)) / 2."""
    total = zero_like(a.x[0])
    for c, y in zip(a.alpha, b.x):
        total = total + c * y
    for c, y in zip(b.alpha, a.x):
        total = total + c * y
    return total / 2


def b_transform(b: Bilinear, a: GenVector) -> GenVector:
    """e^B: X + alpha -> X + alpha + i_X B."""
    return GenVector(list(a.x), vec_add(a.alpha, mat_vec(b.map_mat(), a.x)))


def b_endo(b: Bilinear) -> GenEndo:
    n = b.dim
    like = b.mat[0][0]
    return GenEndo(mat_identity(n, like), mat_zero(n, like=like),
                   b.map_mat(), mat_identity(n, like))


def b_conjugate(b: Bilinear, k: GenEndo) -> GenEndo:
    """e^B K e^{-B}, again a generalized paracomplex structure."""
    eb = b_endo(b)
    eminus = b_endo(Bilinear(mat_neg(b.mat)))
    return eb.compose(k).compose(eminus)


def extract_pair(k: GenEndo, e: GeneralizedMetric) -> tuple[Endo, Endo]:
    """The paracomplex pair (K1, K2) with K(X + g(X) + Theta(X)) =
    K1 X + g(K1 X) + Theta(K1 X), and likewise for K2 on E''."""
    if not is_compatible_endo(k, e):
        raise ValueError("structure does not preserve the generalized metric")
    k1_cols, k2_cols = [], []
    for v in e.frame_prime:
        k1_cols.append(k.apply(v).x)
    for v in e.frame_dprime:
        k2_cols.append(k.apply(v).x)
    k1 = Endo(mat_from_columns(k1_cols))
    k2 = Endo(mat_from_columns(k2_cols))
    return k1, k2


def check_pi_conditions(g: Bilinear, basis: list, theta: Bilinear) -> bool:
    """For pi = e1 ^ e2 in dim 4 with the null-frame metric g(e_i, f_j) =
    delta_ij on basis (e1, e2, f1, f2): compatibility holds iff
    Theta(e1,e2) = -2, Theta(e1,f2) = Theta(e2,f1) = 0,
    Theta(e1,f1) = Theta(e2,f2), and
    2 Theta(f1,f2) = 1 - Theta(e1,f1) Theta(e2,f2).

    The quadratic constraint follows from evaluating the skew part of the
    compatibility identity at (f1, f2); it is cross-checked exactly against
    the rank-based compatibility test."""
    if g.dim != 4 or len(basis) != 4:
        raise ValueError("expected a 4-dimensional null frame")
    e1, e2, f1, f2 = basis
    for u in (e1, e2):
        for v in (e1, e2):
            if g.apply(u, v) != 0:
                raise ValueError("g(e_i, e_j) must vanish")
    for u in (f1, f2):
        for v in (f1, f2):
            if g.apply(u, v) != 0:
                raise ValueError("g(f_i, f_j) must vanish")
    for i, u in enumerate((e1, e2)):
        for j, v in enumerate((f1, f2)):
            if g.apply(u, v) != (1 if i == j else 0):
                raise ValueError("g(e_i, f_j) must be delta_ij")
    th = theta.apply
    return (th(e1, e2) == -2
            and th(e1, f2) == 0
            and th(e2, f1) == 0
            and th(e1, f1) == th(e2, f2)
            and 2 * th(f1, f2) == 1 - th(e1, f1) * th(e2, f2))


def _transferred_frame_images(v: Endo, e: GeneralizedMetric, prime: bool) -> list:
    """Images of the E' (resp. E'') frame under the transfer of v from T:
    the transferred endomorphism sends F(e_i) to F(v e_i)."""
    frame = e.frame_prime if prime else e.frame_dprime
    out = []
    for i in range(e.dim):
        img_t = [v.mat[r][i] for r in range(e.dim)]
        lifted = GenVector([zero_like(img_t[0])] * e.dim, [zero_like(img_t[0])] * e.dim)
        for j, c in enumerate(img_t):
            if c:
                lifted = lifted + frame[j].scale(c)
        out.append(lifted.stacked())
    return out


def vertical_endo(e: GeneralizedMetric, v1: Endo, v2: Endo) -> GenEndo:
    """The endomorphism of T + T* acting as the transfer of v1 on E' and of
    v2 on E''."""
    frame_cols = [w.stacked() for w in e.frame_prime] + \
                 [w.stacked() for w in e.frame_dprime]
    image_cols = _transferred_frame_images(v1, e, prime=True) + \
                 _transferred_frame_images(v2, e, prime=False)
    frame = mat_from_columns(frame_cols)
    images = mat_from_columns(image_cols)
    return GenEndo.from_matrix(mat_mul(images, mat_inv(frame)))


def p_epsilon(eps: int, kpair: tuple[Endo, Endo], e: GeneralizedMetric,
              v: tuple[Endo, Endo]) -> tuple[Endo, Endo]:
    """The four fiber paracomplex structures on vertical pairs:
    P1(V1, V2) = (K1 V1, K2 V2), P2(V1, V2) = (K1 V1, -K2 V2),
    P3 = -P2, P4 = -P1."""
    k1, k2 = kpair
    v1, v2 = v
    for ks, vs in ((k1, v1), (k2, v2)):
        if not is_fiber_tangent(e.g, ks, vs):
            raise ValueError("component is not tangent at the base structure")
    w1 = Endo(mat_mul(k1.mat, v1.mat))
    w2 = Endo(mat_mul(k2.mat, v2.mat))
    if eps == 1:
        return w1, w2
    if eps == 2:
        return w1, -w2
    if eps == 3:
        return -w1, w2
    if eps == 4:
        return -w1, -w2
    raise ValueError("epsilon must be 1, 2, 3, or 4")


def s_ij_endo(g: Bilinear, onb: list, i: int, j: int) -> Endo:
    """The frame generator S_ij of g-skew endomorphisms for an orthogonal basis:
    S_ij u_k = delta_ik |u_j|^2 u_j - delta_kj |u_i|^2 u_i (transferred to T)."""
    n = g.dim
    cols = []
    norms = [g.apply(u, u) for u in onb]
    for k in range(n):
        col = [zero_like(g.mat[0][0])] * n
        vecs = []
        if k == i:
            vecs.append(vec_scale(norms[j], onb[j]))
        if k == j:
            vecs.append(vec_scale(-norms[i], onb[i]))
        for v in vecs:
            col = vec_add(col, v)
        cols.append(col)
    # columns are images of the onb vectors; convert to the reference basis
    p = mat_from_columns(onb)
    return Endo(mat_mul(mat_from_columns(cols), mat_inv(p)))


def classify_component(k: GenEndo, e: GeneralizedMetric) -> str:
    """Connected component of the fiber: orientation signs of (K1, K2)."""
    k1, k2 = extract_pair(k, e)
    s1 = "+" if induced_orientation(e.g, k1) > 0 else "-"
    s2 = "+" if induced_orientation(e.g, k2) > 0 else "-"
    return s1 + s2


# -- the Courant bracket of sections, Nijenhuis tensors, the B-transform law -------------


def double_contract(omega3: KForm, x: list, y: list) -> list:
    """i_X i_Y omega for a 3-form: the 1-form Z -> omega(Y, X, Z), in components."""
    out = [RatFunc.zero(omega3.nvars)] * omega3.nvars
    for idx, c in omega3.comps.items():
        for perm in itertools.permutations(idx):
            i, j, k = perm
            if y[i] and x[j]:
                term = c * y[i] * x[j]
                out[k] = out[k] + (term if _sort_index(perm)[1] > 0 else -term)
    return out


def _section_jet(s: GenVector) -> list[GenVector]:
    """The first partials [d_1 s, ..., d_n s] of a section."""
    return [GenVector([_partial(c, i) for c in s.x], [_partial(c, i) for c in s.alpha])
            for i in range(len(s.x))]


def courant_bracket(a: GenVector, b: GenVector) -> GenVector:
    """[X+a, Y+b] = [X,Y] + L_X b - L_Y a - d(i_X b - i_Y a)/2."""
    return _bracket(a, _section_jet(a), b, _section_jet(b)).scale(Fraction(1, 2))


def gen_nijenhuis(k: GenEndo, a: GenVector, b: GenVector) -> GenVector:
    """N(A, B) = [A,B] + [KA, KB] - K([KA, B] + [A, KB]) (Courant brackets)."""
    dk = endo_jet(k)

    def jet(s):  # (S, dS, KS, d(KS)) with d_i(KS) = (d_i K) S + K d_i S
        ds = _section_jet(s)
        return s, ds, k.apply(s), [dki.apply(s) + k.apply(dsi) for dki, dsi in zip(dk, ds)]

    return _nijenhuis(k, jet(a), jet(b))


def classical_nijenhuis(p: list, x: list, y: list) -> list:
    """N(X, Y) = [X,Y] + [PX, PY] - P[PX, Y] - P[X, PY] for an endo field P: the
    vector part of the generalized N of the endomorphism P + 0 of T + T*."""
    z = mat_zero(len(p), like=p[0][0])
    return gen_nijenhuis(GenEndo(p, z, z, z), GenVector.vector(x), GenVector.vector(y)).x


def b_bracket_residual(theta: KForm, a: GenVector, b: GenVector) -> GenVector:
    """[e^T A, e^T B] - (e^T [A,B] - i_X i_Y dTheta); identically zero."""
    if theta.degree != 2:
        raise ValueError("Theta must be a 2-form")
    t = _bilinear(theta)
    lhs = courant_bracket(b_transform(t, a), b_transform(t, b))
    correction = double_contract(ext_deriv(theta), a.x, b.x)
    return lhs - b_transform(t, courant_bracket(a, b)) + GenVector.covector(correction)


# -- connections, curvature endomorphisms, twistor and reflector Nijenhuis values -------


class Connection:
    """Christoffel data gamma[i][j][k]: nabla_{d_i} d_j = gamma[i][j][k] d_k."""

    __slots__ = ("nvars", "gamma")

    def __init__(self, nvars: int, gamma: list):
        self.nvars, self.gamma = nvars, gamma


class TorsionTensor:
    """T(d_i, d_j) = t[i][j][k] d_k; antisymmetric in (i, j)."""

    __slots__ = ("nvars", "t")

    def __init__(self, nvars: int, t: list):
        self.nvars, self.t = nvars, t


def levi_civita(g: list) -> Connection:
    """Christoffel symbols of the metric field with exact inverse metric."""
    n = len(g)
    try:
        ginv = gauss_jordan_inv(g)
    except ZeroDivisionError as exc:
        raise DegenerateMetric("metric field is degenerate") from exc
    dg = [[[g[i][j].partial(k) for k in range(n)] for j in range(n)] for i in range(n)]
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    half = Fraction(1, 2)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                total = RatFunc.zero(n)
                for l in range(n):
                    total = total + ginv[k][l] * (dg[l][j][i] + dg[l][i][j] - dg[i][j][l])
                gamma[i][j][k] = total * half
    return Connection(n, gamma)


def hitchin_connection(g: list, theta: KForm) -> tuple[Connection, TorsionTensor]:
    """Metric connection whose totally skew torsion satisfies
    g(T(X, Y), Z) = dTheta(X, Y, Z): Levi-Civita plus the contorsion
    A(X, Y) with g(A(X, Y), Z) = dTheta(X, Y, Z) / 2."""
    n = len(g)
    lc = levi_civita(g)
    dth = ext_deriv(theta)
    ginv = gauss_jordan_inv(g)
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    half = Fraction(1, 2)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                contorsion = RatFunc.zero(n)
                for l in range(n):
                    contorsion = contorsion + ginv[k][l] * dth.get((i, j, l))
                gamma[i][j][k] = lc.gamma[i][j][k] + contorsion * half
    torsion = [[[gamma[i][j][k] - gamma[j][i][k] for k in range(n)]
                for j in range(n)] for i in range(n)]
    return Connection(n, gamma), TorsionTensor(n, torsion)


def metricity_residual(conn: Connection, g: list) -> bool:
    """True iff nabla g = 0 as a rational-function identity."""
    n = conn.nvars
    for i in range(n):
        for j in range(n):
            for k in range(n):
                total = g[j][k].partial(i)
                for l in range(n):
                    total = total - conn.gamma[i][j][l] * g[l][k]
                    total = total - conn.gamma[i][k][l] * g[j][l]
                if not total.is_zero():
                    return False
    return True


def riemann_at(g: list, point) -> list:
    """r[i][j][k][l] at the point: R(d_i, d_j) d_k = r[i][j][k][l] d_l in the
    convention R(X, Y) = D_{[X,Y]} - [D_X, D_Y], in Q from the metric's 2-jet,
    at a point of Fractions: _riemann's lowered operator q spread over every
    order of its index pairs, with e_j ^ e_i = -e_i ^ e_j and 0 on a repeated
    index, and its last index raised by g^-1 = M / det."""
    _, (det, ginv), e, q = _riemann(g, int_point(point))
    ns = range(len(ginv))
    pairs = {(i, k): (a, s) for i in ns for k, a, s in _ORDERED[i]}

    def lowered(i, j, k, l):
        if i == j or k == l:
            return 0
        (a, s), (b, t) = pairs[i, j], pairs[k, l]
        return s * t * q[a][b]

    return [[[[Fraction(sum(lowered(i, j, k, l) * ginv[l][m] for l in ns), det * e)
               for m in ns] for k in ns] for j in ns] for i in ns]


def curvature_endo(r_at: list, x: list, y: list) -> Endo:
    """The endomorphism R(X, Y) at a point from evaluated curvature data."""
    n = len(r_at)
    mat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            c = x[i] * y[j]
            if not c:
                continue
            for k in range(n):
                for l in range(n):
                    if r_at[i][j][k][l]:
                        mat[l][k] += c * r_at[i][j][k][l]
    return Endo(mat)


def reflector_nijenhuis(r_at: list, q: Endo, x: list, y: list, i: int) -> Endo:
    """Vertical Nijenhuis value at Q for horizontal arguments:
    R(X,Y)Q + R(QX,QY)Q - K^i R(QX,Y)Q - K^i R(X,QY)Q, with R(X,Y)Q the
    commutator [R(X,Y), Q] and K^i V = (-1)^{i+1} Q V."""
    def act(a: list, b: list) -> Endo:
        rend = curvature_endo(r_at, a, b)
        return Endo(mat_sub(mat_mul(rend.mat, q.mat), mat_mul(q.mat, rend.mat)))

    def k_i(v: Endo) -> Endo:
        kv = Endo(mat_mul(q.mat, v.mat))
        return kv if i % 2 == 1 else -kv

    qx, qy = q.apply(x), q.apply(y)
    return act(x, y) + act(qx, qy) - k_i(act(qx, y)) - k_i(act(x, qy))


def reflector_mixed_nijenhuis(q: Endo, x: list, v: Endo, i: int) -> list:
    """Mixed horizontal-vertical value ((-1)^i + 1) (Q V X)."""
    factor = Fraction((-1) ** i + 1)
    return vec_scale(factor, q.apply(v.apply(x)))


def omega_eps(e: GeneralizedMetric, kpair: tuple[Endo, Endo], eps: int,
              a: GenVector, b: GenVector, w: tuple[Endo, Endo]) -> Fraction:
    """<(P1 W - P_eps W)(A), B> - <(P1 W - P_eps W)(B), A>."""
    p1 = p_epsilon(1, kpair, e, w)
    pe = p_epsilon(eps, kpair, e, w)
    diff = vertical_endo(e, p1[0] - pe[0], p1[1] - pe[1])
    return gen_pairing(diff.apply(a), b) - gen_pairing(diff.apply(b), a)


def twistor_mixed_nijenhuis(e: GeneralizedMetric, kpair: tuple[Endo, Endo],
                            a: GenVector, v: tuple[Endo, Endo], eps: int) -> GenVector:
    """N_eps(A^h, V) = (-(P_eps V) A + (P1 V) A)^h as a value at the base point."""
    p1 = p_epsilon(1, kpair, e, v)
    pe = p_epsilon(eps, kpair, e, v)
    w1 = vertical_endo(e, p1[0], p1[1])
    we = vertical_endo(e, pe[0], pe[1])
    return w1.apply(a) - we.apply(a)


def twistor_vertical_nijenhuis(r_at: list, e: GeneralizedMetric,
                               kpair: tuple[Endo, Endo], a: GenVector,
                               b: GenVector, eps: int,
                               vertical_basis: list | None = None):
    """Vertical part of N_eps(A^h, B^h) at the fiber point (K1, K2):
    R(p1 A, p1 B) K + R(p1 KA, p1 KB) K - P_eps R(p1 KA, p1 B) K
    - P_eps R(p1 A, p1 KB) K, returned as the endomorphism pair, together
    with the values of the 1-form omega^eps_{A,B} on the supplied vertical
    basis (pairs); omega^1 vanishes identically.

    The horizontal-times-vertical-covector values are determined by this
    output through <p* N_eps(A^h, phi), B> = -phi(vertical part of
    N_eps(A^h, B^h)) / 2, so no separate evaluator is needed for them."""
    k1, k2 = kpair
    kgen = assemble_endo(e.g, e.theta, k1, k2)
    ka, kb = kgen.apply(a), kgen.apply(b)

    def r_pair(x: list, y: list) -> tuple[Endo, Endo]:
        rend = curvature_endo(r_at, x, y)
        return (Endo(mat_sub(mat_mul(rend.mat, k1.mat), mat_mul(k1.mat, rend.mat))),
                Endo(mat_sub(mat_mul(rend.mat, k2.mat), mat_mul(k2.mat, rend.mat))))

    t1 = r_pair(a.x, b.x)
    t2 = r_pair(ka.x, kb.x)
    t3 = p_epsilon(eps, kpair, e, r_pair(ka.x, b.x))
    t4 = p_epsilon(eps, kpair, e, r_pair(a.x, kb.x))
    pair = (t1[0] + t2[0] - t3[0] - t4[0], t1[1] + t2[1] - t3[1] - t4[1])
    omega_values = []
    if vertical_basis is not None:
        for w in vertical_basis:
            omega_values.append(omega_eps(e, kpair, eps, a, b, w))
    return pair, omega_values


def vertical_pair_basis(g_at: Bilinear, kpair: tuple[Endo, Endo]) -> list:
    """Basis of the vertical space at (K1, K2) as endomorphism pairs."""
    zero = Endo(mat_zero(g_at.dim))
    first = [(v, zero) for v in fiber_tangent_basis(g_at, kpair[0])]
    second = [(zero, v) for v in fiber_tangent_basis(g_at, kpair[1])]
    return first + second


def horizontal_np_residual(g: list, theta: KForm, s1: Endo, s2: Endo,
                           a: GenVector, b: GenVector, point) -> GenVector:
    """N_P(A, B) minus the right-hand side of the obstruction identity at the
    point, in Fractions, computed apart from `paracomplex.obstruction`: T is
    the torsion of hitchin_connection(g, Theta) and H = dTheta (ext_deriv),
    both at the point, P the structure assemble_endo builds from g, S1 and
    S2 with Theta = 0 (Theta enters only through dTheta), and, for
    U = X + alpha and V = Y + beta,
    C(U, V) = (T(X, Y), beta(T(X, .)) - alpha(T(Y, .)) + H(X, Y, .));
    the residual is s (C(A, B) + C(PA, PB)) - P s (C(PA, B) + C(A, PB)) with
    s = -1 on the vector half and +1 on the form half.  Identically zero at
    the point for all inputs iff dTheta vanishes there; the point, the
    sections and S1, S2 in Fractions."""
    n = len(g)
    _, torsion = hitchin_connection(g, theta)
    ns = range(n)
    h = ext_deriv(theta)
    pairs = [(i, j) for i in ns for j in ns]
    # T(d_i, d_j)^k and H(d_i, d_j, d_k) at the point, as their nonzero (i, j, k, value)
    t_at, h_at = ([(i, j, k, v) for (i, j), row in zip(pairs, rows) for k, v in enumerate(row) if v]
                  for rows in (mat_eval([torsion.t[i][j] for i, j in pairs], point),
                               mat_eval([[h.get((i, j, k)) for k in ns] for i, j in pairs], point)))
    p = assemble_endo(Bilinear(mat_eval(g, point)), Bilinear(mat_zero(n)), s1, s2)

    def c(u: GenVector, v: GenVector) -> GenVector:
        (x, alpha), (y, beta) = (u.x, u.alpha), (v.x, v.alpha)
        vec, form = [Fraction(0)] * n, [Fraction(0)] * n
        for i, j, k, t in t_at:
            vec[k] += x[i] * y[j] * t
            form[j] += (beta[k] * x[i] - alpha[k] * y[i]) * t
        for i, j, k, w in h_at:
            form[k] += x[i] * y[j] * w
        return GenVector(vec, form)

    def signed(w: GenVector) -> GenVector:
        return GenVector(vec_scale(-1, w.x), w.alpha)

    pa, pb = p.apply(a), p.apply(b)
    return signed(c(a, b) + c(pa, pb)) - p.apply(signed(c(pa, b) + c(a, pb)))
