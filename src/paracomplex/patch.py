"""Symbolic tensor calculus on a coordinate patch with rational-function
coefficients: vector fields, differential forms, bivector fields, the Courant
bracket, and the classical and generalized Nijenhuis tensors.

Sign conventions.  The interior product is the antiderivation with
i_X dx^i = X^i; the double contraction of a 3-form is
(i_X i_Y w)(Z) = w(Y, X, Z).  The Courant bracket is
[X+a, Y+b] = [X,Y] + L_X b - L_Y a - d(i_X b - i_Y a)/2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from paracomplex.exact import RatFunc
from paracomplex.gpx import (
    GenEndo,
    GenVector,
    omega_structure,
    pi_structure,
    product_structure,
    trivial_structure,
)
from paracomplex.linalg import Bilinear, Endo, sparse_add


class WrongDegree(ValueError):
    """Form degree does not match the operation."""


def _sort_index(idx: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
    """Sorted index tuple and permutation sign; None for repeated indices."""
    if len(set(idx)) != len(idx):
        return None
    sign = 1
    lst = list(idx)
    for i in range(len(lst)):
        for j in range(len(lst) - 1 - i):
            if lst[j] > lst[j + 1]:
                lst[j], lst[j + 1] = lst[j + 1], lst[j]
                sign = -sign
    return tuple(lst), sign


class VField:
    """Vector field: one RatFunc component per coordinate."""

    def __init__(self, components: list[RatFunc]):
        self.components = list(components)
        self.nvars = len(components)

    @staticmethod
    def zero(nvars: int) -> VField:
        return VField([RatFunc.zero(nvars) for _ in range(nvars)])

    @staticmethod
    def coordinate(i: int, nvars: int) -> VField:
        comps = [RatFunc.zero(nvars) for _ in range(nvars)]
        comps[i] = RatFunc.one(nvars)
        return VField(comps)

    def __add__(self, other: VField) -> VField:
        return VField([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: VField) -> VField:
        return VField([a - b for a, b in zip(self.components, other.components)])

    def __neg__(self) -> VField:
        return VField([-a for a in self.components])

    def scale(self, f) -> VField:
        return VField([f * a for a in self.components])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __eq__(self, other):
        return isinstance(other, VField) and all(
            a == b for a, b in zip(self.components, other.components))

    def eval_at(self, point) -> list[Fraction]:
        return [c.eval_at(point) for c in self.components]

    def __repr__(self):
        return f"VField({[c.to_str() for c in self.components]})"


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

    @staticmethod
    def zero(nvars: int, degree: int) -> KForm:
        return KForm(nvars, degree)

    @staticmethod
    def function(f: RatFunc) -> KForm:
        return KForm(f.nvars, 0, {(): f})

    @staticmethod
    def dx(i: int, nvars: int) -> KForm:
        return KForm(nvars, 1, {(i,): RatFunc.one(nvars)})

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
            raise WrongDegree("cannot add forms of different degree")
        comps = dict(self.comps)
        for k, c in other.comps.items():
            sparse_add(comps, k, c)
        out = KForm(self.nvars, self.degree)
        out.comps = comps
        return out

    def __sub__(self, other: KForm) -> KForm:
        return self + other.scale(Fraction(-1))

    def __neg__(self) -> KForm:
        return self.scale(Fraction(-1))

    def scale(self, f) -> KForm:
        out = KForm(self.nvars, self.degree)
        for k, c in self.comps.items():
            s = c * f if isinstance(c, RatFunc) else f * c
            if not s.is_zero():
                out.comps[k] = s
        return out

    def is_zero(self) -> bool:
        return not self.comps

    def __eq__(self, other):
        if not isinstance(other, KForm) or self.degree != other.degree:
            return NotImplemented
        keys = set(self.comps) | set(other.comps)
        return all(self.get(k) == other.get(k) for k in keys)

    def apply(self, vectors: list[VField]) -> RatFunc:
        """Full antisymmetric evaluation on k vector fields."""
        if len(vectors) != self.degree:
            raise WrongDegree(f"expected {self.degree} vectors")
        total = RatFunc.zero(self.nvars)
        if self.degree == 0:
            return self.comps.get((), total)
        for idx, c in self.comps.items():
            for perm in itertools.permutations(range(self.degree)):
                sign = _sort_index(perm)[1]
                term = c if sign > 0 else -c
                for a, b in enumerate(perm):
                    term = term * vectors[b].components[idx[a]]
                total = total + term
        return total

    def wedge(self, other: KForm) -> KForm:
        out = KForm(self.nvars, self.degree + other.degree)
        for i1, c1 in self.comps.items():
            for i2, c2 in other.comps.items():
                sorted_sign = _sort_index(i1 + i2)
                if sorted_sign is None:
                    continue
                key, sign = sorted_sign
                sparse_add(out.comps, key, c1 * c2 if sign > 0 else -(c1 * c2))
        return out

    def __repr__(self):
        return f"KForm(deg={self.degree}, {{{', '.join(f'{k}: {c.to_str()}' for k, c in sorted(self.comps.items()))}}})"


class BiVectorField:
    """Field of 2-vectors; components pi^{ij} on i < j."""

    def __init__(self, dim: int, comps: dict | None = None):
        self.dim = dim
        self.comps: dict[tuple[int, int], RatFunc] = {}
        if comps:
            for (i, j), c in comps.items():
                if i == j:
                    continue
                if i > j:
                    i, j, c = j, i, -c
                sparse_add(self.comps, (i, j), c)

    def get(self, i: int, j: int) -> RatFunc:
        if i == j:
            return RatFunc.zero(self.dim)
        if i < j:
            return self.comps.get((i, j), RatFunc.zero(self.dim))
        c = self.comps.get((j, i))
        return RatFunc.zero(self.dim) if c is None else -c


@dataclass
class GenSection:
    """Section X + alpha of the double bundle over the patch."""

    x: VField
    alpha: KForm  # degree 1

    def __add__(self, other: GenSection) -> GenSection:
        return GenSection(self.x + other.x, self.alpha + other.alpha)

    def __sub__(self, other: GenSection) -> GenSection:
        return GenSection(self.x - other.x, self.alpha - other.alpha)

    def __neg__(self) -> GenSection:
        return GenSection(-self.x, -self.alpha)

    def is_zero(self) -> bool:
        return self.x.is_zero() and self.alpha.is_zero()

    def __eq__(self, other):
        return isinstance(other, GenSection) and self.x == other.x and self.alpha == other.alpha

    @staticmethod
    def vector(x: VField) -> GenSection:
        return GenSection(x, KForm.zero(x.nvars, 1))

    @staticmethod
    def form(alpha: KForm) -> GenSection:
        return GenSection(VField.zero(alpha.nvars), alpha)

    def eval_at(self, point) -> GenVector:
        return GenVector(self.x.eval_at(point),
                         [self.alpha.get((i,)).eval_at(point) for i in range(self.x.nvars)])


# -- calculus ---------------------------------------------------------------------


def lie_bracket(x: VField, y: VField) -> VField:
    """[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i."""
    n = x.nvars
    comps = []
    for i in range(n):
        total = RatFunc.zero(n)
        for j in range(n):
            total = total + x.components[j] * y.components[i].partial(j)
            total = total - y.components[j] * x.components[i].partial(j)
        comps.append(total)
    return VField(comps)


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


def interior(x: VField, omega: KForm) -> KForm:
    """i_X omega; the antiderivation with i_X dx^i = X^i."""
    n = omega.nvars
    if omega.degree == 0:
        return KForm.zero(n, 0)
    out = KForm(n, omega.degree - 1)
    for idx, c in omega.comps.items():
        for pos, i in enumerate(idx):
            term = c * x.components[i]
            sparse_add(out.comps, idx[:pos] + idx[pos + 1:], -term if pos % 2 else term)
    return out


def lie_deriv(x: VField, omega: KForm) -> KForm:
    """Cartan formula L_X = d i_X + i_X d."""
    return ext_deriv(interior(x, omega)) + interior(x, ext_deriv(omega))


def double_contract(omega3: KForm, x: VField, y: VField) -> KForm:
    """i_X i_Y omega for a 3-form: the 1-form Z -> omega(Y, X, Z)."""
    return interior(x, interior(y, omega3))


# -- Courant bracket ---------------------------------------------------------------


def courant_bracket(a: GenSection, b: GenSection) -> GenSection:
    """[X+a, Y+b] = [X,Y] + L_X b - L_Y a - d(i_X b - i_Y a)/2."""
    x, alpha = a.x, a.alpha
    y, beta = b.x, b.alpha
    vec = lie_bracket(x, y)
    form = lie_deriv(x, beta) - lie_deriv(y, alpha)
    ix_beta = interior(x, beta)
    iy_alpha = interior(y, alpha)
    half_d = ext_deriv(ix_beta - iy_alpha).scale(Fraction(1, 2))
    return GenSection(vec, form - half_d)


def courant_jacobiator(a: GenSection, b: GenSection, c: GenSection) -> GenSection:
    return (courant_bracket(courant_bracket(a, b), c)
            + courant_bracket(courant_bracket(b, c), a)
            + courant_bracket(courant_bracket(c, a), b))


# -- generalized structures on the patch --------------------------------------------


def _omega_structure(omega: KForm) -> GenEndo:
    """K_omega of a 2-form field, from the full matrix omega(d_i, d_j)."""
    if omega.degree != 2:
        raise WrongDegree("omega must be a 2-form")
    n = omega.nvars
    return omega_structure(Bilinear([[omega.get((i, j)) for j in range(n)] for i in range(n)]))


# descriptor kind -> the gpx constructor applied to that kind's patch data
STRUCTURES = {
    "trivial": lambda nvars: trivial_structure(nvars, RatFunc.one(nvars)),
    "omega": _omega_structure,
    "pi": pi_structure,
    "product": lambda p: product_structure(Endo(p)),
}


# -- Nijenhuis tensors -----------------------------------------------------------------


def _apply(k: GenEndo, s: GenSection) -> GenSection:
    """K(s) for a structure K with RatFunc entries, through GenEndo.apply."""
    n = k.dim
    v = k.apply(GenVector(s.x.components, [s.alpha.get((i,)) for i in range(n)]))
    return GenSection(VField(v.x), KForm(n, 1, {(i,): c for i, c in enumerate(v.alpha)}))


def gen_nijenhuis(k: GenEndo, a: GenSection, b: GenSection) -> GenSection:
    """N(A, B) = [A,B] + [KA, KB] - K[KA, B] - K[A, KB] (Courant brackets)."""
    ka, kb = _apply(k, a), _apply(k, b)
    return (courant_bracket(a, b) + courant_bracket(ka, kb)
            - _apply(k, courant_bracket(ka, b)) - _apply(k, courant_bracket(a, kb)))


def classical_nijenhuis(p: list, x: VField, y: VField) -> VField:
    """N(X, Y) = [X,Y] + [PX, PY] - P[PX, Y] - P[X, PY] for an endo field P."""
    def apply_p(v: VField) -> VField:
        return VField([sum((p[i][j] * v.components[j] for j in range(1, len(p))),
                           start=p[i][0] * v.components[0]) for i in range(len(p))])

    px, py = apply_p(x), apply_p(y)
    return (lie_bracket(x, y) + lie_bracket(px, py)
            - apply_p(lie_bracket(px, y)) - apply_p(lie_bracket(x, py)))


def frame_sections(nvars: int) -> list[GenSection]:
    """The 4n coordinate-frame sections (d_i + 0) and (0 + dx^j)."""
    out = [GenSection.vector(VField.coordinate(i, nvars)) for i in range(nvars)]
    out += [GenSection.form(KForm.dx(i, nvars)) for i in range(nvars)]
    return out


def gen_nijenhuis_frame_sweep(k: GenEndo):
    """Evaluate N on all frame-section pairs; returns (all_zero, witnesses)
    where witnesses maps pair indices to the nonzero section."""
    frames = frame_sections(k.dim)
    witnesses = {}
    for i in range(len(frames)):
        for j in range(i + 1, len(frames)):
            n = gen_nijenhuis(k, frames[i], frames[j])
            if not n.is_zero():
                witnesses[(i, j)] = n
    return not witnesses, witnesses


# -- Poisson condition ----------------------------------------------------------------


def poisson_jacobiator(pi: BiVectorField) -> dict:
    """Jacobiator components sum_l (pi^{li} d_l pi^{jk} + pi^{lj} d_l pi^{ki}
    + pi^{lk} d_l pi^{ij}) for i < j < k; empty dict iff Poisson."""
    n = pi.dim
    out = {}
    for i, j, k in itertools.combinations(range(n), 3):
        total = RatFunc.zero(n)
        for l in range(n):
            total = total + pi.get(l, i) * pi.get(j, k).partial(l)
            total = total + pi.get(l, j) * pi.get(k, i).partial(l)
            total = total + pi.get(l, k) * pi.get(i, j).partial(l)
        if not total.is_zero():
            out[(i, j, k)] = total
    return out


def is_poisson(pi: BiVectorField) -> bool:
    return not poisson_jacobiator(pi)


# -- B-transform bracket law -------------------------------------------------------------


def b_transform_section(theta: KForm, a: GenSection) -> GenSection:
    """e^Theta: X + a -> X + a + i_X Theta."""
    return GenSection(a.x, a.alpha + interior(a.x, theta))


def b_bracket_residual(theta: KForm, a: GenSection, b: GenSection) -> GenSection:
    """[e^T A, e^T B] - (e^T [A,B] - i_X i_Y dTheta); identically zero."""
    if theta.degree != 2:
        raise WrongDegree("Theta must be a 2-form")
    lhs = courant_bracket(b_transform_section(theta, a), b_transform_section(theta, b))
    correction = double_contract(ext_deriv(theta), a.x, b.x)
    rhs = b_transform_section(theta, courant_bracket(a, b)) - GenSection.form(correction)
    return lhs - rhs


# -- integrability dispatch ----------------------------------------------------------------


@dataclass
class IntegrabilityReport:
    kind: str
    integrable: bool
    criterion: str
    witness: dict | None
    sweep_witnesses: dict  # frame pair -> nonzero generalized Nijenhuis section


def integrability_report(kind: str, data) -> IntegrabilityReport:
    """Closed-form integrability criterion per structure kind, plus one
    generalized-Nijenhuis frame-pair sweep (exact identity check)."""
    if kind not in STRUCTURES:
        raise ValueError(f"unknown structure kind {kind!r}")
    _, sweep = gen_nijenhuis_frame_sweep(STRUCTURES[kind](data))
    witness = None
    if kind == "trivial":
        criterion = "trivial"
    elif kind == "omega":
        criterion = "d_omega_zero"
        domega = ext_deriv(data)
        if not domega.is_zero():
            idx, c = min(domega.comps.items())
            witness = {"d_omega_component": [i + 1 for i in idx], "value": c.to_str()}
    elif kind == "pi":
        criterion = "pi_poisson"
        jac = poisson_jacobiator(data)
        if jac:
            idx, c = min(jac.items())
            witness = {"jacobiator_triple": [i + 1 for i in idx], "value": c.to_str()}
    else:
        criterion = "p_nijenhuis_zero"
        n = len(data)
        for i, j in itertools.combinations(range(n), 2):
            nij = classical_nijenhuis(data, VField.coordinate(i, n), VField.coordinate(j, n))
            if not nij.is_zero():
                witness = {"frame_pair": [i + 1, j + 1],
                           "value": [c.to_str() for c in nij.components]}
                break
    return IntegrabilityReport(kind, witness is None, criterion, witness, sweep)
