"""Symbolic tensor calculus on a coordinate patch with rational-function
coefficients: differential forms, bivector fields, the Courant bracket on
1-jets, the generalized Nijenhuis tensor on frame pairs, and the
integrability criteria of each structure kind.

A vector field is the list of its components, and a section X + alpha of
T + T* is a `gpx.GenVector` with RatFunc entries.  Sign convention: the Courant
bracket is [X+a, Y+b] = [X,Y] + L_X b - L_Y a - d(i_X b - i_Y a)/2.
"""

from __future__ import annotations

import itertools
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
from paracomplex.linalg import (Bilinear, Endo, mat_identity, mat_zero, sparse_add,
                                transpose, zero_like)


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

    def __sub__(self, other: KForm) -> KForm:
        return self + other.scale(Fraction(-1))

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


GenSection = GenVector  # the name perfbench/tracer.py imports


# -- exterior calculus ------------------------------------------------------------


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


def _bilinear(form: KForm) -> Bilinear:
    """The full matrix form(d_i, d_j) of a 2-form."""
    n = form.nvars
    return Bilinear([[form.get((i, j)) for j in range(n)] for i in range(n)])


# -- 1-jets and the Courant bracket ---------------------------------------------------


def _partial(c: RatFunc, i: int) -> RatFunc:
    """d_i c; a constant gives zero without a RatFunc.partial call."""
    return RatFunc.zero(c.nvars) if c.is_const() else c.partial(i)


def endo_jet(k: GenEndo) -> list[GenEndo]:
    """The first partials [d_1 K, ..., d_n K]; each nonconstant entry of K is
    differentiated once per coordinate."""
    m = k.as_matrix()
    return [GenEndo.from_matrix([[_partial(c, i) for c in row] for row in m])
            for i in range(k.dim)]


def courant_on_jets(a: GenVector, da: list, b: GenVector, db: list) -> GenVector:
    """The Courant bracket [A, B] of A = X + alpha and B = Y + beta from their
    1-jets: the values a, b and the partials da[i] = d_i A, db[i] = d_i B.  The
    entries are RatFuncs, or Fractions for jets evaluated at a point:

        [X,Y]^k = X^i d_i Y^k - Y^i d_i X^k
        form_k  = X^i d_i beta_k + beta_i d_k X^i - Y^i d_i alpha_k - alpha_i d_k Y^i
                  - d_k(X^i beta_i - Y^i alpha_i) / 2
    """
    x, alpha, y, beta = a.x, a.alpha, b.x, b.alpha
    n = len(x)
    zero = zero_like(x[0])
    # form_k = lie_k + sym_k / 2 with lie_k the d_i terms and sym_k the d_k terms
    vec, lie, sym = [zero] * n, [zero] * n, [zero] * n
    terms = []  # (coefficient, target, its factor at each k), nonzero coefficients only
    for i in range(n):
        if x[i]:
            terms += [(x[i], vec, db[i].x), (x[i], lie, db[i].alpha),
                      (-x[i], sym, [d.alpha[i] for d in db])]
        if y[i]:
            terms += [(-y[i], vec, da[i].x), (-y[i], lie, da[i].alpha),
                      (y[i], sym, [d.alpha[i] for d in da])]
        if alpha[i]:
            terms.append((-alpha[i], sym, [d.x[i] for d in db]))
        if beta[i]:
            terms.append((beta[i], sym, [d.x[i] for d in da]))
    for c, target, factors in terms:
        for k, f in enumerate(factors):
            if f:
                target[k] = target[k] + c * f
    return GenVector(vec, [l + s * Fraction(1, 2) if s else l for l, s in zip(lie, sym)])


# -- generalized structures on the patch --------------------------------------------


def _omega_structure(omega: KForm) -> GenEndo:
    """K_omega of a 2-form field, from the full matrix omega(d_i, d_j)."""
    if omega.degree != 2:
        raise ValueError("omega must be a 2-form")
    return omega_structure(_bilinear(omega))


# descriptor kind -> the gpx constructor applied to that kind's patch data
STRUCTURES = {
    "trivial": lambda nvars: trivial_structure(nvars, RatFunc.one(nvars)),
    "omega": _omega_structure,
    "pi": pi_structure,
    "product": lambda p: product_structure(Endo(p)),
}


# -- Nijenhuis tensors -----------------------------------------------------------------


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
    a, da, ka, dka = ja
    b, db, kb, dkb = jb
    return (courant_on_jets(a, da, b, db) + courant_on_jets(ka, dka, kb, dkb)
            - k.apply(courant_on_jets(ka, dka, b, db) + courant_on_jets(a, da, kb, dkb)))


def gen_nijenhuis_frame_sweep(k: GenEndo, dk: list | None = None):
    """N on all frame-section pairs from the 1-jet of K, its value k and its
    partials dk (default endo_jet(k)), in RatFuncs or, at a point, in Fractions:
    N is a tensor, so N(p) needs only K(p) and dK(p).  Returns (all_zero,
    witnesses) where witnesses maps pair indices a < b to the nonzero section."""
    jets = _frame_jets(k, endo_jet(k) if dk is None else dk)
    witnesses = {}
    for i, j in itertools.combinations(range(len(jets)), 2):
        n = _nijenhuis(k, jets[i], jets[j])
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


# -- integrability dispatch ----------------------------------------------------------------


class IntegrabilityReport:
    """The verdict of a kind's criterion, its witness, and the structure K of
    the kind's patch data, for sampling N pointwise."""

    __slots__ = ("kind", "integrable", "criterion", "witness", "structure")

    def __init__(self, kind: str, integrable: bool, criterion: str, witness: dict | None,
                 structure: GenEndo):
        self.kind, self.integrable, self.criterion = kind, integrable, criterion
        self.witness, self.structure = witness, structure


def integrability_report(kind: str, data) -> IntegrabilityReport:
    """Closed-form integrability criterion per structure kind, decided as a
    rational-function identity, and the structure K itself."""
    if kind not in STRUCTURES:
        raise ValueError(f"unknown structure kind {kind!r}")
    k = STRUCTURES[kind](data)
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
        # the classical N_P on vector-frame pairs, from one jet of P + 0
        n = len(data)
        z = mat_zero(n, like=data[0][0])
        p = GenEndo(data, z, z, z)
        jets = _frame_jets(p, endo_jet(p))
        for i, j in itertools.combinations(range(n), 2):
            nij = _nijenhuis(p, jets[i], jets[j]).x
            if any(nij):
                witness = {"frame_pair": [i + 1, j + 1], "value": [c.to_str() for c in nij]}
                break
    return IntegrabilityReport(kind, witness is None, criterion, witness, k)
