"""Symbolic tensor calculus on a coordinate patch with rational-function
coefficients: differential forms, bivector fields, the Courant bracket on
1-jets, the checks that a descriptor's data define a structure, the
generalized Nijenhuis tensor on frame pairs at a point (on integers), and the
integrability criteria of each structure kind.

A descriptor's data are one n x n matrix of RatFuncs per kind: the form
omega(d_i, d_j), the bivector pi^{ij} or P.  A vector field is the list of its
components, and a section X + alpha of T + T* is a `gpx.GenVector`; the
commands build them at a point, with integer entries.
Sign convention: the Courant bracket is
[X+a, Y+b] = [X,Y] + L_X b - L_Y a - d(i_X b - i_Y a)/2.
"""

from __future__ import annotations

import itertools

from paracomplex.exact import RatFunc
from paracomplex.gpx import GenVector
from paracomplex.linalg import (mat_eq, mat_identity, mat_mul, mat_neg, mat_vec, pfaffian,
                                sparse_add, transpose)


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


# -- 1-jets and the Courant bracket ---------------------------------------------------


def _partial(c: RatFunc, i: int) -> RatFunc:
    """d_i c; a constant gives zero without a RatFunc.partial call."""
    return RatFunc.zero(c.nvars) if c.is_const() else c.partial(i)


def courant_on_jets(a: GenVector, da: list, b: GenVector, db: list) -> GenVector:
    """Twice the Courant bracket, 2[A, B], of A = X + alpha and B = Y + beta
    from their 1-jets: the values a, b and the partials da[i] = d_i A,
    db[i] = d_i B.  The entries are RatFuncs, Fractions, or the integers of
    jets over common denominators at a point, which the doubling keeps
    integers:

        [X,Y]^k = X^i d_i Y^k - Y^i d_i X^k
        form_k  = X^i d_i beta_k + beta_i d_k X^i - Y^i d_i alpha_k - alpha_i d_k Y^i
                  - d_k(X^i beta_i - Y^i alpha_i) / 2
    """
    x, alpha, y, beta = a.x, a.alpha, b.x, b.alpha
    n = len(x)
    zero = 0 * x[0]  # a zero of the entries' type
    # 2 form_k = 2 lie_k + sym_k with lie_k the d_i terms and sym_k the d_k terms
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
    return GenVector([v + v for v in vec], [l + l + s for l, s in zip(lie, sym)])


# -- the data that define a structure ------------------------------------------------


def check_structure(kind: str, data: list, certified: bool = False) -> None:
    """ValueError where a kind's patch data define no structure, decided as
    rational-function identities: an omega whose Pfaffian is zero (always on
    an odd number of variables), P^2 != Id, or P = +-Id.  certified says that
    det omega(p) != 0 at some point p; then Pf(omega)(p)^2 != 0, so the
    Pfaffian is not zero and is not expanded."""
    if kind == "omega" and not certified and not pfaffian(data, tuple(range(len(data))), {}):
        raise ValueError("omega field is degenerate")
    if kind == "product":
        ident = mat_identity(len(data), like=data[0][0])
        if not mat_eq(mat_mul(data, data), ident):
            raise ValueError("P^2 != Id as a rational-function identity")
        if mat_eq(data, ident) or mat_eq(data, mat_neg(ident)):
            raise ValueError("P = +-Id")


# -- the generalized Nijenhuis tensor at a point -----------------------------------------


def gen_nijenhuis_frame_sweep(k: tuple, dk: tuple):
    """N at a point on all pairs of the 2n constant frame sections (d_i + 0)
    and (0 + dx^j), on integers, from k = (D0, K) and dk = (D1, [dK_i]) as
    gpx.structure_jet gives them: N is a tensor, so N(p) needs only K(p) and
    dK(p).  The jet of K e_a is column a of K and of each dK_i, and for
    constant frames N(e_a, e_b) = [Ke_a, Ke_b] - K([Ke_a, e_b] + [e_a, Ke_b]),
    where [e_a, Ke_b] = -[Ke_b, e_a] and 2[Ke_a, e_b] reads the partials of
    Ke_a = X + alpha only: (-2 d_j X, -2 d_j alpha + d alpha_j) for e_b = d_j,
    and (0, d X^j) for e_b = dx^j.  So the doubled brackets on these integers
    give 2 D0 D1 N.  Returns (all_zero, witnesses), where witnesses maps each
    pair a < b with N(e_a, e_b) != 0 to the integers of 2 D0 D1 N(e_a, e_b),
    the X entries and then the alpha entries."""
    (_, m), (_, dm) = k, dk
    n = len(m) // 2
    cols = [[GenVector(c[:n], c[n:]) for c in transpose(e)] for e in [m] + dm]
    jets = list(zip(*cols[1:]))
    t = [[[-2 * x for x in d[j].x] + [d[i].alpha[j] - 2 * c for i, c in enumerate(d[j].alpha)]
          for j in range(n)] + [[0] * n + [e.x[j] for e in d] for j in range(n)] for d in jets]
    witnesses = {}
    for a, b in itertools.combinations(range(2 * n), 2):
        twice = courant_on_jets(cols[0][a], jets[a], cols[0][b], jets[b]).stacked()
        nij = [x - y for x, y in zip(twice, mat_vec(m, [u - v for u, v in zip(t[a][b], t[b][a])]))]
        if any(nij):
            witnesses[(a, b)] = nij
    return not witnesses, witnesses


# -- Poisson condition ----------------------------------------------------------------


def poisson_jacobiator(pi: list) -> dict:
    """Jacobiator components sum_l (pi^{li} d_l pi^{jk} + pi^{lj} d_l pi^{ki}
    + pi^{lk} d_l pi^{ij}) for i < j < k of the antisymmetric matrix pi; empty
    dict iff Poisson.  pi^{ij} is read above the diagonal, and
    pi^{ji} = -pi^{ij}."""
    n = len(pi)
    p = [[pi[i][j] if i < j else -pi[j][i] for j in range(n)] for i in range(n)]
    out = {}
    for i, j, k in itertools.combinations(range(n), 3):
        total = RatFunc.zero(n)
        for l in range(n):
            total = total + p[l][i] * p[j][k].partial(l)
            total = total + p[l][j] * p[k][i].partial(l)
            total = total + p[l][k] * p[i][j].partial(l)
        if not total.is_zero():
            out[(i, j, k)] = total
    return out


# -- integrability dispatch ----------------------------------------------------------------


class IntegrabilityReport:
    """The verdict of a kind's criterion and its witness."""

    __slots__ = ("kind", "integrable", "criterion", "witness")

    def __init__(self, kind: str, integrable: bool, criterion: str, witness: dict | None):
        self.kind, self.integrable, self.criterion = kind, integrable, criterion
        self.witness = witness


def integrability_report(kind: str, data: list, certified: bool = False) -> IntegrabilityReport:
    """Closed-form integrability criterion per structure kind, decided as a
    rational-function identity, for data that pass check_structure (with its
    certified flag)."""
    check_structure(kind, data, certified)
    n = len(data)
    witness = None
    if kind == "trivial":
        criterion = "trivial"
    elif kind in ("omega", "pi"):
        if kind == "omega":
            criterion, key = "d_omega_zero", "d_omega_component"
            comps = ext_deriv(KForm(n, 2, {(i, j): data[i][j] for i in range(n)
                                           for j in range(i + 1, n)})).comps
        else:
            criterion, key, comps = "pi_poisson", "jacobiator_triple", poisson_jacobiator(data)
        if comps:
            idx, c = min(comps.items())
            witness = {key: [i + 1 for i in idx], "value": c.to_str()}
    elif kind == "product":
        criterion = "p_nijenhuis_zero"
        # the classical N_P(d_i, d_j) = [X, Y] + P(d_j X - d_i Y) for the columns
        # X = P d_i and Y = P d_j, from one partial d[l][a] = d_l (P d_a) per entry
        cols = transpose(data)
        d = [[[_partial(c, l) for c in col] for col in cols] for l in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            nij = [RatFunc.zero(n)] * n
            for l in range(n):
                for c, col in ((cols[i][l], d[l][j]), (-cols[j][l], d[l][i]),
                               (d[j][i][l] - d[i][j][l], cols[l])):
                    if c:
                        nij = [s + c * f if f else s for s, f in zip(nij, col)]
            if any(nij):
                witness = {"frame_pair": [i + 1, j + 1], "value": [c.to_str() for c in nij]}
                break
    else:
        raise ValueError(f"unknown structure kind {kind!r}")
    return IntegrabilityReport(kind, witness is None, criterion, witness)
