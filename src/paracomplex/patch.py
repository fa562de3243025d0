"""Symbolic tensor calculus on a coordinate patch with rational-function
coefficients: the Courant bracket on 1-jets, the checks that a descriptor's
data define a structure (involution_checks, the one K^2 - Id, which
`assembled` also reads for the factors K1 and K2), the generalized Nijenhuis
tensor on frame pairs at a point (on integers), and the integrability
criteria of each structure kind, with d omega, dTheta and the Poisson
Jacobiator from one cyclic sum.  This module imports no `gpx`.

An omega is nondegenerate iff its Pfaffian is not zero, and that is decided
by evaluation alone: omega passes iff det omega(p) != 0 at a given point or
at one of two fixed points with 64-bit coordinates (structures._jets_at),
so every omega that passes is certified exactly by a nonsingular point.  A
nondegenerate omega is refused only if Pf(omega) Q^2, Q the product of the
entries' denominators, vanishes at every given point and at both fixed
points; were those two drawn uniformly from [0, 2^64)^n, that would have
probability at most (D / 2^64)^2, D the degree of that polynomial, by the
Schwartz-Zippel lemma (Schwartz, J. ACM 27, 1980; Zippel, EUROSAM 1979).
The points are fixed, so the bound is over their choice, not per input.
`reference.pfaffian`, the expansion of the Pfaffian, is the oracle.

A descriptor's data are one n x n matrix of RatFuncs per kind: the form
omega(d_i, d_j), the bivector pi^{ij} or P.  A 2-form (omega, or the Theta of
`theorem --theta`) and a bivector are antisymmetric matrices, read above the
diagonal; the sparse k-forms of `paracomplex.reference` are the oracle of
their exterior derivative.  A vector field is the list of its components,
and a section X + alpha of T + T* is the stacked list of its 2n components,
X and then alpha: the frame sweep takes the columns of K(p) and d_i K(p) as
they are, with integer entries, and `reference.GenVector` wraps a stacked
list in the algebra of sections for the oracles.
Sign convention: the Courant bracket is
[X+a, Y+b] = [X,Y] + L_X b - L_Y a - d(i_X b - i_Y a)/2.
"""

from __future__ import annotations

import itertools

from paracomplex.exact import RatFunc
from paracomplex.linalg import (identity, mat_is_zero, mat_mul, mat_neg, mat_sub, mat_vec,
                                transpose)

GenSection = list  # the name perfbench/tracer.py imports


# -- 1-jets and the Courant bracket ---------------------------------------------------


def _partial(c: RatFunc, i: int) -> RatFunc:
    """d_i c; a constant gives zero without a RatFunc.partial call."""
    return RatFunc.zero(c.nvars) if c.is_const() else c.partial(i)


def courant_on_jets(a: list, da: list, b: list, db: list) -> list:
    """Twice the Courant bracket, 2[A, B], of A = X + alpha and B = Y + beta
    from their 1-jets, as stacked lists X + alpha: the values a, b and the
    partials da[i] = d_i A, db[i] = d_i B.  The entries are RatFuncs,
    Fractions, or the integers of jets over common denominators at a point,
    which the doubling keeps integers:

        [X,Y]^k = X^i d_i Y^k - Y^i d_i X^k
        form_k  = X^i d_i beta_k + beta_i d_k X^i - Y^i d_i alpha_k - alpha_i d_k Y^i
                  - d_k(X^i beta_i - Y^i alpha_i) / 2
    """
    n = len(a) // 2
    x, alpha, y, beta = a[:n], a[n:], b[:n], b[n:]
    zero = 0 * x[0]  # a zero of the entries' type
    # 2 form_k = 2 lie_k + sym_k with lie_k the d_i terms and sym_k the d_k terms
    vec, lie, sym = [zero] * n, [zero] * n, [zero] * n
    terms = []  # (coefficient, target, its factor at each k), nonzero coefficients only
    for i in range(n):
        if x[i]:
            terms += [(x[i], vec, db[i][:n]), (x[i], lie, db[i][n:]),
                      (-x[i], sym, [d[n + i] for d in db])]
        if y[i]:
            terms += [(-y[i], vec, da[i][:n]), (-y[i], lie, da[i][n:]),
                      (y[i], sym, [d[n + i] for d in da])]
        if alpha[i]:
            terms.append((-alpha[i], sym, [d[i] for d in db]))
        if beta[i]:
            terms.append((beta[i], sym, [d[i] for d in da]))
    for c, target, factors in terms:
        for k, f in enumerate(factors):
            if f:
                target[k] = target[k] + c * f
    return [v + v for v in vec] + [l + l + s for l, s in zip(lie, sym)]


# -- the data that define a structure ------------------------------------------------


def check_structure(kind: str, data: list, certified: bool) -> None:
    """ValueError where a kind's patch data define no structure: an omega
    that no point certified, P^2 != Id as a rational-function identity, or
    P = +-Id.  certified says that det omega(p) != 0 at some point p, given
    or fixed (structures._jets_at), so Pf(omega)(p)^2 != 0."""
    if kind == "omega" and not certified:
        raise ValueError("omega field is degenerate")
    if kind == "product":
        square, plus_minus = involution_checks((1, data))
        if not mat_is_zero(square):
            raise ValueError("P^2 != Id as a rational-function identity")
        if plus_minus:
            raise ValueError("P = +-Id")


def involution_checks(k: tuple) -> tuple[list, bool]:
    """(P^2 - E^2 Id, whether P = +-E Id) for P / E given as k = (E, P): P / E
    is an involution other than +-Id iff the first is zero and the second
    false.  check_structure reads them for a matrix P of RatFuncs over E = 1,
    as rational-function identities, and assembled.factor_residuals for K1
    and K2, on the integers of a point and on RatFuncs."""
    e, p = k
    ident = identity(len(p), e)
    return mat_sub(mat_mul(p, p), identity(len(p), e * e)), p in (ident, mat_neg(ident))


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
    give 2 D0 D1 N.  Returns (2 D0 D1, witnesses), where witnesses maps each
    pair a < b with N(e_a, e_b) != 0 to the integers of 2 D0 D1 N(e_a, e_b),
    the X entries and then the alpha entries."""
    (d0, m), (d1, dm) = k, dk
    n = len(m) // 2
    cols = [transpose(e) for e in [m] + dm]
    jets = list(zip(*cols[1:]))
    t = [[[-2 * x for x in d[j][:n]] + [d[i][n + j] - 2 * c for i, c in enumerate(d[j][n:])]
          for j in range(n)] + [[0] * n + [e[j] for e in d] for j in range(n)] for d in jets]
    witnesses = {}
    for a, b in itertools.combinations(range(2 * n), 2):
        twice = courant_on_jets(cols[0][a], jets[a], cols[0][b], jets[b])
        nij = [x - y for x, y in zip(twice, mat_vec(m, [u - v for u, v in zip(t[a][b], t[b][a])]))]
        if any(nij):
            witnesses[a, b] = nij
    return 2 * d0 * d1, witnesses


# -- d omega, dTheta and the Jacobiator ----------------------------------------------------


def cyclic_sums(m: list, pi: list | None = None) -> dict:
    """The nonzero sums X_c m_ab - X_b m_ac + X_a m_bc, keyed (a, b, c) for
    a < b < c, of an antisymmetric n x n matrix m of RatFuncs, read above the
    diagonal.  With X_i = d_i (pi None) they are the components of dm, for
    the 2-form m(d_i, d_j); with X_i = sum_l pi^{li} d_l for the antisymmetric
    matrix pi, also read above the diagonal, and m = pi, the Jacobiator
    components sum_l (pi^{la} d_l pi^{bc} + pi^{lb} d_l pi^{ca} + pi^{lc} d_l pi^{ab}),
    so none iff pi is Poisson.  A sum's printed form can depend on the order
    of its terms when denominator factors share a factor, so the terms of dm
    are added as reference.ext_deriv adds them for the entries in row order,
    X_c m_ab first, and those of the Jacobiator l by l, each l's in the
    order a, b, c."""
    n = len(m)
    if pi is not None:
        pi = [[pi[i][j] if i < j else -pi[j][i] for j in range(n)] for i in range(n)]
    out = {}
    for a, b, c in itertools.combinations(range(n), 3):
        terms = (a, m[b][c]), (b, -m[a][c]), (c, m[a][b])
        if pi is None:
            parts = [_partial(f, i) for i, f in reversed(terms)]
        else:
            parts = [pi[l][i] * _partial(f, l) for l in range(n) for i, f in terms if pi[l][i]]
        total = sum(parts, RatFunc.zero(n))
        if total:
            out[a, b, c] = total
    return out


# -- integrability dispatch ----------------------------------------------------------------


def integrability_report(kind: str, data: list, names: list | None = None) -> tuple:
    """(criterion, witness) of the closed-form integrability criterion of the
    kind trivial, omega, pi or product (cli._descriptor_structure refuses any
    other kind, and cmd_integrability an assembled one), decided as a
    rational-function identity for data that pass check_structure, which the
    caller runs; the witness is None iff the structure is integrable, and its
    values name the variables names (x1, ..., xn by default)."""
    n = len(data)
    witness = None
    if kind == "trivial":
        criterion = "trivial"
    elif kind in ("omega", "pi"):
        if kind == "omega":
            criterion, key, comps = "d_omega_zero", "d_omega_component", cyclic_sums(data)
        else:
            criterion, key, comps = "pi_poisson", "jacobiator_triple", cyclic_sums(data, data)
        if comps:
            idx, c = min(comps.items())
            witness = {key: [i + 1 for i in idx], "value": c.to_str(names)}
    else:  # product
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
                witness = {"frame_pair": [i + 1, j + 1], "value": [c.to_str(names) for c in nij]}
                break
    return criterion, witness
