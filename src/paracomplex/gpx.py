"""The double space T + T*: its sections, and generalized paracomplex
structures at a point on integers, as pairs (D, K) of a positive denominator
and a 2n x 2n integer matrix standing for K / D: the structure of a descriptor
kind and its partials, their validation, compatibility with the generalized
metric of (g, Theta), and the assembly of a structure from (g, Theta) and a
pair of paracomplex structures.  The Fraction wrappers `GenEndo` and
`GeneralizedMetric`, the symbolic constructor of each kind, B-transforms, the
extraction of the pair and the fiber of compatible structures are in
`paracomplex.reference`.

Conventions.  A bilinear form phi acts as a map T -> T* by
phi(X)(Y) = phi(X, Y); in coordinates the map matrix is the transpose of the
form matrix.  A bivector pi contracts with a 1-form alpha through
beta(i_alpha pi) = (alpha ^ beta)(pi) with the determinant convention
(alpha ^ beta)(u ^ v) = alpha(u) beta(v) - alpha(v) beta(u).
"""

from __future__ import annotations

import math

from paracomplex.exact import PoleAtPoint
from paracomplex.linalg import (SingularMatrix, bareiss, identity, int_inv, int_jet, mat_add,
                                mat_mul, mat_neg, mat_scale, mat_sub, transpose)


class GenVector:
    """Element X + alpha of T + T*, with X and alpha lists of the same
    scalars; the frame sweep builds them from the columns of K and dK, and
    `reference.GenVector` adds the algebra the oracles use."""

    __slots__ = ("x", "alpha")

    def __init__(self, x: list, alpha: list):
        self.x, self.alpha = x, alpha

    def stacked(self) -> list:
        return list(self.x) + list(self.alpha)


# -- structures at a point, on integers ------------------------------------------


def _blocks(a: list, b: list, c: list, d: list) -> list:
    """The 2n x 2n matrix [[a, b], [c, d]] of the n x n blocks a: T -> T,
    b: T* -> T, c: T -> T* and d: T* -> T*."""
    return [ra + rb for ra, rb in zip(a, b)] + [rc + rd for rc, rd in zip(c, d)]


def structure_jet(kind: str, data: list, point, order: int = 0) -> tuple:
    """K(p) of a descriptor kind's structure on integers, and for order 1 its
    partials: ((D0, K),), then (D1, [dK_1, ..., dK_n]), with K / D0 = K(p) and
    dK_i / D1 = d_i K(p), from the int_jet of the kind's n x n data of
    rational functions: the form omega(d_i, d_j), the bivector pi^{ij}, P, or
    the zero matrix for trivial, which is K_pi for pi = 0.  K_omega has the
    blocks omega^-1 and omega, as maps T* -> T and T -> T*: for the map W / D0
    at p, int_inv gives W A = d Id, so omega(p)^-1 = D0 A / d, and
    d(omega^-1) = -omega^-1 (d omega) omega^-1.  PoleAtPoint where the data
    has a pole or det omega(p) = 0."""
    n = len(data)
    (d0, v), *jet = int_jet(data, point, order)
    d1, dv = jet[0] if jet else (1, [])
    z = [[0] * n] * n
    if kind == "omega":
        w = transpose(v)
        inv = int_inv(w)
        if inv is None:
            raise PoleAtPoint(point)
        d, a = inv
        k = d0 * d, [z, mat_scale(d0 * d0, a), mat_scale(d, w), z]
        dk = d * d * d1, [[z, mat_scale(-d0 * d0, mat_mul(mat_mul(a, dw), a)),
                           mat_scale(d * d, dw), z] for dw in map(transpose, dv)]
    elif kind == "product":
        k = d0, [v, z, z, mat_neg(transpose(v))]
        dk = d1, [[m, z, z, mat_neg(transpose(m))] for m in dv]
    else:
        k = d0, [identity(n, d0), v, z, identity(n, -d0)]
        dk = d1, [[z, m, z, z] for m in dv]
    return ((k[0], _blocks(*k[1])), (dk[0], [_blocks(*b) for b in dk[1]]))[:order + 1]


def validate_gen_para(den: int, m: list) -> dict[str, bool]:
    """Each check of K^2 = Id, skewness for the canonical pairing, and that
    both eigenspaces have dimension 2n (half the dimension of T + T*), on
    integers for K = m / den: m^2 = den^2 Id; m^T S + S m = 0 for S = 2<,>,
    which swaps T and T*, so S m is m with its halves of rows swapped and must
    be antisymmetric; and the ranks of den Id + m and den Id - m by bareiss."""
    n2 = len(m)
    ident = identity(n2, den)
    sm = m[n2 // 2:] + m[:n2 // 2]
    plus, minus = (len(bareiss(f(ident, m))[1]) for f in (mat_add, mat_sub))
    return {
        "square_is_identity": mat_mul(m, m) == identity(n2, den * den),
        "pairing_skew": sm == mat_neg(transpose(sm)),
        "equal_eigenranks": plus == n2 // 2 == minus,
    }


# -- generalized metrics and the assembly of K from (g, Theta, K1, K2) ------------------


def is_compatible(k: tuple, g: tuple, theta: tuple) -> bool:
    """K preserves the generalized metric of (g, Theta), whose E' is spanned by
    the frame X + g(X) + Theta(X), iff the images of that frame stay in its
    span.  On integers, for K = K / D, g = G / D_g and Theta = T / D_t: the
    frame is F = [[D_g D_t Id], [D_t G^T + D_g T^T]] (forms act as maps
    T -> T* by their transposes), of rank n, so [F | K F] must have rank n."""
    (_, km), (dg, gm), (dt, tm) = k, g, theta
    n = len(gm)
    f = identity(n, dg * dt) + mat_add(mat_scale(dt, transpose(gm)), mat_scale(dg, transpose(tm)))
    return len(bareiss([row + kf for row, kf in zip(f, mat_mul(km, f))])[1]) == n


def assemble(g: tuple, theta: tuple, k1: tuple, k2: tuple) -> tuple[int, list]:
    """The compatible generalized paracomplex structure of (g, Theta, K1, K2),
    for factors that pass para.validate_para, as (D, K) with K / D the matrix

        1/2 [[I, 0], [Th, I]] [[K1+K2, -w1^-1 + w2^-1],
                               [-w1 + w2, -K1* - K2*]] [[I, 0], [-Th, I]]

    with w_s(X, Y) = g(X, K_s Y) and all forms acting as maps T -> T*.  On
    integers, for g = G / D_g, Theta = T / D_t and K_s = A_s / E over one E:
    w_s = W_s / (E D_g) with W_s = A_s^T G^T, and int_inv gives W_s R_s = d_s Id,
    so w_s^-1 = E D_g R_s / d_s; the middle matrix is M / L over
    L = E D_g d_1 d_2, and the B-transforms are [[D_t I, 0], [+-T^T, D_t I]] / D_t.
    SingularMatrix where some w_s is singular."""
    (dg, gm), (dt, tm), (e1, a1), (e2, a2) = g, theta, k1, k2
    n = len(gm)
    e = math.lcm(e1, e2)
    a1, a2 = mat_scale(e // e1, a1), mat_scale(e // e2, a2)
    ws = [mat_mul(transpose(a), transpose(gm)) for a in (a1, a2)]
    invs = [int_inv(w) for w in ws]
    if None in invs:
        raise SingularMatrix("matrix is singular over the scalar field")
    (d1, r1), (d2, r2) = invs
    f, dd, ksum = e * dg, d1 * d2, mat_add(a1, a2)
    mid = _blocks(mat_scale(dg * dd, ksum),
                  mat_scale(f * f, mat_sub(mat_scale(d1, r2), mat_scale(d2, r1))),
                  mat_scale(dd, mat_sub(ws[1], ws[0])), mat_scale(-dg * dd, transpose(ksum)))
    eye = identity(n, dt)
    z, tt = [[0] * n] * n, transpose(tm)
    k = mat_mul(mat_mul(_blocks(eye, z, tt, eye), mid), _blocks(eye, z, mat_neg(tt), eye))
    return 2 * f * dd * dt * dt, k
