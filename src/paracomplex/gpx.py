"""The double space T + T*: generalized paracomplex structures at a point on
integers, as pairs (D, K) of a positive denominator and a 2n x 2n integer
matrix standing for K / D, which acts on the stacked list X + alpha of a
section: the structure of a descriptor kind and its partials, their
validation (matrix identities, with no elimination), compatibility with the
generalized metric of g, and the closed-form assembly of a structure from
g, g^-1 and a pair of paracomplex structures.  Theta enters neither: the
structure and the metric of (g, Theta) are the B-transforms by e^Theta of
those of g, and a B-transform keeps K^2 = Id, pairing-skewness, the
eigenranks and compatibility, so `validate` and the witness search work at
Theta = 0.  The Fraction wrappers `GenVector`, `GenEndo` and
`GeneralizedMetric`, the symbolic constructor of each kind, B-transforms
(which `reference.assemble_endo` and `reference.is_compatible_endo` apply
for a Theta), the extraction of the pair and the fiber of compatible
structures are in `paracomplex.reference`.

Conventions.  A bilinear form phi acts as a map T -> T* by
phi(X)(Y) = phi(X, Y); in coordinates the map matrix is the transpose of the
form matrix.  A bivector pi contracts with a 1-form alpha through
beta(i_alpha pi) = (alpha ^ beta)(pi) with the determinant convention
(alpha ^ beta)(u ^ v) = alpha(u) beta(v) - alpha(v) beta(u).
"""

from __future__ import annotations

import math

from paracomplex.exact import PoleAtPoint
from paracomplex.linalg import (identity, int_inv, int_jet, mat_add, mat_mul, mat_neg, mat_scale,
                                mat_sub, transpose)


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
    at p, int_inv gives omega(p)^-1 = A / d as the pair (d, A), and
    d(omega^-1) = -omega^-1 (d omega) omega^-1.  PoleAtPoint where the data
    has a pole or det omega(p) = 0."""
    n = len(data)
    (d0, v), *jet = int_jet(data, point, order)
    d1, dv = jet[0] if jet else (1, [])
    z = [[0] * n] * n
    if kind == "omega":
        w = transpose(v)
        inv = int_inv((d0, w))
        if inv is None:
            raise PoleAtPoint(point)
        d, a = inv
        k = d0 * d, [z, mat_scale(d0, a), mat_scale(d, w), z]
        dk = d * d * d1, [[z, mat_neg(mat_mul(mat_mul(a, dw), a)), mat_scale(d * d, dw), z]
                          for dw in map(transpose, dv)]
    elif kind == "product":
        k = d0, [v, z, z, mat_neg(transpose(v))]
        dk = d1, [[m, z, z, mat_neg(transpose(m))] for m in dv]
    else:
        k = d0, [identity(n, d0), v, z, identity(n, -d0)]
        dk = d1, [[z, m, z, z] for m in dv]
    return ((k[0], _blocks(*k[1])), (dk[0], [_blocks(*b) for b in dk[1]]))[:order + 1]


def validate_gen_para(den: int, m: list) -> dict[str, bool]:
    """Each check of K^2 = Id, skewness for the canonical pairing, and that
    both eigenspaces have half the dimension of T + T*, on integers for
    K = m / den: m^2 = den^2 Id; m^T S + S m = 0 for S = 2<,>, which swaps T
    and T*, so S m is m with its halves of rows swapped and must be
    antisymmetric; and m^2 = den^2 Id with trace m = 0.  For any m that is the
    rank test rank(den Id + m) = rank(den Id - m) = len(m) / 2: each says that
    K is diagonalizable with eigenvalues +-1, and then trace K = r+ - r- for
    the eigenranks r+ + r- = len(m)."""
    n2 = len(m)
    sm = m[n2 // 2:] + m[:n2 // 2]
    square = mat_mul(m, m) == identity(n2, den * den)
    return {
        "square_is_identity": square,
        "pairing_skew": sm == mat_neg(transpose(sm)),
        "equal_eigenranks": square and not sum(m[i][i] for i in range(n2)),
    }


# -- generalized metrics and the assembly of K from (g, K1, K2) -----------------------------


def is_compatible(k: tuple, g: tuple) -> bool:
    """K preserves the generalized metric of g, whose E' is spanned by the
    frame X + g(X), iff the images of that frame stay in its span.  On
    integers, for K = K / D and g = G / D_g: the frame is F = [[D_g Id], [G^T]]
    (forms act as maps T -> T* by their transposes), and a stacked vector
    (p, q) is in its span iff D_g q = G^T p, so with P and Q the vector rows
    and form rows of K F, K is compatible iff D_g Q = G^T P, which is the rank
    test rank [F | K F] = n for any K."""
    (_, km), (dg, gm) = k, g
    n, gt = len(gm), transpose(gm)
    kf = mat_mul(km, identity(n, dg) + gt)
    return mat_scale(dg, kf[n:]) == mat_mul(gt, kf[:n])


def assemble(g: tuple, ginv: tuple, k1: tuple, k2: tuple) -> tuple[int, list]:
    """The generalized paracomplex structure of (g, K1, K2) compatible with
    the generalized metric of g, for factors that pass
    assembled.validate_para, as (D, K) with K / D the matrix

        1/2 [[K1 + K2, -w1^-1 + w2^-1], [-w1 + w2, -K1* - K2*]]
          = 1/2 [[K1 + K2, g^-T (K2 - K1)^T], [(K2 - K1)^T g^T, -(K1 + K2)^T]]

    with w_s(X, Y) = g(X, K_s Y), whose map T -> T* is K_s^T g^T, and all forms
    acting as maps T -> T*: K_s^2 = Id gives w_s^-1 = g^-T K_s^T, so nothing
    is inverted here.  The structure of (g, Theta, K1, K2) is e^Theta K e^-Theta.
    On integers, for g = G / D_g, g^-1 = M / d and K_s = A_s / E over one E:
    K = [[d D_g S, D_g M^T T], [d T G^T, -d D_g S^T]] over D = 2 E d D_g, with
    S = A1 + A2 and T = (A2 - A1)^T."""
    (dg, gm), (d, im), (e1, a1), (e2, a2) = g, ginv, k1, k2
    e = math.lcm(e1, e2)
    a1, a2 = mat_scale(e // e1, a1), mat_scale(e // e2, a2)
    s, t = mat_scale(d * dg, mat_add(a1, a2)), transpose(mat_sub(a2, a1))
    return 2 * e * d * dg, _blocks(s, mat_scale(dg, mat_mul(transpose(im), t)),
                                   mat_scale(d, mat_mul(t, transpose(gm))), mat_neg(transpose(s)))
