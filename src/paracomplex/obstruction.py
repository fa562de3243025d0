"""The horizontal obstruction of a potential Theta at a point: one residual
R, N_P(A, B) minus the right-hand side of the obstruction identity, for the
generalized structure assembled from (g, S1, S2) by `gpx.assemble`, computed
in one pass on integers: g, g^-1, S1 and S2 are integer pairs (D, M),
dTheta is the pair (F, {(a, b, c): v}) of its components a < b < c over one
F, as `theorem` evaluates them, and sections X + alpha of T + T* are
stacked integer vectors.  `contract` reads each component's three cyclic
terms, so no table of dTheta over every index order is built.  Theta
enters only through dTheta: the torsion of the Hitchin
connection is read from dTheta itself, T(X, Y) = g^-1 dTheta(X, Y, .) and
beta(T(X, .)) = dTheta(g^-1 beta, X, .), so no torsion tensor is built, and
the right-hand side of the identity enters as the H-twist dTheta(X, Y, .) on
the form half of each bracket term.  g^-1 is the one the curvature operator
of the point already holds, and both the torsion and the closed-form
assembly read it, so a witness draw runs no elimination.  Only `theorem` with
a non-closed `--theta` runs it (the witness search of
`theorem.theorem_verdict`), so no other command loads or compiles this
module; its oracle, `reference.horizontal_np_residual`, computes R in
Fractions from the Hitchin connection's torsion and imports nothing from
here.
"""

from __future__ import annotations

from paracomplex.gpx import assemble
from paracomplex.linalg import mat_vec


def contract(dth: dict, x: list, y: list) -> list:
    """The 1-form Z -> dTheta(X, Y, Z) over F, for the components
    {(a, b, c): v}, a < b < c, of dTheta at a point: each adds
    v (dx^a ^ dx^b ^ dx^c)(X, Y, .), whose Z_c coefficient is
    v (X_a Y_b - X_b Y_a), and likewise on the cyclic orders (b, c, a) and
    (c, a, b)."""
    out = [0] * len(x)
    for (a, b, c), v in dth.items():
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            out[k] += v * (x[i] * y[j] - x[j] * y[i])
    return out


def np_residual(g: tuple, ginv: tuple, dth_at: tuple, s1: tuple, s2: tuple, a: list,
                b: list) -> tuple[int, list]:
    """(den, R) with R / den the obstruction residual, N_P(A, B) minus the
    right-hand side of the obstruction identity, for the generalized
    structure P that gpx.assemble builds from (g, g^-1, S1, S2) at a point,
    with g = G / D and g^-1 = M / d given as (D, G) and (d, M), the int_g
    and int_ginv of the point's curvature operator, dTheta as the pair
    dth_at = (F, {(a, b, c): v}) of contract, and integer stacked vectors A
    and B.  With C(U, V) = (T(X, Y), beta(T(X, .)) - alpha(T(Y, .)) + dTheta(X, Y, .))
    for U = X + alpha and V = Y + beta, and s = -1 on the vector half and +1
    on the form half, R is s (C(A, B) + C(PA, PB)) - P s (C(PA, B) + C(A, PB));
    the form term dTheta(X, Y, .) is the H-twist i_Y i_X H with H = dTheta.
    With P = M / dp, P A is M A / dp, and each term carries the dp of every P
    in it, so den = dp^2 d F."""
    (d, im), (dd, dth) = ginv, dth_at
    n = len(im)
    dp, p = assemble(g, ginv, s1, s2)

    def terms(u: list, v: list) -> list:
        """C(U, V) over d F, for U = X + alpha and V = Y + beta."""
        x, alpha, y, beta = u[:n], u[n:], v[:n], v[n:]
        c = contract(dth, x, y)
        return mat_vec(im, c) + [f - e + d * h for e, f, h in zip(
            contract(dth, mat_vec(im, alpha), y), contract(dth, mat_vec(im, beta), x), c)]

    pa, pb = mat_vec(p, a), mat_vec(p, b)
    t1, t2, t3, t4 = (terms(u, v) for u, v in ((a, b), (pa, pb), (pa, b), (a, pb)))
    sign = [-1] * n + [1] * n
    inner = mat_vec(p, [s * (u + v) for s, u, v in zip(sign, t3, t4)])
    return dp * dp * d * dd, [s * (dp * dp * u + v) - w for s, u, v, w in zip(sign, t1, t2, inner)]
