"""The horizontal obstruction of a potential Theta at a point: the torsion of
the Hitchin connection there and the residual of the obstruction identity
for the generalized structure assembled from (g, Theta = 0, S1, S2), on
integers: g, S1, S2, the torsion and the values of dTheta are integer pairs
(D, M), and sections X + alpha of T + T* are stacked integer vectors.
Only `theorem` with a non-closed `--theta` runs it (the witness search of
`theorem.theorem_verdict`), so no other command loads or compiles this module.
"""

from __future__ import annotations

import math
from operator import mul

from paracomplex.gpx import assemble
from paracomplex.linalg import int_inv


def _torsion_vec(t_at: list, x: list, y: list) -> list:
    """T(X, Y) from the torsion values."""
    ns = range(len(t_at))
    return [sum(x[i] * y[j] * t_at[i][j][k] for i in ns if x[i] for j in ns) for k in ns]


def _covector_alpha_iota(t_at: list, alpha: list, y: list) -> list:
    """The 1-form Z -> alpha(T(Y, Z))."""
    ns = range(len(t_at))
    return [sum(y[i] * t_at[i][z][k] * alpha[k] for i in ns if y[i] for k in ns) for z in ns]


def _dth_full(dth_at: dict) -> dict:
    """dTheta(i, j, l) on every ordering of the evaluated 3-form components."""
    full = {}
    for (a, b, c), v in dth_at.items():
        for key in ((a, b, c), (b, c, a), (c, a, b)):
            full[key] = v
        for key in ((b, a, c), (a, c, b), (c, b, a)):
            full[key] = -v
    return full


def _dtheta_covector(dth_at: dict, x: list, y: list) -> list:
    """The 1-form Z -> dTheta(X, Y, Z) from evaluated 3-form components."""
    full = _dth_full(dth_at)
    return [sum(x[i] * y[j] * full.get((i, j, z), 0) for i in range(4) for j in range(4))
            for z in range(4)]


def np_residual_terms(g: tuple, t_at: tuple, dth_at: tuple, s1: tuple, s2: tuple,
                      a: list, b: list) -> tuple[int, list, list]:
    """(den, N, C) with N_P(A, B) = N / den and cond_rhs = C / den for the
    generalized structure P assembled from (g, Theta = 0, S1, S2) at a point,
    with the torsion values t_at = (E, t) and the dTheta values
    dth_at = (F, {(i, j, k): v}), over E and F, and integer stacked vectors A
    and B.  The obstruction residual is (N - C) / den.  With P = M / d, P A
    is M A / d, and each term carries the d of every P in it."""
    (dt, t), (dd, dth) = t_at, dth_at
    n = len(t)
    dp, p = assemble(g, (1, [[0] * n] * n), s1, s2)

    def apply(v: list) -> list:
        return [sum(map(mul, row, v)) for row in p]

    def terms(u: list, v: list) -> tuple:
        """T(X, Y) + beta(T(X, .)) - alpha(T(Y, .)), and dTheta(X, Y, .), for
        U = X + alpha and V = Y + beta."""
        x, alpha, y, beta = u[:n], u[n:], v[:n], v[n:]
        return (_torsion_vec(t, x, y) + [f - e for e, f in zip(
            _covector_alpha_iota(t, alpha, y), _covector_alpha_iota(t, beta, x))],
            _dtheta_covector(dth, x, y))

    pa, pb = apply(a), apply(b)
    (t1, d1), (t2, d2), (t3, d3), (t4, d4) = (terms(u, v) for u, v in
                                              ((a, b), (pa, pb), (pa, b), (a, pb)))
    # with A' = PA and B' = PB, N_P(A, B) is (-1, +1) (terms(A, B) + terms(A', B')) plus P of
    # (+1, -1) (terms(A', B) + terms(A, B')) on the (vector, form) parts, and
    # cond_rhs = -dTheta(X,Y,.) - dTheta(X',Y',.) + P(dTheta(X',Y,.) + dTheta(X,Y',.)),
    # each over d^2 E or d^2 F
    sign = [-1] * n + [1] * n
    inner = apply([-s * (u + v) for s, u, v in zip(sign, t3, t4)])
    n_p = [s * (dp * dp * u + v) + w for s, u, v, w in zip(sign, t1, t2, inner)]
    zero = [0] * n
    inner = apply(zero + [u + v for u, v in zip(d3, d4)])
    cond_rhs = [w - dp * dp * u - v for u, v, w in zip(zero + d1, zero + d2, inner)]
    den = math.lcm(dt, dd)
    return (dp * dp * den, [x * (den // dt) for x in n_p], [x * (den // dd) for x in cond_rhs])


def torsion_at(g: tuple, dth_at: tuple) -> tuple:
    """(E, t) with t[i][j][k] / E = sum_l g^kl dTheta(i, j, l), the torsion of
    reference.hitchin_connection at a point; the symmetric Levi-Civita part
    cancels.  For g = G / D given as (D, G) and the dTheta values
    dth_at = (F, {(i, j, k): v}), int_inv gives G A = d Id, so g^-1 = D A / d
    and E = d F."""
    (den, gm), (dd, dth) = g, dth_at
    n = len(gm)
    full = _dth_full(dth)
    d, adj = int_inv(gm)
    return d * dd, [[[den * sum(adj[k][l] * full.get((i, j, l), 0) for l in range(n))
                      for k in range(n)] for j in range(n)] for i in range(n)]
