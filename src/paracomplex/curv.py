"""Curvature on a patch, in Q at a point from the metric's 2-jet: the metric
catalog, the frame at a point, and the curvature operator with its
scalar/traceless-Ricci/Weyl decomposition and duality verdicts.  Everything at
a point, from the point itself and the 2-jet to the decomposition, runs on
integer pairs (D, M) of a positive denominator and an integer matrix, vector or
value, and a value is printed by `poly.rat_str` from its pair.  Curvature is
read on Lambda^2 alone: `_riemann` computes the 21 entries of the symmetric
lowered operator q on the wedge pairs and the pair of g^-1 once,
`curvature_operator` inverts the Lambda^2 Gram matrix as lambda2_matrix of
g^-1, reads Ricci from q, and gives one record per point and orientation o,
with the decomposition and the sectional constant: W_+- = P_+- W with the
Hodge star o eps lambda2_matrix(G) / sqrt(det G) of `linalg.star_matrix`,
which reads g and o and no frame.  The frame of `onb_at`
serves the J-triples of `theorem` and the input contract of `curvature`: a
point with no rational frame, or a supplied frame that is not orthonormal,
is refused.  For a metric given without a frame, `onb_at` imports the
search in `paracomplex.frame`, so a start on a metric with one compiles
none of it.  The dim-4 theorem verdict, with the (j,l,r) residual, is in
`paracomplex.theorem`, which only `theorem` loads, so `curvature`, whose
body is `paracomplex.curvature`, compiles neither it nor
`paracomplex.para`.
The symbolic connections and the twistor and reflector Nijenhuis evaluators
are in `paracomplex.reference`.  This module opens no file and parses no
literal: `cli.parse_metric_id` builds the MetricModel of a metric identifier,
and is the one check that its patch has dimension 4.

Curvature sign convention.  The curvature tensor is
R(X, Y) = D_{[X,Y]} - [D_X, D_Y] (opposite to the common one); with this
choice the operator fixed by g(R(X^Y), Z^T) = g(R(X,Y)Z, T) satisfies
R = c Id on Lambda^2 for the conformal model of constant sectional
curvature c, the Ricci tensor taken as Ricci(X, Y) = trace(Z -> R(X, Z) Y)
equals 3 c g, and s = 12 c.  The brute-force sectional-curvature oracle in
the test suite pins these signs.
"""

from __future__ import annotations

import math

from paracomplex.exact import VARS4, RatFunc, point_strings
from paracomplex.linalg import (
    ONB_GRAM,
    bareiss,
    int_inv,
    int_jet,
    lambda2_matrix,
    mat_is_zero,
    mat_mul,
    reduced,
    star_matrix,
    transpose,
    wedge_pairs,
)
from paracomplex.poly import rat_str

WEDGE4 = wedge_pairs(4)


class DegenerateMetric(ValueError):
    """The metric field is degenerate (or no rational orthonormal basis exists)."""


# -- metric models -------------------------------------------------------------


class MetricModel:
    """Metric field g (a RatFunc matrix), an optional symbolic orthonormal
    frame onb (one frame vector per inner list, norms 1, 1, -1, -1), and the
    names of the patch's variables, in which a field is read and printed."""

    __slots__ = ("name", "g", "onb", "names")

    def __init__(self, name: str, g: list, onb: list | None = None, names: list = VARS4):
        self.name, self.g, self.onb, self.names = name, g, onb, names

    def onb_at(self, point, g_at: tuple) -> tuple:
        """The frame at the point on integers, (E, [U_1, ..., U_4]) with the
        frame vectors U_a / E, oriented as the coordinates (det U > 0), for
        g_at = (D, G) the value of g there, the int_g of its curvature operator.
        A supplied frame must pass U G U^T = E^2 D ONB_GRAM."""
        if self.onb is None:
            from paracomplex.frame import onb_search

            du, u = onb_search(g_at)
        else:
            den, gm = g_at
            ((du, u),) = int_jet(self.onb, point)
            if mat_mul(mat_mul(u, gm), transpose(u)) != [[du * du * den * x for x in row]
                                                         for row in ONB_GRAM]:
                raise ValueError(f"the onb of {self.name} is not orthonormal with norms 1, 1, -1, -1 "
                                 f"at ({', '.join(point_strings(point))})")
        _, _, det, sign = bareiss(u)
        if sign * det < 0:
            u = [u[0], u[1], u[2], [-x for x in u[3]]]
        return du, u


def flat_metric() -> MetricModel:
    g = [[RatFunc.const(4, v) for v in row] for row in ONB_GRAM]
    onb = [[RatFunc.const(4, int(i == j)) for i in range(4)] for j in range(4)]
    return MetricModel("flat", g, onb)


def constcurv_metric(c: int, den: int = 1) -> MetricModel:
    """Conformal model of constant sectional curvature c / den, den > 0, on the
    neutral patch: g = phi^{-2} diag(1,1,-1,-1) with
    phi = 1 + (c / (4 den))(x1^2 + x2^2 - x3^2 - x4^2)."""
    n = 4
    x = [RatFunc.var(i, n) for i in range(n)]
    phi = RatFunc.const(n, 1) + (x[0] ** 2 + x[1] ** 2 - x[2] ** 2 - x[3] ** 2) * c / (4 * den)
    inv2 = 1 / (phi * phi)
    signs = [1, 1, -1, -1]
    g = [[inv2 * signs[i] if i == j else RatFunc.zero(n) for j in range(n)] for i in range(n)]
    onb = [[phi if i == j else RatFunc.zero(n) for i in range(n)] for j in range(n)]
    return MetricModel(f"constcurv:{rat_str(den, c)}", g, onb)


def ppwave_metric(f: RatFunc) -> MetricModel:
    """Plane-fronted wave on the neutral patch:
    g = 2 dx1 dx4 + 2 dx2 dx3 + f(x1, x2) dx1^2.

    Ricci flat for every f; the curvature is carried by d^2 f / dx2^2 alone
    and sits entirely in the anti-self-dual half (W+ = 0) for the reference
    coordinate orientation, which makes the family the natural source of
    ++-integrable, non-conformally-flat examples."""
    n = 4
    z, o = RatFunc.zero(n), RatFunc.one(n)
    g = [[f, z, z, o], [z, z, o, z], [z, o, z, z], [o, z, z, z]]
    onb = [
        [o, z, z, (1 - f) / 2],
        [z, o, o / 2, z],
        [o, z, z, -(1 + f) / 2],
        [z, o, -o / 2, z],
    ]
    return MetricModel(f"ppwave:{f.to_str()}", g, onb)


# -- curvature ---------------------------------------------------------------------


def _riemann(g: list, point) -> tuple:
    """((D, G), (det, M), E, q) at the point, on integers from the metric's
    2-jet int_jet(g, p, 2) = ((D, G), (D1, H), (D2, K)), g(p) = G / D,
    d_m g(p) = H_m / D1 and d_m d_p g(p) = K_mp / D2: the pair (det, M) of
    g(p)^-1 = M / det that int_inv((D, G)) gives, with det = |det G|, and the
    lowered curvature operator q[(i, j)][(k, l)] / E = g(R(d_i, d_j) d_k, d_l)
    on the WEDGE4 pairs, in the convention R(X, Y) = D_{[X,Y]} - [D_X, D_Y],
    that is
    -(d_i G_l,jk - d_j G_l,ik) + G_p,il g^pq G_q,jk - G_p,jl g^pq G_q,ik
    for the Christoffels of the first kind G_l,ij = (d_i g_lj + d_j g_li - d_l g_ij) / 2
    = A_lij / (2 D1), with 2 (d_i G_l,jk - d_j G_l,ik) =
    d_i d_k g_jl - d_i d_l g_jk - d_j d_k g_il + d_j d_l g_ik.  The formula is
    symmetric under (i, j) <-> (k, l) on the integer jets, so q is symmetric and
    each of its 21 entries on or above the diagonal is computed once.  q is over
    E = 4 D2 D1^2 det, and linalg.reduced takes (E, q) to lowest terms."""
    (den, gi), (d1, di), (d2, ddi) = int_jet(g, point, 2)
    ns = range(len(g))
    inv = int_inv((den, gi))
    if inv is None:
        raise DegenerateMetric(f"metric is degenerate at ({', '.join(point_strings(point))})")
    det, ginv = inv
    a = [[[di[i][l][j] + di[j][l][i] - di[l][i][j] for j in ns] for i in ns] for l in ns]
    # M A, so that G_p,il g^pq G_q,jk = sum_q A_qil ga[q][j][k] / (4 det D1^2)
    ga = [[[sum(ginv[q][p] * a[p][j][k] for p in ns) for k in ns] for j in ns] for q in ns]
    fk = -2 * det * d1 * d1
    q = [[0] * 6 for _ in range(6)]
    for x, (i, j) in enumerate(WEDGE4):
        for y in range(x, 6):
            k, l = WEDGE4[y]
            # -(d_i G_l,jk - d_j G_l,ik) + G_p,il g^pq G_q,jk - G_p,jl g^pq G_q,ik
            q[x][y] = q[y][x] = fk * (ddi[i][k][j][l] - ddi[i][l][j][k] - ddi[j][k][i][l]
                                      + ddi[j][l][i][k]) + d2 * sum(
                a[p][i][l] * ga[p][j][k] - a[p][j][l] * ga[p][i][k] for p in ns)
    return ((den, gi), inv, *reduced(4 * d2 * det * d1 * d1, q))


# for each index i, the (k, a, s) with e_i ^ e_k = s w_a for the wedge basis w_a = WEDGE4[a]
_ORDERED = [[(k, WEDGE4.index((min(i, k), max(i, k))), 1 if i < k else -1)
             for k in range(4) if k != i] for i in range(4)]


class CurvOperator:
    """The curvature at a point for an orientation of the coordinates, on
    integers: R = (s/12) Id + B + W with W = W_+ + W_-.  Each of int_g,
    int_ginv, int_mat, int_lowered, int_ricci, int_rho, int_b, int_w, int_w_plus
    and int_w_minus is a pair (D, M) of a positive denominator and an integer
    matrix, standing for M / D: g(p); g(p)^-1, whose denominator is |det G| for
    g(p) = G / D; the self-adjoint operator on the wedge basis {e_i ^ e_j}
    (i < j) with g(R(X^Y), Z^T) = g(R(X,Y)Z, T); its lowered form,
    lowered[a][b] = g(R(e_a), e_b); Ricci(X, Y) = trace(Z -> R(X, Z) Y); rho
    with g(rho(X), Y) = Ricci(X, Y); B; W; and W_+ and W_-, which are None where
    |det G| is not a square, so that the star of g is not rational there and no
    rational frame exists.  int_s = (e, sigma) for s = sigma / e, and sectional
    is c with R = c Id as a pair (d, n) in lowest terms for c = n / d, or None."""

    __slots__ = ("int_g", "int_ginv", "int_mat", "int_lowered", "int_ricci", "int_rho", "int_s",
                 "int_b", "int_w", "int_w_plus", "int_w_minus", "sectional")

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            setattr(self, name, value)


def curvature_operator(g: list, point, orientation: int) -> CurvOperator:
    """The curvature at the point for the orientation +-1 of the coordinates,
    from _riemann's q / E and g^-1 = M / det on integers: mat = L(g)^-1 q with
    L(g) the Lambda^2 Gram matrix, whose inverse is lambda2_matrix(M) / det^2
    because lambda2_matrix(g) lambda2_matrix(g^-1) = lambda2_matrix(Id) = Id;
    Ricci_ij = g^kl g(R(d_i, d_k) d_j, d_l) over E det, read from q with the
    sign of each pair's order, and rho = g^-1 Ricci over e = E det^2, the
    denominator of mat too.  Then R = (s/12) Id + B + W with B from the
    traceless Ricci part, B(X ^ Y) = [rho(X) ^ Y + X ^ rho(Y) - (s/2) X ^ Y] / 2,
    and W split into its self-dual and anti-self-dual blocks W_+- = P_+- W by
    the projections P_+- = (Id +- *) / 2 of the Hodge star of g; W commutes
    with *, so P_+- W P_+- = P_+- W.  The star is star_matrix's, with
    r = sqrt(det G) the root of det, when det is a square.  On integers: with
    rho = P / e and s = sigma / e, B = B' / (4 e), whose column for e_i ^ e_j
    holds the wedge coordinates of 2 (P e_i ^ e_j + e_i ^ P e_j) - sigma e_i ^ e_j;
    W = W' / (12 e) for mat = M' / e; and for the star S / r,
    W_+- = (r W' +- S W') / (24 r e), from the one product S W'.  R = c Id
    exactly when B = 0 and W = 0, with c = s / 12."""
    g_at, (det, ginv), dr, q = _riemann(g, point)
    ns = range(4)
    ric = [[sum(s * t * ginv[k][l] * q[a][b] for k, a, s in _ORDERED[i] for l, b, t in _ORDERED[j])
            for j in ns] for i in ns]
    e, m, rho = det * det * dr, mat_mul(lambda2_matrix(ginv), q), mat_mul(ginv, ric)
    sigma = sum(rho[i][i] for i in ns)
    b = [[2 * (rho[k][i] * (l == j) - rho[l][i] * (k == j) + (k == i) * rho[l][j]
               - (l == i) * rho[k][j]) - sigma * (a == c)
          for c, (i, j) in enumerate(WEDGE4)] for a, (k, l) in enumerate(WEDGE4)]
    w = [[12 * m[a][c] - sigma * (a == c) - 3 * b[a][c] for c in range(6)] for a in range(6)]
    r, w_pm = math.isqrt(det), (None, None)
    if r * r == det:
        sw = mat_mul(star_matrix(g_at[1], r, orientation)[1], w)
        w_pm = [(24 * r * e, [[r * x + sign * y for x, y in zip(rw, rs)] for rw, rs in zip(w, sw)])
                for sign in (1, -1)]
    c = math.gcd(sigma, 12 * e)
    return CurvOperator(g_at, (det, ginv), (e, m), (dr, q), (det * dr, ric), (e, rho), (e, sigma),
                        (4 * e, b), (12 * e, w), *w_pm,
                        (12 * e // c, sigma // c) if mat_is_zero(b + w) else None)


def duality_verdict(op: CurvOperator) -> dict:
    """Self-dual: W_- = 0; anti-self-dual: W_+ = 0; conformally flat: W = 0."""
    return {
        "self_dual": mat_is_zero(op.int_w_minus[1]),
        "anti_self_dual": mat_is_zero(op.int_w_plus[1]),
        "conformally_flat": mat_is_zero(op.int_w[1]),
    }
