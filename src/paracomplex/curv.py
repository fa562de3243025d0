"""Connections and curvature on a patch: Levi-Civita, the metric connection
with totally skew torsion determined by a 2-form potential, curvature
operator with its scalar/traceless-Ricci/Weyl decomposition, the (j,l,r)
curvature residual, pointwise twistor and reflector Nijenhuis evaluators,
and the dim-4 integrability verdicts.

Curvature sign convention.  The curvature tensor is
R(X, Y) = D_{[X,Y]} - [D_X, D_Y] (opposite to the common one); with this
choice the operator fixed by g(R(X^Y), Z^T) = g(R(X,Y)Z, T) satisfies
R = c Id on Lambda^2 for the conformal model of constant sectional
curvature c, the Ricci tensor taken as Ricci(X, Y) = trace(Z -> R(X, Z) Y)
equals 3 c g, and s = 12 c.  The brute-force sectional-curvature oracle in
the test suite pins these signs.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from operator import mul

from paracomplex.exact import (DEFAULT_POINTS, VARS4, PoleAtPoint, RatFunc, check_variables,
                               parse_ratfunc)
from paracomplex.gpx import (
    GenVector,
    GeneralizedMetric,
    assemble,
    gen_pairing,
    p_epsilon,
    vertical_endo,
)
from paracomplex.linalg import (
    Bilinear,
    DimNot4,
    Endo,
    TwoVector,
    bareiss,
    basis_vec,
    int_mats,
    j_structures,
    lambda2_matrix,
    mat_add,
    mat_det,
    mat_eq,
    mat_eval,
    mat_from_columns,
    mat_identity,
    mat_inv,
    mat_is_zero,
    mat_jet,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_zero,
    star_matrix,
    transpose,
    vec_add,
    vec_scale,
    wedge_pairs,
)
from paracomplex.para import (
    _orthogonal_complement_basis,
    fiber_tangent_basis,
    hyperboloid_combination,
    hyperboloid_draw,
    random_compatible_structure,
)
from paracomplex.patch import KForm, ext_deriv

WEDGE4 = wedge_pairs(4)


class DegenerateMetric(ValueError):
    """The metric field is degenerate (or no rational orthonormal basis exists)."""


# -- metric models -------------------------------------------------------------


class MetricModel:
    """Metric field g (a RatFunc matrix) with an optional symbolic oriented
    orthonormal frame onb (columns: four RatFunc vectors, norms 1, 1, -1, -1);
    the frame makes the Hodge machinery rational."""

    __slots__ = ("name", "nvars", "g", "onb")

    def __init__(self, name: str, nvars: int, g: list, onb: list | None = None):
        self.name, self.nvars, self.g, self.onb = name, nvars, g, onb

    def g_at(self, point) -> Bilinear:
        return Bilinear(mat_eval(self.g, point))

    def onb_at(self, point, orientation: int = +1) -> list:
        if self.onb is not None:
            cols = mat_eval(self.onb, point)
        else:
            cols = onb_search(self.g_at(point))
        if mat_det(mat_from_columns(cols)) < 0:
            cols = [cols[0], cols[1], cols[2], vec_scale(Fraction(-1), cols[3])]
        if orientation < 0:
            cols = [cols[0], cols[1], cols[3], cols[2]]
        return cols


def _const_mat(entries, nvars=4):
    return [[RatFunc.const(nvars, v) for v in row] for row in entries]


def flat_metric(nvars: int = 4) -> MetricModel:
    g = _const_mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], nvars)
    onb = [[RatFunc.const(nvars, 1 if i == j else 0) for i in range(nvars)]
           for j in range(nvars)]
    return MetricModel("flat", nvars, g, onb)


def constcurv_metric(c) -> MetricModel:
    """Conformal model of constant sectional curvature c on the neutral patch:
    g = phi^{-2} diag(1,1,-1,-1) with phi = 1 + (c/4)(x1^2 + x2^2 - x3^2 - x4^2)."""
    n = 4
    c = Fraction(c)
    x = [RatFunc.var(i, n) for i in range(n)]
    phi = RatFunc.const(n, 1) + (x[0] ** 2 + x[1] ** 2 - x[2] ** 2 - x[3] ** 2) * Fraction(c, 4)
    inv2 = RatFunc.one(n) / (phi * phi)
    signs = [1, 1, -1, -1]
    g = [[inv2 * signs[i] if i == j else RatFunc.zero(n) for j in range(n)] for i in range(n)]
    onb = [[phi if i == j else RatFunc.zero(n) for i in range(n)] for j in range(n)]
    return MetricModel(f"constcurv:{c}", n, g, onb)


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
    half = Fraction(1, 2)
    onb = [
        [o, z, z, (1 - f) * half],
        [z, o, RatFunc.const(n, half), z],
        [o, z, z, -(1 + f) * half],
        [z, o, RatFunc.const(n, -half), z],
    ]
    return MetricModel("ppwave", n, g, onb)


def metric_from_strings(rows: list, variables: list, onb_rows: list | None = None,
                        name: str = "file") -> MetricModel:
    n = len(variables)

    def parse(mat, what):
        if not (isinstance(mat, list) and len(mat) == n
                and all(isinstance(row, list) and len(row) == n for row in mat)):
            raise ValueError(f"{what} of {name} must be a {n}x{n} matrix")
        return [[parse_ratfunc(s, variables) for s in row] for row in mat]

    g = parse(rows, "g")
    if any(g[i][j] != g[j][i] for i in range(n) for j in range(i)):
        raise ValueError("the metric field is not symmetric")
    return MetricModel(name, n, g, None if onb_rows is None else parse(onb_rows, "onb"))


def _is_square(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def onb_search(g: Bilinear) -> list:
    """Search for a rational orthonormal basis with norms (1, 1, -1, -1).
    Works when unit vectors exist over Q; otherwise raises DegenerateMetric
    (supply an onb with the metric in that case).  A candidate's norm is
    c^T M c / D from the integer Gram matrix M / D of the complement basis,
    and only the accepted vector is built."""
    found: list = []
    for target in (1, 1, -1, -1):
        comp = _orthogonal_complement_basis(g, found)
        den, (gram,) = int_mats([mat_mul(mat_mul(comp, g.mat), transpose(comp))])
        pick = None
        for bound in (1, 2, 3, 4):
            for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(comp)):
                if not any(coeffs) or max(abs(c) for c in coeffs) != bound:
                    continue
                q = target * sum(map(mul, coeffs, [sum(map(mul, row, coeffs)) for row in gram]))
                root = q > 0 and _is_square(Fraction(q, den))
                if root:
                    pick = [sum(c * b[i] for c, b in zip(coeffs, comp)) / root for i in range(g.dim)]
                    break
            if pick is not None:
                break
        if pick is None:
            raise DegenerateMetric("no rational orthonormal basis found; supply one")
        found.append(pick)
    return found


# -- connections ------------------------------------------------------------------


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
        ginv = mat_inv(g)
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
    ginv = mat_inv(g)
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


# -- curvature ---------------------------------------------------------------------


def _sym(n: int, entry) -> list:
    """Symmetric n x n matrix with entry(i, j) computed once, for i <= j."""
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = entry(i, j)
    return m


def riemann_at(g: list, point) -> list:
    """r[i][j][k][l] at the point: R(d_i, d_j) d_k = r[i][j][k][l] d_l in the
    convention R(X, Y) = D_{[X,Y]} - [D_X, D_Y], in Q from the metric's 2-jet."""
    return _riemann(g, point)[2]


def _riemann(g: list, point) -> tuple:
    """(g(p) as a Bilinear, g(p)^-1, r) with r as in riemann_at, on integers:
    mat_jet(g, p, 2) = (G, dG, ddG) / D and g(p)^-1 = D adj / det.  With
    G_l,ij = (d_i g_lj + d_j g_li - d_l g_ij) / 2 the Christoffels G^k_ij = g^kl G_l,ij
    are over 2 det, d_m G^k_ij = g^kl (d_m G_l,ij - d_m g_lp G^p_ij) (by
    d(g^-1) = -g^-1 (dg) g^-1) over 2 det^2, and r over 4 det^2."""
    g_at, d, dd = mat_jet(g, point, 2)
    n = len(g)
    ns = range(n)
    den, (gi, *ints) = int_mats([g_at, *d, *(m for row in dd for m in row)])
    di, ddi = ints[:n], [ints[n * (m + 1):n * (m + 2)] for m in ns]
    red, pivots, det, _ = bareiss([row + [int(i == j) for j in ns] for i, row in enumerate(gi)])
    if pivots != list(ns):
        raise DegenerateMetric(f"metric is degenerate at ({', '.join(map(str, point))})")
    adj = [row[n:] for row in red]
    gam = [_sym(n, lambda i, j: sum(
        adj[k][l] * (di[i][l][j] + di[j][l][i] - di[l][i][j]) for l in ns)) for k in ns]
    gdgam = [[_sym(n, lambda i, j: det * (ddi[m][i][l][j] + ddi[m][j][l][i] - ddi[m][l][i][j])
                   - sum(di[m][l][p] * gam[p][i][j] for p in ns)) for l in ns] for m in ns]
    dgam = [[_sym(n, lambda i, j: sum(adj[k][l] * gdgam[m][l][i][j] for l in ns))
             for k in ns] for m in ns]
    r = [[[[Fraction(0)] * n for _ in ns] for _ in ns] for _ in ns]
    for i in ns:
        for j in range(i + 1, n):
            for k in ns:
                for l in ns:
                    # -(d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik)
                    v = 2 * (dgam[j][l][i][k] - dgam[i][l][j][k]) - sum(
                        gam[l][i][m] * gam[m][j][k] - gam[l][j][m] * gam[m][i][k] for m in ns)
                    if v:
                        r[i][j][k][l] = Fraction(v, 4 * det * det)
                        r[j][i][k][l] = -r[i][j][k][l]
    return Bilinear(g_at), [[Fraction(den * x, det) for x in row] for row in adj], r


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


class CurvOperator:
    """Curvature operator mat (6x6 Fractions) on the wedge basis {e_i ^ e_j}
    (i < j) at a point, with its lowered form lowered[a][b] = g(R(e_a), e_b)
    (lowered = mat^T Gram), and the point metric and Ricci data needed by the
    decomposition."""

    __slots__ = ("mat", "lowered", "g_at", "point", "ricci", "rho", "s")

    def __init__(self, mat: list, lowered: list, g_at: Bilinear, point: tuple,
                 ricci: Bilinear, rho: Endo, s: Fraction):
        self.mat, self.lowered, self.g_at, self.point = mat, lowered, g_at, point
        self.ricci, self.rho, self.s = ricci, rho, s


def curvature_operator(g: list, point) -> CurvOperator:
    """The self-adjoint operator with g(R(X^Y), Z^T) = g(R(X,Y)Z, T), and
    Ricci(X, Y) = trace(Z -> R(X, Z) Y), g(rho(X), Y) = Ricci(X, Y), s = trace(rho)."""
    if len(g) != 4:
        raise DimNot4("curvature operator decomposition requires dim 4")
    g_at, ginv, r_at = _riemann(g, point)
    # q[(i, j)][(k, l)] = g(R(e_i, e_j) e_k, e_l)
    q = [[m[k][l] for k, l in WEDGE4] for m in (mat_mul(r_at[i][j], g_at.mat) for i, j in WEDGE4)]
    mat = mat_mul(mat_inv(lambda2_matrix(g_at.mat)), transpose(q))
    ric = Bilinear([[sum(r_at[i][k][j][k] for k in range(4)) for j in range(4)]
                    for i in range(4)])
    rho = Endo(mat_mul(ginv, ric.mat))
    s = sum(rho.mat[i][i] for i in range(4))
    return CurvOperator(mat, q, g_at, tuple(point), ric, rho, s)


# -- decomposition -----------------------------------------------------------------------


class CurvDecomposition:
    __slots__ = ("s", "s_part", "b_part", "w_part", "w_plus", "w_minus")

    def __init__(self, s: Fraction, s_part: list, b_part: list, w_part: list,
                 w_plus: list, w_minus: list):
        self.s, self.s_part, self.b_part, self.w_part = s, s_part, b_part, w_part
        self.w_plus, self.w_minus = w_plus, w_minus

    def parts_sum(self) -> list:
        return mat_add(mat_add(self.s_part, self.b_part), self.w_part)


def _two_vector_coords(a: TwoVector) -> list:
    return [a.get(i, j) for (i, j) in WEDGE4]


def decompose(op: CurvOperator, onb: list) -> CurvDecomposition:
    """R = (s/12) Id + B + W with B from the traceless Ricci part,
    B(X ^ Y) = [rho(X) ^ Y + X ^ rho(Y) - (s/2) X ^ Y] / 2, and
    W split into its self-dual and anti-self-dual blocks by the Hodge star
    of the supplied oriented orthonormal basis."""
    s_part = mat_scale(Fraction(op.s, 12), mat_identity(6))
    half = Fraction(1, 2)
    b_cols = []
    for (i, j) in WEDGE4:
        ei, ej = basis_vec(i, 4), basis_vec(j, 4)
        rei, rej = op.rho.apply(ei), op.rho.apply(ej)
        tv = TwoVector.wedge(rei, ej) + TwoVector.wedge(ei, rej) \
            - TwoVector.basis(i, j, 4).scale(Fraction(op.s, 2))
        b_cols.append([c * half for c in _two_vector_coords(tv)])
    b_part = mat_from_columns(b_cols)
    w_part = mat_sub(mat_sub(op.mat, s_part), b_part)
    star = star_matrix(onb)
    p_plus = mat_scale(half, mat_add(mat_identity(6), star))
    p_minus = mat_scale(half, mat_sub(mat_identity(6), star))
    w_plus = mat_mul(p_plus, mat_mul(w_part, p_plus))
    w_minus = mat_mul(p_minus, mat_mul(w_part, p_minus))
    return CurvDecomposition(op.s, s_part, b_part, w_part, w_plus, w_minus)


def duality_verdict(dec: CurvDecomposition) -> dict:
    """Self-dual: W_- = 0; anti-self-dual: W_+ = 0; conformally flat: W = 0."""
    return {
        "self_dual": mat_is_zero(dec.w_minus),
        "anti_self_dual": mat_is_zero(dec.w_plus),
        "conformally_flat": mat_is_zero(dec.w_part),
    }


def sectional_constant_check(op: CurvOperator) -> Fraction | None:
    """c with R = c Id = (s/12) Id exactly, when the operator is scalar."""
    c = op.mat[0][0]
    ident = mat_scale(c, mat_identity(6))
    if mat_eq(op.mat, ident):
        return c
    return None


# -- the (j, l, r) residual -----------------------------------------------------------------


def _wedge_coords(pairs: list, u: list, v: list) -> dict:
    """Coordinates of u ^ v on the given (index, (i, j)) wedge pairs."""
    return {a: u[i] * v[j] - u[j] * v[i] for a, (i, j) in pairs}


def _pm(den: int, k: list, v: list) -> tuple:
    """(den v + k v, den v - k v) for an integer matrix k and vector v."""
    kv = [sum(map(mul, row, v)) for row in k]
    dv = [den * c for c in v]
    return [a + b for a, b in zip(dv, kv)], [a - b for a, b in zip(dv, kv)]


def sample_jklr(points: list, orientations: tuple, rng, samples: int):
    """Yield (point, (j, l, r), n, d), d > 0, for seeded (j,l,r) samples
    cycling over theorem_verdict's points, where n / d is the residual
    g(R(X^Y + K_j X ^ K_l Y), Z^U + K_r Z ^ K_r U)
    + g(R(K_j X ^ Y + X ^ K_l Y), K_r Z ^ U + Z ^ K_r U); the displayed
    curvature identity holds iff it vanishes.  The draws from rng are those
    of random_compatible_structure for K1 and K2 with the orientations
    (o1, o2), then of randint(1, 2) for j, l, r, then of rnd_vec for X, Y, Z, U.

    The first arguments are A1 +- A2 = (X +- K_j X) ^ (Y +- K_l Y), and the
    second ones B1 +- B2 likewise, so the residual is
    [g(R(A1 + A2), B1 + B2) + g(R(A1 - A2), B1 - B2)] / 2, and on wedge
    coordinates g(R(A), B) = a^T q b for the lowered operator q, summed over
    its nonzero entries.  On integers: per point, int_mats gives q = Q / D_q
    and J_a = J'_a / D_J; per sample, K = (Y1 J'1 + Y2 J'2 + Y3 J'3) / e with
    e = E D_J, and X = 2 x by rnd_vec2, so x +- K x = (e X +- K' X) / (2 e)
    and d = 2 D_q 16 e_j e_l e_r^2."""
    data = []
    for p, op, _, js in points[:samples]:
        den_q, (q,) = int_mats([op.lowered])
        terms = [(a, b, c) for a, row in enumerate(q) for b, c in enumerate(row) if c]
        rows = [(a, WEDGE4[a]) for a in sorted({a for a, _, _ in terms})]
        cols = [(b, WEDGE4[b]) for b in sorted({b for _, b, _ in terms})]
        data.append((p, den_q, terms, rows, cols,
                     {o: int_mats([jm.mat for jm in js(o)]) for o in set(orientations)}))
    for t in range(samples):
        p, den_q, terms, rows, cols, jints = data[t % len(data)]
        ys = [hyperboloid_draw(rng) for _ in orientations]
        j, l, r = (rng.randint(1, 2) for _ in range(3))
        x, y, z, u = (rnd_vec2(rng) for _ in range(4))
        if not terms:
            yield p, (j, l, r), 0, 1
            continue
        ks = {i: hyperboloid_combination(ys[i - 1], jints[orientations[i - 1]])
              for i in {j, l, r}}
        (xp, xm), (yp, ym), (zp, zm), (up, um) = (
            _pm(*ks[i], v) for i, v in ((j, x), (l, y), (r, z), (r, u)))
        a_sum, a_diff = _wedge_coords(rows, xp, yp), _wedge_coords(rows, xm, ym)
        b_sum, b_diff = _wedge_coords(cols, zp, up), _wedge_coords(cols, zm, um)
        n = sum(c * (a_sum[a] * b_sum[b] + a_diff[a] * b_diff[b]) for a, b, c in terms)
        yield p, (j, l, r), n, 32 * den_q * ks[j][0] * ks[l][0] * ks[r][0] ** 2


# -- reflector-space Nijenhuis evaluators ------------------------------------------------------


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


# -- generalized twistor Nijenhuis evaluators ---------------------------------------------------


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
    kgen = assemble(e.g, e.theta, k1, k2)
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


# -- horizontal obstruction (torsion residual) ---------------------------------------------------


def _torsion_vec(t_at: list, x: list, y: list) -> list:
    n = len(t_at)
    out = [Fraction(0)] * n
    for i in range(n):
        if not x[i]:
            continue
        for j in range(n):
            c = x[i] * y[j]
            if not c:
                continue
            for k in range(n):
                if t_at[i][j][k]:
                    out[k] += c * t_at[i][j][k]
    return out


def _covector_alpha_iota(t_at: list, alpha: list, y: list) -> list:
    """The 1-form Z -> alpha(T(Y, Z))."""
    n = len(t_at)
    out = [Fraction(0)] * n
    for z in range(n):
        total = Fraction(0)
        for i in range(n):
            if not y[i]:
                continue
            for k in range(n):
                if alpha[k]:
                    total += y[i] * t_at[i][z][k] * alpha[k]
        out[z] = total
    return out


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


def np_residual_terms(g_at: Bilinear, t_at: list, dth_at: dict,
                      s1: Endo, s2: Endo, a: GenVector, b: GenVector):
    """(N_P(A, B), cond_rhs) for the generalized structure P assembled from
    (g, Theta = 0, S1, S2) at a point, with torsion values t_at and dTheta
    values dth_at.  The obstruction residual is the difference."""
    p = assemble(g_at, Bilinear(mat_zero(g_at.dim)), s1, s2)
    pa, pb = p.apply(a), p.apply(b)
    x, alpha = a.x, a.alpha
    y, beta = b.x, b.alpha
    xh, alphah = pa.x, pa.alpha
    yh, betah = pb.x, pb.alpha
    vec = [-(c1 + c2) for c1, c2 in zip(_torsion_vec(t_at, x, y),
                                        _torsion_vec(t_at, xh, yh))]
    form = [Fraction(0)] * 4
    for sign, al, yy in ((-1, alpha, y), (1, beta, x), (-1, alphah, yh), (1, betah, xh)):
        term = _covector_alpha_iota(t_at, al, yy)
        form = [f + sign * t for f, t in zip(form, term)]
    inner_vec = vec_add(_torsion_vec(t_at, xh, y), _torsion_vec(t_at, x, yh))
    inner_form = [Fraction(0)] * 4
    for sign, al, yy in ((1, alphah, y), (-1, beta, xh), (1, alpha, yh), (-1, betah, x)):
        term = _covector_alpha_iota(t_at, al, yy)
        inner_form = [f + sign * t for f, t in zip(inner_form, term)]
    n_p = GenVector(vec, form) + p.apply(GenVector(inner_vec, inner_form))
    # cond_rhs = -dTheta(X,Y,.) - dTheta(Xh,Yh,.) + P(dTheta(Xh,Y,.) + dTheta(X,Yh,.))
    rhs_form = [-(c1 + c2) for c1, c2 in zip(_dtheta_covector(dth_at, x, y),
                                             _dtheta_covector(dth_at, xh, yh))]
    rhs_inner = vec_add(_dtheta_covector(dth_at, xh, y), _dtheta_covector(dth_at, x, yh))
    cond_rhs = GenVector([Fraction(0)] * 4, rhs_form) \
        + p.apply(GenVector([Fraction(0)] * 4, rhs_inner))
    return n_p, cond_rhs


def torsion_at(g_at: Bilinear, dth_at: dict) -> list:
    """t[i][j][k] = sum_l g^kl dTheta(i, j, l), the torsion of
    hitchin_connection at a point; the symmetric Levi-Civita part cancels."""
    n = g_at.dim
    full = _dth_full(dth_at)
    ginv = mat_inv(g_at.mat)
    return [[[sum(ginv[k][l] * full.get((i, j, l), 0) for l in range(n))
              for k in range(n)] for j in range(n)] for i in range(n)]


def horizontal_np_residual(g: list, theta: KForm, s1: Endo, s2: Endo,
                           a: GenVector, b: GenVector, point) -> GenVector:
    """N_P(A, B) minus the right-hand side of the obstruction identity;
    identically zero at the point for all inputs iff dTheta vanishes there."""
    dth_at = {idx: c.eval_at(point) for idx, c in ext_deriv(theta).comps.items()}
    g_at = Bilinear(mat_eval(g, point))
    n_p, cond_rhs = np_residual_terms(g_at, torsion_at(g_at, dth_at), dth_at, s1, s2, a, b)
    return n_p - cond_rhs


# -- theorem verdicts -----------------------------------------------------------------------------


def rnd_vec(rng, n=4) -> list:
    return [Fraction(v, 2) for v in rnd_vec2(rng, n)]


def rnd_vec2(rng, n=4) -> list:
    """2 rnd_vec(rng, n) on integers, from the same draws."""
    return [2 * rng.randint(-3, 3) // rng.randint(1, 2) for _ in range(n)]


def theorem_verdict(model: MetricModel, theta: KForm, component: str,
                    sample_points=None, seed: int = 0, jklr_samples: int = 40) -> dict:
    """Integrability of the dim-4 twistor structure on the given component:
    requires dTheta = 0 plus the curvature condition of the component
    (++ : anti-self-dual and Ricci flat; -- : self-dual and Ricci flat;
    +- / -+ : scalar curvature operator, constant sectional curvature).
    Evidence carries sub-condition results and seeded (j,l,r) spot checks."""
    if model.nvars != 4:
        raise DimNot4("theorem verdicts require a 4-dimensional patch")
    if component not in ("++", "+-", "-+", "--"):
        raise ValueError(f"unknown component {component!r}")
    rng = random.Random(seed)
    # each point's operator, frame and J-triples, once; a default point they fail at is skipped
    points = []
    for p in sample_points or DEFAULT_POINTS:
        p = tuple(Fraction(c) for c in p)
        try:
            op, onb = curvature_operator(model.g, p), model.onb_at(p)
        except (PoleAtPoint, ZeroDivisionError, DegenerateMetric):
            if sample_points is not None:
                raise
            continue
        points.append((p, op, onb, functools.cache(functools.partial(j_structures, op.g_at, onb))))
    if not points:
        raise DegenerateMetric("no usable sample points for the metric")
    dth = ext_deriv(theta)
    d_theta_zero = dth.is_zero()
    evidence: dict = {
        "d_theta_zero": d_theta_zero,
        "points": [[str(c) for c in p] for p, *_ in points],
    }
    if not d_theta_zero:
        evidence["d_theta_witness"] = {
            f"{i+1},{j+1},{k+1}": c.to_str() for (i, j, k), c in sorted(dth.comps.items())
        }
        witness = _np_witness_search(dth, points, rng)
        if witness is not None:
            evidence["np_residual_witness"] = witness
    ricci_ok = True
    w_plus_ok = True
    w_minus_ok = True
    sectional: list = []
    for p, op, onb, js in points:
        dec = decompose(op, onb)
        if not mat_is_zero(op.ricci.mat):
            ricci_ok = False
        if not mat_is_zero(dec.w_plus):
            w_plus_ok = False
        if not mat_is_zero(dec.w_minus):
            w_minus_ok = False
        sectional.append(sectional_constant_check(op))
    evidence["ricci_zero"] = ricci_ok
    evidence["w_plus_zero"] = w_plus_ok
    evidence["w_minus_zero"] = w_minus_ok
    const_ok = len(set(sectional)) == 1 and sectional[0] is not None
    evidence["sectional_constant"] = str(sectional[0]) if const_ok else None
    if component == "++":
        curvature_ok = w_plus_ok and ricci_ok
    elif component == "--":
        curvature_ok = w_minus_ok and ricci_ok
    else:
        curvature_ok = const_ok
    integrable = d_theta_zero and curvature_ok
    orientations = tuple(+1 if c == "+" else -1 for c in component)
    nonzero, first_witness = 0, None
    for p, jlr, n, d in sample_jklr(points, orientations, rng, jklr_samples):
        if n:
            nonzero += 1
            if first_witness is None:
                first_witness = {"point": [str(c) for c in p], "jlr": list(jlr),
                                 "residual": str(Fraction(n, d))}
    evidence["jklr"] = {"samples": jklr_samples, "nonzero": nonzero}
    if first_witness is not None:
        evidence["jklr"]["witness"] = first_witness
    return {"component": component, "integrable": integrable, "evidence": evidence}


def _np_witness_search(dth: KForm, points: list, rng, attempts: int = 60):
    """Bounded seeded search for a nonzero horizontal obstruction residual,
    given the 3-form dTheta and theorem_verdict's per-point data."""
    for p, op, onb, js in points:
        dth_at = {idx: c.eval_at(p) for idx, c in dth.comps.items()}
        if all(v == 0 for v in dth_at.values()):
            continue
        g_at = op.g_at
        t_at = torsion_at(g_at, dth_at)
        for _ in range(attempts):
            o1 = +1 if rng.random() < 0.5 else -1
            s1 = random_compatible_structure(g_at, onb, rng, o1, js(o1))
            o2 = +1 if rng.random() < 0.5 else -1
            s2 = random_compatible_structure(g_at, onb, rng, o2, js(o2))
            a = GenVector(rnd_vec(rng), rnd_vec(rng))
            b = GenVector(rnd_vec(rng), rnd_vec(rng))
            n_p, cond_rhs = np_residual_terms(g_at, t_at, dth_at, s1, s2, a, b)
            res = n_p - cond_rhs
            if not res.is_zero():
                return {"point": [str(c) for c in p],
                        "residual_vector": [str(c) for c in res.x],
                        "residual_form": [str(c) for c in res.alpha]}
    return None


# -- metric identifiers ---------------------------------------------------------------------------


def parse_metric_id(text: str) -> MetricModel:
    """Catalog identifiers: flat, constcurv:<c>, ppwave:<f>, file:<path>."""
    import json

    if text == "flat":
        return flat_metric()
    if text.startswith("constcurv:"):
        c = text.split(":", 1)[1]
        try:
            return constcurv_metric(Fraction(c))
        except ZeroDivisionError:
            raise ValueError(f"division by zero in {c!r}") from None
    if text.startswith("ppwave:"):
        f = parse_ratfunc(text.split(":", 1)[1], VARS4)
        return ppwave_metric(f)
    if text.startswith("file:"):
        path = text.split(":", 1)[1]
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read metric file {path!r}: {exc}") from exc
        if not isinstance(data, dict) or "g" not in data:
            raise ValueError(f"metric file {path!r} is not a JSON object with a \"g\" matrix")
        variables = check_variables(data.get("vars", VARS4))
        return metric_from_strings(data["g"], variables, data.get("onb"),
                                   name=f"file:{path}")
    raise ValueError(f"unknown metric identifier {text!r}")
