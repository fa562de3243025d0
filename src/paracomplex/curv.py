"""Curvature on a patch, in Q at a point from the metric's 2-jet: the
curvature operator with its scalar/traceless-Ricci/Weyl decomposition, the
(j,l,r) curvature residual, the search for a witness of the horizontal
obstruction of a potential Theta (`paracomplex.obstruction`, loaded only for
a Theta that is not closed), and the dim-4 integrability verdicts.
Everything at a point, from the point itself and the 2-jet to the verdict
and the witness search, runs on integer pairs (D, M) of a positive
denominator and an integer matrix, vector or value, and a value is printed
by `exact.rat_str` from its pair.  The symbolic connections and the twistor and
reflector Nijenhuis evaluators are in `paracomplex.reference`.

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
from operator import mul

from paracomplex.exact import (DEFAULT_POINTS, VARS4, PoleAtPoint, RatFunc, check_variables,
                               parse_ratfunc, parse_rational, point_strings, rat_str)
from paracomplex.linalg import (
    ONB_GRAM,
    bareiss,
    int_inv,
    int_jet,
    int_mul,
    j_structures,
    lambda2_matrix,
    mat_is_zero,
    star_matrix,
    transpose,
    wedge_pairs,
)
from paracomplex.para import (
    _orthogonal_complement_basis,
    hyperboloid_combination,
    hyperboloid_draw,
    random_compatible_structure,
)

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

    def onb_at(self, point, orientation: int = +1, g_at: tuple | None = None) -> tuple:
        """The oriented frame at the point on integers, (E, [U_1, ..., U_4]) with
        the frame vectors U_a / E; g_at, when given, is g there as (D, G), the
        int_g of its curvature operator.  A supplied frame must pass
        U G U^T = E^2 D ONB_GRAM."""
        if g_at is None:
            ((den, gm),) = int_jet(self.g, point)
        else:
            den, gm = g_at
        if self.onb is None:
            du, u = onb_search((den, gm))
        else:
            ((du, u),) = int_jet(self.onb, point)
            if int_mul(int_mul(u, gm), transpose(u)) != [[du * du * den * x for x in row]
                                                         for row in ONB_GRAM]:
                raise ValueError(f"the onb of {self.name} is not orthonormal with norms 1, 1, -1, -1 "
                                 f"at ({', '.join(point_strings(point))})")
        _, _, det, sign = bareiss(u)
        if sign * det < 0:
            u = [u[0], u[1], u[2], [-x for x in u[3]]]
        if orientation < 0:
            u = [u[0], u[1], u[3], u[2]]
        return du, u


def _const_mat(entries, nvars=4):
    return [[RatFunc.const(nvars, v) for v in row] for row in entries]


def flat_metric(nvars: int = 4) -> MetricModel:
    g = _const_mat(ONB_GRAM, nvars)
    onb = [[RatFunc.const(nvars, 1 if i == j else 0) for i in range(nvars)]
           for j in range(nvars)]
    return MetricModel("flat", nvars, g, onb)


def constcurv_metric(c: int, den: int = 1) -> MetricModel:
    """Conformal model of constant sectional curvature c / den, den > 0, on the
    neutral patch: g = phi^{-2} diag(1,1,-1,-1) with
    phi = 1 + (c / (4 den))(x1^2 + x2^2 - x3^2 - x4^2)."""
    n = 4
    x = [RatFunc.var(i, n) for i in range(n)]
    phi = RatFunc.const(n, 1) + (x[0] ** 2 + x[1] ** 2 - x[2] ** 2 - x[3] ** 2) * c / (4 * den)
    inv2 = RatFunc.one(n) / (phi * phi)
    signs = [1, 1, -1, -1]
    g = [[inv2 * signs[i] if i == j else RatFunc.zero(n) for j in range(n)] for i in range(n)]
    onb = [[phi if i == j else RatFunc.zero(n) for i in range(n)] for j in range(n)]
    return MetricModel(f"constcurv:{rat_str(den, c)}", n, g, onb)


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
    return MetricModel("ppwave", n, g, onb)


def metric_from_strings(rows: list, variables: list, onb_rows: list | None = None,
                        name: str = "file") -> MetricModel:
    """The metric of a file: matrices of literals, each distinct literal parsed
    once for the file."""
    n = len(variables)
    memo: dict = {}

    def literal(text):
        f = memo.get(text) if isinstance(text, str) else None
        if f is None:
            f = memo[text] = parse_ratfunc(text, variables)
        return f

    def parse(mat, what):
        if not (isinstance(mat, list) and len(mat) == n
                and all(isinstance(row, list) and len(row) == n for row in mat)):
            raise ValueError(f"{what} of {name} must be a {n}x{n} matrix")
        return [[literal(s) for s in row] for row in mat]

    g = parse(rows, "g")
    if any(g[i][j] is not g[j][i] and g[i][j] != g[j][i] for i in range(n) for j in range(i)):
        raise ValueError("the metric field is not symmetric")
    return MetricModel(name, n, g, None if onb_rows is None else parse(onb_rows, "onb"))


def _is_square(den: int, num: int) -> tuple | None:
    """The square root of num / den, den > 0, as a pair (d, n) in lowest
    terms, when it is rational."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    rn, rd = math.isqrt(max(num, 0)), math.isqrt(den)
    return (rd, rn) if num >= 0 and rn * rn == num and rd * rd == den else None


def onb_search(g: tuple) -> tuple:
    """Search for a rational orthonormal basis with norms (1, 1, -1, -1) of
    g = G / D, given as (D, G); the frame (E, [U_1, ..., U_4]) with the vectors
    U_a / E over their least common denominator.  Works when unit vectors
    exist over Q; otherwise raises DegenerateMetric (supply an onb with the
    metric in that case).  The candidates are small integer combinations c of
    the complement basis V / e of the vectors found so far, whose norm is
    c^T M c / (e^2 D) for M = V G V^T, and only the accepted vector is built."""
    den, gm = g
    n = len(gm)
    found: list = []  # (e_a, U_a) for the vectors U_a / e_a
    for target in (1, 1, -1, -1):
        e, comp = _orthogonal_complement_basis(gm, [u for _, u in found])
        gram = int_mul(int_mul(comp, gm), transpose(comp))
        pick = None
        for bound in (1, 2, 3, 4):
            for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(comp)):
                if not any(coeffs) or max(abs(c) for c in coeffs) != bound:
                    continue
                q = target * sum(map(mul, coeffs, [sum(map(mul, row, coeffs)) for row in gram]))
                root = q > 0 and _is_square(e * e * den, q)
                if root:
                    # (sum c_k V_k / e) / (n / d)
                    pick = (e * root[1], [root[0] * sum(c * b[i] for c, b in zip(coeffs, comp))
                                          for i in range(n)])
                    break
            if pick is not None:
                break
        if pick is None:
            raise DegenerateMetric("no rational orthonormal basis found; supply one")
        found.append(pick)
    top = math.lcm(*(e for e, _ in found))
    frame = [[x * (top // e) for x in u] for e, u in found]
    common = math.gcd(top, *(x for u in frame for x in u))
    return top // common, [[x // common for x in u] for u in frame]


# -- curvature ---------------------------------------------------------------------


def _sym(n: int, entry) -> list:
    """Symmetric n x n matrix with entry(i, j) computed once, for i <= j."""
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = entry(i, j)
    return m


def _riemann(g: list, point) -> tuple:
    """(D, G, adj, det, E, r) at the point, on integers from the metric's 2-jet
    int_jet(g, p, 2) = ((D, G), (D1, H), (D2, K)), g(p) = G / D, d_m g(p) =
    H_m / D1 and d_m d_p g(p) = K_mp / D2: g(p)^-1 = D adj / det, and
    R(d_i, d_j) d_k = r[i][j][k][l] / E d_l in the convention
    R(X, Y) = D_{[X,Y]} - [D_X, D_Y].  With G_l,ij = (d_i g_lj + d_j g_li - d_l g_ij) / 2
    = A_lij / (2 D1) and d_m G_l,ij = B_mlij / (2 D2), the Christoffels
    G^k_ij = g^kl G_l,ij are D gam / (2 det D1) for gam = adj A, and
    d_m G^k_ij = g^kl (d_m G_l,ij - d_m g_lp G^p_ij) (by d(g^-1) = -g^-1 (dg) g^-1)
    is D dgam / (2 D2 det^2 D1^2) for dgam = adj (det D1^2 B - D D2 H gam); so r
    is over E = 4 D2 det^2 D1^2, and r and E are divided by their gcd."""
    (den, gi), (d1, di), (d2, ddi) = int_jet(g, point, 2)
    n = len(g)
    ns = range(n)
    inv = int_inv(gi)
    if inv is None:
        raise DegenerateMetric(f"metric is degenerate at ({', '.join(point_strings(point))})")
    det, adj = inv
    gam = [_sym(n, lambda i, j: sum(
        adj[k][l] * (di[i][l][j] + di[j][l][i] - di[l][i][j]) for l in ns)) for k in ns]
    fb, fh = det * d1 * d1, den * d2
    gdgam = [[_sym(n, lambda i, j: fb * (ddi[m][i][l][j] + ddi[m][j][l][i] - ddi[m][l][i][j])
                   - fh * sum(di[m][l][p] * gam[p][i][j] for p in ns)) for l in ns] for m in ns]
    dgam = [[_sym(n, lambda i, j: sum(adj[k][l] * gdgam[m][l][i][j] for l in ns))
             for k in ns] for m in ns]
    r = [[[[0] * n for _ in ns] for _ in ns] for _ in ns]
    for i in ns:
        for j in range(i + 1, n):
            for k in ns:
                for l in ns:
                    # -(d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik)
                    v = den * (2 * (dgam[j][l][i][k] - dgam[i][l][j][k]) - fh * sum(
                        gam[l][i][m] * gam[m][j][k] - gam[l][j][m] * gam[m][i][k] for m in ns))
                    r[i][j][k][l], r[j][i][k][l] = v, -v
    dr = 4 * d2 * det * det * d1 * d1
    common = math.gcd(dr, *(x for a in r for b in a for c in b for x in c))
    r = [[[[x // common for x in c] for c in b] for b in a] for a in r]
    return den, gi, adj, det, dr // common, r


def _positive(den: int, m: list) -> tuple:
    """(den, m) with the sign moved into m, so that the denominator is positive."""
    return (den, m) if den > 0 else (-den, [[-x for x in row] for row in m])


class CurvOperator:
    """The curvature operator at a point, on integers.  Each of int_g, int_mat,
    int_lowered, int_ricci and int_rho is a pair (D, M) of a positive
    denominator and an integer matrix, standing for M / D: g(p); the
    self-adjoint operator on the wedge basis {e_i ^ e_j} (i < j) with
    g(R(X^Y), Z^T) = g(R(X,Y)Z, T); its lowered form, lowered[a][b] =
    g(R(e_a), e_b); Ricci(X, Y) = trace(Z -> R(X, Z) Y); and rho with
    g(rho(X), Y) = Ricci(X, Y)."""

    __slots__ = ("int_g", "int_mat", "int_lowered", "int_ricci", "int_rho")

    def __init__(self, int_g: tuple, int_mat: tuple, int_lowered: tuple, int_ricci: tuple,
                 int_rho: tuple):
        self.int_g, self.int_mat = int_g, int_mat
        self.int_lowered, self.int_ricci, self.int_rho = int_lowered, int_ricci, int_rho


def _trace(m: list) -> int:
    return sum(m[i][i] for i in range(len(m)))


def curvature_operator(g: list, point) -> CurvOperator:
    """The curvature operator at the point, from _riemann on integers: with
    r / E the curvature and q[(i, j)][(k, l)] = sum_m r[i][j][k][m] G[m][l],
    lowered = q / (E D); mat = L(g)^-1 lowered^T, with L(g) =
    lambda2_matrix(G) / D^2 the Lambda^2 Gram matrix, from one bareiss on
    [lambda2_matrix(G) | q^T]; Ricci over E, and rho = g^-1 Ricci over E det / D."""
    if len(g) != 4:
        raise ValueError("curvature operator decomposition requires dim 4")
    den, gm, adj, det, dr, r = _riemann(g, point)
    ns = range(4)
    q = [[m[k][l] for k, l in WEDGE4] for m in (int_mul(r[i][j], gm) for i, j in WEDGE4)]
    red, _, d_l, _ = bareiss([row + [q[b][a] for b in range(6)]
                              for a, row in enumerate(lambda2_matrix(gm))])
    mat = _positive(dr * d_l, [[den * x for x in row[6:]] for row in red])
    ric = [[sum(r[i][k][j][k] for k in ns) for j in ns] for i in ns]
    rho = _positive(det * dr, [[den * x for x in row] for row in int_mul(adj, ric)])
    return CurvOperator((den, gm), mat, (dr * den, q), (dr, ric), rho)


# -- decomposition -----------------------------------------------------------------------


class CurvDecomposition:
    """R = (s/12) Id + B + W with W = W_+ + W_-, on integers: int_s = (e, sigma)
    for s = sigma / e, and int_b, int_w, int_w_plus and int_w_minus pairs (D, M)
    as in CurvOperator."""

    __slots__ = ("int_s", "int_b", "int_w", "int_w_plus", "int_w_minus")

    def __init__(self, int_s: tuple, int_b: tuple, int_w: tuple, int_w_plus: tuple,
                 int_w_minus: tuple):
        self.int_s, self.int_b, self.int_w = int_s, int_b, int_w
        self.int_w_plus, self.int_w_minus = int_w_plus, int_w_minus


def decompose(op: CurvOperator, onb: tuple) -> CurvDecomposition:
    """R = (s/12) Id + B + W with B from the traceless Ricci part,
    B(X ^ Y) = [rho(X) ^ Y + X ^ rho(Y) - (s/2) X ^ Y] / 2, and W split into its
    self-dual and anti-self-dual blocks W_+- = P_+- W P_+- by the projections
    P_+- = (Id +- *) / 2 of the Hodge star of the oriented orthonormal frame onb
    (as onb_at gives it).  On integers: with rho = P / e and s = sigma / e,
    B = B' / (4 e), whose column for e_i ^ e_j holds the wedge coordinates of
    2 (P e_i ^ e_j + e_i ^ P e_j) - sigma e_i ^ e_j; W = W' / L with
    L = lcm(12 e, D) for mat = M / D; and for the star S / E of star_matrix,
    W_+- = (E Id +- S) W' (E Id +- S) / (4 E^2 L)."""
    e, rho = op.int_rho
    sigma = _trace(rho)
    b = [[2 * (rho[k][i] * (l == j) - rho[l][i] * (k == j) + (k == i) * rho[l][j]
               - (l == i) * rho[k][j]) - sigma * (a == c)
          for c, (i, j) in enumerate(WEDGE4)] for a, (k, l) in enumerate(WEDGE4)]
    dm, m = op.int_mat
    lw = math.lcm(12 * e, dm)
    fm, fs = lw // dm, lw // (12 * e)
    w = [[fm * m[a][c] - fs * (sigma * (a == c) + 3 * b[a][c]) for c in range(6)]
         for a in range(6)]
    ds, star = star_matrix(op.int_g, onb)
    w_pm = []
    for sign in (1, -1):
        proj = [[ds * (a == c) + sign * star[a][c] for c in range(6)] for a in range(6)]
        w_pm.append((4 * ds * ds * lw, int_mul(int_mul(proj, w), proj)))
    return CurvDecomposition((e, sigma), (4 * e, b), (lw, w), *w_pm)


def duality_verdict(dec: CurvDecomposition) -> dict:
    """Self-dual: W_- = 0; anti-self-dual: W_+ = 0; conformally flat: W = 0."""
    return {
        "self_dual": mat_is_zero(dec.int_w_minus[1]),
        "anti_self_dual": mat_is_zero(dec.int_w_plus[1]),
        "conformally_flat": mat_is_zero(dec.int_w[1]),
    }


def sectional_constant_check(op: CurvOperator) -> tuple | None:
    """c with R = c Id = (s/12) Id exactly, when the operator is scalar, as a
    pair (d, n) in lowest terms for c = n / d."""
    den, m = op.int_mat
    c = m[0][0]
    if all(x == (c if a == b else 0) for a, row in enumerate(m) for b, x in enumerate(row)):
        g = math.gcd(c, den)
        return den // g, c // g
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
    its nonzero entries.  On integers: per point, q = Q / D_q is the operator's
    int_lowered and J_a = J'_a / D_J the j_structures triple; per sample,
    K = (Y1 J'1 + Y2 J'2 + Y3 J'3) / e with e = E D_J, and X = 2 x by rnd_vec2,
    so x +- K x = (e X +- K' X) / (2 e) and d = 2 D_q 16 e_j e_l e_r^2."""
    data = []
    for p, op, _, js in points[:samples]:
        den_q, q = op.int_lowered
        terms = [(a, b, c) for a, row in enumerate(q) for b, c in enumerate(row) if c]
        rows = [(a, WEDGE4[a]) for a in sorted({a for a, _, _ in terms})]
        cols = [(b, WEDGE4[b]) for b in sorted({b for _, b, _ in terms})]
        data.append((p, den_q, terms, rows, cols,
                     {o: js(o) for o in set(orientations)}))
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


# -- theorem verdicts -----------------------------------------------------------------------------


def rnd_vec2(rng, n=4) -> list:
    """Twice a random vector of n entries in {-3, ..., 3} / {1, 2}, on integers."""
    return [2 * rng.randint(-3, 3) // rng.randint(1, 2) for _ in range(n)]


def theorem_verdict(model: MetricModel, theta: KForm | None, component: str,
                    sample_points=None, seed: int = 0, jklr_samples: int = 40) -> dict:
    """Integrability of the dim-4 twistor structure on the given component:
    requires dTheta = 0 plus the curvature condition of the component
    (++ : anti-self-dual and Ricci flat; -- : self-dual and Ricci flat;
    +- / -+ : scalar curvature operator, constant sectional curvature).
    Evidence carries sub-condition results and seeded (j,l,r) spot checks.
    theta None stands for Theta = 0."""
    if model.nvars != 4:
        raise ValueError("theorem verdicts require a 4-dimensional patch")
    if component not in ("++", "+-", "-+", "--"):
        raise ValueError(f"unknown component {component!r}")
    rng = random.Random(seed)
    # each point's operator, frame and J-triples, once; a default point where g or the
    # frame has a pole or g degenerates is skipped, but a supplied frame that is not
    # orthonormal there is an input error
    points = []
    for p in sample_points or DEFAULT_POINTS:
        try:
            op = curvature_operator(model.g, p)
            onb = model.onb_at(p, g_at=op.int_g)
        except (PoleAtPoint, ZeroDivisionError, DegenerateMetric):
            if sample_points is not None:
                raise
            continue
        points.append((p, op, onb, functools.cache(functools.partial(j_structures, op.int_g, onb))))
    if not points:
        raise DegenerateMetric("no usable sample points for the metric")
    if theta is None:
        d_theta_zero = True
    else:
        from paracomplex.patch import ext_deriv

        dth = ext_deriv(theta)
        d_theta_zero = dth.is_zero()
    evidence: dict = {
        "d_theta_zero": d_theta_zero,
        "points": [point_strings(p) for p, *_ in points],
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
        if not mat_is_zero(op.int_ricci[1]):
            ricci_ok = False
        if not mat_is_zero(dec.int_w_plus[1]):
            w_plus_ok = False
        if not mat_is_zero(dec.int_w_minus[1]):
            w_minus_ok = False
        sectional.append(sectional_constant_check(op))
    evidence["ricci_zero"] = ricci_ok
    evidence["w_plus_zero"] = w_plus_ok
    evidence["w_minus_zero"] = w_minus_ok
    const_ok = len(set(sectional)) == 1 and sectional[0] is not None
    evidence["sectional_constant"] = rat_str(*sectional[0]) if const_ok else None
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
                first_witness = {"point": point_strings(p), "jlr": list(jlr),
                                 "residual": rat_str(d, n)}
    evidence["jklr"] = {"samples": jklr_samples, "nonzero": nonzero}
    if first_witness is not None:
        evidence["jklr"]["witness"] = first_witness
    return {"component": component, "integrable": integrable, "evidence": evidence}


def _np_witness_search(dth: KForm, points: list, rng, attempts: int = 60):
    """Bounded seeded search for a nonzero horizontal obstruction residual,
    given the 3-form dTheta and theorem_verdict's per-point data; the sections
    A and B are drawn as their stacked vectors X + alpha, each twice a
    rnd_vec2 draw, so the residual of the integers A' = 2A and B' = 2B is
    four times A and B's."""
    from paracomplex.obstruction import np_residual_terms, torsion_at

    for p, op, onb, js in points:
        ((dd, (values,)),) = int_jet([list(dth.comps.values())], p)
        if not any(values):
            continue
        dth_at = (dd, dict(zip(dth.comps, values)))
        t_at = torsion_at(op.int_g, dth_at)
        for _ in range(attempts):
            o1 = +1 if rng.random() < 0.5 else -1
            s1 = random_compatible_structure(op.int_g, onb, rng, o1, js(o1))
            o2 = +1 if rng.random() < 0.5 else -1
            s2 = random_compatible_structure(op.int_g, onb, rng, o2, js(o2))
            a = rnd_vec2(rng) + rnd_vec2(rng)
            b = rnd_vec2(rng) + rnd_vec2(rng)
            den, n_p, cond_rhs = np_residual_terms(op.int_g, t_at, dth_at, s1, s2, a, b)
            res = [u - v for u, v in zip(n_p, cond_rhs)]
            if any(res):
                return {"point": point_strings(p),
                        "residual_vector": [rat_str(4 * den, c) for c in res[:4]],
                        "residual_form": [rat_str(4 * den, c) for c in res[4:]]}
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
            den, num = parse_rational(c)
        except ZeroDivisionError:
            raise ValueError(f"division by zero in {c!r}") from None
        return constcurv_metric(num, den)
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
