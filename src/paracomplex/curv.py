"""Curvature on a patch, in Q at a point from the metric's 2-jet: the metric
catalog, the rational orthonormal frame, and the curvature operator with its
scalar/traceless-Ricci/Weyl decomposition and duality verdicts.  Everything at
a point, from the point itself and the 2-jet to the decomposition, runs on
integer pairs (D, M) of a positive denominator and an integer matrix, vector or
value, and a value is printed by `poly.rat_str` from its pair.  The dim-4
theorem verdict, with the (j,l,r) residual and the witness search, is in
`paracomplex.theorem`, which only `theorem` loads, so `curvature` compiles
neither it nor `paracomplex.para`.  The symbolic connections and the twistor
and reflector Nijenhuis evaluators are in `paracomplex.reference`.

Curvature sign convention.  The curvature tensor is
R(X, Y) = D_{[X,Y]} - [D_X, D_Y] (opposite to the common one); with this
choice the operator fixed by g(R(X^Y), Z^T) = g(R(X,Y)Z, T) satisfies
R = c Id on Lambda^2 for the conformal model of constant sectional
curvature c, the Ricci tensor taken as Ricci(X, Y) = trace(Z -> R(X, Z) Y)
equals 3 c g, and s = 12 c.  The brute-force sectional-curvature oracle in
the test suite pins these signs.
"""

from __future__ import annotations

import itertools
import math
from operator import mul

from paracomplex.exact import (VARS4, RatFunc, check_variables, parse_ratfunc, parse_rational,
                               point_strings)
from paracomplex.linalg import (
    ONB_GRAM,
    bareiss,
    int_inv,
    int_jet,
    int_mul,
    kernel_basis,
    lambda2_matrix,
    mat_is_zero,
    mat_vec,
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


def _orthogonal_complement_basis(gm: list, span: list) -> tuple[int, list]:
    """A basis of {w : g(v, w) = 0 for v in span} over Q, as kernel_basis gives
    it, for an integer matrix gm, a positive multiple of g, and integer
    vectors span, each a positive multiple of its vector."""
    return kernel_basis([mat_vec(transpose(gm), v) for v in span], len(gm))


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
    H_m / D1 and d_m d_p g(p) = K_mp / D2: g(p)^-1 = D adj / det with
    det = |det G| from int_inv, and
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
    rho = det * dr, [[den * x for x in row] for row in int_mul(adj, ric)]
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
