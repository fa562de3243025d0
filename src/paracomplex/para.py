"""Paracomplex structures on a neutral vector space and the fiber manifold
of compatible structures: adapted and null bases, tangent projection, fiber
paracomplex structure and metric, orientation, and the dim-4 hyperboloid model.

A paracomplex structure is an endomorphism K with K^2 = Id whose +-1
eigenspaces have equal dimension; compatibility with a metric g means
g(KX, Y) + g(X, KY) = 0, which forces g to be of neutral signature.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import mul

from paracomplex.linalg import (
    Bilinear,
    Endo,
    basis_vec,
    g_adjoint,
    int_mats,
    is_g_skew,
    j_structures,
    kernel_basis,
    mat_add,
    mat_det,
    mat_eq,
    mat_from_columns,
    mat_identity,
    mat_is_zero,
    mat_mul,
    mat_neg,
    mat_rank,
    mat_vec,
    mat_zero,
    transpose,
    vec_scale,
    vec_sub,
)

class ValidationReport:
    """Outcome of a structure validation; carries per-invariant results."""

    __slots__ = ("checks",)

    def __init__(self, checks: dict[str, bool]):
        self.checks = checks

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    @property
    def failures(self) -> list[str]:
        return [name for name, passed in self.checks.items() if not passed]


def validate_para(g: Bilinear, k: Endo) -> ValidationReport:
    """Check {k^2 = Id, k != +-Id, trace = 0, g-skew} and report each."""
    n = k.dim
    ident = mat_identity(n, like=k.mat[0][0])
    square_id = mat_eq(mat_mul(k.mat, k.mat), ident)
    not_pm_id = not (mat_eq(k.mat, ident) or mat_eq(k.mat, mat_neg(ident)))
    report = ValidationReport({
        "square_is_identity": square_id,
        "not_plus_minus_identity": not_pm_id,
        "trace_zero": not k.trace(),
        "g_skew": is_g_skew(g, k),
    })
    return report


# -- adapted and null bases -----------------------------------------------------


def _orthogonal_complement_basis(g: Bilinear, span: list) -> list:
    """Basis of {w : g(v, w) = 0 for v in span} over the scalar field."""
    n = g.dim
    if not span:
        return [basis_vec(i, n) for i in range(n)]
    rows = [mat_vec(transpose(g.mat), v) for v in span]  # w -> g(v, w) coefficients
    return kernel_basis(rows, n)


def _positive_norm_vector(g: Bilinear, basis: list) -> list | None:
    """Deterministic search for a rational vector of positive g-norm in the
    span of the given basis; combinations with small integer coefficients.
    A candidate's norm has the sign of c^T M c for the integer Gram matrix
    M / D of the basis, and only the accepted vector is built."""
    k = len(basis)
    _, (gram,) = int_mats([mat_mul(mat_mul(basis, g.mat), transpose(basis))])
    for bound in (1, 2, 3, 5):
        candidates = [
            c for c in itertools.product(range(-bound, bound + 1), repeat=k)
            if any(c) and max(abs(x) for x in c) == bound
        ]
        # prefer sparse, small, positive combinations (single basis vectors first)
        candidates.sort(key=lambda c: (sum(1 for x in c if x),
                                       sum(abs(x) for x in c),
                                       sum(1 for x in c if x < 0),
                                       tuple(-x for x in c)))
        for coeffs in candidates:
            if sum(map(mul, coeffs, [sum(map(mul, row, coeffs)) for row in gram])) > 0:
                return [sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(g.dim)]
    return None


def adapted_basis(g: Bilinear, k: Endo) -> tuple[list, list]:
    """Inductive para-Hermitian basis: vectors (e_1..e_n, Ke_1..Ke_n) with
    g(e_i, e_j) = lam_i delta_ij for positive rationals lam_i and all other
    pairings zero.  Returns (basis, norms).

    Unit norms may not exist over Q; any positive norm works because the
    downstream pairings are normalized instead of the vectors.
    """
    report = validate_para(g, k)
    if not report.ok:
        raise ValueError(f"not a compatible paracomplex structure: {report.failures}")
    n2 = g.dim
    span: list = []
    es: list = []
    norms: list = []
    while len(span) < n2:
        complement = _orthogonal_complement_basis(g, span)
        v = _positive_norm_vector(g, complement)
        if v is None:
            raise ValueError("no positive-norm rational vector in the complement")
        kv = k.apply(v)
        es.append(v)
        norms.append(g.apply(v, v))
        span.extend([v, kv])
    basis = es + [k.apply(e) for e in es]
    return basis, norms


def null_basis(g: Bilinear, k: Endo) -> list:
    """Null eigenbasis (a_1..a_2n): K a_i = a_i, K a_{n+i} = -a_{n+i},
    g(a_i, a_{n+j}) = delta_ij, all other pairings zero.  Built from the
    adapted basis via a_i = e_i + Ke_i, a_{n+i} = (e_i - Ke_i) / (2 lam_i)."""
    basis, norms = adapted_basis(g, k)
    n = len(norms)
    a_plus = []
    a_minus = []
    for i in range(n):
        e, ke = basis[i], basis[n + i]
        a_plus.append([x + y for x, y in zip(e, ke)])
        scale = Fraction(1) / (2 * norms[i])
        a_minus.append(vec_scale(scale, vec_sub(e, ke)))
    return a_plus + a_minus


# -- the fiber Z(T) ---------------------------------------------------------------


def z_tangent_project(g: Bilinear, k: Endo, a: Endo) -> Endo:
    """Project an endomorphism onto the tangent space of Z(T) at K: take the
    g-skew part a0, then (a0 - K a0 K) / 2, which anti-commutes with K."""
    a0 = (a - g_adjoint(g, a)).scale(Fraction(1, 2))
    kak = Endo(mat_mul(k.mat, mat_mul(a0.mat, k.mat)))
    return (a0 - kak).scale(Fraction(1, 2))


def anticommutes(k: Endo, v: Endo) -> bool:
    return mat_is_zero(mat_add(mat_mul(v.mat, k.mat), mat_mul(k.mat, v.mat)))


def is_fiber_tangent(g: Bilinear, k: Endo, v: Endo) -> bool:
    return anticommutes(k, v) and is_g_skew(g, v)


def fiber_structure(k: Endo, v: Endo) -> Endo:
    """The fiber paracomplex structure at K applied to a tangent vector:
    V -> K V (composition); the result is again tangent at K."""
    if not anticommutes(k, v):
        raise ValueError("vector does not anti-commute with the base structure")
    return Endo(mat_mul(k.mat, v.mat))


def fiber_metric(v: Endo, w: Endo):
    """Fiber metric G(V, W) = -1/2 Trace(V W)."""
    prod = mat_mul(v.mat, w.mat)
    tr = sum((prod[i][i] for i in range(1, len(prod))), start=prod[0][0])
    return -tr / 2


def _fiber_constraint_rows(g: Bilinear, k: Endo) -> list:
    """Rows of the linear system cutting out {V : V g-skew, VK + KV = 0},
    with V flattened row-major."""
    n = g.dim
    unknowns = [(a, b) for a in range(n) for b in range(n)]
    rows = []
    # skew:  (V^T g + g V)[i][j] = sum_k V[k][i] g[k][j] + g[i][k] V[k][j]
    for i in range(n):
        for j in range(n):
            row = []
            for (a, b) in unknowns:
                c = Fraction(0)
                if b == i:
                    c += g.mat[a][j]
                if b == j:
                    c += g.mat[i][a]
                row.append(c)
            rows.append(row)
    # anti-commutation:  (VK + KV)[i][j] = sum_k V[i][k] K[k][j] + K[i][k] V[k][j]
    for i in range(n):
        for j in range(n):
            row = []
            for (a, b) in unknowns:
                c = Fraction(0)
                if a == i:
                    c += k.mat[b][j]
                c += k.mat[i][a] if b == j else 0
                row.append(c)
            rows.append(row)
    return rows


def fiber_tangent_dim(g: Bilinear, k: Endo) -> int:
    """Dimension of {V : V g-skew, VK + KV = 0}, solved as a linear system.
    Equals n^2 - n for T of dimension 2n."""
    n = g.dim
    return n * n - mat_rank(_fiber_constraint_rows(g, k))


def fiber_tangent_basis(g: Bilinear, k: Endo) -> list:
    """Basis of the fiber tangent space at K, as endomorphisms."""
    n = g.dim
    flat = kernel_basis(_fiber_constraint_rows(g, k), n * n)
    return [Endo([v[i * n:(i + 1) * n] for i in range(n)]) for v in flat]


# -- orientation --------------------------------------------------------------------


def induced_orientation(g: Bilinear, k: Endo) -> int:
    """Sign (+1 / -1) of det of the transition from the reference basis to an
    adapted basis (e_i, Ke_i); for n even this is the orientation induced by K.
    Positive rescalings of the e_i do not change the sign."""
    basis, _ = adapted_basis(g, k)
    det = mat_det(mat_from_columns(basis))
    return 1 if det > 0 else -1


# -- the hyperboloid model in dimension 4 ----------------------------------------------


def hyperboloid_structure(g: Bilinear, onb: list, y1, y2, y3) -> Endo:
    """K = y1 J1 + y2 J2 + y3 J3 for a rational point on the one-sheeted
    hyperboloid -y1^2 + y2^2 + y3^2 = 1; a compatible paracomplex structure
    inducing the + orientation."""
    y1, y2, y3 = Fraction(y1), Fraction(y2), Fraction(y3)
    if -y1 * y1 + y2 * y2 + y3 * y3 != 1:
        raise ValueError(f"({y1}, {y2}, {y3}) is not on the hyperboloid")
    j1, j2, j3 = j_structures(g, onb, +1)
    return j1.scale(y1) + j2.scale(y2) + j3.scale(y3)


def hyperboloid_coords(g: Bilinear, onb: list, k: Endo) -> tuple:
    """Read back (y1, y2, y3) from K via fiber-metric projections onto the J_i;
    inverse of hyperboloid_structure on hyperboloid points."""
    j1, j2, j3 = j_structures(g, onb, +1)
    # G(J1, J1) = 2 and G(J2, J2) = G(J3, J3) = -2
    return (
        fiber_metric(k, j1) / 2,
        -fiber_metric(k, j2) / 2,
        -fiber_metric(k, j3) / 2,
    )


def hyperboloid_draw(rng) -> tuple[int, int, int, int]:
    """(Y1, Y2, Y3, E): a random rational point (Y1, Y2, Y3) / E, E > 0, on the
    hyperboloid -y1^2 + y2^2 + y3^2 = 1: y1 = t, and (y2, y3) is the second
    point of the circle y2^2 + y3^2 = 1 + t^2 on the line of slope m through
    (1, t), for t = a/b and m = c/d drawn as ratios of small integers.  With
    P = c^2 + d^2 and Q = bd + ac: E = bP, Y1 = aP, Y2 = bP - 2Qd, Y3 = aP - 2Qc."""
    a, b = rng.randint(-6, 6), rng.randint(1, 4)
    c, d = rng.randint(-6, 6), rng.randint(1, 4)
    p, q = c * c + d * d, b * d + a * c
    return a * p, b * p - 2 * q * d, a * p - 2 * q * c, b * p


def hyperboloid_combination(point: tuple, triple: tuple) -> tuple[int, list]:
    """(e, K) with y1 J1 + y2 J2 + y3 J3 = K / e, for a hyperboloid_draw point
    (Y1, Y2, Y3, E) and an int_mats J-triple (D, [D J1, D J2, D J3]): K is the
    integer matrix Y1 D J1 + Y2 D J2 + Y3 D J3 and e = E D."""
    (y1, y2, y3, e), (den, mats) = point, triple
    return e * den, [[y1 * a + y2 * b + y3 * c for a, b, c in zip(*rows)]
                     for rows in zip(*mats)]


def random_compatible_structure(g: Bilinear, onb: list, rng, orientation: int = +1,
                                js: list | None = None) -> Endo:
    """Random g-compatible paracomplex structure of the given orientation in
    dim 4: y1 J1 + y2 J2 + y3 J3 at the hyperboloid_draw point (y1, y2, y3).
    A caller drawing many structures at one point passes the J-triple
    j_structures(g, onb, orientation) as js; the draws from rng are the same."""
    point = hyperboloid_draw(rng)
    if js is None:
        js = j_structures(g, onb, +1 if orientation > 0 else -1)
    e, k = hyperboloid_combination(point, int_mats([jm.mat for jm in js]))
    return Endo([[Fraction(c, e) for c in row] for row in k])


def standard_para_structure(n: int) -> Endo:
    """K e_i = e_{n+i}, K e_{n+i} = e_i on a 2n-dimensional space; compatible
    with diag(1..1, -1..-1)."""
    m = mat_zero(2 * n)
    for i in range(n):
        m[n + i][i] = Fraction(1)
        m[i][n + i] = Fraction(1)
    return Endo(m)
