"""The double space T + T*: generalized paracomplex structures, the matrix of
a descriptor kind's structure and its partials at a point on integers, their
validation, generalized metrics, compatibility, and the assembly of a
structure from a pair of paracomplex structures.  The symbolic constructor of
each kind, B-transforms, the extraction of the pair and the fiber of
compatible structures are in `paracomplex.reference`.

Conventions.  A bilinear form phi acts as a map T -> T* by
phi(X)(Y) = phi(X, Y); in coordinates the map matrix is the transpose of the
form matrix.  A bivector pi contracts with a 1-form alpha through
beta(i_alpha pi) = (alpha ^ beta)(pi) with the determinant convention
(alpha ^ beta)(u ^ v) = alpha(u) beta(v) - alpha(v) beta(u).
"""

from __future__ import annotations

from fractions import Fraction

from paracomplex.exact import PoleAtPoint
from paracomplex.linalg import (
    Bilinear,
    Endo,
    bareiss,
    basis_vec,
    int_jet,
    int_mul,
    mat_add,
    mat_eq,
    mat_from_columns,
    mat_inv,
    mat_mul,
    mat_neg,
    mat_rank,
    mat_scale,
    mat_sub,
    mat_vec,
    signature,
    transpose,
    vec_add,
    vec_eq,
    vec_scale,
    zero_like,
)
from paracomplex.para import ValidationReport, validate_para


class GenVector:
    """Element X + alpha of T + T*."""

    __slots__ = ("x", "alpha")

    def __init__(self, x: list, alpha: list):
        self.x, self.alpha = x, alpha

    def __add__(self, other: GenVector) -> GenVector:
        return GenVector(vec_add(self.x, other.x), vec_add(self.alpha, other.alpha))

    def __sub__(self, other: GenVector) -> GenVector:
        return GenVector([a - b for a, b in zip(self.x, other.x)],
                         [a - b for a, b in zip(self.alpha, other.alpha)])

    def __neg__(self) -> GenVector:
        return self.scale(Fraction(-1))

    def scale(self, c) -> GenVector:
        return GenVector(vec_scale(c, self.x), vec_scale(c, self.alpha))

    def stacked(self) -> list:
        return list(self.x) + list(self.alpha)

    @staticmethod
    def vector(v: list) -> GenVector:
        return GenVector(list(v), [zero_like(v[0])] * len(v))

    @staticmethod
    def covector(a: list) -> GenVector:
        return GenVector([zero_like(a[0])] * len(a), list(a))

    def is_zero(self) -> bool:
        return all(not c for c in self.x) and all(not c for c in self.alpha)

    def __eq__(self, other):
        return (isinstance(other, GenVector)
                and vec_eq(self.x, other.x) and vec_eq(self.alpha, other.alpha))


class GenEndo:
    """Endomorphism of T + T* in blocks a: T->T, b: T*->T, c: T->T*, d: T*->T*."""

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d
        self.dim = len(a)

    @staticmethod
    def from_matrix(m: list) -> GenEndo:
        n = len(m) // 2
        a = [row[:n] for row in m[:n]]
        b = [row[n:] for row in m[:n]]
        c = [row[:n] for row in m[n:]]
        d = [row[n:] for row in m[n:]]
        return GenEndo(a, b, c, d)

    def as_matrix(self) -> list:
        top = [ra + rb for ra, rb in zip(self.a, self.b)]
        bottom = [rc + rd for rc, rd in zip(self.c, self.d)]
        return top + bottom

    def apply(self, v: GenVector) -> GenVector:
        x = vec_add(mat_vec(self.a, v.x), mat_vec(self.b, v.alpha))
        alpha = vec_add(mat_vec(self.c, v.x), mat_vec(self.d, v.alpha))
        return GenVector(x, alpha)

    def compose(self, other: GenEndo) -> GenEndo:
        return GenEndo.from_matrix(mat_mul(self.as_matrix(), other.as_matrix()))

    def __add__(self, other: GenEndo) -> GenEndo:
        return GenEndo.from_matrix(mat_add(self.as_matrix(), other.as_matrix()))

    def __sub__(self, other: GenEndo) -> GenEndo:
        return GenEndo.from_matrix(mat_sub(self.as_matrix(), other.as_matrix()))

    def __neg__(self) -> GenEndo:
        return self.scale(Fraction(-1))

    def scale(self, c) -> GenEndo:
        return GenEndo.from_matrix(mat_scale(c, self.as_matrix()))

    def __eq__(self, other):
        return isinstance(other, GenEndo) and mat_eq(self.as_matrix(), other.as_matrix())

    def __repr__(self):
        return f"GenEndo(a={self.a!r}, b={self.b!r}, c={self.c!r}, d={self.d!r})"


# -- structures at a point, on integers ------------------------------------------


def structure_jet(kind: str, data: list, point, order: int = 0) -> tuple:
    """K(p) of a descriptor kind's structure on integers, and for order 1 its
    partials: ((D0, K),), then (D1, [dK_1, ..., dK_n]), with K / D0 = K(p) and
    dK_i / D1 = d_i K(p), from the int_jet of the kind's n x n data of
    rational functions: the form omega(d_i, d_j), the bivector pi^{ij}, P, or
    the zero matrix for trivial, which is K_pi for pi = 0.  K_omega has the
    blocks omega^-1 and omega, as maps T* -> T and T -> T*: for the map W / D0
    at p, bareiss gives W A = d Id, so omega(p)^-1 = D0 A / d, and
    d(omega^-1) = -omega^-1 (d omega) omega^-1.  PoleAtPoint where the data
    has a pole or det omega(p) = 0."""
    n = len(point)
    (d0, v), *jet = int_jet(data, point, order)
    d1, dv = jet[0] if jet else (1, [])
    z = [[0] * n] * n
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    if kind == "omega":
        w = transpose(v)
        r, pivots, d, _ = bareiss([row + e for row, e in zip(w, eye)])
        if pivots != list(range(n)):
            raise PoleAtPoint(point)
        # W A = d Id with A the right half of r; (s A) / (s d) keeps the denominator
        # positive, and the sign cancels in A dW A
        a, s = [row[n:] for row in r], -1 if d < 0 else 1
        d *= s
        k = d0 * d, [z, mat_scale(s * d0 * d0, a), mat_scale(d, w), z]
        dk = d * d * d1, [[z, mat_scale(-d0 * d0, int_mul(int_mul(a, dw), a)),
                           mat_scale(d * d, dw), z] for dw in map(transpose, dv)]
    elif kind == "product":
        k = d0, [v, z, z, mat_neg(transpose(v))]
        dk = d1, [[m, z, z, mat_neg(transpose(m))] for m in dv]
    else:
        k = d0, [mat_scale(d0, eye), v, z, mat_scale(-d0, eye)]
        dk = d1, [[z, m, z, z] for m in dv]
    return ((k[0], GenEndo(*k[1]).as_matrix()),
            (dk[0], [GenEndo(*b).as_matrix() for b in dk[1]]))[:order + 1]


def validate_gen_para(den: int, m: list) -> ValidationReport:
    """Check K^2 = Id, skewness for the canonical pairing, and that both
    eigenspaces have dimension 2n (half the dimension of T + T*), on integers
    for K = m / den: m^2 = den^2 Id; m^T S + S m = 0 for S = 2<,>, which swaps
    T and T*, so S m is m with its halves of rows swapped and must be
    antisymmetric; and the ranks of den Id + m and den Id - m by bareiss."""
    n2 = len(m)
    ident = [[den * (i == j) for j in range(n2)] for i in range(n2)]
    sm = m[n2 // 2:] + m[:n2 // 2]
    plus, minus = (len(bareiss(f(ident, m))[1]) for f in (mat_add, mat_sub))
    return ValidationReport({
        "square_is_identity": int_mul(m, m) == mat_scale(den, ident),
        "pairing_skew": sm == mat_neg(transpose(sm)),
        "equal_eigenranks": plus == n2 // 2 == minus,
    })


# -- generalized metrics --------------------------------------------------------------


class GeneralizedMetric:
    """E' = {X + g(X) + Theta(X)} with E'' = {X - g(X) + Theta(X)} = E'^perp."""

    __slots__ = ("g", "theta", "frame_prime", "frame_dprime")

    def __init__(self, g: Bilinear, theta: Bilinear, frame_prime: list, frame_dprime: list):
        self.g, self.theta = g, theta
        self.frame_prime, self.frame_dprime = frame_prime, frame_dprime

    @property
    def dim(self) -> int:
        return self.g.dim


def gen_metric(g: Bilinear, theta: Bilinear) -> GeneralizedMetric:
    if not g.is_symmetric():
        raise ValueError("g must be symmetric")
    if not theta.is_antisymmetric():
        raise ValueError("Theta must be antisymmetric")
    n = g.dim
    if isinstance(g.mat[0][0], Fraction):
        pos, neg, null = signature(g)
        if null or pos != neg:
            raise ValueError(f"metric signature {(pos, neg, null)} is not neutral")
    g_map = g.map_mat()
    th_map = theta.map_mat()
    prime, dprime = [], []
    for i in range(n):
        e = basis_vec(i, n, like=g.mat[0][0])
        prime.append(GenVector(e, vec_add(mat_vec(g_map, e), mat_vec(th_map, e))))
        dprime.append(GenVector(e, vec_add(mat_vec(mat_neg(g_map), e), mat_vec(th_map, e))))
    return GeneralizedMetric(g, theta, prime, dprime)


def is_compatible(k: GenEndo, e: GeneralizedMetric) -> bool:
    """K preserves E iff the images of the E' frame stay in its span."""
    frame_cols = [v.stacked() for v in e.frame_prime]
    image_cols = [k.apply(v).stacked() for v in e.frame_prime]
    base = mat_from_columns(frame_cols)
    both = mat_from_columns(frame_cols + image_cols)
    return mat_rank(both) == mat_rank(base) == e.dim


def assemble(g: Bilinear, theta: Bilinear, k1: Endo, k2: Endo) -> GenEndo:
    """Block-matrix assembly of the compatible generalized paracomplex structure
    from (g, Theta, K1, K2):

        K = 1/2 [[I, 0], [Th, I]] [[K1+K2, -w1^-1 + w2^-1],
                                   [-w1 + w2, -K1* - K2*]] [[I, 0], [-Th, I]]

    with w_s(X, Y) = g(X, K_s Y) and all forms acting as maps T -> T*."""
    for ks in (k1, k2):
        if not validate_para(g, ks).ok:
            raise ValueError(f"invalid paracomplex factor: {validate_para(g, ks).failures}")
    g_map = g.map_mat()
    th = theta.map_mat()
    w1 = mat_mul(transpose(k1.mat), g_map)
    w2 = mat_mul(transpose(k2.mat), g_map)
    w1_inv = mat_inv(w1)
    w2_inv = mat_inv(w2)
    a_mid = mat_add(k1.mat, k2.mat)
    b_mid = mat_add(mat_neg(w1_inv), w2_inv)
    c_mid = mat_add(mat_neg(w1), w2)
    d_mid = mat_neg(mat_add(transpose(k1.mat), transpose(k2.mat)))
    # conjugate by the B-transform of Theta and halve
    a_blk = mat_sub(a_mid, mat_mul(b_mid, th))
    b_blk = b_mid
    c_blk = mat_sub(mat_add(mat_mul(th, a_mid), c_mid),
                    mat_mul(mat_add(mat_mul(th, b_mid), d_mid), th))
    d_blk = mat_add(mat_mul(th, b_mid), d_mid)
    half = Fraction(1, 2)
    return GenEndo(mat_scale(half, a_blk), mat_scale(half, b_blk),
                   mat_scale(half, c_blk), mat_scale(half, d_blk))
