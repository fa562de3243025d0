"""Finite-dimensional linear algebra over the exact scalars.

Matrices are dense lists of lists.  At a point every command works on a pair
(D, M) of a positive denominator and an integer matrix, standing for M / D:
`int_jet` reads a field's value and partials there, `reduced` is the one
division of a pair by its gcd (int_jet's and curv's), `bareiss` is the one
fraction-free elimination, which `int_inv` (the inverse of a pair, as a
pair), the orientation of a frame in `curv.MetricModel.onb_at` (a
determinant) and the kernels of the frame search in `paracomplex.frame`
read, the dim-4 Hodge star (`star_matrix`, o eps lambda2_matrix(G) /
sqrt(det G) from g = G / D and the orientation o, with no frame and no
elimination) and J-triples (`j_structures`) are built on integers, and
`mat_to_strings` prints such a pair.  `mat_mul` is the one matrix product:
on integers at a point, and on RatFuncs in the symbolic checks of a
descriptor's data.  The Fraction wrappers of matrices, forms,
endomorphisms and 2-vectors, and the routines only they use, are in
`paracomplex.reference`, with `SingularMatrix`, which its Fraction
inverses raise.
"""

from __future__ import annotations

import math
from operator import mul

from paracomplex.poly import rat_str

Vec = list
Mat = list


# -- matrices ----------------------------------------------------------------


def mat_add(a: Mat, b: Mat) -> Mat:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Mat, b: Mat) -> Mat:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a: Mat) -> Mat:
    return [[-x for x in row] for row in a]


def mat_scale(c, a: Mat) -> Mat:
    return [[c * x for x in row] for row in a]


def identity(n: int, c) -> Mat:
    """c Id, the n x n integer matrix with c on the diagonal."""
    return [[c * (i == j) for j in range(n)] for i in range(n)]


def bareiss(m: Mat) -> tuple[Mat, list, int, int]:
    """(R, pivots, d, sign) for an integer matrix m of any shape, by
    fraction-free Gauss-Jordan elimination (Bareiss 1968): each step divides
    exactly by the previous pivot.  R / d is the reduced row echelon form of m
    with pivot columns `pivots`, sign is the parity of the row swaps, and for a
    square m of full rank sign * d = det m."""
    work = [list(row) for row in m]
    rows = len(work)
    pivots: list[int] = []
    d, sign = 1, 1
    for col in range(len(work[0]) if work else 0):
        row = len(pivots)
        if row == rows:
            break
        pivot = next((r for r in range(row, rows) if work[r][col]), None)
        if pivot is None:
            continue
        if pivot != row:
            work[row], work[pivot] = work[pivot], work[row]
            sign = -sign
        prow = work[row]
        p = prow[col]
        for r in range(rows):
            if r != row:
                f = work[r][col]
                work[r] = [(p * x - f * y) // d for x, y in zip(work[r], prow)]
        pivots.append(col)
        d = p
    return work, pivots, d, sign


def int_inv(pair: tuple) -> tuple[int, Mat] | None:
    """The inverse of M / D as a pair (d, D A), for the pair (D, M) of a
    square integer matrix M: M A = d Id with d = |det M| > 0, from bareiss on
    [M | Id], whose last pivot is +-det M; None when M is singular."""
    den, m = pair
    n = len(m)
    r, pivots, d, _ = bareiss([row + eye for row, eye in zip(m, identity(n, 1))])
    if pivots != list(range(n)):
        return None
    s = den if d > 0 else -den
    return abs(d), [[s * x for x in row[n:]] for row in r]


def mat_mul(a: Mat, b: Mat) -> Mat:
    """The product of two matrices of integers, Fractions or RatFuncs."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def mat_vec(a: Mat, v: Vec) -> Vec:
    return [sum(map(mul, row, v)) for row in a]


def transpose(a: Mat) -> Mat:
    return [list(col) for col in zip(*a)]


def mat_is_zero(a: Mat) -> bool:
    return all(not x for row in a for x in row)


def int_jet(a: Mat, point: tuple, order: int = 0) -> tuple:
    """A matrix of RatFuncs at the point (P, X) on integers: ((D0, A),) with A / D0 the
    matrix A(p), then (D1, [dA_i]) with dA_i / D1 = d_i A(p) for order 1, then
    (D2, [[ddA_ik]]) with ddA_ik / D2 = d_i d_k A(p) for order 2, each over its
    least common denominator, from one RatFunc.jet_at per entry; each
    denominator factor's jet is computed once."""
    cache: dict = {}
    jets = [[c.jet_at(point, order, cache) for c in row] for row in a]
    den = math.lcm(*(d for row in jets for d, _ in row))
    jets = [[(den // d, j) for d, j in row] for row in jets]
    ns = range(len(point[1]))
    parts = [[[f * j[0] for f, j in row] for row in jets]]
    if order:
        parts.append([[[f * j[1][i] for f, j in row] for row in jets] for i in ns])
    if order > 1:
        parts.append([[[[f * j[2][i][k] for f, j in row] for row in jets] for k in ns] for i in ns])
    return tuple(reduced(den, part, depth) for depth, part in enumerate(parts))


def reduced(den: int, part: list, depth: int = 0) -> tuple:
    """(den, part) divided by the gcd of den and every integer of part, an
    integer matrix nested in depth levels of lists; the rows change in place."""
    rows = part
    for _ in range(depth):
        rows = [row for sub in rows for row in sub]
    g = math.gcd(den, *(x for row in rows for x in row))
    if g > 1:
        for row in rows:
            row[:] = [x // g for x in row]
    return den // g, part


def wedge_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def lambda2_matrix(q: Mat) -> Mat:
    """The map induced by q on wedge coordinates (e_i ^ e_j, i < j):
    entry [(i, j)][(k, l)] = q[i][k] q[j][l] - q[i][l] q[j][k]."""
    pairs = wedge_pairs(len(q))
    return [[q[i][k] * q[j][l] - q[i][l] * q[j][k] for k, l in pairs] for i, j in pairs]


# the Gram matrix P^T g P of an oriented orthonormal basis P with norms (1, 1, -1, -1)
ONB_GRAM = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]


def star_matrix(gm: Mat, root: int, orientation: int) -> tuple[int, Mat]:
    """The Hodge star of g = G / D for the orientation o = +-1 on reference
    wedge coordinates, on integers from G and root = sqrt(det G):
    * = o eps lambda2_matrix(G) / root.  Here eps is the wedge pairing,
    a ^ b = (a^T eps b) e_1^e_2^e_3^e_4, antidiagonal with the signs
    (1, -1, 1, 1, -1, 1) in wedge_pairs(4) order.  For an orthonormal frame P
    with norms (1, 1, -1, -1) and det P of the sign o, the star is
    eps lambda2_matrix(ONB_GRAM) on the frame, and L(P) eps L(P^T) = det P eps
    gives det P eps lambda2_matrix(g); det P^2 det g = 1, so det P = o D^2 / root
    and D cancels.  det G is thus a positive square wherever such a rational
    frame exists.  Returns (root, o eps lambda2_matrix(G))."""
    l2 = lambda2_matrix(gm)
    return root, [[orientation * s * x for x in l2[5 - a]]
                  for a, s in enumerate((1, -1, 1, 1, -1, 1))]


def j_structures(g: tuple, onb: tuple, sign: int = +1) -> tuple[int, list]:
    """The J-triple J_a = S_{sigma_a} for the unnormalized (anti-)self-dual basis
    sigma_1 = u1^u2 + s u3^u4, sigma_2 = u1^u3 + s u2^u4, sigma_3 = u1^u4 - s u2^u3
    (norms +-2, s the sign), where S_a = -A g for the antisymmetric matrix A of
    the 2-vector a (so g(S_a u, v) = <a, u ^ v>, with no inverse of g).  On
    integers: for g = (D, G) and the frame vectors U_a / E of an oriented
    orthonormal basis, onb = (E, [U_1, ..., U_4]) as curv.MetricModel.onb_at
    gives it, the triple (D E^2, [D E^2 J_1, D E^2 J_2, D E^2 J_3]), the form
    para.hyperboloid_combination reads.  With sign=+1 they satisfy J1^2 = -Id,
    J2^2 = J3^2 = Id and J3 = J2 J1."""
    (dg, gm), (du, u) = g, onb
    s = 1 if sign > 0 else -1
    ns = range(len(gm))
    out = []
    for (a, b), (c, d), t in (((0, 1), (2, 3), s), ((0, 2), (1, 3), s), ((0, 3), (1, 2), -s)):
        minus_a = [[u[b][k] * u[a][l] - u[a][k] * u[b][l]
                    + t * (u[d][k] * u[c][l] - u[c][k] * u[d][l]) for l in ns] for k in ns]
        out.append(mat_mul(minus_a, gm))
    return dg * du * du, out


# -- serialization ----------------------------------------------------------------


def mat_to_strings(den: int, m: Mat) -> list[list[str]]:
    """The entries of the matrix m / den as rat_str prints them."""
    return [[rat_str(den, x) for x in row] for row in m]
