"""Finite-dimensional linear algebra over the exact scalars.

Matrices are dense lists of lists.  At a point every command works on a pair
(D, M) of a positive denominator and an integer matrix, standing for M / D:
`int_jet` reads a field's value and partials there, `bareiss` is the one
fraction-free elimination (pivots, ranks, determinants, by `int_inv` inverses
and by `kernel_basis` kernels), the dim-4 Hodge star (`star_matrix`) and
J-triples (`j_structures`) are built on integers, and `mat_to_strings`
prints such a pair.  The symbolic checks of a descriptor's data multiply
matrices of RatFuncs (`mat_mul`, `pfaffian`).  The Fraction wrappers of
matrices, forms, endomorphisms and 2-vectors, and the routines only they
use, are in `paracomplex.reference`.
"""

from __future__ import annotations

import math
from operator import mul

from paracomplex.poly import rat_str

Vec = list
Mat = list


class SingularMatrix(ZeroDivisionError):
    """Exact inversion of a singular matrix was attempted."""


# -- matrices ----------------------------------------------------------------


def mat_add(a: Mat, b: Mat) -> Mat:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Mat, b: Mat) -> Mat:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a: Mat) -> Mat:
    return [[-x for x in row] for row in a]


def mat_scale(c, a: Mat) -> Mat:
    return [[c * x for x in row] for row in a]


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


def int_inv(m: Mat) -> tuple[int, Mat] | None:
    """(d, A) with m A = d Id and d = |det m| > 0 for a square integer matrix
    m, from bareiss on [m | Id], whose last pivot is +-det m; None when m is
    singular."""
    n = len(m)
    r, pivots, d, _ = bareiss([row + [int(i == j) for j in range(n)] for i, row in enumerate(m)])
    if pivots != list(range(n)):
        return None
    s = 1 if d > 0 else -1
    return s * d, [[s * x for x in row[n:]] for row in r]


def int_mul(a: Mat, b: Mat) -> Mat:
    """The product of two integer matrices."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def mat_mul(a: Mat, b: Mat) -> Mat:
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = a[i][0] * b[0][j]
            for t in range(1, k):
                s = s + a[i][t] * b[t][j]
            row.append(s)
        out.append(row)
    return out


def mat_vec(a: Mat, v: Vec) -> Vec:
    out = []
    for row in a:
        s = row[0] * v[0]
        for x, y in zip(row[1:], v[1:]):
            if x and y:
                s = s + x * y
        out.append(s)
    return out


def transpose(a: Mat) -> Mat:
    return [list(col) for col in zip(*a)]


def mat_eq(a: Mat, b: Mat) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


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
    return tuple(_reduced(den, part, depth) for depth, part in enumerate(parts))


def _reduced(den: int, part: list, depth: int) -> tuple:
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


def pfaffian(m: Mat, rows: tuple, memo: dict):
    """The Pfaffian of the antisymmetric matrix m on the index tuple rows,
    expanded along the first index, so 0 for an odd count, with no division;
    memo maps each index tuple met to its Pfaffian."""
    if not rows:
        return 1
    if rows not in memo:
        i, rest = rows[0], rows[1:]
        memo[rows] = sum(((-1) ** t * m[i][j] * pfaffian(m, rest[:t] + rest[t + 1:], memo)
                          for t, j in enumerate(rest) if m[i][j]), 0)
    return memo[rows]


def kernel_basis(rows: Mat, ncols: int | None = None) -> tuple[int, list]:
    """A basis of the right kernel {v : rows v = 0} over Q of an integer
    matrix, one vector per free column of the reduced row echelon form R / d
    of bareiss: 1 there and -R[i][fc] / d at the pivot of row i.  As an
    integer pair (|d|, [V_1, ...]) with the vectors V_k / |d|; ncols gives
    the width of an empty row list."""
    n = len(rows[0]) if rows else ncols or 0
    r, pivots, d, _ = bareiss(rows)
    s = 1 if d > 0 else -1
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[fc] = s * d
        for row, pc in zip(r, pivots):
            v[pc] = -s * row[fc]
        basis.append(v)
    return s * d, basis


def wedge_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def lambda2_matrix(q: Mat) -> Mat:
    """The map induced by q on wedge coordinates (e_i ^ e_j, i < j):
    entry [(i, j)][(k, l)] = q[i][k] q[j][l] - q[i][l] q[j][k]."""
    pairs = wedge_pairs(len(q))
    return [[q[i][k] * q[j][l] - q[i][l] * q[j][k] for k, l in pairs] for i, j in pairs]


# the Hodge star on wedge coordinates of an oriented orthonormal basis with
# norms (1, 1, -1, -1):  *(u1^u2) = u3^u4, *(u1^u3) = u2^u4, *(u1^u4) = -u2^u3,
# extended as an involution; rows and columns in wedge_pairs(4) order
_STAR_U = [[0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0], [0, 0, 0, -1, 0, 0],
           [0, 0, -1, 0, 0, 0], [0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0]]
# the Gram matrix P^T g P of such a basis P
ONB_GRAM = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]


def star_matrix(g: tuple, onb: tuple) -> tuple[int, Mat]:
    """The Hodge star on reference wedge coordinates for the oriented
    orthonormal basis with norms (1, 1, -1, -1), on integers: for g = G / D and
    the frame vectors U_a / E (g = (D, G), onb = (E, [U_1, ..., U_4])), with P
    the frame's columns, * = L(P) *_u L(P^-1) for L = lambda2_matrix, and
    P^-1 = ONB_GRAM P^T g because P^T g P = ONB_GRAM, so no inverse is formed.
    Returns (D^2 E^4, D^2 E^4 *)."""
    (dg, gm), (du, u) = g, onb
    if len(u) != 4:
        raise ValueError("hodge star is implemented for dimension 4")
    p_inv = int_mul(int_mul(ONB_GRAM, u), gm)
    return dg * dg * du ** 4, int_mul(int_mul(lambda2_matrix(transpose(u)), _STAR_U),
                                      lambda2_matrix(p_inv))


def j_structures(g: tuple, onb: tuple, sign: int = +1) -> tuple[int, list]:
    """The J-triple J_a = S_{sigma_a} for the unnormalized (anti-)self-dual basis
    sigma_1 = u1^u2 + s u3^u4, sigma_2 = u1^u3 + s u2^u4, sigma_3 = u1^u4 - s u2^u3
    (norms +-2, s the sign), where S_a = -A g for the antisymmetric matrix A of
    the 2-vector a (so g(S_a u, v) = <a, u ^ v>, with no inverse of g).  On
    integers: for g = (D, G) and onb = (E, [U_1, ..., U_4]) as in star_matrix,
    the triple (D E^2, [D E^2 J_1, D E^2 J_2, D E^2 J_3]), the form
    para.hyperboloid_combination reads.  With sign=+1 they satisfy J1^2 = -Id,
    J2^2 = J3^2 = Id and J3 = J2 J1."""
    (dg, gm), (du, u) = g, onb
    s = 1 if sign > 0 else -1
    ns = range(len(gm))
    out = []
    for (a, b), (c, d), t in (((0, 1), (2, 3), s), ((0, 2), (1, 3), s), ((0, 3), (1, 2), -s)):
        minus_a = [[u[b][k] * u[a][l] - u[a][k] * u[b][l]
                    + t * (u[d][k] * u[c][l] - u[c][k] * u[d][l]) for l in ns] for k in ns]
        out.append(int_mul(minus_a, gm))
    return dg * du * du, out


# -- serialization ----------------------------------------------------------------


def mat_to_strings(den: int, m: Mat) -> list[list[str]]:
    """The entries of the matrix m / den as rat_str prints them."""
    return [[rat_str(den, x) for x in row] for row in m]
