"""Finite-dimensional linear algebra over the exact scalars.

Matrices are dense lists of lists whose entries are Fractions (pointwise
work) or RatFuncs (coordinate-patch work).  Dimensions stay at most 8, so
storage is dense; `mat_vec` skips zero products.  Over Q, `mat_mul` and the
elimination routines work on integer matrices over one common denominator and
build a Fraction only for each entry of the result: `mat_inv`, `mat_rank` and
`kernel_basis` read the one fraction-free elimination `bareiss`, and no
routine here inverts a matrix of rational functions.  The
pointwise curvature reads a field's jet (`int_jet`), the Hodge star
(`star_matrix`) and the J-triples (`j_structures`) as pairs (D, M) of a
positive denominator and an integer matrix, standing for M / D; `mat_jet` and
`frac_mat` give the Fraction view.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Sequence

from paracomplex.exact import RatFunc

Vec = list
Mat = list


class SingularMatrix(ZeroDivisionError):
    """Exact inversion of a singular matrix was attempted."""


# -- scalar helpers ---------------------------------------------------------


def zero_like(x):
    return RatFunc.zero(x.nvars) if isinstance(x, RatFunc) else Fraction(0)


def one_like(x):
    return RatFunc.one(x.nvars) if isinstance(x, RatFunc) else Fraction(1)


def sparse_add(comps: dict, key, value) -> None:
    """comps[key] += value in a dict of nonzero components; a zero sum drops key."""
    if not value:
        return
    if key in comps:
        value = comps[key] + value
    if value:
        comps[key] = value
    else:
        del comps[key]


# -- vectors ----------------------------------------------------------------


def vec_add(u: Vec, v: Vec) -> Vec:
    return [a + b for a, b in zip(u, v)]

def vec_scale(c, u: Vec) -> Vec:
    return [c * a for a in u]

def vec_eq(u: Vec, v: Vec) -> bool:
    return all(a == b for a, b in zip(u, v))

def basis_vec(i: int, n: int, like=Fraction(1)) -> Vec:
    z, o = zero_like(like), one_like(like)
    return [o if j == i else z for j in range(n)]


# -- matrices ----------------------------------------------------------------


def mat_zero(n: int, m: int | None = None, like=Fraction(1)) -> Mat:
    m = n if m is None else m
    z = zero_like(like)
    return [[z for _ in range(m)] for _ in range(n)]


def mat_identity(n: int, like=Fraction(1)) -> Mat:
    z, o = zero_like(like), one_like(like)
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def mat_add(a: Mat, b: Mat) -> Mat:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Mat, b: Mat) -> Mat:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a: Mat) -> Mat:
    return [[-x for x in row] for row in a]


def mat_scale(c, a: Mat) -> Mat:
    return [[c * x for x in row] for row in a]


def int_mats(mats) -> tuple[int, list]:
    """(D, [D m for m in mats]) with D the lcm of the entries' denominators, so
    every scaled matrix is an integer one; AttributeError for a RatFunc entry."""
    den = math.lcm(*(x.denominator for m in mats for row in m for x in row))
    return den, [[[x.numerator * (den // x.denominator) for x in row] for row in m]
                 for m in mats]


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


def int_mul(a: Mat, b: Mat) -> Mat:
    """The product of two integer matrices."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def mat_mul(a: Mat, b: Mat) -> Mat:
    try:
        (da, (ia,)), (db, (ib,)) = int_mats([a]), int_mats([b])
    except AttributeError:
        pass
    else:
        return frac_mat(da * db, int_mul(ia, ib))
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


def int_jet(a: Mat, point, order: int = 0) -> tuple:
    """A matrix of RatFuncs at the point on integers: ((D0, A),) with A / D0 the
    matrix A(p), then (D1, [dA_i]) with dA_i / D1 = d_i A(p) for order 1, then
    (D2, [[ddA_ik]]) with ddA_ik / D2 = d_i d_k A(p) for order 2, each over its
    least common denominator, from one RatFunc.jet_at per entry; each
    denominator factor's jet is computed once."""
    cache: dict = {}
    jets = [[c.jet_at(point, order, cache) for c in row] for row in a]
    den = math.lcm(*(d for row in jets for d, _ in row))
    jets = [[(den // d, j) for d, j in row] for row in jets]
    ns = range(len(point))
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


def frac_mat(den: int, m: Mat) -> Mat:
    """The Fraction matrix m / den of an integer matrix."""
    return [[Fraction(x, den) for x in row] for row in m]


def mat_jet(a: Mat, point, order: int = 0) -> tuple:
    """int_jet in Fractions: (A(p),), then [d_i A(p)] for order 1, then
    [[d_i d_j A(p)]] for order 2."""
    (d0, value), *rest = int_jet(a, point, order)
    out = (frac_mat(d0, value),)
    if order:
        out += ([frac_mat(rest[0][0], m) for m in rest[0][1]],)
    if order > 1:
        out += ([[frac_mat(rest[1][0], m) for m in row] for row in rest[1][1]],)
    return out


def mat_eval(a: Mat, point) -> Mat:
    """Values at the point of a matrix of RatFuncs."""
    return mat_jet(a, point)[0]


def mat_from_columns(cols: Sequence[Vec]) -> Mat:
    return [list(row) for row in zip(*cols)]


def mat_inv(a: Mat) -> Mat:
    """Exact inverse over Q, raising SingularMatrix when det = 0: it reads
    bareiss on [D a | I]."""
    n = len(a)
    den, (m,) = int_mats([a])
    r, pivots, d, _ = bareiss([row + [int(i == j) for j in range(n)] for i, row in enumerate(m)])
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is singular over the scalar field")
    return [[Fraction(den * x, d) for x in row[n:]] for row in r]


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


def mat_rank(a: Mat) -> int:
    """Rank over Q: the number of pivots of bareiss."""
    _, (m,) = int_mats([a])
    return len(bareiss(m)[1])


def kernel_basis(rows: Mat, ncols: int | None = None) -> list[Vec]:
    """Basis of the right kernel {v : rows v = 0} over Q, one vector per free
    column of the reduced row echelon form R / d of bareiss; ncols gives the
    width of an empty row list."""
    n = len(rows[0]) if rows else ncols or 0
    _, (m,) = int_mats([rows])
    r, pivots, d, _ = bareiss(m)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, pc in zip(r, pivots):
            v[pc] = Fraction(-row[fc], d)
        basis.append(v)
    return basis


# -- domain types -------------------------------------------------------------


class Bilinear:
    """Bilinear form on the reference basis; entries[i][j] = b(e_i, e_j)."""

    def __init__(self, mat: Mat):
        self.mat = [list(row) for row in mat]
        self.dim = len(mat)

    @staticmethod
    def diag(values) -> Bilinear:
        n = len(values)
        m = mat_zero(n, like=Fraction(1))
        for i, v in enumerate(values):
            m[i][i] = Fraction(v) if isinstance(v, int) else v
        return Bilinear(m)

    def apply(self, u: Vec, v: Vec):
        return sum((u[i] * self.mat[i][j] * v[j]
                    for i in range(self.dim) for j in range(self.dim)),
                   start=zero_like(self.mat[0][0]))

    def map_mat(self) -> Mat:
        """Matrix of the induced map T -> T*, X |-> b(X, .) in the dual basis."""
        return transpose(self.mat)

    def is_symmetric(self) -> bool:
        return mat_eq(self.mat, transpose(self.mat))

    def is_antisymmetric(self) -> bool:
        return mat_eq(self.mat, mat_neg(transpose(self.mat)))

    def __eq__(self, other):
        return isinstance(other, Bilinear) and mat_eq(self.mat, other.mat)

    def __repr__(self):
        return f"Bilinear({self.mat!r})"


class Endo:
    """Endomorphism acting on column vectors of the reference basis."""

    def __init__(self, mat: Mat):
        self.mat = [list(row) for row in mat]
        self.dim = len(mat)

    @staticmethod
    def identity(n: int, like=Fraction(1)) -> Endo:
        return Endo(mat_identity(n, like))

    def apply(self, v: Vec) -> Vec:
        return mat_vec(self.mat, v)

    def compose(self, other: Endo) -> Endo:
        return Endo(mat_mul(self.mat, other.mat))

    def __add__(self, other: Endo) -> Endo:
        return Endo(mat_add(self.mat, other.mat))

    def __sub__(self, other: Endo) -> Endo:
        return Endo(mat_sub(self.mat, other.mat))

    def __neg__(self) -> Endo:
        return Endo(mat_neg(self.mat))

    def scale(self, c) -> Endo:
        return Endo(mat_scale(c, self.mat))

    def trace(self):
        return sum((self.mat[i][i] for i in range(1, self.dim)),
                   start=self.mat[0][0])

    def is_zero(self) -> bool:
        return mat_is_zero(self.mat)

    def __eq__(self, other):
        return isinstance(other, Endo) and mat_eq(self.mat, other.mat)

    def __repr__(self):
        return f"Endo({self.mat!r})"


def is_g_skew(g: Bilinear, a: Endo) -> bool:
    """g(aX, Y) + g(X, aY) = 0, i.e. a^T g + g a = 0."""
    return mat_is_zero(mat_add(mat_mul(transpose(a.mat), g.mat),
                               mat_mul(g.mat, a.mat)))


def wedge_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


class TwoVector:
    """Element of Lambda^2 T with components on e_i ^ e_j, i < j."""

    def __init__(self, dim: int, comps: dict[tuple[int, int], object] | None = None):
        self.dim = dim
        self.comps: dict[tuple[int, int], object] = {}
        if comps:
            for (i, j), c in comps.items():
                if i == j:
                    continue
                if i > j:
                    i, j, c = j, i, -c
                sparse_add(self.comps, (i, j), c)

    @staticmethod
    def wedge(u: Vec, v: Vec) -> TwoVector:
        n = len(u)
        comps = {}
        for i in range(n):
            for j in range(i + 1, n):
                c = u[i] * v[j] - u[j] * v[i]
                if c:
                    comps[(i, j)] = c
        return TwoVector(n, comps)

    @staticmethod
    def basis(i: int, j: int, dim: int) -> TwoVector:
        return TwoVector(dim, {(i, j): Fraction(1)})

    def get(self, i: int, j: int):
        if i == j:
            return Fraction(0)
        if i < j:
            return self.comps.get((i, j), Fraction(0))
        c = self.comps.get((j, i), Fraction(0))
        return -c

    def __add__(self, other: TwoVector) -> TwoVector:
        comps = dict(self.comps)
        for k, c in other.comps.items():
            sparse_add(comps, k, c)
        return TwoVector(self.dim, comps)

    def __sub__(self, other: TwoVector) -> TwoVector:
        return self + other.scale(Fraction(-1))

    def __neg__(self) -> TwoVector:
        return self.scale(Fraction(-1))

    def scale(self, c) -> TwoVector:
        return TwoVector(self.dim, {k: c * v for k, v in self.comps.items()})

    def is_zero(self) -> bool:
        return not self.comps

    def __eq__(self, other):
        if not isinstance(other, TwoVector):
            return NotImplemented
        keys = set(self.comps) | set(other.comps)
        return all(self.get(*k) == other.get(*k) for k in keys)

    def __repr__(self):
        return f"TwoVector({self.comps!r})"


# -- form and 2-vector operations ------------------------------------------------


def signature(b: Bilinear) -> tuple[int, int, int]:
    """Sylvester inertia (positive, negative, null) by exact symmetric reduction."""
    if not b.is_symmetric():
        raise ValueError("signature requires a symmetric form")
    n = b.dim
    m = [list(row) for row in b.mat]
    active = list(range(n))
    pos = neg = 0
    while active:
        piv = next((i for i in active if m[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in active for j in active
                         if i != j and m[i][j]), None)
            if pair is None:
                break
            i, j = pair
            # congruence: e_i <- e_i + e_j makes the (i,i) entry 2 b(e_i, e_j)
            for k in range(n):
                m[i][k] = m[i][k] + m[j][k]
            for k in range(n):
                m[k][i] = m[k][i] + m[k][j]
            piv = i
        p = m[piv][piv]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for k in active:
            if k != piv and m[k][piv]:
                f = m[k][piv] / p
                for t in range(n):
                    m[k][t] = m[k][t] - f * m[piv][t]
                for t in range(n):
                    m[t][k] = m[t][k] - f * m[t][piv]
        active.remove(piv)
    null = n - pos - neg
    return pos, neg, null


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


def mat_to_strings(m: Mat, names: Sequence[str] | None = None) -> list[list[str]]:
    out = []
    for row in m:
        out.append([x.to_str(names) if isinstance(x, RatFunc) else str(x) for x in row])
    return out
