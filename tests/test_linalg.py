"""Neutral-signature linear algebra: inertia, Lambda^2, Hodge machinery."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from paracomplex.exact import parse_ratfunc
from paracomplex.linalg import (
    SingularMatrix,
    bareiss,
    int_inv,
    kernel_basis,
    lambda2_matrix,
    mat_eq,
    mat_mul,
    mat_neg,
    mat_vec,
    pfaffian,
    star_matrix,
    transpose,
    wedge_pairs,
)
from paracomplex.reference import (
    Bilinear,
    Endo,
    TwoVector,
    as_ints,
    basis_vec,
    frac_mat,
    is_g_skew,
    j_triple,
    lambda2_inner,
    mat_det,
    mat_from_columns,
    mat_identity,
    mat_inv,
    mat_rank,
    mat_zero,
    signature,
)

G_DIAG = Bilinear.diag([1, 1, -1, -1])


def rnd_two_vector(rng, dim=4):
    comps = {}
    for (i, j) in wedge_pairs(dim):
        comps[(i, j)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return TwoVector(dim, comps)


# -- signature ---------------------------------------------------------------


def test_signature_diag():
    assert signature(G_DIAG) == (2, 2, 0)


def test_signature_zero_form():
    assert signature(Bilinear.diag([0, 0, 0, 0])) == (0, 0, 4)


def test_signature_null_frame():
    # g(e_i, f_j) = delta_ij on the basis (e1, e2, f1, f2)
    g = Bilinear([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    g = Bilinear([[Fraction(x) for x in row] for row in g.mat])
    assert signature(g) == (2, 2, 0)


def test_signature_rejects_nonsymmetric():
    b = Bilinear([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]])
    with pytest.raises(ValueError, match="signature requires a symmetric form"):
        signature(b)


# -- Lambda^2 inner product -----------------------------------------------------


def test_lambda2_inner_values():
    e12 = TwoVector.basis(0, 1, 4)
    e13 = TwoVector.basis(0, 2, 4)
    e34 = TwoVector.basis(2, 3, 4)
    assert lambda2_inner(G_DIAG, e12, e12) == 1
    assert lambda2_inner(G_DIAG, e13, e13) == -1
    assert lambda2_inner(G_DIAG, e12, e34) == 0


# -- S_a correspondence -----------------------------------------------------------


def endo_from_2vector(g: Bilinear, a: TwoVector) -> Endo:
    """The g-skew endomorphism S_a with g(S_a u, v) = <a, u ^ v> in Fractions:
    S_a = -A g for the antisymmetric matrix A of a; the reference for the
    J-triples of j_structures."""
    minus_a = mat_zero(g.dim)
    for (i, j), c in a.comps.items():
        minus_a[i][j], minus_a[j][i] = -c, c
    return Endo(mat_mul(minus_a, g.mat))


def sd_basis(onb, sign: int = +1) -> list:
    """Unnormalized (anti-)self-dual basis 2-vectors (norms +-2):
    sigma_1 = u1^u2 + s u3^u4, sigma_2 = u1^u3 + s u2^u4, sigma_3 = u1^u4 - s u2^u3."""
    s = Fraction(1 if sign > 0 else -1)
    w = lambda i, j: TwoVector.wedge(onb[i], onb[j])
    return [w(0, 1) + w(2, 3).scale(s), w(0, 2) + w(1, 3).scale(s), w(0, 3) - w(1, 2).scale(s)]


def test_endo_from_2vector_selfdual_generator():
    a = TwoVector.basis(0, 1, 4) + TwoVector.basis(2, 3, 4)
    s = endo_from_2vector(G_DIAG, a)
    e1 = basis_vec(0, 4)
    assert s.apply(e1) == basis_vec(1, 4)


def test_endo_from_2vector_zero():
    s = endo_from_2vector(G_DIAG, TwoVector(4))
    assert s.is_zero()


def test_endo_from_2vector_e13():
    s = endo_from_2vector(G_DIAG, TwoVector.basis(0, 2, 4))
    assert s.apply(basis_vec(0, 4)) == basis_vec(2, 4)


def test_endo_from_2vector_is_g_skew():
    rng = random.Random(11)
    for _ in range(10):
        a = rnd_two_vector(rng)
        s = endo_from_2vector(G_DIAG, a)
        assert is_g_skew(G_DIAG, s)


def test_endo_from_2vector_defining_identity():
    rng = random.Random(12)
    a = rnd_two_vector(rng)
    s = endo_from_2vector(G_DIAG, a)
    for u in range(4):
        for v in range(4):
            eu, ev = basis_vec(u, 4), basis_vec(v, 4)
            lhs = G_DIAG.apply(s.apply(eu), ev)
            rhs = lambda2_inner(G_DIAG, a, TwoVector.wedge(eu, ev))
            assert lhs == rhs


# -- Hodge star -------------------------------------------------------------------


ONB = [basis_vec(i, 4) for i in range(4)]


def star_reference(onb) -> list:
    """The Hodge star on wedge coordinates in Fractions, with the frame inverted:
    * = L(P) *_u L(P^-1) for P the frame's columns and L = lambda2_matrix."""
    p = mat_from_columns(onb)
    star_u = [[0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0], [0, 0, 0, -1, 0, 0],
              [0, 0, -1, 0, 0, 0], [0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0]]
    return mat_mul(lambda2_matrix(p), mat_mul(star_u, lambda2_matrix(mat_inv(p))))


def hodge_star(onb, a: TwoVector, g: Bilinear = G_DIAG) -> TwoVector:
    """The 2-vector *a for the oriented orthonormal basis onb of g (see star_matrix)."""
    if a.dim != 4:
        raise ValueError("hodge star is implemented for dimension 4")
    pairs = wedge_pairs(4)
    coords = mat_vec(frac_mat(*star_matrix(as_ints(g.mat), as_ints(onb))),
                     [a.get(i, j) for i, j in pairs])
    return TwoVector(4, dict(zip(pairs, coords)))


def selfdual_split(onb, a: TwoVector) -> tuple:
    """a = a+ + a- with *a+ = a+ and *a- = -a-, via (a +- *a)/2."""
    star = hodge_star(onb, a)
    half = Fraction(1, 2)
    return (a + star).scale(half), (a - star).scale(half)


def test_hodge_star_paper_rules():
    assert hodge_star(ONB, TwoVector.basis(0, 1, 4)) == TwoVector.basis(2, 3, 4)
    assert hodge_star(ONB, TwoVector.basis(0, 2, 4)) == TwoVector.basis(1, 3, 4)
    assert hodge_star(ONB, TwoVector.basis(0, 3, 4)) == -TwoVector.basis(1, 2, 4)


def test_hodge_star_involution():
    rng = random.Random(13)
    for (i, j) in wedge_pairs(4):
        a = TwoVector.basis(i, j, 4)
        assert hodge_star(ONB, hodge_star(ONB, a)) == a
    for _ in range(5):
        a = rnd_two_vector(rng)
        assert hodge_star(ONB, hodge_star(ONB, a)) == a


def test_hodge_star_requires_dim4():
    with pytest.raises(ValueError, match="hodge star is implemented for dimension 4"):
        hodge_star([basis_vec(i, 3) for i in range(3)], TwoVector(3))


def test_hodge_star_skew_basis():
    # the star computed in a non-coordinate orthonormal basis agrees with the
    # involution property and the split below
    onb = [
        [Fraction(5, 4), 0, Fraction(3, 4), 0],
        basis_vec(1, 4),
        [Fraction(3, 4), 0, Fraction(5, 4), 0],
        basis_vec(3, 4),
    ]
    onb = [[Fraction(x) for x in v] for v in onb]
    assert G_DIAG.apply(onb[0], onb[0]) == 1
    assert G_DIAG.apply(onb[2], onb[2]) == -1
    assert G_DIAG.apply(onb[0], onb[2]) == 0
    a = TwoVector.wedge(onb[0], onb[1]) + TwoVector.wedge(onb[2], onb[3])
    assert hodge_star(onb, a) == a


# -- self-dual split ----------------------------------------------------------------


def test_selfdual_split_basis_vector():
    a = TwoVector.basis(0, 1, 4)
    plus, minus = selfdual_split(ONB, a)
    half = Fraction(1, 2)
    assert plus == (TwoVector.basis(0, 1, 4) + TwoVector.basis(2, 3, 4)).scale(half)
    assert minus == (TwoVector.basis(0, 1, 4) - TwoVector.basis(2, 3, 4)).scale(half)


def test_selfdual_split_fixed_point():
    a = TwoVector.basis(0, 1, 4) + TwoVector.basis(2, 3, 4)
    plus, minus = selfdual_split(ONB, a)
    assert plus == a and minus.is_zero()


def test_sd_basis_norms():
    sig1, sig2, sig3 = sd_basis(ONB, +1)
    assert lambda2_inner(G_DIAG, sig1, sig1) == 2
    assert lambda2_inner(G_DIAG, sig2, sig2) == -2
    assert lambda2_inner(G_DIAG, sig3, sig3) == -2


def test_split_parts_orthogonal():
    rng = random.Random(14)
    for _ in range(8):
        a = rnd_two_vector(rng)
        plus, minus = selfdual_split(ONB, a)
        assert lambda2_inner(G_DIAG, plus, minus) == 0
        assert plus + minus == a


# -- J structures --------------------------------------------------------------------


def random_neutral_frame(rng) -> tuple:
    """(g, onb): g = S^T diag(1, 1, -1, -1) S for a random invertible integer S,
    and the columns of S^-1, an orthonormal frame of g with norms (1, 1, -1, -1)."""
    while True:
        s = [[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
        if mat_rank(s) == 4:
            break
    g = Bilinear(mat_mul(transpose(s), mat_mul(G_DIAG.mat, s)))
    return g, transpose(mat_inv(s))


def test_integer_star_and_j_triples_equal_the_fraction_references():
    """star_matrix reads P^-1 = ONB_GRAM P^T g on integers, and j_structures
    forms -A g on integers: both equal their Fraction references, with the
    frame inverted and S_a of each self-dual 2-vector, for seeded neutral
    metrics and frames of either orientation sign."""
    rng = random.Random(1907)
    for _ in range(12):
        g, onb = random_neutral_frame(rng)
        assert mat_mul(mat_mul(onb, g.mat), transpose(onb)) == G_DIAG.mat
        assert frac_mat(*star_matrix(as_ints(g.mat), as_ints(onb))) == star_reference(onb)
        for sign in (1, -1):
            assert j_triple(g, onb, sign) == [endo_from_2vector(g, a) for a in sd_basis(onb, sign)]


def test_j_structure_algebra():
    j1, j2, j3 = j_triple(G_DIAG, ONB)
    n = 4
    assert mat_eq(mat_mul(j1.mat, j1.mat), mat_neg(mat_identity(n)))
    assert mat_eq(mat_mul(j2.mat, j2.mat), mat_identity(n))
    assert mat_eq(mat_mul(j3.mat, j3.mat), mat_identity(n))
    assert mat_eq(mat_mul(j2.mat, j1.mat), j3.mat)
    # pairwise anticommutation
    for a, b in [(j1, j2), (j1, j3), (j2, j3)]:
        anti = mat_mul(a.mat, b.mat)
        anti2 = mat_mul(b.mat, a.mat)
        assert mat_eq(anti, mat_neg(anti2))


def test_endo_from_2vector_random_neutral_metric():
    # the defining identity and skewness hold for non-diagonal neutral metrics
    rng = random.Random(15)
    from paracomplex.linalg import transpose
    from paracomplex.reference import mat_rank

    d = G_DIAG
    while True:
        s = [[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
        if mat_rank(s) == 4:
            break
    g = Bilinear(mat_mul(transpose(s), mat_mul(d.mat, s)))
    for _ in range(5):
        a = rnd_two_vector(rng)
        sa = endo_from_2vector(g, a)
        assert is_g_skew(g, sa)
        for u in range(4):
            for v in range(4):
                eu, ev = basis_vec(u, 4), basis_vec(v, 4)
                assert g.apply(sa.apply(eu), ev) == lambda2_inner(
                    g, a, TwoVector.wedge(eu, ev))


def test_signature_congruence_invariance():
    # Sylvester inertia is invariant under congruence by invertible matrices
    rng = random.Random(16)
    from paracomplex.linalg import transpose
    from paracomplex.reference import mat_rank

    base = Bilinear.diag([1, 1, -1, 0])
    for _ in range(5):
        while True:
            s = [[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
            if mat_rank(s) == 4:
                break
        congruent = Bilinear(mat_mul(transpose(s), mat_mul(base.mat, s)))
        assert signature(congruent) == (2, 1, 1)


def test_rank_and_inverse():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = mat_inv(m)
    assert mat_eq(mat_mul(m, inv), mat_identity(2))
    assert mat_rank(m) == 2
    assert mat_rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1


# -- the integer kernels of mat_mul and mat_inv ------------------------------------


def gauss_jordan_inverse(a):
    """Fraction Gauss-Jordan inversion entry by entry: the reference for the
    integer kernel of mat_inv."""
    n = len(a)
    work = [[Fraction(x) for x in row] for row in a]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise SingularMatrix("matrix is singular over the scalar field")
        work[col], work[pivot] = work[pivot], work[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        p = work[col][col]
        work[col] = [x / p for x in work[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def gauss_jordan_det(a):
    """Fraction elimination with row swaps: the reference for mat_det."""
    n = len(a)
    work = [list(row) for row in a]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det = det * work[col][col]
        p = work[col][col]
        for r in range(col + 1, n):
            if work[r][col]:
                f = work[r][col] / p
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return det


def gauss_jordan_echelon(rows):
    """(reduced row echelon form, pivot columns) by Fraction Gauss-Jordan
    elimination: the reference for mat_rank and kernel_basis."""
    work = [list(r) for r in rows]
    m, n = len(work), len(work[0]) if work else 0
    pivots = []
    for col in range(n):
        row = len(pivots)
        if row == m:
            break
        piv = next((r for r in range(row, m) if work[r][col]), None)
        if piv is None:
            continue
        work[row], work[piv] = work[piv], work[row]
        p = work[row][col]
        work[row] = [x / p for x in work[row]]
        for r in range(m):
            if r != row and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[row])]
        pivots.append(col)
    return work, pivots


def gauss_jordan_kernel(rows, n):
    """The kernel basis read off the Fraction reduced echelon form."""
    work, pivots = gauss_jordan_echelon(rows)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -work[r][fc]
        basis.append(v)
    return basis


def schoolbook_product(a, b):
    return [[sum((Fraction(x) * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


def seeded_matrix(rng, n, m=None, kind="fraction"):
    """Sparse-ish entries: small and 64-bit Fractions, or plain ints."""
    def entry():
        if rng.random() < 0.25:
            return 0 if kind == "int" else Fraction(0)
        if kind == "int":
            return rng.choice([rng.randint(-9, 9), rng.randint(-2**64, 2**64)])
        if rng.random() < 0.5:
            return Fraction(rng.randint(-2**64, 2**64), rng.randint(1, 2**64))
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return [[entry() for _ in range(n if m is None else m)] for _ in range(n)]


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("kind", ["fraction", "int"])
def test_integer_kernels_equal_fraction_elimination(n, kind):
    rng = random.Random(1200 + n + len(kind))
    for _ in range(6):
        a, b = seeded_matrix(rng, n, kind=kind), seeded_matrix(rng, n, kind="fraction")
        assert mat_mul(a, b) == schoolbook_product(a, b)
        assert mat_mul(b, a) == schoolbook_product(b, a)
        try:
            want = gauss_jordan_inverse(a)
        except SingularMatrix:
            with pytest.raises(SingularMatrix):
                mat_inv(a)
            continue
        got = mat_inv(a)
        assert got == want and all(type(x) is Fraction for row in got for x in row)
    # a rectangular product of a 64-bit and a small matrix
    a, b = seeded_matrix(rng, n, 3), seeded_matrix(rng, 3, n)
    assert mat_mul(a, b) == schoolbook_product(a, b)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_singular_matrices_keep_the_message(n):
    """A row that is a rational combination of two others, or a zero column:
    SingularMatrix with the text of the Fraction elimination."""
    rng = random.Random(1300 + n)
    a = seeded_matrix(rng, n)
    c = Fraction(rng.randint(-2**64, 2**64), rng.randint(1, 2**64))
    a[n - 1] = [x + c * y for x, y in zip(a[0], a[1])]
    b = seeded_matrix(rng, n, kind="int")
    for row in b:
        row[2] = 0
    for m in (a, b):
        with pytest.raises(SingularMatrix, match=r"^matrix is singular over the scalar field$"):
            gauss_jordan_inverse(m)
        with pytest.raises(SingularMatrix, match=r"^matrix is singular over the scalar field$"):
            mat_inv(m)


def test_bareiss_inverse_is_the_adjugate_up_to_sign():
    """bareiss on [m | I] leaves R = [d Id | adj] with d = +-det m, on
    integers; a swap is needed at the first column."""
    m = [[0, 2, 1], [3, 1, 0], [1, 1, 1]]
    red, pivots, d, sign = bareiss([row + [int(i == j) for j in range(3)]
                                    for i, row in enumerate(m)])
    adj = [row[3:] for row in red]
    assert abs(d) == 4 and pivots == [0, 1, 2] and sign * d == -4
    assert [row[:3] for row in red] == [[d * (i == j) for j in range(3)] for i in range(3)]
    assert [[sum(x * y for x, y in zip(row, col)) for col in zip(*adj)] for row in m] == [
        [d * (i == j) for j in range(3)] for i in range(3)]
    with pytest.raises(SingularMatrix):
        mat_inv([[1, 2], [2, 4]])


@pytest.mark.parametrize("m,det", [
    ([[0, 2, 1], [3, 1, 0], [1, 1, 1]], -4),
    ([[2, 1, 0], [1, 3, 1], [0, 1, 4]], 18),
    ([[0, 1], [1, 0]], -1),
    ([[-3]], -3),
    ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], 1),
    ([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -5, 0, 0]], 5),
])
def test_int_inv_gives_a_positive_denominator(m, det):
    """int_inv(m) = (d, A) with d = |det m| > 0 and m A = d Id, for either
    sign of the determinant, so its callers keep their denominators positive
    without a sign of their own."""
    d, a = int_inv(m)
    n = len(m)
    assert d == abs(det) > 0
    assert [[sum(x * y for x, y in zip(row, col)) for col in zip(*a)] for row in m] == [
        [d * (i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("m", [[[1, 2], [2, 4]], [[0, 0], [0, 0]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]]])
def test_int_inv_of_a_singular_matrix_is_none(m):
    assert int_inv(m) is None


ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.builds(Fraction, st.integers(-2**64, 2**64), st.integers(1, 2**64)),
)


@st.composite
def q_matrices(draw):
    """(rows, ncols): a Q matrix up to 9 x 9, often square, dense, a product
    of thin factors (rank at most 3), or zero; rows may be an empty list."""
    nrows = draw(st.integers(0, 9))
    ncols = nrows if nrows and draw(st.booleans()) else draw(st.integers(1, 9))
    shape = draw(st.sampled_from(["dense", "thin", "zero"]))

    def block(r, c):
        return draw(st.lists(st.lists(ENTRIES, min_size=c, max_size=c), min_size=r, max_size=r))

    if shape == "zero":
        return [[Fraction(0)] * ncols for _ in range(nrows)], ncols
    if shape == "thin":
        k = draw(st.integers(1, 3))
        return schoolbook_product(block(nrows, k), block(k, ncols)), ncols
    return block(nrows, ncols), ncols


@given(q_matrices())
@settings(max_examples=60, deadline=None)
def test_bareiss_routines_equal_fraction_gauss_jordan(case):
    """mat_rank, kernel_basis, mat_det and mat_inv read bareiss and agree
    with Fraction Gauss-Jordan elimination, singular message included;
    kernel_basis reads the integer matrix over the least common denominator
    and gives its basis as an integer pair."""
    a, n = case
    assert mat_rank(a) == len(gauss_jordan_echelon(a)[1])
    e, basis = kernel_basis(as_ints(a)[1] if a else a, n)
    assert e > 0 and frac_mat(e, basis) == gauss_jordan_kernel(a, n)
    if len(a) != n:
        return
    det = mat_det(a)
    assert det == gauss_jordan_det(a) and type(det) is Fraction
    swapped = a[::-1]
    assert mat_det(swapped) == gauss_jordan_det(swapped)
    if n > 1:
        assert mat_det([a[1], a[0], *a[2:]]) == -det
    try:
        want = gauss_jordan_inverse(a)
    except SingularMatrix:
        assert det == 0
        with pytest.raises(SingularMatrix, match=r"^matrix is singular over the scalar field$"):
            mat_inv(a)
    else:
        assert det != 0 and mat_inv(a) == want


@pytest.mark.parametrize("n", range(1, 8))
def test_pfaffian_squares_to_the_determinant(n):
    """Pf(A)^2 = det A for antisymmetric A, so Pf = 0 for every odd n; the
    expansion also reads rational functions (Pf of a 4 x 4 form is
    a12 a34 - a13 a24 + a14 a23)."""
    rng = random.Random(40 + n)
    for _ in range(4):
        a = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j] = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.7 else 0
                a[j][i] = -a[i][j]
        pf = pfaffian(a, tuple(range(n)), {})
        assert pf ** 2 == mat_det(a) and (n % 2 == 0 or pf == 0)
    x = [parse_ratfunc(v, ["x1", "x2"]) for v in ("x1", "x2", "1 + x1*x2")]
    zero = parse_ratfunc("0", ["x1", "x2"])
    form = [[zero, x[0], x[1], x[2]], [-x[0], zero, zero, x[1]],
            [-x[1], zero, zero, x[0]], [-x[2], -x[1], -x[0], zero]]
    assert pfaffian(form, (0, 1, 2, 3), {}) == x[0] * x[0] - x[1] * x[1]  # a23 = 0
