"""Paracomplex structures, adapted/null bases, and the fiber of compatible
structures."""

import itertools
import random
from fractions import Fraction

import pytest

from paracomplex.linalg import (
    mat_eq,
    mat_mul,
)
from paracomplex.para import (
    hyperboloid_draw,
    random_compatible_structure,
    validate_para,
)
from paracomplex.reference import (
    Bilinear,
    Endo,
    _positive_norm_vector,
    adapted_basis,
    anticommutes,
    as_ints,
    basis_vec,
    fiber_metric,
    fiber_tangent_dim,
    frac_mat,
    hyperboloid_coords,
    hyperboloid_structure,
    induced_orientation,
    is_fiber_tangent,
    j_triple,
    mat_identity,
    mat_zero,
    null_basis,
    orthogonal_complement,
    standard_para_structure,
    z_tangent_project,
)

G = Bilinear.diag([1, 1, -1, -1])
K_STD = standard_para_structure(2)
ONB = [basis_vec(i, 4) for i in range(4)]


def rnd_endo(rng, n=4):
    return Endo([[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(n)] for _ in range(n)])


def rnd_tangent(rng, g, k):
    return z_tangent_project(g, k, rnd_endo(rng, g.dim))


# -- validation ------------------------------------------------------------


def checks(g: Bilinear, k: Endo) -> dict:
    """validate_para of g and K in Fractions, on their integers."""
    return validate_para(as_ints(g.mat), as_ints(k.mat))


def test_validate_standard_structure():
    assert all(checks(G, K_STD).values())


def test_validate_identity_fails():
    report = checks(G, Endo(mat_identity(4)))
    assert not all(report.values())
    assert not report["not_plus_minus_identity"]


def test_validate_j1_fails_square():
    j1 = j_triple(G, ONB)[0]
    assert not checks(G, j1)["square_is_identity"]


def test_compatible_pair_reverses_norms():
    # g(KX, KY) = -g(X, Y) on all basis pairs
    for i in range(4):
        for j in range(4):
            x, y = basis_vec(i, 4), basis_vec(j, 4)
            assert G.apply(K_STD.apply(x), K_STD.apply(y)) == -G.apply(x, y)


# -- null basis --------------------------------------------------------------


def test_null_basis_standard_example():
    a = null_basis(G, K_STD)
    e = [basis_vec(i, 4) for i in range(4)]
    half = Fraction(1, 2)
    assert a[0] == [x + y for x, y in zip(e[0], e[2])]
    assert a[1] == [x + y for x, y in zip(e[1], e[3])]
    assert a[2] == [(x - y) * half for x, y in zip(e[0], e[2])]
    assert a[3] == [(x - y) * half for x, y in zip(e[1], e[3])]


def test_null_basis_pairings():
    a = null_basis(G, K_STD)
    n = 2
    for i in range(n):
        for j in range(n):
            assert G.apply(a[i], a[n + j]) == (1 if i == j else 0)
            assert G.apply(a[i], a[j]) == 0
            assert G.apply(a[n + i], a[n + j]) == 0


def test_null_basis_eigenvectors():
    a = null_basis(G, K_STD)
    for i in range(2):
        assert K_STD.apply(a[i]) == a[i]
        assert K_STD.apply(a[2 + i]) == [-x for x in a[2 + i]]


def test_adapted_basis_equal_eigendims():
    basis, norms = adapted_basis(G, K_STD)
    assert len(basis) == 4 and len(norms) == 2
    assert all(lam > 0 for lam in norms)


def positive_norm_vector_reference(g, basis):
    """_positive_norm_vector building every candidate vector in Fractions and
    taking its norm with g.apply: the reference for the integer Gram search."""
    for bound in (1, 2, 3, 5):
        candidates = sorted(
            (c for c in itertools.product(range(-bound, bound + 1), repeat=len(basis))
             if any(c) and max(abs(x) for x in c) == bound),
            key=lambda c: (sum(1 for x in c if x), sum(abs(x) for x in c),
                           sum(1 for x in c if x < 0), tuple(-x for x in c)))
        for coeffs in candidates:
            v = [Fraction(0)] * g.dim
            for c, b in zip(coeffs, basis):
                if c:
                    v = [x + c * y for x, y in zip(v, b)]
            if g.apply(v, v) > 0:
                return v
    return None


def test_positive_norm_vector_equals_the_fraction_search():
    """On complements of seeded spans in seeded symmetric forms, the search
    on the integer Gram matrix returns the vector of the Fraction search."""
    rng = random.Random(1402)
    for _ in range(24):
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
                for _ in range(4)]
        g = Bilinear([[rows[i][j] + rows[j][i] for j in range(4)] for i in range(4)])
        span = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(rng.randint(0, 2))]
        comp = orthogonal_complement(g.mat, span)
        assert _positive_norm_vector(g, comp) == positive_norm_vector_reference(g, comp)


def test_eigenspace_dimensions_are_equal():
    from paracomplex.linalg import mat_add, mat_scale, mat_sub
    from paracomplex.reference import mat_rank

    half = Fraction(1, 2)
    plus = mat_scale(half, mat_add(mat_identity(4), K_STD.mat))
    minus = mat_scale(half, mat_sub(mat_identity(4), K_STD.mat))
    assert mat_rank(plus) == mat_rank(minus) == 2


def test_null_basis_on_scaled_metric():
    # no unit-norm rational vectors here, the pairing normalization kicks in
    g = Bilinear.diag([2, 2, -2, -2])
    a = null_basis(g, K_STD)
    for i in range(2):
        for j in range(2):
            assert g.apply(a[i], a[2 + j]) == (1 if i == j else 0)


def test_degenerate_input_raises():
    with pytest.raises(ValueError, match="not a compatible paracomplex structure"):
        null_basis(G, Endo(mat_identity(4)))


# -- tangent projection --------------------------------------------------------


def test_project_fixes_tangent_vectors():
    rng = random.Random(21)
    v = rnd_tangent(rng, G, K_STD)
    assert z_tangent_project(G, K_STD, v) == v


def test_project_kills_base_point():
    assert z_tangent_project(G, K_STD, K_STD).is_zero()


def test_project_idempotent():
    rng = random.Random(22)
    for _ in range(6):
        a = rnd_endo(rng)
        once = z_tangent_project(G, K_STD, a)
        assert z_tangent_project(G, K_STD, once) == once
        assert is_fiber_tangent(G, K_STD, once)


# -- fiber structure and metric ----------------------------------------------------


def fiber_structure(k: Endo, v: Endo) -> Endo:
    """The fiber paracomplex structure at K applied to a tangent vector:
    V -> K V (composition); the result is again tangent at K."""
    if not anticommutes(k, v):
        raise ValueError("vector does not anti-commute with the base structure")
    return Endo(mat_mul(k.mat, v.mat))


def test_fiber_structure_squares_to_identity():
    rng = random.Random(23)
    v = rnd_tangent(rng, G, K_STD)
    assert fiber_structure(K_STD, fiber_structure(K_STD, v)) == v


def test_fiber_structure_output_tangent():
    rng = random.Random(24)
    for _ in range(5):
        v = rnd_tangent(rng, G, K_STD)
        assert is_fiber_tangent(G, K_STD, fiber_structure(K_STD, v))


def test_fiber_structure_rejects_non_tangent():
    with pytest.raises(ValueError, match="vector does not anti-commute with the base structure"):
        fiber_structure(K_STD, Endo(mat_identity(4)))


def test_fiber_structure_metric_compatible():
    rng = random.Random(25)
    for _ in range(5):
        v = rnd_tangent(rng, G, K_STD)
        w = rnd_tangent(rng, G, K_STD)
        lhs = fiber_metric(fiber_structure(K_STD, v), w)
        rhs = fiber_metric(v, fiber_structure(K_STD, w))
        assert lhs + rhs == 0


def test_fiber_structure_trace_zero_on_tangent_space():
    # the matrix of V -> KV in a basis of the tangent space has zero trace
    from paracomplex.reference import fiber_tangent_basis, mat_inv
    from paracomplex.linalg import mat_vec

    basis = fiber_tangent_basis(G, K_STD)
    flat = [[c for row in v.mat for c in row] for v in basis]
    cols = []
    for v in basis:
        image = fiber_structure(K_STD, v)
        target = [c for row in image.mat for c in row]
        # coordinates of the image in the tangent basis
        gram = [[sum(a * b for a, b in zip(u, w)) for w in flat] for u in flat]
        rhs = [sum(a * b for a, b in zip(u, target)) for u in flat]
        cols.append(mat_vec(mat_inv(gram), rhs))
    trace = sum(cols[i][i] for i in range(len(basis)))
    assert trace == 0


def test_fiber_metric_values():
    rng = random.Random(26)
    v = rnd_tangent(rng, G, K_STD)
    w = rnd_tangent(rng, G, K_STD)
    zero = Endo(mat_zero(4))
    assert fiber_metric(v, zero) == 0
    assert fiber_metric(v, w) == fiber_metric(w, v)
    # independent trace evaluation
    prod = mat_mul(v.mat, w.mat)
    expected = -sum(prod[i][i] for i in range(4)) / 2
    assert fiber_metric(v, w) == expected


def test_fiber_dimension_n2_and_n3():
    assert fiber_tangent_dim(G, K_STD) == 2
    g6 = Bilinear.diag([1, 1, 1, -1, -1, -1])
    assert fiber_tangent_dim(g6, standard_para_structure(3)) == 6


# -- orientation ----------------------------------------------------------------------


def test_standard_orientation_positive():
    assert induced_orientation(G, K_STD) == 1


def test_swapped_orientation_negative():
    # conjugate K by the swap e3 <-> e4
    swap = mat_identity(4)
    swap[2][2] = swap[3][3] = Fraction(0)
    swap[2][3] = swap[3][2] = Fraction(1)
    k_neg = Endo(mat_mul(swap, mat_mul(K_STD.mat, swap)))
    assert all(checks(G, k_neg).values())
    assert induced_orientation(G, k_neg) == -1


# -- hyperboloid model ------------------------------------------------------------------


def test_hyperboloid_axis_points():
    j1, j2, j3 = j_triple(G, ONB)
    assert hyperboloid_structure(G, ONB, 0, 1, 0) == j2
    assert hyperboloid_structure(G, ONB, 0, 0, 1) == j3


def test_hyperboloid_rational_point():
    k = hyperboloid_structure(G, ONB, Fraction(3, 4), Fraction(5, 4), 0)
    assert all(checks(G, k).values())
    assert mat_eq(mat_mul(k.mat, k.mat), mat_identity(4))


def test_hyperboloid_rejects_off_surface():
    with pytest.raises(ValueError, match=r"\(1, 1, 0\) is not on the hyperboloid"):
        hyperboloid_structure(G, ONB, 1, 1, 0)


def test_hyperboloid_draw_is_the_line_through_1_t():
    """(Y1, Y2, Y3) / E from hyperboloid_draw is (t, 1 + s, t + m s) with
    s = -2 (1 + m t) / (1 + m^2) for t, m = Fraction(randint(-6, 6),
    randint(1, 4)) from the same draws, on the hyperboloid with E > 0; the
    structure random_compatible_structure builds there is y1 J1 + y2 J2 + y3 J3."""
    ours, theirs = random.Random(71), random.Random(71)
    for _ in range(300):
        y1, y2, y3, e = hyperboloid_draw(ours)
        t = Fraction(theirs.randint(-6, 6), theirs.randint(1, 4))
        m = Fraction(theirs.randint(-6, 6), theirs.randint(1, 4))
        s = -2 * (1 + m * t) / (1 + m * m)
        assert e > 0 and -y1 * y1 + y2 * y2 + y3 * y3 == e * e
        assert (Fraction(y1, e), Fraction(y2, e), Fraction(y3, e)) == (t, 1 + s, t + m * s)
    assert ours.getstate() == theirs.getstate()
    for orientation in (1, -1):
        y1, y2, y3, e = hyperboloid_draw(random.Random(5))
        k = random_compatible_structure(as_ints(G.mat), as_ints(ONB), random.Random(5), orientation)
        j1, j2, j3 = j_triple(G, ONB, orientation)
        want = (j1.scale(y1) + j2.scale(y2) + j3.scale(y3)).scale(Fraction(1, e))
        assert Endo(frac_mat(*k)) == want


def test_hyperboloid_orientation_positive():
    for y in [(0, 1, 0), (Fraction(3, 4), Fraction(5, 4), 0), (Fraction(4, 3), 1, Fraction(4, 3))]:
        k = hyperboloid_structure(G, ONB, *y)
        assert induced_orientation(G, k) == 1


def test_hyperboloid_coordinate_round_trip():
    pts = [(0, 1, 0), (0, 0, 1), (Fraction(3, 4), Fraction(5, 4), 0),
           (Fraction(5, 12), Fraction(13, 12), 0)]
    for y in pts:
        k = hyperboloid_structure(G, ONB, *y)
        assert hyperboloid_coords(G, ONB, k) == tuple(Fraction(v) for v in y)
