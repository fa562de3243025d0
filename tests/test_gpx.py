"""Generalized paracomplex structures on T + T*: constructors, B-transforms,
generalized metrics, compatibility, extraction and assembly."""

import random
from fractions import Fraction

import pytest

from paracomplex.linalg import (
    lambda2_matrix,
    mat_add,
    mat_eq,
    mat_is_zero,
    mat_mul,
    mat_neg,
    mat_scale,
    mat_sub,
    mat_to_strings,
    mat_vec,
    transpose,
    wedge_pairs,
)
from paracomplex.para import random_compatible_structure
from paracomplex.reference import (
    Bilinear,
    Endo,
    GenEndo,
    GenVector,
    GeneralizedMetric,
    TwoVector,
    as_ints,
    assemble_endo,
    b_conjugate,
    b_transform,
    basis_vec,
    check_pi_conditions,
    classify_component,
    extract_pair,
    frac_mat,
    gen_metric,
    gen_pairing,
    is_compatible_endo,
    mat_from_columns,
    mat_identity,
    mat_inv,
    mat_rank,
    mat_zero,
    omega_structure,
    p_epsilon,
    pi_structure,
    product_structure,
    s_ij_endo,
    standard_para_structure,
    trivial_structure,
    validate_structure,
    vec_add,
    vec_scale,
    vertical_endo,
    z_tangent_project,
)


def random_endo(*args) -> Endo:
    """para.random_compatible_structure as an Endo in Fractions."""
    return Endo(frac_mat(*random_compatible_structure(*args)))


G = Bilinear.diag([1, 1, -1, -1])
ONB = [basis_vec(i, 4) for i in range(4)]
K_STD = standard_para_structure(2)
THETA0 = Bilinear.diag([0, 0, 0, 0])


def rnd_antisym(rng, n=4, lo=-4, hi=4):
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = Fraction(rng.randint(lo, hi), rng.randint(1, 3))
            m[i][j] = c
            m[j][i] = -c
    return Bilinear(m)


def rnd_gen_vector(rng, n=4):
    return GenVector(
        [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)],
        [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)],
    )


def rnd_neutral_metric(rng, n=4):
    """S^T diag(1,1,-1,-1) S for a random invertible rational S."""
    d = Bilinear.diag([1, 1, -1, -1])
    while True:
        s = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if mat_rank(s) == n:
            return Bilinear(mat_mul(transpose(s), mat_mul(d.mat, s))), s


def conjugated_structure(k0: Endo, s):
    s_inv = mat_inv(s)
    return Endo(mat_mul(s_inv, mat_mul(k0.mat, s)))


# -- pairing ---------------------------------------------------------------


def test_pairing_basic():
    e1 = GenVector.vector(basis_vec(0, 4))
    e1s = GenVector.covector(basis_vec(0, 4))
    assert gen_pairing(e1, e1s) == Fraction(1, 2)


def test_pairing_isotropic_tangent():
    rng = random.Random(1)
    a = GenVector.vector([Fraction(rng.randint(-3, 3)) for _ in range(4)])
    b = GenVector.vector([Fraction(rng.randint(-3, 3)) for _ in range(4)])
    assert gen_pairing(a, b) == 0


def test_pairing_on_metric_graph():
    rng = random.Random(2)
    e = gen_metric(G, THETA0)
    for _ in range(5):
        x = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        y = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        gx = GenVector(x, [sum(G.mat[i][j] * x[j] for j in range(4)) for i in range(4)])
        gy = GenVector(y, [sum(G.mat[i][j] * y[j] for j in range(4)) for i in range(4)])
        assert gen_pairing(gx, gy) == G.apply(x, y)


def pairing_matrix(n: int) -> list:
    """The matrix of <X + alpha, Y + beta> = (alpha(Y) + beta(X)) / 2 on T + T*."""
    half = mat_scale(Fraction(1, 2), mat_identity(n))
    z = mat_zero(n)
    return [rz + rh for rz, rh in zip(z, half)] + [rh + rz for rz, rh in zip(z, half)]


def test_pairing_signature_on_full_frame():
    from paracomplex.reference import signature

    assert signature(Bilinear(pairing_matrix(4))) == (4, 4, 0)


# -- constructors and validation ----------------------------------------------


def test_trivial_structure_valid():
    k = trivial_structure(4)
    assert all(validate_structure(k).values())
    a = GenVector([Fraction(1), Fraction(2), Fraction(0), Fraction(0)],
                  [Fraction(3), Fraction(0), Fraction(1), Fraction(0)])
    image = k.apply(a)
    assert image.x == a.x and image.alpha == [-c for c in a.alpha]


def test_product_structure_example():
    k = product_structure(K_STD)
    assert all(validate_structure(k).values())
    img = k.apply(GenVector.covector(basis_vec(2, 4)))
    # K_P(0 + e3*) = -P* e3* = -e1*
    assert img == GenVector.covector([-c for c in basis_vec(0, 4)])


def test_pi_structure_example():
    k = pi_structure(TwoVector.basis(0, 1, 4))
    assert all(validate_structure(k).values())
    img = k.apply(GenVector.covector(basis_vec(0, 4)))
    # K_pi(0 + e1*) = -i_{e1*} pi - e1* with i_{e1*}(e1 ^ e2) = e2
    expected = GenVector([Fraction(0), Fraction(-1), Fraction(0), Fraction(0)],
                         [-c for c in basis_vec(0, 4)])
    assert img == expected


def test_omega_structure_valid():
    omega = Bilinear([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    omega = Bilinear([[Fraction(x) for x in row] for row in omega.mat])
    k = omega_structure(omega)
    assert all(validate_structure(k).values())


def test_product_structure_rejects_non_involution():
    bad = Endo([[Fraction(2) if i == j else Fraction(0) for j in range(4)] for i in range(4)])
    with pytest.raises(ValueError, match=r"P\^2 != Id as a rational-function identity"):
        product_structure(bad)


def test_validate_rejects_complex_type_square():
    # block structure squaring to -Id is not a generalized paracomplex structure
    omega = Bilinear.diag([0, 0, 0, 0])
    j = trivial_structure(4)
    j.b = mat_identity(4)
    j.c = [[-x for x in row] for row in mat_identity(4)]
    j.a = [[Fraction(0)] * 4 for _ in range(4)]
    j.d = [[Fraction(0)] * 4 for _ in range(4)]
    assert not validate_structure(j)["square_is_identity"]


def bivector_from_symplectic(omega: Bilinear) -> TwoVector:
    """The 2-vector with (alpha ^ beta)(pi) = omega(omega^{-1} alpha, omega^{-1} beta):
    its full component matrix is the inverse of the omega map."""
    pi_full = mat_inv(omega.map_mat())
    n = omega.dim
    return TwoVector(n, {(i, j): pi_full[i][j] for (i, j) in wedge_pairs(n)})


def test_symplectic_bivector_reduces_to_omega_form():
    rng = random.Random(3)
    omega = rnd_antisym(rng)
    while True:
        try:
            omega_inv = mat_inv(omega.map_mat())
            break
        except ZeroDivisionError:
            omega = rnd_antisym(rng)
    pi = bivector_from_symplectic(omega)
    k = pi_structure(pi)
    for _ in range(5):
        a = rnd_gen_vector(rng)
        img = k.apply(a)
        expected = GenVector(
            [x + y for x, y in zip(a.x, [sum(omega_inv[i][j] * a.alpha[j] for j in range(4)) for i in range(4)])],
            [-c for c in a.alpha],
        )
        assert img == expected


# -- B-transforms -----------------------------------------------------------------


def test_b_transform_zero_is_identity():
    rng = random.Random(4)
    a = rnd_gen_vector(rng)
    assert b_transform(THETA0, a) == a


def test_b_transform_inverse_law():
    rng = random.Random(5)
    b = rnd_antisym(rng)
    minus = Bilinear([[-x for x in row] for row in b.mat])
    for _ in range(5):
        a = rnd_gen_vector(rng)
        assert b_transform(minus, b_transform(b, a)) == a


def test_b_transform_preserves_pairing():
    rng = random.Random(6)
    b = rnd_antisym(rng)
    for _ in range(8):
        u, v = rnd_gen_vector(rng), rnd_gen_vector(rng)
        assert gen_pairing(b_transform(b, u), b_transform(b, v)) == gen_pairing(u, v)


def test_b_conjugate_stays_valid():
    rng = random.Random(7)
    k = product_structure(K_STD)
    for _ in range(5):
        b = rnd_antisym(rng)
        assert all(validate_structure(b_conjugate(b, k)).values())


def test_b_conjugate_zero_and_involution():
    k = trivial_structure(4)
    assert b_conjugate(THETA0, k) == k
    rng = random.Random(8)
    b = rnd_antisym(rng)
    minus = Bilinear([[-x for x in row] for row in b.mat])
    assert b_conjugate(minus, b_conjugate(b, k)) == k


# -- generalized metrics --------------------------------------------------------------


def test_gen_metric_frame_and_signature():
    e = gen_metric(G, THETA0)
    gram = [[gen_pairing(u, v) for v in e.frame_prime] for u in e.frame_prime]
    assert mat_eq(gram, G.mat)


def test_gen_metric_orthogonal_complement():
    rng = random.Random(9)
    for _ in range(5):
        g, _ = rnd_neutral_metric(rng)
        theta = rnd_antisym(rng)
        e = gen_metric(g, theta)
        for u in e.frame_prime:
            for v in e.frame_dprime:
                assert gen_pairing(u, v) == 0


def test_gen_metric_misses_cotangent():
    rng = random.Random(10)
    g, _ = rnd_neutral_metric(rng)
    theta = rnd_antisym(rng)
    e = gen_metric(g, theta)
    # E' together with T* spans everything: E' cap T* = 0
    cols = [v.stacked() for v in e.frame_prime]
    cols += [GenVector.covector(basis_vec(i, 4)).stacked() for i in range(4)]
    assert mat_rank(mat_from_columns(cols)) == 8


def test_gen_metric_rejects_definite():
    with pytest.raises(ValueError, match=r"metric signature \(4, 0, 0\) is not neutral"):
        gen_metric(Bilinear.diag([1, 1, 1, 1]), THETA0)


def split_components(e: GeneralizedMetric, a: GenVector) -> tuple[GenVector, GenVector]:
    """Closed-formula E' and E'' components; the parts sum to the input."""
    g_map = e.g.map_mat()
    g_inv = mat_inv(g_map)
    th_map = e.theta.map_mat()
    half = Fraction(1, 2)
    x, alpha = a.x, a.alpha
    gi_th = mat_mul(g_inv, th_map)
    th_gi_th = mat_mul(th_map, gi_th)
    th_gi = mat_mul(th_map, g_inv)
    # vector-part contribution
    x_pr = vec_add(vec_scale(half, vec_add(x, vec_scale(Fraction(-1), mat_vec(gi_th, x)))),
                   vec_scale(half, mat_vec(g_inv, alpha)))
    al_pr = vec_add(
        vec_scale(half, vec_add(mat_vec(g_map, x), vec_scale(Fraction(-1), mat_vec(th_gi_th, x)))),
        vec_scale(half, vec_add(alpha, mat_vec(th_gi, alpha))),
    )
    prime = GenVector(x_pr, al_pr)
    dprime = a - prime
    return prime, dprime


def test_split_components_theta_zero():
    e = gen_metric(G, THETA0)
    x = [Fraction(2), Fraction(-1), Fraction(3), Fraction(0)]
    gx = [sum(G.mat[i][j] * x[j] for j in range(4)) for i in range(4)]
    prime, dprime = split_components(e, GenVector.vector(x))
    half = Fraction(1, 2)
    assert prime == GenVector([c * half for c in x], [c * half for c in gx])
    assert dprime == GenVector([c * half for c in x], [-c * half for c in gx])
    alpha = [Fraction(1), Fraction(0), Fraction(2), Fraction(-3)]
    ginva = [sum(mat_inv(G.mat)[i][j] * alpha[j] for j in range(4)) for i in range(4)]
    prime, dprime = split_components(e, GenVector.covector(alpha))
    assert prime == GenVector([c * half for c in ginva], [c * half for c in alpha])
    assert dprime == GenVector([-c * half for c in ginva], [c * half for c in alpha])


def test_split_components_matches_projection():
    rng = random.Random(11)
    for _ in range(5):
        g, _ = rnd_neutral_metric(rng)
        theta = rnd_antisym(rng)
        e = gen_metric(g, theta)
        a = rnd_gen_vector(rng)
        prime, dprime = split_components(e, a)
        assert prime + dprime == a
        # each part must lie in the span of its frame (oracle: rank check)
        fr = mat_from_columns([v.stacked() for v in e.frame_prime] + [prime.stacked()])
        assert mat_rank(fr) == 4
        fr2 = mat_from_columns([v.stacked() for v in e.frame_dprime] + [dprime.stacked()])
        assert mat_rank(fr2) == 4


# -- compatibility ----------------------------------------------------------------------


def theta_from_p(g, p):
    """Theta(X, Y) = g(X, P Y)."""
    return Bilinear(mat_mul(g.mat, p.mat))


def test_product_with_adapted_theta_compatible():
    theta = theta_from_p(G, K_STD)
    assert theta.is_antisymmetric()
    e = gen_metric(G, theta)
    k = product_structure(K_STD)
    assert is_compatible_endo(k, e)


def test_trivial_never_compatible():
    rng = random.Random(12)
    k = trivial_structure(4)
    for _ in range(5):
        g, _ = rnd_neutral_metric(rng)
        theta = rnd_antisym(rng)
        assert not is_compatible_endo(k, gen_metric(g, theta))


def test_omega_darboux_compatible():
    # Darboux omega and the hyperbolic pairing on the same basis (a_i, a_{n+i})
    omega = Bilinear([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    omega = Bilinear([[Fraction(x) for x in row] for row in omega.mat])
    g = Bilinear([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    g = Bilinear([[Fraction(x) for x in row] for row in g.mat])
    k = omega_structure(omega)
    assert is_compatible_endo(k, gen_metric(g, THETA0))


# -- extract / assemble -------------------------------------------------------------------


def test_extract_product_structure():
    theta = theta_from_p(G, K_STD)
    e = gen_metric(G, theta)
    k = product_structure(K_STD)
    k1, k2 = extract_pair(k, e)
    assert k1 == K_STD and k2 == K_STD


def test_extract_product_theta_zero():
    e = gen_metric(G, THETA0)
    k = product_structure(K_STD)
    k1, k2 = extract_pair(k, e)
    assert k1 == K_STD and k2 == K_STD


def test_extract_requires_compatibility():
    e = gen_metric(G, THETA0)
    with pytest.raises(ValueError, match="structure does not preserve the generalized metric"):
        extract_pair(trivial_structure(4), e)


def test_assemble_theta_zero_reduces_to_product():
    k = assemble_endo(G, THETA0, K_STD, K_STD)
    assert k == product_structure(K_STD)


def test_assemble_equals_b_conjugated_product():
    rng = random.Random(13)
    theta = rnd_antisym(rng)
    k = assemble_endo(G, theta, K_STD, K_STD)
    assert k == b_conjugate(theta, product_structure(K_STD))


def test_extract_inverts_assemble_randomized():
    rng = random.Random(14)
    for _ in range(10):
        g, s = rnd_neutral_metric(rng)
        onb_d = [basis_vec(i, 4) for i in range(4)]
        d = Bilinear.diag([1, 1, -1, -1])
        k1 = conjugated_structure(
            random_endo(as_ints(d.mat), as_ints(onb_d), rng,
                        +1 if rng.random() < 0.5 else -1), s)
        k2 = conjugated_structure(
            random_endo(as_ints(d.mat), as_ints(onb_d), rng,
                        +1 if rng.random() < 0.5 else -1), s)
        theta = rnd_antisym(rng)
        e = gen_metric(g, theta)
        k = assemble_endo(g, theta, k1, k2)
        assert all(validate_structure(k).values())
        assert is_compatible_endo(k, e)
        r1, r2 = extract_pair(k, e)
        assert r1 == k1 and r2 == k2


def test_reconstruction_identity_on_frames():
    rng = random.Random(15)
    g, s = rnd_neutral_metric(rng)
    d = Bilinear.diag([1, 1, -1, -1])
    onb_d = [basis_vec(i, 4) for i in range(4)]
    k1 = conjugated_structure(random_endo(as_ints(d.mat), as_ints(onb_d), rng), s)
    k2 = conjugated_structure(random_endo(as_ints(d.mat), as_ints(onb_d), rng), s)
    theta = rnd_antisym(rng)
    e = gen_metric(g, theta)
    k = assemble_endo(g, theta, k1, k2)
    g_map, th_map = g.map_mat(), theta.map_mat()
    for i in range(4):
        x = basis_vec(i, 4)
        k1x = k1.apply(x)
        lhs = k.apply(e.frame_prime[i])
        rhs = GenVector(k1x, [a + b for a, b in
                              zip([sum(g_map[r][c] * k1x[c] for c in range(4)) for r in range(4)],
                                  [sum(th_map[r][c] * k1x[c] for c in range(4)) for r in range(4)])])
        assert lhs == rhs


def test_b_conjugate_shifts_metric():
    rng = random.Random(16)
    theta = rnd_antisym(rng)
    b = rnd_antisym(rng)
    k = assemble_endo(G, theta, K_STD, K_STD)
    shifted = Bilinear([[x + y for x, y in zip(r1, r2)]
                        for r1, r2 in zip(theta.mat, b.mat)])
    assert is_compatible_endo(b_conjugate(b, k), gen_metric(G, shifted))


# -- example compatibility conditions ---------------------------------------------------------


def check_omega_compat(omega: Bilinear, g: Bilinear, theta: Bilinear):
    """True (with witness L = omega^{-1} (g + Theta)) iff L is a product
    structure reproducing g and Theta through
    g(X,Y) = (omega(LX,Y) - omega(X,LY)) / 2 and
    Theta(X,Y) = (omega(LX,Y) + omega(X,LY)) / 2."""
    omega_map = omega.map_mat()
    try:
        omega_inv = mat_inv(omega_map)
    except ZeroDivisionError as exc:
        raise ValueError("omega field is degenerate") from exc
    l_mat = mat_mul(omega_inv, mat_add(g.map_mat(), theta.map_mat()))
    ident = mat_identity(len(l_mat), like=l_mat[0][0])
    if not mat_eq(mat_mul(l_mat, l_mat), ident):
        return False, None
    if mat_eq(l_mat, ident) or mat_eq(l_mat, mat_neg(ident)):
        return False, None
    half = Fraction(1, 2)
    lt_om = mat_mul(transpose(l_mat), omega.mat)
    om_l = mat_mul(omega.mat, l_mat)
    g_back = mat_scale(half, mat_sub(lt_om, om_l))
    th_back = mat_scale(half, mat_add(lt_om, om_l))
    if mat_eq(g_back, g.mat) and mat_eq(th_back, theta.mat):
        return True, Endo(l_mat)
    return False, None


def test_check_omega_compat_darboux():
    omega = Bilinear([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    omega = Bilinear([[Fraction(x) for x in row] for row in omega.mat])
    g = Bilinear([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    g = Bilinear([[Fraction(x) for x in row] for row in g.mat])
    ok, witness = check_omega_compat(omega, g, THETA0)
    assert ok
    ident = mat_identity(4)
    assert mat_eq(mat_mul(witness.mat, witness.mat), ident)


def test_check_omega_compat_generic_false():
    rng = random.Random(17)
    count_false = 0
    for _ in range(5):
        omega = rnd_antisym(rng)
        try:
            mat_inv(omega.map_mat())
        except ZeroDivisionError:
            continue
        g, _ = rnd_neutral_metric(rng)
        theta = rnd_antisym(rng)
        ok, _ = check_omega_compat(omega, g, theta)
        if not ok:
            count_false += 1
    assert count_false >= 4


def test_omega_converse_construction():
    """Starting from a Darboux form and a product structure L, the forms
    g(X,Y) = (w(LX,Y) - w(X,LY))/2 and Theta(X,Y) = (w(LX,Y) + w(X,LY))/2
    give a generalized metric compatible with K_w, and the extracted K1 is
    w^{-1} (g + Theta) = L."""
    rng = random.Random(60)
    omega = Bilinear([[Fraction(x) for x in row] for row in
                      [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]])
    d = Bilinear.diag([1, 1, -1, -1])
    onb_d = [basis_vec(i, 4) for i in range(4)]
    built = 0
    for _ in range(10):
        l = random_endo(as_ints(d.mat), as_ints(onb_d), rng,
                        +1 if rng.random() < 0.5 else -1)
        lt_om = mat_mul(transpose(l.mat), omega.mat)
        om_l = mat_mul(omega.mat, l.mat)
        half = Fraction(1, 2)
        g_mat = [[(a - b) * half for a, b in zip(r1, r2)] for r1, r2 in zip(lt_om, om_l)]
        th_mat = [[(a + b) * half for a, b in zip(r1, r2)] for r1, r2 in zip(lt_om, om_l)]
        g = Bilinear(g_mat)
        if mat_rank(g_mat) < 4:
            continue
        theta = Bilinear(th_mat)
        assert g.is_symmetric() and theta.is_antisymmetric()
        ok, witness = check_omega_compat(omega, g, theta)
        assert ok and witness == Endo(l.mat)
        e = gen_metric(g, theta)
        kw = omega_structure(omega)
        assert is_compatible_endo(kw, e)
        k1, _ = extract_pair(kw, e)
        assert k1 == Endo(l.mat)
        built += 1
    assert built >= 5


def raise_form_to_bivector(g: Bilinear, form: Bilinear) -> TwoVector:
    """The 2-vector pi with <pi, X ^ Y>_{Lambda^2} = form(X, Y)."""
    n = g.dim
    pairs = wedge_pairs(n)
    rhs = [form.apply(basis_vec(p[0], n), basis_vec(p[1], n)) for p in pairs]
    sol = mat_vec(mat_inv(lambda2_matrix(g.mat)), rhs)
    return TwoVector(n, dict(zip(pairs, sol)))


def test_pi_from_para_hermitian_structure():
    """For a para-Hermitian (g, L), the bivector raised from the fundamental
    form w_L(X, Y) = g(X, LY) contracts as i_alpha pi = -L g^{-1} alpha, and
    K_pi is compatible with the metric built from Theta(X, Y) = g(X, LY)."""
    g = G
    l = K_STD
    omega_l = Bilinear(mat_mul(g.mat, l.mat))  # g(X, LY)
    pi = raise_form_to_bivector(g, omega_l)
    # contraction: the T* -> T block of K_pi equals +L g^{-1}
    k = pi_structure(pi)
    lg_inv = mat_mul(l.mat, mat_inv(g.mat))
    assert mat_eq(k.b, lg_inv)
    theta = omega_l
    assert theta.is_antisymmetric()
    assert is_compatible_endo(k, gen_metric(g, theta))


def test_check_omega_compat_agrees_with_is_compatible():
    rng = random.Random(18)
    agreements = 0
    for _ in range(20):
        omega = rnd_antisym(rng)
        try:
            mat_inv(omega.map_mat())
        except ZeroDivisionError:
            continue
        g, _ = rnd_neutral_metric(rng)
        theta = rnd_antisym(rng)
        ok, _ = check_omega_compat(omega, g, theta)
        kw = omega_structure(omega)
        assert ok == is_compatible_endo(kw, gen_metric(g, theta))
        agreements += 1
    assert agreements >= 15


NULL_G = Bilinear([[Fraction(0), Fraction(0), Fraction(1), Fraction(0)],
                   [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
                   [Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
                   [Fraction(0), Fraction(1), Fraction(0), Fraction(0)]])
NULL_BASIS = [basis_vec(i, 4) for i in range(4)]


def theta_for_pi(t, f12):
    m = [[Fraction(0)] * 4 for _ in range(4)]
    def put(i, j, v):
        m[i][j] = Fraction(v)
        m[j][i] = -Fraction(v)
    put(0, 1, -2)
    put(0, 2, t)      # Theta(e1, f1)
    put(1, 3, t)      # Theta(e2, f2)
    put(2, 3, f12)    # Theta(f1, f2)
    return Bilinear(m)


def test_check_pi_conditions_positive_instance():
    theta = theta_for_pi(1, 0)  # 2*0 = 1 - 1*1
    assert check_pi_conditions(NULL_G, NULL_BASIS, theta)


def test_check_pi_conditions_zero_theta12_fails():
    m = [[Fraction(0)] * 4 for _ in range(4)]
    assert not check_pi_conditions(NULL_G, NULL_BASIS, Bilinear(m))


def test_check_pi_conditions_agree_with_is_compatible():
    pi = TwoVector.basis(0, 1, 4)
    k = pi_structure(pi)
    cases = [
        theta_for_pi(1, 0),            # 2*0 = 1 - 1
        theta_for_pi(3, -4),           # 2*(-4) = 1 - 9
        theta_for_pi(1, 1),            # violates the quadratic relation
        theta_for_pi(1, 2),
        theta_for_pi(0, Fraction(1, 2)),
    ]
    for theta in cases:
        expected = check_pi_conditions(NULL_G, NULL_BASIS, theta)
        assert expected == is_compatible_endo(k, gen_metric(NULL_G, theta))


def check_product_compat(p: Endo, theta: Bilinear) -> bool:
    """Theta(PX, Y) + Theta(X, PY) = 0 on all basis pairs."""
    return mat_is_zero(mat_add(mat_mul(transpose(p.mat), theta.mat),
                               mat_mul(theta.mat, p.mat)))


def test_check_product_compat():
    from paracomplex.reference import null_basis

    theta = theta_from_p(G, K_STD)
    assert check_product_compat(K_STD, theta)
    assert check_product_compat(K_STD, THETA0)
    # commuting-type Theta = a1* ^ a2* on a null eigenbasis fails
    na = null_basis(G, K_STD)
    pinv = mat_inv(mat_from_columns(na))
    a1d, a2d = pinv[0], pinv[1]
    m = [[a1d[i] * a2d[j] - a1d[j] * a2d[i] for j in range(4)] for i in range(4)]
    theta_comm = Bilinear(m)
    assert not theta_comm.is_symmetric()
    assert not check_product_compat(K_STD, theta_comm)


def hat_metric_equiv(k: GenEndo, g: Bilinear) -> bool:
    """Skewness of K for the metric g-hat = g + g* on T + T*; equivalent to
    compatibility with the generalized metric {X + g(X)}."""
    n = g.dim
    g_star = mat_inv(g.mat)
    z = mat_zero(n, like=g.mat[0][0])
    ghat = [list(rg) + list(rz) for rg, rz in zip(g.mat, z)] + \
           [list(rz) + list(rs) for rz, rs in zip(z, g_star)]
    m = k.as_matrix()
    return mat_is_zero(mat_add(mat_mul(transpose(m), ghat), mat_mul(ghat, m)))


def test_hat_metric_equivalence():
    k_good = product_structure(K_STD)
    assert hat_metric_equiv(k_good, G)
    assert is_compatible_endo(k_good, gen_metric(G, THETA0))
    k_triv = trivial_structure(4)
    assert not hat_metric_equiv(k_triv, G)
    assert not is_compatible_endo(k_triv, gen_metric(G, THETA0))


def test_hat_metric_equiv_random_sweep():
    rng = random.Random(19)
    d = Bilinear.diag([1, 1, -1, -1])
    onb_d = [basis_vec(i, 4) for i in range(4)]
    checked = 0
    for _ in range(20):
        g, s = rnd_neutral_metric(rng)
        k1 = conjugated_structure(
            random_endo(as_ints(d.mat), as_ints(onb_d), rng), s)
        k2 = conjugated_structure(
            random_endo(as_ints(d.mat), as_ints(onb_d), rng), s)
        theta = rnd_antisym(rng)
        k = assemble_endo(g, theta, k1, k2)
        assert hat_metric_equiv(k, g) == is_compatible_endo(k, gen_metric(g, THETA0))
        checked += 1
    assert checked == 20


# -- fiber structures ---------------------------------------------------------------------------


def rnd_vertical(rng, g, k):
    raw = Endo([[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
                for _ in range(4)])
    return z_tangent_project(g, k, raw)


def test_p_epsilon_relations():
    rng = random.Random(20)
    e = gen_metric(G, THETA0)
    kpair = (K_STD, K_STD)
    for _ in range(5):
        v = (rnd_vertical(rng, G, K_STD), rnd_vertical(rng, G, K_STD))
        p2 = p_epsilon(2, kpair, e, v)
        p3 = p_epsilon(3, kpair, e, v)
        assert p3[0] == -p2[0] and p3[1] == -p2[1]
        p1 = p_epsilon(1, kpair, e, v)
        p1p1 = p_epsilon(1, kpair, e, p1)
        assert p1p1[0] == v[0] and p1p1[1] == v[1]
        # P2 flips only the E'' component relative to P1
        assert p_epsilon(2, kpair, e, v)[0] == p1[0]
        assert p_epsilon(2, kpair, e, v)[1] == -p1[1]


def test_p_epsilon_rejects_non_vertical():
    e = gen_metric(G, THETA0)
    with pytest.raises(ValueError, match="component is not tangent at the base structure"):
        p_epsilon(1, (K_STD, K_STD), e, (Endo(mat_identity(4)), Endo(mat_identity(4))))


def test_vertical_endo_acts_by_components():
    rng = random.Random(21)
    theta = rnd_antisym(rng)
    e = gen_metric(G, theta)
    v1 = rnd_vertical(rng, G, K_STD)
    v2 = rnd_vertical(rng, G, K_STD)
    w = vertical_endo(e, v1, v2)
    for i in range(4):
        img = w.apply(e.frame_prime[i])
        expected = GenVector([Fraction(0)] * 4, [Fraction(0)] * 4)
        for j in range(4):
            if v1.mat[j][i]:
                expected = expected + e.frame_prime[j].scale(v1.mat[j][i])
        assert img == expected


def test_classify_component():
    e = gen_metric(G, THETA0)
    swap = mat_identity(4)
    swap[2][2] = swap[3][3] = Fraction(0)
    swap[2][3] = swap[3][2] = Fraction(1)
    k_neg = Endo(mat_mul(swap, mat_mul(K_STD.mat, swap)))
    assert classify_component(assemble_endo(G, THETA0, K_STD, K_STD), e) == "++"
    assert classify_component(assemble_endo(G, THETA0, K_STD, k_neg), e) == "+-"
    assert classify_component(assemble_endo(G, THETA0, k_neg, K_STD), e) == "-+"
    assert classify_component(assemble_endo(G, THETA0, k_neg, k_neg), e) == "--"


def test_s_ij_endo_is_vertical_generator():
    from paracomplex.reference import is_fiber_tangent

    # S_12 + S_34 anti-commutes with the standard structure
    u = s_ij_endo(G, ONB, 0, 1) + s_ij_endo(G, ONB, 2, 3)
    assert is_fiber_tangent(G, K_STD, u)


def structure_to_descriptor(kind: str, **parts) -> dict:
    desc = {"schema": 1, "kind": kind}
    for name, value in parts.items():
        if isinstance(value, (Bilinear, Endo)):
            desc[name] = mat_to_strings(*as_ints(value.mat))
        elif isinstance(value, TwoVector):
            desc[name] = {f"{i + 1},{j + 1}": str(c) for (i, j), c in value.comps.items()}
        else:
            desc[name] = value
    return desc


def test_structure_descriptor_round_trip():
    desc = structure_to_descriptor("product", P=K_STD)
    assert desc["schema"] == 1 and desc["kind"] == "product"
    assert desc["P"] == [[str(x) for x in row] for row in K_STD.mat]
    pi = TwoVector.basis(0, 1, 4)
    desc_pi = structure_to_descriptor("pi", pi=pi)
    assert desc_pi["pi"] == {"1,2": "1"}
