"""Acceptance criteria for the full build, one test per criterion.

Every check is exact (tolerance zero); randomness is seeded so runs are
reproducible byte for byte.  Each criterion prints a single PASS line on
success (run with -s or -v to see them); a failed assertion fails the test.
"""

import json
import random
from fractions import Fraction

import pytest

from paracomplex.cli import main as cli_main
from paracomplex.curv import (
    MetricModel,
    constcurv_metric,
    curvature_operator,
    decompose,
    flat_metric,
    ppwave_metric,
    sectional_constant_check,
)
from paracomplex.exact import RatFunc, parse_ratfunc
from paracomplex.linalg import (
    mat_add,
    mat_eq,
    mat_is_zero,
    mat_mul,
    mat_scale,
    transpose,
)
from paracomplex.para import random_compatible_structure, validate_para
from paracomplex.patch import cyclic_sums, integrability_report
from paracomplex.theorem import theorem_verdict
from paracomplex.reference import (
    Bilinear,
    Endo,
    GenVector,
    KForm,
    STRUCTURES,
    _bilinear,
    as_ints,
    assemble_endo,
    b_bracket_residual,
    basis_vec,
    classical_nijenhuis,
    ext_deriv,
    extract_pair,
    fiber_tangent_dim,
    frac_mat,
    gen_metric,
    hitchin_connection,
    horizontal_np_residual,
    hyperboloid_structure,
    induced_orientation,
    int_point,
    is_compatible_endo,
    mat_eval,
    mat_identity,
    mat_inv,
    mat_rank,
    mat_zero,
    metricity_residual,
    s_ij_endo,
    standard_para_structure,
    symbolic_frame_sweep,
    twistor_mixed_nijenhuis,
    validate_structure,
)


def random_endo(*args) -> Endo:
    """para.random_compatible_structure as an Endo in Fractions."""
    return Endo(frac_mat(*random_compatible_structure(*args)))


def bivector(n: int, comps: dict) -> list:
    """The antisymmetric matrix pi^{ij} of a bivector field with the given
    components pi^{ij}, i < j, as a descriptor holds it."""
    pi = [[RatFunc.zero(n)] * n for _ in range(n)]
    for (i, j), c in comps.items():
        pi[i][j], pi[j][i] = c, -c
    return pi


def parts_sum(dec) -> list:
    """(s/12) Id + B + W of a curvature decomposition, in Fractions."""
    s = Fraction(dec.int_s[1], dec.int_s[0])
    return mat_add(mat_add(mat_scale(s / 12, mat_identity(6)), frac_mat(*dec.int_b)),
                   frac_mat(*dec.int_w))


V = ["x1", "x2", "x3", "x4"]
D = Bilinear.diag([1, 1, -1, -1])
ONB = [basis_vec(i, 4) for i in range(4)]
ORIGIN = (Fraction(0), Fraction(0), Fraction(0), Fraction(0))


def rf(s):
    return parse_ratfunc(s, V)


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def rnd_neutral_metric(rng):
    while True:
        s = [[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
        if mat_rank(s) == 4:
            return Bilinear(mat_mul(transpose(s), mat_mul(D.mat, s))), s


def conjugate(k0, s):
    return Endo(mat_mul(mat_inv(s), mat_mul(k0.mat, s)))


def rnd_antisym(rng):
    m = [[Fraction(0)] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            m[i][j] = c
            m[j][i] = -c
    return Bilinear(m)


def rnd_poly(rng, deg):
    terms = []
    for _ in range(rng.randint(1, 4)):
        e = [0, 0, 0, 0]
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(4)] += 1
        c = rng.randint(-3, 3)
        if c:
            mono = "*".join([str(c)] + [f"x{i+1}^{k}" for i, k in enumerate(e) if k])
            terms.append(mono)
    return rf(" + ".join(terms) or "0")


def rnd_section(rng, deg):
    x = [rnd_poly(rng, deg) for _ in range(4)]
    alpha = [rnd_poly(rng, deg) for _ in range(4)]
    return GenVector(x, alpha)


# -- criterion 1: extraction inverts assembly --------------------------------------


def test_acceptance_1_round_trip():
    rng = random.Random(101)
    for trial in range(50):
        g, s = rnd_neutral_metric(rng)
        k1 = conjugate(random_endo(as_ints(D.mat), as_ints(ONB), rng,
                                   +1 if rng.random() < 0.5 else -1), s)
        k2 = conjugate(random_endo(as_ints(D.mat), as_ints(ONB), rng,
                                   +1 if rng.random() < 0.5 else -1), s)
        theta = rnd_antisym(rng)
        e = gen_metric(g, theta)
        k = assemble_endo(g, theta, k1, k2)
        assert all(validate_structure(k).values()), trial
        assert is_compatible_endo(k, e), trial
        r1, r2 = extract_pair(k, e)
        assert r1 == k1 and r2 == k2, trial
    report(1, "extract_pair inverts assemble on 50 seeded random (g,Theta,K1,K2)")


# -- criterion 2: B-transform bracket law ------------------------------------------


def test_acceptance_2_b_transform_law():
    rng = random.Random(102)
    for trial in range(50):
        theta = KForm(4, 2, {(i, j): rnd_poly(rng, 3)
                             for i in range(4) for j in range(i + 1, 4)})
        a = rnd_section(rng, 3)
        b = rnd_section(rng, 3)
        assert b_bracket_residual(theta, a, b).is_zero(), trial
    report(2, "Courant bracket B-transform law holds for 50 seeded (Theta,A,B)")


# -- criterion 3: integrability dichotomies ------------------------------------------


def test_acceptance_3_integrability_dichotomies():
    omega_flat = KForm(4, 2, {(0, 1): rf("1"), (2, 3): rf("1")})
    omega_bad = KForm(4, 2, {(0, 1): rf("1"), (2, 3): rf("x1")})
    pi_const = bivector(4, {(0, 1): rf("1"), (2, 3): rf("-1")})
    pi_bad = bivector(4, {(0, 1): rf("1"), (2, 3): rf("x1")})
    p_int = [[rf(c) for c in row] for row in
             [["0", "1", "0", "0"], ["1", "0", "0", "0"],
              ["0", "0", "0", "1"], ["0", "0", "1", "0"]]]
    p_bad = [[rf(c) for c in row] for row in
             [["0", "1", "0", "x1"], ["1", "0", "0-x1", "0"],
              ["0", "0", "0", "1"], ["0", "0", "1", "0"]]]
    cases = [
        ("omega", _bilinear(omega_flat).mat, True),
        ("omega", _bilinear(omega_bad).mat, False),
        ("pi", pi_const, True),
        ("pi", pi_bad, False),
        ("product", p_int, True),
        ("product", p_bad, False),
    ]
    for kind, data, expected in cases:
        _, witness = integrability_report(kind, data)
        assert (witness is None) == expected, (kind, expected)
        ok, _ = symbolic_frame_sweep(STRUCTURES[kind](data))
        assert ok == expected, (kind, expected)
    # closed-form criteria agree with their oracles
    assert ext_deriv(omega_flat).is_zero() and not ext_deriv(omega_bad).is_zero()
    assert not cyclic_sums(pi_const, pi_const) and cyclic_sums(pi_bad, pi_bad)
    d1, d3 = (basis_vec(i, 4, RatFunc.one(4)) for i in (0, 2))
    assert not any(classical_nijenhuis(p_int, d1, d3))
    assert any(classical_nijenhuis(p_bad, d1, d3))
    report(3, "all six integrability dichotomies match the frame-pair sweep")


# -- criterion 4: Hitchin connection identities ----------------------------------------


def test_acceptance_4_hitchin_identities():
    theta = KForm(4, 2, {(1, 2): rf("x1")})
    m = flat_metric()
    conn, torsion = hitchin_connection(m.g, theta)
    assert metricity_residual(conn, m.g)
    dth = ext_deriv(theta)
    for i in range(4):
        for j in range(4):
            for z in range(4):
                lhs = RatFunc.zero(4)
                for k in range(4):
                    lhs = lhs + torsion.t[i][j][k] * m.g[k][z]
                assert lhs == dth.get((i, j, z))
    report(4, "nabla g = 0 and g(T(X,Y),Z) = dTheta(X,Y,Z) as identities")


# -- criterion 5: curvature decomposition ------------------------------------------------


def test_acceptance_5_curvature_decomposition():
    m = constcurv_metric(1)
    pts = [ORIGIN,
           (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
           (Fraction(1, 2), Fraction(1, 3), Fraction(-1), Fraction(2))]
    for p in pts:
        op = curvature_operator(m.g, int_point(p))
        rho_den, rho = op.int_rho
        assert Fraction(sum(rho[i][i] for i in range(4)), rho_den) == 12
        assert mat_eq(frac_mat(*op.int_ricci), mat_scale(Fraction(3), frac_mat(*op.int_g)))
        dec = decompose(op, m.onb_at(int_point(p)))
        assert mat_is_zero(dec.int_b[1])
        assert mat_is_zero(dec.int_w[1])
        assert sectional_constant_check(op) == (1, 1)
        assert mat_eq(parts_sum(dec), frac_mat(*op.int_mat))
    # seeded random square-diagonal perturbation: parts still re-sum exactly
    rng = random.Random(105)
    qs = []
    for _ in range(4):
        coeffs = [Fraction(rng.randint(-1, 1), rng.randint(2, 4)) for _ in range(2)]
        qs.append(rf(f"1 + {coeffs[0]}*x1 + {coeffs[1]}*x2"))
    z = RatFunc.zero(4)
    g = [[qs[0] * qs[0], z, z, z],
         [z, qs[1] * qs[1], z, z],
         [z, z, -(qs[2] * qs[2]), z],
         [z, z, z, -(qs[3] * qs[3])]]
    onb = [[RatFunc.one(4) / qs[i] if j == i else z for j in range(4)] for i in range(4)]
    model = MetricModel("perturbation", 4, g, onb)
    p = ORIGIN
    op2 = curvature_operator(g, int_point(p))
    dec2 = decompose(op2, model.onb_at(int_point(p)))
    assert mat_eq(parts_sum(dec2), frac_mat(*op2.int_mat))
    assert not mat_is_zero(op2.int_mat[1])
    report(5, "constant-curvature values pinned and parts re-sum exactly")


# -- criteria 6 and 7: theorem verdicts at desk scale --------------------------------------


def perturbed_model():
    q2 = rf("1 + x1*x2/2")
    q4 = rf("1 + x1/3")
    z = RatFunc.zero(4)
    g = [[RatFunc.one(4), z, z, z],
         [z, q2 * q2, z, z],
         [z, z, RatFunc.const(4, -1), z],
         [z, z, z, -(q4 * q4)]]
    onb = [
        [RatFunc.one(4), z, z, z],
        [z, RatFunc.one(4) / q2, z, z],
        [z, z, RatFunc.one(4), z],
        [z, z, z, RatFunc.one(4) / q4],
    ]
    return MetricModel("perturbed", 4, g, onb)


PERTURBED_JSON = {
    "vars": V,
    "g": [["1", "0", "0", "0"],
          ["0", "(1+x1*x2/2)^2", "0", "0"],
          ["0", "0", "-1", "0"],
          ["0", "0", "0", "-(1+x1/3)^2"]],
    "onb": [["1", "0", "0", "0"],
            ["0", "1/(1+x1*x2/2)", "0", "0"],
            ["0", "0", "1", "0"],
            ["0", "0", "0", "1/(1+x1/3)"]],
}


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def test_acceptance_6_theorem_mixed_component(tmp_path, capsys):
    m = constcurv_metric(1)
    pts = [ORIGIN,
           (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
           (Fraction(1, 2), Fraction(1, 3), Fraction(-1), Fraction(2))]
    out = theorem_verdict(m, {}, "+-", sample_points=[int_point(p) for p in pts],
                          seed=106, jklr_samples=200)
    assert out["evidence"]["jklr"] == {"samples": 200, "nonzero": 0}
    # perturbed metric: a nonzero residual shows up within 200 samples
    p = (Fraction(1), Fraction(1, 2), Fraction(0), Fraction(0))
    out = theorem_verdict(perturbed_model(), {}, "+-", sample_points=[int_point(p)],
                          seed=106, jklr_samples=200)
    assert out["evidence"]["jklr"]["nonzero"] > 0
    # cmd_theorem verdicts match
    code, rep = run_cli(capsys, "theorem", "constcurv:1", "--component", "+-",
                        "--samples", "10", "--seed", "6")
    assert code == 0 and rep["integrable"]
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(PERTURBED_JSON))
    code, rep = run_cli(capsys, "theorem", f"file:{path}", "--component", "+-",
                        "--samples", "10", "--seed", "6",
                        "--points", "1,1/2,0,0;0,0,0,0")
    assert code == 1 and not rep["integrable"]
    report(6, "mixed-component verdict: 200 zero samples on constcurv:1, "
              "witness on the perturbed metric, CLI verdicts match")


def test_acceptance_7_theorem_definite_component(capsys):
    m = ppwave_metric(rf("x2^2"))
    pts = [ORIGIN,
           (Fraction(1), Fraction(1, 2), Fraction(0), Fraction(2)),
           (Fraction(-1), Fraction(2), Fraction(1, 3), Fraction(0))]
    out = theorem_verdict(m, {}, "++", sample_points=[int_point(p) for p in pts],
                          seed=107, jklr_samples=200)
    assert out["evidence"]["jklr"] == {"samples": 200, "nonzero": 0}
    out = theorem_verdict(m, {}, "++", seed=7, jklr_samples=20)
    assert out["integrable"]
    assert out["evidence"]["jklr"]["nonzero"] == 0
    code, rep = run_cli(capsys, "theorem", "ppwave:x2^2", "--component", "++",
                        "--samples", "10", "--seed", "7")
    assert code == 0 and rep["integrable"]
    code, rep = run_cli(capsys, "theorem", "constcurv:1", "--component", "++",
                        "--samples", "10", "--seed", "7")
    assert code == 1 and not rep["integrable"]
    assert rep["evidence"]["ricci_zero"] is False
    report(7, "++ component: pp-wave fixture integrable over 200 samples, "
              "constcurv:1 rejected with Ricci evidence")


# -- criterion 8: never-integrable structures ------------------------------------------------


def test_acceptance_8_never_integrable_witness():
    e = gen_metric(D, Bilinear(mat_zero(4)))
    k_std = standard_para_structure(2)
    kpair = (k_std, k_std)
    u = s_ij_endo(D, ONB, 0, 1) + s_ij_endo(D, ONB, 2, 3)
    zero = Endo(mat_zero(4))
    q1_dd, q4_dd = e.frame_dprime[0], e.frame_dprime[3]
    q1_p, q4_p = e.frame_prime[0], e.frame_prime[3]
    for eps in (2, 4):
        out = twistor_mixed_nijenhuis(e, kpair, q1_dd, (zero, u), eps)
        assert out == q4_dd.scale(Fraction(2)), eps
    out3 = twistor_mixed_nijenhuis(e, kpair, q1_p, (u, zero), 3)
    assert out3 == q4_p.scale(Fraction(2))
    out1 = twistor_mixed_nijenhuis(e, kpair, q1_dd, (zero, u), 1)
    assert out1.is_zero()
    report(8, "mixed Nijenhuis witness equals 2*Q4''/2*Q4' for eps in {2,3,4}, 0 for eps=1")


# -- criterion 9: dTheta obstruction ----------------------------------------------------------


def test_acceptance_9_dtheta_obstruction():
    rng = random.Random(109)
    m = flat_metric()
    g_at = Bilinear(mat_eval(m.g, ORIGIN))
    onb = m.onb_at(int_point(ORIGIN))
    closed = KForm(4, 2, {(0, 1): rf("5"), (1, 3): rf("-2")})
    assert ext_deriv(closed).is_zero()
    for _ in range(20):
        s1 = random_endo(as_ints(g_at.mat), onb, rng,
                         +1 if rng.random() < 0.5 else -1)
        s2 = random_endo(as_ints(g_at.mat), onb, rng,
                         +1 if rng.random() < 0.5 else -1)
        a = GenVector([Fraction(rng.randint(-3, 3)) for _ in range(4)],
                      [Fraction(rng.randint(-3, 3)) for _ in range(4)])
        b = GenVector([Fraction(rng.randint(-3, 3)) for _ in range(4)],
                      [Fraction(rng.randint(-3, 3)) for _ in range(4)])
        assert horizontal_np_residual(m.g, closed, s1, s2, a, b, ORIGIN).is_zero()
    theta = KForm(4, 2, {(1, 2): rf("x1")})
    found = False
    for _ in range(60):
        s1 = random_endo(as_ints(g_at.mat), onb, rng,
                         +1 if rng.random() < 0.5 else -1)
        s2 = random_endo(as_ints(g_at.mat), onb, rng,
                         +1 if rng.random() < 0.5 else -1)
        a = GenVector([Fraction(rng.randint(-3, 3)) for _ in range(4)],
                      [Fraction(rng.randint(-3, 3)) for _ in range(4)])
        b = GenVector([Fraction(rng.randint(-3, 3)) for _ in range(4)],
                      [Fraction(rng.randint(-3, 3)) for _ in range(4)])
        if not horizontal_np_residual(m.g, theta, s1, s2, a, b, ORIGIN).is_zero():
            found = True
            break
    assert found
    report(9, "obstruction residual vanishes for closed Theta, witness found otherwise")


# -- criterion 10: fiber geometry ----------------------------------------------------------------


def test_acceptance_10_fiber_geometry():
    assert fiber_tangent_dim(D, standard_para_structure(2)) == 2
    g6 = Bilinear.diag([1, 1, 1, -1, -1, -1])
    assert fiber_tangent_dim(g6, standard_para_structure(3)) == 6
    pts = [(0, 1, 0),
           (Fraction(3, 4), Fraction(5, 4), 0),
           (Fraction(5, 12), 1, Fraction(5, 12))]
    for y in pts:
        k = hyperboloid_structure(D, ONB, *y)
        assert all(validate_para(as_ints(D.mat), as_ints(k.mat)).values())
        assert induced_orientation(D, k) == 1
    report(10, "fiber dimensions 2 and 6; hyperboloid points give valid +-structures")
