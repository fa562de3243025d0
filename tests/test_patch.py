"""Patch-level tensor calculus: brackets, exterior calculus, Courant bracket,
Nijenhuis tensors, and the integrability dichotomies."""

import random
from fractions import Fraction

import pytest

from paracomplex.exact import RatFunc, parse_ratfunc
from paracomplex.gpx import (
    GenEndo,
    omega_structure,
    pi_structure,
    product_structure,
    trivial_structure,
)
from paracomplex.linalg import Bilinear, Endo, TwoVector, mat_eq, mat_eval, mat_mul
from paracomplex.patch import (
    BiVectorField,
    GenSection,
    IntegrabilityReport,
    KForm,
    STRUCTURES,
    VField,
    b_bracket_residual,
    b_transform_section,
    classical_nijenhuis,
    courant_bracket,
    courant_jacobiator,
    double_contract,
    ext_deriv,
    frame_sections,
    gen_nijenhuis,
    gen_nijenhuis_frame_sweep,
    integrability_report,
    interior,
    is_poisson,
    lie_bracket,
    lie_deriv,
    poisson_jacobiator,
)

V = ["x1", "x2", "x3", "x4"]
N = 4


def rf(s):
    return parse_ratfunc(s, V)


def vf(*exprs):
    return VField([rf(s) for s in exprs])


def form1(comps):
    return KForm(N, 1, {(i,): rf(s) for i, s in comps.items()})


def form2(comps):
    return KForm(N, 2, {idx: rf(s) for idx, s in comps.items()})


def rnd_poly_field(rng, deg=2):
    def rnd_poly():
        terms = []
        for _ in range(rng.randint(1, 3)):
            e = [0] * N
            for _ in range(rng.randint(0, deg)):
                e[rng.randrange(N)] += 1
            c = rng.randint(-3, 3)
            if c:
                terms.append((tuple(e), c))
        s = " + ".join(
            "*".join([str(c)] + [f"x{i+1}^{k}" for i, k in enumerate(e) if k])
            for e, c in terms) or "0"
        return rf(s)

    return VField([rnd_poly() for _ in range(N)])


def rnd_section(rng, deg=2):
    x = rnd_poly_field(rng, deg)
    alpha = KForm(N, 1, {(i,): rnd_poly_field(rng, deg).components[0] for i in range(N)})
    return GenSection(x, alpha)


# -- Lie bracket --------------------------------------------------------------


def test_lie_bracket_constants():
    assert lie_bracket(VField.coordinate(0, N), VField.coordinate(1, N)).is_zero()


def test_lie_bracket_formula():
    x = vf("x2", "0", "0", "0")
    y = VField.coordinate(1, N)
    assert lie_bracket(x, y) == vf("-1", "0", "0", "0")


def test_lie_bracket_jacobi():
    rng = random.Random(31)
    for _ in range(3):
        x, y, z = (rnd_poly_field(rng) for _ in range(3))
        jac = (lie_bracket(lie_bracket(x, y), z)
               + lie_bracket(lie_bracket(y, z), x)
               + lie_bracket(lie_bracket(z, x), y))
        assert jac.is_zero()


# -- exterior derivative --------------------------------------------------------


def test_ext_deriv_basic():
    omega = form1({1: "x1"})  # x1 dx2
    assert ext_deriv(omega) == form2({(0, 1): "1"})


def test_ext_deriv_constant_2form():
    omega = form2({(0, 1): "1", (2, 3): "1"})
    assert ext_deriv(omega).is_zero()


def test_ext_deriv_squared_zero():
    rng = random.Random(32)
    for _ in range(4):
        alpha = KForm(N, 1, {(i,): rnd_poly_field(rng).components[0] for i in range(N)})
        assert ext_deriv(ext_deriv(alpha)).is_zero()


def test_interior_product_antiderivation():
    # i_X on dx1 ^ dx2 gives X^1 dx2 - X^2 dx1
    omega = form2({(0, 1): "1"})
    x = vf("x3", "5", "0", "0")
    assert interior(x, omega) == form1({1: "x3", 0: "-5"})


# -- Courant bracket --------------------------------------------------------------


def test_courant_restricts_to_lie():
    rng = random.Random(33)
    for _ in range(3):
        x, y = rnd_poly_field(rng), rnd_poly_field(rng)
        br = courant_bracket(GenSection.vector(x), GenSection.vector(y))
        assert br.x == lie_bracket(x, y)
        assert br.alpha.is_zero()


def test_courant_mixed_example():
    # [d1 + 0, 0 + x1 dx1] = 0 + dx1/2
    a = GenSection.vector(VField.coordinate(0, N))
    b = GenSection.form(form1({0: "x1"}))
    br = courant_bracket(a, b)
    assert br.x.is_zero()
    assert br.alpha == form1({0: "1/2"})


def test_courant_skew_symmetric():
    rng = random.Random(34)
    for _ in range(4):
        a, b = rnd_section(rng), rnd_section(rng)
        lhs = courant_bracket(a, b)
        rhs = courant_bracket(b, a)
        assert (lhs + rhs).is_zero()


def test_courant_jacobiator_witness():
    # frozen regression fixture: a nonzero Jacobiator triple
    a = GenSection.vector(vf("x2", "0", "0", "0"))
    b = GenSection.form(form1({1: "x1"}))
    c = GenSection.vector(VField.coordinate(1, N))
    jac = courant_jacobiator(a, b, c)
    assert jac.x.is_zero()
    assert jac.alpha == form1({1: "1/4"})


# -- generalized Nijenhuis -----------------------------------------------------------


def test_trivial_structure_integrable():
    ok, witnesses = gen_nijenhuis_frame_sweep(STRUCTURES["trivial"](N))
    assert ok and not witnesses


def test_omega_closed_integrable():
    omega = form2({(0, 1): "1", (2, 3): "1"})
    ok, _ = gen_nijenhuis_frame_sweep(STRUCTURES["omega"](omega))
    assert ok


def test_omega_nonclosed_not_integrable():
    omega = form2({(0, 1): "1", (2, 3): "x1"})
    ok, witnesses = gen_nijenhuis_frame_sweep(STRUCTURES["omega"](omega))
    assert not ok
    # evaluate one witness at a point with x1 = 1: nonzero there
    (pair, section) = next(iter(sorted(witnesses.items())))
    value = section.eval_at([Fraction(1), Fraction(0), Fraction(0), Fraction(0)])
    assert not value.is_zero()


def test_gen_nijenhuis_matches_classical_for_product():
    p_int = [[rf(c) for c in row] for row in
             [["0", "1", "0", "0"], ["1", "0", "0", "0"],
              ["0", "0", "0", "1"], ["0", "0", "1", "0"]]]
    k = STRUCTURES["product"](p_int)
    ok, _ = gen_nijenhuis_frame_sweep(k)
    assert ok
    p_bad = [[rf(c) for c in row] for row in
             [["0", "1", "0", "x1"], ["1", "0", "0-x1", "0"],
              ["0", "0", "0", "1"], ["0", "0", "1", "0"]]]
    k_bad = STRUCTURES["product"](p_bad)
    ok_bad, _ = gen_nijenhuis_frame_sweep(k_bad)
    assert not ok_bad
    nij = classical_nijenhuis(p_bad, VField.coordinate(0, N), VField.coordinate(2, N))
    assert nij == vf("1", "0", "0", "0")


def test_classical_nijenhuis_tensorial():
    rng = random.Random(35)
    p = [[rf(c) for c in row] for row in
         [["0", "1", "0", "x1"], ["1", "0", "0-x1", "0"],
          ["0", "0", "0", "1"], ["0", "0", "1", "0"]]]
    f = rf("x2^2 - 3*x4")
    x, y = rnd_poly_field(rng), rnd_poly_field(rng)
    lhs = classical_nijenhuis(p, x.scale(f), y)
    rhs = classical_nijenhuis(p, x, y).scale(f)
    assert lhs == rhs


# -- Poisson -------------------------------------------------------------------------


def test_constant_bivector_poisson():
    pi = BiVectorField(N, {(0, 1): rf("1"), (2, 3): rf("-2")})
    assert is_poisson(pi)


def test_linear_x1_bivector_not_poisson():
    pi = BiVectorField(N, {(0, 1): rf("1"), (2, 3): rf("x1")})
    jac = poisson_jacobiator(pi)
    assert (1, 2, 3) in jac
    assert jac[(1, 2, 3)] == rf("1")
    assert not is_poisson(pi)


def test_heisenberg_type_poisson():
    pi = BiVectorField(N, {(1, 2): rf("x1")})
    assert is_poisson(pi)


# -- B-transform bracket law ------------------------------------------------------------


def test_b_residual_closed_theta():
    rng = random.Random(36)
    theta = form2({(0, 1): "3", (1, 2): "-1/2"})
    assert ext_deriv(theta).is_zero()
    for _ in range(3):
        a, b = rnd_section(rng, deg=2), rnd_section(rng, deg=2)
        assert b_bracket_residual(theta, a, b).is_zero()


def test_b_residual_with_exact_correction():
    theta = form2({(1, 2): "x1"})  # x1 dx2 ^ dx3
    a = GenSection.vector(VField.coordinate(1, N))
    b = GenSection.vector(VField.coordinate(2, N))
    assert b_bracket_residual(theta, a, b).is_zero()
    correction = double_contract(ext_deriv(theta), a.x, b.x)
    assert correction == form1({0: "-1"})


def test_b_residual_random_sweep():
    rng = random.Random(37)
    for _ in range(12):
        theta = KForm(N, 2, {(i, j): rnd_poly_field(rng, deg=3).components[0]
                             for i in range(N) for j in range(i + 1, N)})
        a, b = rnd_section(rng, deg=3), rnd_section(rng, deg=3)
        assert b_bracket_residual(theta, a, b).is_zero()


# -- integrability dispatch ----------------------------------------------------------------


def test_report_trivial():
    rep = integrability_report("trivial", N)
    assert rep.integrable and rep.sweep_witnesses == {}


def test_report_omega_cases():
    good = integrability_report("omega", form2({(0, 1): "1", (2, 3): "1"}))
    assert good.integrable and good.sweep_witnesses == {} and good.witness is None
    bad = integrability_report("omega", form2({(0, 1): "1", (2, 3): "x1"}))
    assert not bad.integrable and bad.sweep_witnesses
    assert bad.witness is not None and bad.witness["d_omega_component"] == [1, 3, 4]


def test_report_pi_cases():
    good = integrability_report("pi", BiVectorField(N, {(0, 1): rf("1")}))
    assert good.integrable and good.sweep_witnesses == {}
    bad = integrability_report("pi", BiVectorField(N, {(0, 1): rf("1"), (2, 3): rf("x1")}))
    assert not bad.integrable and bad.sweep_witnesses
    assert bad.witness["jacobiator_triple"] == [2, 3, 4]


def test_report_product_cases():
    p_int = [[rf(c) for c in row] for row in
             [["0", "1", "0", "0"], ["1", "0", "0", "0"],
              ["0", "0", "0", "1"], ["0", "0", "1", "0"]]]
    good = integrability_report("product", p_int)
    assert good.integrable and good.sweep_witnesses == {}
    p_bad = [[rf(c) for c in row] for row in
             [["0", "1", "0", "x1"], ["1", "0", "0-x1", "0"],
              ["0", "0", "0", "1"], ["0", "0", "1", "0"]]]
    bad = integrability_report("product", p_bad)
    assert not bad.integrable and bad.sweep_witnesses


def test_report_agreement_criterion_vs_sweep():
    cases = [
        ("omega", form2({(0, 1): "1", (2, 3): "1"})),
        ("omega", form2({(0, 1): "1", (2, 3): "x1"})),
        ("pi", BiVectorField(N, {(0, 1): rf("1")})),
        ("pi", BiVectorField(N, {(0, 1): rf("1"), (2, 3): rf("x1")})),
    ]
    for kind, data in cases:
        rep = integrability_report(kind, data)
        assert rep.integrable == (not rep.sweep_witnesses)


def test_nijenhuis_tensoriality_for_courant_version():
    # function-rescaled sections: the frame-pair decision procedure relies on
    # N being tensorial; brute-force check on a rescaled pair
    omega = form2({(0, 1): "1", (2, 3): "x1"})
    k = STRUCTURES["omega"](omega)
    f = rf("1 + x2^2")
    a = GenSection.vector(VField.coordinate(0, N))
    b = GenSection.vector(VField.coordinate(2, N))
    scaled = GenSection(a.x.scale(f), a.alpha.scale(f))
    lhs = gen_nijenhuis(k, scaled, b)
    rhs = gen_nijenhuis(k, a, b)
    assert lhs.x == rhs.x.scale(f)
    assert lhs.alpha == rhs.alpha.scale(f)


# -- one constructor per kind, over Q and over rational functions ----------------


def test_patch_structures_evaluate_to_the_pointwise_constructors():
    """STRUCTURES[kind](data) at a point equals the gpx constructor applied to
    the data at that point."""
    omega = form2({(0, 1): "1 + x3^2", (2, 3): "1 + x1^2", (0, 2): "x2", (1, 3): "x4/2"})
    pi = BiVectorField(N, {(0, 1): rf("x3"), (1, 3): rf("x2*x4 - 1"), (2, 3): rf("1")})
    p_mat = [[rf(c) for c in row] for row in
             [["0", "1", "0", "x1"], ["1", "0", "0-x1", "0"],
              ["0", "0", "0", "1"], ["0", "0", "1", "0"]]]
    data = {"trivial": N, "omega": omega, "pi": pi, "product": p_mat}
    symbolic = {kind: STRUCTURES[kind](d) for kind, d in data.items()}
    rng = random.Random(61)
    checked = 0
    for _ in range(6):
        pt = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(N)]
        if (1 + pt[2] ** 2) * (1 + pt[0] ** 2) == pt[1] * pt[3] / 2:
            continue  # the Pfaffian of omega vanishes there
        pointwise = {
            "trivial": trivial_structure(N),
            "omega": omega_structure(Bilinear(
                [[omega.get((i, j)).eval_at(pt) for j in range(N)] for i in range(N)])),
            "pi": pi_structure(TwoVector(N, {k: c.eval_at(pt) for k, c in pi.comps.items()})),
            "product": product_structure(Endo(mat_eval(p_mat, pt))),
        }
        for kind, expected in pointwise.items():
            k = GenEndo.from_matrix(mat_eval(symbolic[kind].as_matrix(), pt))
            assert k == expected, (kind, pt)
        checked += 1
    assert checked >= 4
