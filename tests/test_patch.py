"""Patch-level tensor calculus: brackets, exterior calculus, Courant bracket,
Nijenhuis tensors, and the integrability dichotomies."""

import random
from fractions import Fraction

import pytest

from paracomplex.exact import PoleAtPoint, RatFunc, parse_ratfunc
from paracomplex.gpx import (
    GenEndo,
    GenVector,
    omega_structure,
    pi_structure,
    product_structure,
    trivial_structure,
)
from paracomplex.linalg import (
    Bilinear,
    Endo,
    TwoVector,
    basis_vec,
    mat_eq,
    mat_eval,
    mat_identity,
    mat_jet,
    mat_mul,
    sparse_add,
    vec_add,
    vec_scale,
)
from paracomplex.patch import (
    BiVectorField,
    IntegrabilityReport,
    KForm,
    STRUCTURES,
    courant_on_jets,
    endo_jet,
    ext_deriv,
    gen_nijenhuis_frame_sweep,
    integrability_report,
    poisson_jacobiator,
)
from paracomplex.reference import (
    b_bracket_residual,
    classical_nijenhuis,
    courant_bracket,
    double_contract,
    gen_nijenhuis,
)

V = ["x1", "x2", "x3", "x4"]
N = 4


def rf(s):
    return parse_ratfunc(s, V)


def vf(*exprs):
    return [rf(s) for s in exprs]


def coord(i):
    return basis_vec(i, N, RatFunc.one(N))


def form1(comps):
    return KForm(N, 1, {(i,): rf(s) for i, s in comps.items()})


def comps1(form):
    """The component list of a 1-form."""
    return [form.get((i,)) for i in range(N)]


def form2(comps):
    return KForm(N, 2, {idx: rf(s) for idx, s in comps.items()})


def section_at(s, pt):
    """A section with RatFunc entries evaluated at the point."""
    return GenVector(*mat_eval([s.x, s.alpha], pt))


def endo_at(k, pt):
    """An endomorphism with RatFunc entries evaluated at the point."""
    return GenEndo.from_matrix(mat_eval(k.as_matrix(), pt))


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

    return [rnd_poly() for _ in range(N)]


def rnd_section(rng, deg=2):
    x = rnd_poly_field(rng, deg)
    alpha = [rnd_poly_field(rng, deg)[0] for _ in range(N)]
    return GenVector(x, alpha)


# -- the Cartan-formula Courant bracket: the oracle for courant_bracket --------------


def lie_bracket(x, y):
    """[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i."""
    comps = []
    for i in range(N):
        total = RatFunc.zero(N)
        for j in range(N):
            total = total + x[j] * y[i].partial(j)
            total = total - y[j] * x[i].partial(j)
        comps.append(total)
    return comps


def interior(x, omega):
    """i_X omega; the antiderivation with i_X dx^i = X^i."""
    out = KForm(N, max(omega.degree - 1, 0))
    for idx, c in omega.comps.items():
        for pos, i in enumerate(idx):
            term = c * x[i]
            sparse_add(out.comps, idx[:pos] + idx[pos + 1:], -term if pos % 2 else term)
    return out


def courant_oracle(a, b):
    """[X+a, Y+b] = [X,Y] + L_X b - L_Y a - d(i_X b - i_Y a)/2 with the Cartan
    formula L_X = d i_X + i_X d."""
    def lie_deriv(x, omega):
        return ext_deriv(interior(x, omega)) + interior(x, ext_deriv(omega))

    alpha = KForm(N, 1, {(i,): c for i, c in enumerate(a.alpha)})
    beta = KForm(N, 1, {(i,): c for i, c in enumerate(b.alpha)})
    half_d = ext_deriv(interior(a.x, beta) - interior(b.x, alpha)).scale(Fraction(1, 2))
    form = lie_deriv(a.x, beta) - lie_deriv(b.x, alpha) - half_d
    return GenVector(lie_bracket(a.x, b.x), comps1(form))


def oracle_nijenhuis(k, a, b):
    ka, kb = k.apply(a), k.apply(b)
    return (courant_oracle(a, b) + courant_oracle(ka, kb)
            - k.apply(courant_oracle(ka, b)) - k.apply(courant_oracle(a, kb)))


# -- Lie bracket --------------------------------------------------------------


def test_lie_bracket_constants():
    assert not any(lie_bracket(coord(0), coord(1)))


def test_lie_bracket_formula():
    x = vf("x2", "0", "0", "0")
    y = coord(1)
    assert lie_bracket(x, y) == vf("-1", "0", "0", "0")


def test_lie_bracket_jacobi():
    rng = random.Random(31)
    for _ in range(3):
        x, y, z = (rnd_poly_field(rng) for _ in range(3))
        jac = vec_add(vec_add(lie_bracket(lie_bracket(x, y), z),
                              lie_bracket(lie_bracket(y, z), x)),
                      lie_bracket(lie_bracket(z, x), y))
        assert not any(jac)


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
        alpha = KForm(N, 1, {(i,): rnd_poly_field(rng)[0] for i in range(N)})
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
        br = courant_bracket(GenVector.vector(x), GenVector.vector(y))
        assert br.x == lie_bracket(x, y)
        assert not any(br.alpha)


def test_courant_mixed_example():
    # [d1 + 0, 0 + x1 dx1] = 0 + dx1/2
    a = GenVector.vector(coord(0))
    b = GenVector.covector(comps1(form1({0: "x1"})))
    br = courant_bracket(a, b)
    assert not any(br.x)
    assert br.alpha == comps1(form1({0: "1/2"}))


def test_courant_skew_symmetric():
    rng = random.Random(34)
    for _ in range(4):
        a, b = rnd_section(rng), rnd_section(rng)
        lhs = courant_bracket(a, b)
        rhs = courant_bracket(b, a)
        assert (lhs + rhs).is_zero()


def courant_jacobiator(a: GenVector, b: GenVector, c: GenVector) -> GenVector:
    return (courant_bracket(courant_bracket(a, b), c)
            + courant_bracket(courant_bracket(b, c), a)
            + courant_bracket(courant_bracket(c, a), b))


def test_courant_jacobiator_witness():
    # frozen regression fixture: a nonzero Jacobiator triple
    a = GenVector.vector(vf("x2", "0", "0", "0"))
    b = GenVector.covector(comps1(form1({1: "x1"})))
    c = GenVector.vector(coord(1))
    jac = courant_jacobiator(a, b, c)
    assert not any(jac.x)
    assert jac.alpha == comps1(form1({1: "1/4"}))


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
    value = section_at(section, [Fraction(1), Fraction(0), Fraction(0), Fraction(0)])
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
    nij = classical_nijenhuis(p_bad, coord(0), coord(2))
    assert nij == vf("1", "0", "0", "0")


def test_classical_nijenhuis_tensorial():
    rng = random.Random(35)
    p = [[rf(c) for c in row] for row in
         [["0", "1", "0", "x1"], ["1", "0", "0-x1", "0"],
          ["0", "0", "0", "1"], ["0", "0", "1", "0"]]]
    f = rf("x2^2 - 3*x4")
    x, y = rnd_poly_field(rng), rnd_poly_field(rng)
    lhs = classical_nijenhuis(p, vec_scale(f, x), y)
    rhs = vec_scale(f, classical_nijenhuis(p, x, y))
    assert lhs == rhs


# -- Poisson -------------------------------------------------------------------------


def test_constant_bivector_poisson():
    pi = BiVectorField(N, {(0, 1): rf("1"), (2, 3): rf("-2")})
    assert not poisson_jacobiator(pi)


def test_linear_x1_bivector_not_poisson():
    pi = BiVectorField(N, {(0, 1): rf("1"), (2, 3): rf("x1")})
    jac = poisson_jacobiator(pi)
    assert (1, 2, 3) in jac
    assert jac[(1, 2, 3)] == rf("1")
    assert poisson_jacobiator(pi)


def test_heisenberg_type_poisson():
    pi = BiVectorField(N, {(1, 2): rf("x1")})
    assert not poisson_jacobiator(pi)


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
    a = GenVector.vector(coord(1))
    b = GenVector.vector(coord(2))
    assert b_bracket_residual(theta, a, b).is_zero()
    correction = double_contract(ext_deriv(theta), a.x, b.x)
    assert correction == comps1(form1({0: "-1"}))


def test_b_residual_random_sweep():
    rng = random.Random(37)
    for _ in range(12):
        theta = KForm(N, 2, {(i, j): rnd_poly_field(rng, deg=3)[0]
                             for i in range(N) for j in range(i + 1, N)})
        a, b = rnd_section(rng, deg=3), rnd_section(rng, deg=3)
        assert b_bracket_residual(theta, a, b).is_zero()


# -- integrability dispatch ----------------------------------------------------------------


def sweep_witnesses(kind, data):
    """The symbolic frame sweep's nonzero sections for a kind's patch data."""
    return gen_nijenhuis_frame_sweep(STRUCTURES[kind](data))[1]


def test_report_trivial():
    rep = integrability_report("trivial", N)
    assert rep.integrable and sweep_witnesses("trivial", N) == {}


def test_report_omega_cases():
    flat, open_ = form2({(0, 1): "1", (2, 3): "1"}), form2({(0, 1): "1", (2, 3): "x1"})
    good = integrability_report("omega", flat)
    assert good.integrable and sweep_witnesses("omega", flat) == {} and good.witness is None
    bad = integrability_report("omega", open_)
    assert not bad.integrable and sweep_witnesses("omega", open_)
    assert bad.witness is not None and bad.witness["d_omega_component"] == [1, 3, 4]


def test_report_pi_cases():
    const = BiVectorField(N, {(0, 1): rf("1")})
    linear = BiVectorField(N, {(0, 1): rf("1"), (2, 3): rf("x1")})
    good = integrability_report("pi", const)
    assert good.integrable and sweep_witnesses("pi", const) == {}
    bad = integrability_report("pi", linear)
    assert not bad.integrable and sweep_witnesses("pi", linear)
    assert bad.witness["jacobiator_triple"] == [2, 3, 4]


def test_report_product_cases():
    p_int = [[rf(c) for c in row] for row in
             [["0", "1", "0", "0"], ["1", "0", "0", "0"],
              ["0", "0", "0", "1"], ["0", "0", "1", "0"]]]
    good = integrability_report("product", p_int)
    assert good.integrable and sweep_witnesses("product", p_int) == {}
    p_bad = [[rf(c) for c in row] for row in
             [["0", "1", "0", "x1"], ["1", "0", "0-x1", "0"],
              ["0", "0", "0", "1"], ["0", "0", "1", "0"]]]
    bad = integrability_report("product", p_bad)
    assert not bad.integrable and sweep_witnesses("product", p_bad)


def test_report_agreement_criterion_vs_sweep():
    cases = [
        ("omega", form2({(0, 1): "1", (2, 3): "1"})),
        ("omega", form2({(0, 1): "1", (2, 3): "x1"})),
        ("pi", BiVectorField(N, {(0, 1): rf("1")})),
        ("pi", BiVectorField(N, {(0, 1): rf("1"), (2, 3): rf("x1")})),
    ]
    for kind, data in cases:
        rep = integrability_report(kind, data)
        assert rep.integrable == (not sweep_witnesses(kind, data))


def test_nijenhuis_tensoriality_for_courant_version():
    # function-rescaled sections: the frame-pair decision procedure relies on
    # N being tensorial; brute-force check on a rescaled pair
    omega = form2({(0, 1): "1", (2, 3): "x1"})
    k = STRUCTURES["omega"](omega)
    f = rf("1 + x2^2")
    a = GenVector.vector(coord(0))
    b = GenVector.vector(coord(2))
    scaled = a.scale(f)
    lhs = gen_nijenhuis(k, scaled, b)
    rhs = gen_nijenhuis(k, a, b)
    assert lhs.x == rhs.scale(f).x
    assert lhs.alpha == rhs.scale(f).alpha


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
            assert endo_at(symbolic[kind], pt) == expected, (kind, pt)
        checked += 1
    assert checked >= 4


# -- the Courant bracket on 1-jets against the Cartan-formula oracle ---------------


DENOMINATORS = ["1 + x1^2", "x2 + 3", "1 + x3*x4", "2 + x4^2 + x1"]


def rnd_rational_section(rng):
    """A linear section with two entries divided by a nonconstant polynomial."""
    s = rnd_section(rng, deg=1)
    entries = s.x + s.alpha
    for slot in rng.sample(range(2 * N), 2):
        entries[slot] = entries[slot] / rf(rng.choice(DENOMINATORS))
    return GenVector(entries[:N], entries[N:])


def test_courant_bracket_matches_the_cartan_oracle():
    rng = random.Random(71)
    pairs = [(rnd_section(rng), rnd_section(rng)) for _ in range(5)]
    pairs += [(rnd_rational_section(rng), rnd_rational_section(rng)) for _ in range(5)]
    for a, b in pairs:
        assert courant_bracket(a, b) == courant_oracle(a, b)
    assert any(c.factors for a, _ in pairs for c in a.x + a.alpha)
    # the same bracket on jets evaluated in Q at a point
    pt = [Fraction(1, 2), Fraction(-1), Fraction(2), Fraction(1, 3)]

    def jet_at(s):
        return [section_at(GenVector([c.partial(i) for c in s.x], [c.partial(i) for c in s.alpha]),
                           pt) for i in range(N)]

    for a, b in pairs[:3]:
        at = courant_on_jets(section_at(a, pt), jet_at(a), section_at(b, pt), jet_at(b))
        assert at == section_at(courant_bracket(a, b), pt)


SWEEP_FIXTURES = {
    "omega": form2({(0, 1): "1 + x3^2", (2, 3): "x1", (0, 2): "x2*x4", (1, 3): "x3"}),
    "pi": BiVectorField(N, {(0, 1): rf("x3"), (0, 2): rf("x2*x4"), (1, 3): rf("x1^2"),
                            (2, 3): rf("1/(1 + x2^2)")}),
    "product": [[rf(c) for c in row] for row in
                [["0", "1", "0", "x1"], ["1", "0", "0-x1", "0"],
                 ["0", "0", "0", "1"], ["0", "0", "1", "0"]]],
}


@pytest.mark.parametrize("kind", sorted(SWEEP_FIXTURES))
def test_sweep_witnesses_equal_the_oracle_nijenhuis(kind):
    k = STRUCTURES[kind](SWEEP_FIXTURES[kind])
    frames = [GenVector(e[:N], e[N:]) for e in mat_identity(2 * N, RatFunc.one(N))]
    expected = {}
    for i in range(len(frames)):
        for j in range(i + 1, len(frames)):
            n = oracle_nijenhuis(k, frames[i], frames[j])
            if not n.is_zero():
                expected[(i, j)] = n
    ok, witnesses = gen_nijenhuis_frame_sweep(k)
    assert not ok and expected
    assert sorted(witnesses) == sorted(expected)
    for pair, n in expected.items():
        assert witnesses[pair] == n, pair


def test_frame_sweep_differentiates_each_entry_of_k_once(monkeypatch):
    k = STRUCTURES["omega"](SWEEP_FIXTURES["omega"])
    nonconstant = sum(not c.is_const() for row in k.as_matrix() for c in row)
    calls = []
    original = RatFunc.partial

    def counting(self, i):
        calls.append(i)
        return original(self, i)

    monkeypatch.setattr(RatFunc, "partial", counting)
    ok, _ = gen_nijenhuis_frame_sweep(k)
    assert not ok and nonconstant
    assert len(calls) <= 4 * nonconstant


OMEGA_RATIONAL = form2({(0, 1): "x2", (0, 2): "x4", (2, 3): "1/(1 + x1^2)", (1, 3): "x3/(x2 - 3)"})


@pytest.mark.parametrize("kind,data", [
    ("omega", SWEEP_FIXTURES["omega"]), ("omega", OMEGA_RATIONAL),
    ("pi", SWEEP_FIXTURES["pi"]), ("product", SWEEP_FIXTURES["product"]),
], ids=["omega", "omega_rational", "pi", "product"])
def test_the_sweep_on_a_jet_at_a_point_equals_the_symbolic_sweep_there(kind, data):
    """N is a tensor: the sweep on K(p) and dK(p) in Q equals the symbolic
    sweep's sections evaluated at p, pair by pair, at seeded regular points."""
    k = STRUCTURES[kind](data)
    dk = endo_jet(k)
    _, symbolic = gen_nijenhuis_frame_sweep(k)
    rng = random.Random(83)
    checked = 0
    while checked < 4:
        pt = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(N)]
        try:
            expected = {pair: section_at(n, pt) for pair, n in symbolic.items()}
            k_at, dk_at = endo_at(k, pt), [endo_at(d, pt) for d in dk]
        except PoleAtPoint:
            continue
        ok, at = gen_nijenhuis_frame_sweep(k_at, dk_at)
        assert all(isinstance(c, Fraction) for n in at.values() for c in n.x + n.alpha)
        assert at == {pair: n for pair, n in expected.items() if not n.is_zero()}, pt
        assert not ok
        checked += 1
    # every fixture but P puts a denominator into K, so poles are possible
    assert any(c.factors for row in k.as_matrix() for c in row) == (kind != "product")


OMEGA_SQUARED = form2({(0, 1): "(1/(1 + x1^2))^2", (2, 3): "x2", (0, 3): "(x3/(x4 - 2))^3"})


@pytest.mark.parametrize("kind,data", [
    ("trivial", N), ("omega", SWEEP_FIXTURES["omega"]), ("omega", OMEGA_RATIONAL),
    ("omega", OMEGA_SQUARED), ("pi", SWEEP_FIXTURES["pi"]), ("product", SWEEP_FIXTURES["product"]),
], ids=["trivial", "omega", "omega_rational", "omega_squared", "pi", "product"])
def test_mat_jet_of_k_equals_the_evaluated_endo_jet(kind, data):
    """K(p) and dK(p) by Taylor arithmetic equal K and the symbolic partials
    endo_jet(K) evaluated at seeded regular points."""
    k = STRUCTURES[kind](data)
    m, dk = k.as_matrix(), [d.as_matrix() for d in endo_jet(k)]
    rng = random.Random(97)
    checked = 0
    while checked < 4:
        pt = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(N))
        try:
            want = (mat_eval(m, pt), [mat_eval(d, pt) for d in dk])
        except PoleAtPoint:
            continue
        assert mat_jet(m, pt, 1) == want, pt
        checked += 1
    if kind == "omega" and data is OMEGA_SQUARED:
        assert any(mult >= 2 for row in m for c in row for _, mult in c.factors.values())


@pytest.mark.parametrize("p_rows,integrable", [
    ([["1", "0", "0", "0"], ["-4*x1", "-1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "-1"]],
     True),
    ([["0", "1", "0", "x1"], ["1", "0", "0-x1", "0"], ["0", "0", "0", "1"], ["0", "0", "1", "0"]],
     False),
], ids=["integrable", "nonintegrable"])
def test_product_criterion_differentiates_each_entry_of_p_once(monkeypatch, p_rows, integrable):
    p = [[rf(c) for c in row] for row in p_rows]
    nonconstant = sum(not c.is_const() for row in p for c in row)
    calls = []
    original = RatFunc.partial

    def counting(self, i):
        calls.append(i)
        return original(self, i)

    monkeypatch.setattr(RatFunc, "partial", counting)
    rep = integrability_report("product", p)
    assert rep.integrable == integrable and nonconstant
    assert len(calls) <= N * nonconstant
