"""Patch-level tensor calculus: brackets, exterior calculus, Courant bracket,
Nijenhuis tensors, and the integrability dichotomies."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from paracomplex.exact import PoleAtPoint, RatFunc
from paracomplex.gpx import assemble, structure_jet, validate_gen_para
from paracomplex.linalg import (
    int_inv,
    int_jet,
    mat_add,
    mat_is_zero,
    mat_mul,
    mat_neg,
    mat_scale,
    mat_sub,
    transpose,
)
from paracomplex.parse import parse_ratfunc
from paracomplex.patch import (
    courant_on_jets,
    cyclic_sums,
    gen_nijenhuis_frame_sweep,
    integrability_report,
)
from paracomplex.reference import (
    Bilinear,
    Endo,
    GenEndo,
    GenVector,
    KForm,
    STRUCTURES,
    assemble_endo,
    b_bracket_residual,
    b_conjugate,
    basis_vec,
    classical_nijenhuis,
    courant_bracket,
    double_contract,
    endo_jet,
    eval_at,
    ext_deriv,
    frac_mat,
    gen_nijenhuis,
    int_mats,
    int_point,
    mat_eq,
    mat_eval,
    mat_identity,
    mat_rank,
    omega_structure,
    pi_structure,
    product_structure,
    sparse_add,
    symbolic_frame_sweep,
    trivial_structure,
    vec_add,
    vec_scale,
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


def bivector(n, comps):
    """The antisymmetric matrix pi^{ij} of a bivector field with the given
    components pi^{ij}, i < j."""
    pi = [[RatFunc.zero(n)] * n for _ in range(n)]
    for (i, j), c in comps.items():
        pi[i][j], pi[j][i] = c, -c
    return pi


def data_matrix(kind, data):
    """The n x n matrix of rational functions that a descriptor of the kind
    holds, which STRUCTURES, gpx.structure_jet and integrability_report read:
    omega(d_i, d_j) of a 2-form, zero for trivial given its variable count,
    the bivector's or P's matrix itself."""
    if isinstance(data, KForm):
        return [[data.get((i, j)) for j in range(data.nvars)] for i in range(data.nvars)]
    if kind == "trivial":
        return [[RatFunc.zero(data)] * data for _ in range(data)]
    return data


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
    lie_b, lie_a, d_b, d_a = (comps1(f) for f in (
        lie_deriv(a.x, beta), lie_deriv(b.x, alpha),
        ext_deriv(interior(a.x, beta)), ext_deriv(interior(b.x, alpha))))
    form = [u - v - (s - t) * Fraction(1, 2) for u, v, s, t in zip(lie_b, lie_a, d_b, d_a)]
    return GenVector(lie_bracket(a.x, b.x), form)


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
    ok, witnesses = symbolic_frame_sweep(STRUCTURES["trivial"](data_matrix("trivial", N)))
    assert ok and not witnesses


def test_omega_closed_integrable():
    omega = form2({(0, 1): "1", (2, 3): "1"})
    ok, _ = symbolic_frame_sweep(STRUCTURES["omega"](data_matrix("omega", omega)))
    assert ok


def test_omega_nonclosed_not_integrable():
    omega = form2({(0, 1): "1", (2, 3): "x1"})
    ok, witnesses = symbolic_frame_sweep(STRUCTURES["omega"](data_matrix("omega", omega)))
    assert not ok
    # evaluate one witness at a point with x1 = 1: nonzero there
    (pair, section) = next(iter(sorted(witnesses.items())))
    value = section_at(section, [Fraction(1), Fraction(0), Fraction(0), Fraction(0)])
    assert not value.is_zero()


def test_gen_nijenhuis_matches_classical_for_product():
    p_int = [[rf(c) for c in row] for row in
             [["0", "1", "0", "0"], ["1", "0", "0", "0"],
              ["0", "0", "0", "1"], ["0", "0", "1", "0"]]]
    k = STRUCTURES["product"](data_matrix("product", p_int))
    ok, _ = symbolic_frame_sweep(k)
    assert ok
    p_bad = [[rf(c) for c in row] for row in
             [["0", "1", "0", "x1"], ["1", "0", "0-x1", "0"],
              ["0", "0", "0", "1"], ["0", "0", "1", "0"]]]
    k_bad = STRUCTURES["product"](data_matrix("product", p_bad))
    ok_bad, _ = symbolic_frame_sweep(k_bad)
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


# -- d omega and the Poisson condition: one cyclic sum ------------------------------


# entries whose denominators share factors, (x1 - 1) with (x1^2 - 1) and its square: a
# sum of such RatFuncs prints in a form that depends on the order of its terms
SHARED_FACTOR_ENTRIES = ["x1", "1/(x1-1)", "x2/(x1^2-1)", "x3/(x1-1)^2", "1/(x1+1)", "x1*x2",
                         "2", "x4^2", "x3/(x1^2-1)", "(x2+1)/(x1-1)", "0", "x2/(x2-1)",
                         "x3*x4/(x1^2-1)^2", "x2*x3/(x1-1)"]


def rnd_antisymmetric(rng):
    """A seeded antisymmetric matrix of sums of SHARED_FACTOR_ENTRIES."""
    return bivector(N, {(i, j): rf("+".join(rng.choice(SHARED_FACTOR_ENTRIES)
                                            for _ in range(rng.randint(1, 3))))
                        for i in range(N) for j in range(i + 1, N)})


def jacobiator_loop(pi):
    """The Jacobiator components sum_l (pi^{li} d_l pi^{jk} + pi^{lj} d_l pi^{ki}
    + pi^{lk} d_l pi^{ij}) for i < j < k, summed l by l as the loop that
    cyclic_sums replaced did: the reference for its terms and their order."""
    n = len(pi)
    p = [[pi[i][j] if i < j else -pi[j][i] for j in range(n)] for i in range(n)]
    out = {}
    for i, j, k in itertools.combinations(range(n), 3):
        total = RatFunc.zero(n)
        for l in range(n):
            total = total + p[l][i] * p[j][k].partial(l)
            total = total + p[l][j] * p[k][i].partial(l)
            total = total + p[l][k] * p[i][j].partial(l)
        if not total.is_zero():
            out[(i, j, k)] = total
    return out


def test_cyclic_sums_are_the_exterior_derivative_term_for_term():
    """With X_i = d_i the sums are reference.ext_deriv of the sparse 2-form,
    with the same keys and the same printed values, also where the
    denominators share factors."""
    rng = random.Random(38)
    printed = 0
    for _ in range(60):
        m = rnd_antisymmetric(rng)
        want = ext_deriv(KForm(N, 2, {(i, j): m[i][j] for i in range(N)
                                      for j in range(i + 1, N)})).comps
        got = dict(cyclic_sums(m))
        assert sorted(got) == sorted(want)
        assert [got[k].to_str() for k in sorted(got)] == [want[k].to_str() for k in sorted(got)]
        printed += len(got)
    assert printed > 100


def test_cyclic_sums_of_a_bivector_are_its_jacobiator_term_for_term():
    """With X_i = sum_l pi^{li} d_l and m = pi the sums are the Jacobiator
    loop's, with the same printed values."""
    rng = random.Random(39)
    printed = 0
    for _ in range(30):
        pi = rnd_antisymmetric(rng)
        want, got = jacobiator_loop(pi), dict(cyclic_sums(pi, pi))
        assert sorted(got) == sorted(want)
        assert [got[k].to_str() for k in sorted(got)] == [want[k].to_str() for k in sorted(got)]
        printed += len(got)
    assert printed > 50


def test_cyclic_sums_read_only_entries_above_the_diagonal():
    m = bivector(N, {(0, 1): rf("x3"), (1, 2): rf("x1*x4")})
    below = [[c if i < j else RatFunc.zero(N) for j, c in enumerate(row)]
             for i, row in enumerate(m)]
    assert dict(cyclic_sums(below)) == dict(cyclic_sums(m)) == {(0, 1, 2): rf("x4+1"),
                                                                (1, 2, 3): rf("x1")}
    assert dict(cyclic_sums(below, below)) == dict(cyclic_sums(m, m)) == jacobiator_loop(m)


def test_constant_bivector_poisson():
    pi = bivector(N, {(0, 1): rf("1"), (2, 3): rf("-2")})
    assert not dict(cyclic_sums(pi, pi)) and not jacobiator_loop(pi)


def test_linear_x1_bivector_not_poisson():
    pi = bivector(N, {(0, 1): rf("1"), (2, 3): rf("x1")})
    jac = dict(cyclic_sums(pi, pi))
    assert list(jac) == [(1, 2, 3)]
    assert jac[(1, 2, 3)] == rf("1")
    assert jacobiator_loop(pi)


def test_heisenberg_type_poisson():
    pi = bivector(N, {(1, 2): rf("x1")})
    assert not dict(cyclic_sums(pi, pi)) and not jacobiator_loop(pi)


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
    return symbolic_frame_sweep(STRUCTURES[kind](data_matrix(kind, data)))[1]


def test_report_trivial():
    assert integrability_report("trivial", data_matrix("trivial", N)) == ("trivial", None)
    assert sweep_witnesses("trivial", N) == {}


def test_report_omega_cases():
    flat, open_ = form2({(0, 1): "1", (2, 3): "1"}), form2({(0, 1): "1", (2, 3): "x1"})
    good = integrability_report("omega", data_matrix("omega", flat))
    assert good == ("d_omega_zero", None) and sweep_witnesses("omega", flat) == {}
    criterion, witness = integrability_report("omega", data_matrix("omega", open_))
    assert criterion == "d_omega_zero" and sweep_witnesses("omega", open_)
    assert witness == {"d_omega_component": [1, 3, 4], "value": "1"}


def test_report_pi_cases():
    const = bivector(N, {(0, 1): rf("1")})
    linear = bivector(N, {(0, 1): rf("1"), (2, 3): rf("x1")})
    good = integrability_report("pi", data_matrix("pi", const))
    assert good == ("pi_poisson", None) and sweep_witnesses("pi", const) == {}
    criterion, witness = integrability_report("pi", data_matrix("pi", linear))
    assert criterion == "pi_poisson" and sweep_witnesses("pi", linear)
    assert witness == {"jacobiator_triple": [2, 3, 4], "value": "1"}


def test_report_product_cases():
    p_int = [[rf(c) for c in row] for row in
             [["0", "1", "0", "0"], ["1", "0", "0", "0"],
              ["0", "0", "0", "1"], ["0", "0", "1", "0"]]]
    good = integrability_report("product", data_matrix("product", p_int))
    assert good == ("p_nijenhuis_zero", None) and sweep_witnesses("product", p_int) == {}
    p_bad = [[rf(c) for c in row] for row in
             [["0", "1", "0", "x1"], ["1", "0", "0-x1", "0"],
              ["0", "0", "0", "1"], ["0", "0", "1", "0"]]]
    criterion, witness = integrability_report("product", data_matrix("product", p_bad))
    assert criterion == "p_nijenhuis_zero" and witness and sweep_witnesses("product", p_bad)


def test_report_agreement_criterion_vs_sweep():
    cases = [
        ("omega", form2({(0, 1): "1", (2, 3): "1"})),
        ("omega", form2({(0, 1): "1", (2, 3): "x1"})),
        ("pi", bivector(N, {(0, 1): rf("1")})),
        ("pi", bivector(N, {(0, 1): rf("1"), (2, 3): rf("x1")})),
    ]
    for kind, data in cases:
        _, witness = integrability_report(kind, data_matrix(kind, data))
        assert (witness is None) == (not sweep_witnesses(kind, data))


def test_nijenhuis_tensoriality_for_courant_version():
    # function-rescaled sections: the frame-pair decision procedure relies on
    # N being tensorial; brute-force check on a rescaled pair
    omega = form2({(0, 1): "1", (2, 3): "x1"})
    k = STRUCTURES["omega"](data_matrix("omega", omega))
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
    """STRUCTURES[kind](data_matrix(kind, data)) at a point equals the gpx constructor applied to
    the data at that point."""
    omega = form2({(0, 1): "1 + x3^2", (2, 3): "1 + x1^2", (0, 2): "x2", (1, 3): "x4/2"})
    pi = bivector(N, {(0, 1): rf("x3"), (1, 3): rf("x2*x4 - 1"), (2, 3): rf("1")})
    p_mat = [[rf(c) for c in row] for row in
             [["0", "1", "0", "x1"], ["1", "0", "0-x1", "0"],
              ["0", "0", "0", "1"], ["0", "0", "1", "0"]]]
    data = {"trivial": N, "omega": omega, "pi": pi, "product": p_mat}
    symbolic = {kind: STRUCTURES[kind](data_matrix(kind, d)) for kind, d in data.items()}
    rng = random.Random(61)
    checked = 0
    for _ in range(6):
        pt = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(N)]
        if (1 + pt[2] ** 2) * (1 + pt[0] ** 2) == pt[1] * pt[3] / 2:
            continue  # the Pfaffian of omega vanishes there
        pointwise = {
            "trivial": trivial_structure(N),
            "omega": omega_structure(Bilinear(
                [[eval_at(omega.get((i, j)), pt) for j in range(N)] for i in range(N)])),
            "pi": pi_structure([[eval_at(c, pt) for c in row] for row in pi]),
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
        want = section_at(courant_bracket(a, b), pt).scale(Fraction(2)).stacked()
        values, partials = ([s.stacked() for s in ss] for ss in
                            ([section_at(a, pt), section_at(b, pt)], jet_at(a) + jet_at(b)))
        assert courant_on_jets(values[0], partials[:N], values[1], partials[N:]) == want
        # on the integers of values V / D and partials dV / E it gives 2 D E [A, B]
        (d, (vi,)), (e, (pi,)) = int_mats([values]), int_mats([partials])
        twice = courant_on_jets(vi[0], pi[:N], vi[1], pi[N:])
        assert all(isinstance(c, int) for c in twice)
        assert [Fraction(c, d * e) for c in twice] == want


SWEEP_FIXTURES = {
    "omega": form2({(0, 1): "1 + x3^2", (2, 3): "x1", (0, 2): "x2*x4", (1, 3): "x3"}),
    "pi": bivector(N, {(0, 1): rf("x3"), (0, 2): rf("x2*x4"), (1, 3): rf("x1^2"),
                            (2, 3): rf("1/(1 + x2^2)")}),
    "product": [[rf(c) for c in row] for row in
                [["0", "1", "0", "x1"], ["1", "0", "0-x1", "0"],
                 ["0", "0", "0", "1"], ["0", "0", "1", "0"]]],
}


@pytest.mark.parametrize("kind", sorted(SWEEP_FIXTURES))
def test_sweep_witnesses_equal_the_oracle_nijenhuis(kind):
    k = STRUCTURES[kind](data_matrix(kind, SWEEP_FIXTURES[kind]))
    frames = [GenVector(e[:N], e[N:]) for e in mat_identity(2 * N, RatFunc.one(N))]
    expected = {}
    for i in range(len(frames)):
        for j in range(i + 1, len(frames)):
            n = oracle_nijenhuis(k, frames[i], frames[j])
            if not n.is_zero():
                expected[(i, j)] = n
    ok, witnesses = symbolic_frame_sweep(k)
    assert not ok and expected
    assert sorted(witnesses) == sorted(expected)
    for pair, n in expected.items():
        assert witnesses[pair] == n, pair


def test_frame_sweep_differentiates_each_entry_of_k_once(monkeypatch):
    k = STRUCTURES["omega"](data_matrix("omega", SWEEP_FIXTURES["omega"]))
    nonconstant = sum(not c.is_const() for row in k.as_matrix() for c in row)
    calls = []
    original = RatFunc.partial

    def counting(self, i):
        calls.append(i)
        return original(self, i)

    monkeypatch.setattr(RatFunc, "partial", counting)
    ok, _ = symbolic_frame_sweep(k)
    assert not ok and nonconstant
    assert len(calls) <= 4 * nonconstant


OMEGA_RATIONAL = form2({(0, 1): "x2", (0, 2): "x4", (2, 3): "1/(1 + x1^2)", (1, 3): "x3/(x2 - 3)"})
OMEGA_SQUARED = form2({(0, 1): "(1/(1 + x1^2))^2", (2, 3): "x2", (0, 3): "(x3/(x4 - 2))^3"})


def regular_points(rng, n, count, *fields):
    """count seeded points where none of the fields (callables of a point) has
    a pole."""
    found = []
    while len(found) < count:
        pt = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
        try:
            for f in fields:
                f(pt)
        except PoleAtPoint:
            continue
        found.append(pt)
    return found


def fraction_validate_gen_para(k):
    """The Fraction reference of gpx.validate_gen_para: K^2 = Id,
    K^T <,> + <,> K = 0 for the pairing matrix <,> = [[0, I/2], [I/2, 0]], and
    (Id +- K) / 2 of rank 2n."""
    m = k.as_matrix()
    n2 = len(m)
    ident = mat_identity(n2)
    pair = [[Fraction(1, 2) if abs(i - j) == n2 // 2 else Fraction(0) for j in range(n2)]
            for i in range(n2)]
    skew = mat_is_zero(mat_add(mat_mul(transpose(m), pair), mat_mul(pair, m)))
    plus = mat_scale(Fraction(1, 2), mat_add(ident, m))
    minus = mat_scale(Fraction(1, 2), mat_sub(ident, m))
    return {"square_is_identity": mat_eq(mat_mul(m, m), ident), "pairing_skew": skew,
            "equal_eigenranks": mat_rank(plus) == n2 // 2 == mat_rank(minus)}


def vars_(n):
    return [f"x{i + 1}" for i in range(n)]


def fixture(kind, n, entries):
    """A kind's patch data over n variables from {(i, j): literal} (1-based)."""
    names = vars_(n)
    comps = {(i - 1, j - 1): parse_ratfunc(c, names) for (i, j), c in entries.items()}
    if kind == "omega":
        return KForm(n, 2, comps)
    if kind == "pi":
        return bivector(n, comps)
    return [[comps.get((i, j), RatFunc.zero(n)) for j in range(n)] for i in range(n)]


# patch data over n = 2, 4 and 6 variables for every kind but assembled, by
# test id; each omega and pi has a denominator, so seeded points can meet a pole
POINTWISE = {
    "trivial_2vars": ("trivial", 2, 2),
    "trivial": ("trivial", N, N),
    "trivial_6vars": ("trivial", 6, 6),
    "omega_2vars": ("omega", 2, fixture("omega", 2, {(1, 2): "(1 + x1^2 + x2)/(x2 - 2)"})),
    "omega": ("omega", N, SWEEP_FIXTURES["omega"]),
    "omega_rational": ("omega", N, OMEGA_RATIONAL),
    "omega_squared": ("omega", N, OMEGA_SQUARED),
    "omega_6vars": ("omega", 6, fixture("omega", 6, {
        (1, 2): "1 + x3^2", (3, 4): "x1", (5, 6): "1/(1 + x6^2)", (1, 5): "x2", (2, 6): "x4*x5",
        (4, 6): "1"})),
    "pi_2vars": ("pi", 2, fixture("pi", 2, {(1, 2): "x1*x2 - 3/(1 + x1^2)"})),
    "pi": ("pi", N, SWEEP_FIXTURES["pi"]),
    "pi_6vars": ("pi", 6, fixture("pi", 6, {(1, 2): "x3", (2, 5): "x1*x6", (3, 4): "1/(x5 - 1)",
                                            (4, 6): "x2^2", (1, 6): "1"})),
    "product_2vars": ("product", 2, fixture("product", 2, {(1, 1): "1", (2, 1): "x1*x2",
                                                           (2, 2): "-1"})),
    "product": ("product", N, SWEEP_FIXTURES["product"]),
    "product_6vars": ("product", 6, fixture("product", 6, {
        (1, 2): "1", (2, 1): "1", (1, 4): "x1", (2, 3): "-x1", (3, 4): "1", (4, 3): "1",
        (5, 5): "1", (6, 5): "x3*x6", (6, 6): "-1"})),
}


@pytest.mark.parametrize("key", POINTWISE)
def test_mat_jet_of_k_equals_the_evaluated_endo_jet(key):
    """K(p) and dK(p) on integers from the int_jet of the kind's data, with
    omega(p)^-1 from bareiss and d(omega^-1) = -omega^-1 (d omega) omega^-1,
    equal the symbolic K of reference.STRUCTURES (a Gauss-Jordan inverse over
    rational functions for omega) and its symbolic partials endo_jet(K),
    evaluated at seeded points; both raise PoleAtPoint at the same points."""
    kind, n, data = POINTWISE[key]
    k = STRUCTURES[kind](data_matrix(kind, data))
    m, dk = k.as_matrix(), [d.as_matrix() for d in endo_jet(k)]
    rng = random.Random(97)
    checked = 0
    while checked < 4:
        pt = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
        try:
            want = (mat_eval(m, pt), [mat_eval(d, pt) for d in dk])
        except PoleAtPoint as exc:
            with pytest.raises(PoleAtPoint, match=f"^{re.escape(str(exc))}$"):
                structure_jet(kind, data_matrix(kind, data), int_point(pt), 1)
            continue
        (d0, k_at), (d1, dk_at) = structure_jet(kind, data_matrix(kind, data), int_point(pt), 1)
        assert all(isinstance(x, int) for mat in [k_at] + dk_at for row in mat for x in row)
        assert (frac_mat(d0, k_at), [frac_mat(d1, d) for d in dk_at]) == want, pt
        assert structure_jet(kind, data_matrix(kind, data), int_point(pt)) == ((d0, k_at),)
        checked += 1
    if data is OMEGA_SQUARED:
        assert any(mult >= 2 for row in m for c in row for _, mult in c.factors.values())
    assert len(dk) == n


@pytest.mark.parametrize("key", [key for key in POINTWISE if not key.startswith("trivial")])
def test_the_sweep_on_a_jet_at_a_point_equals_the_symbolic_sweep_there(key):
    """N is a tensor: the integer sweep on K(p) and dK(p) gives 2 D0 D1 N and
    its scale 2 D0 D1, and divided by it equals the symbolic sweep's sections over rational
    functions evaluated at p, pair by pair, at seeded regular points.  On two
    variables every structure of these kinds is integrable, so N = 0 there."""
    kind, n, data = POINTWISE[key]
    _, symbolic = symbolic_frame_sweep(STRUCTURES[kind](data_matrix(kind, data)))
    assert bool(symbolic) == (n > 2)
    points = regular_points(random.Random(83), n, 3,
                            lambda pt: [section_at(s, pt) for s in symbolic.values()],
                            lambda pt: structure_jet(kind, data_matrix(kind, data), int_point(pt)))
    for pt in points:
        expected = {pair: section_at(s, pt).stacked() for pair, s in symbolic.items()}
        (d0, k_at), (d1, dk_at) = structure_jet(kind, data_matrix(kind, data), int_point(pt), 1)
        scale, at = gen_nijenhuis_frame_sweep((d0, k_at), (d1, dk_at))
        assert scale == 2 * d0 * d1
        assert all(isinstance(c, int) for n_ab in at.values() for c in n_ab)
        assert {pair: [Fraction(c, scale) for c in n_ab] for pair, n_ab in at.items()} == {
            pair: n_ab for pair, n_ab in expected.items() if any(n_ab)}, pt


def test_the_integer_sweep_of_an_integrable_structure_is_zero():
    for kind, data in [("trivial", N), ("omega", form2({(0, 1): "1", (2, 3): "1 + x3^2"})),
                       ("pi", bivector(N, {(1, 2): rf("x1")}))]:
        pt = (Fraction(1, 2), Fraction(-3), Fraction(2), Fraction(5, 7))
        jet = structure_jet(kind, data_matrix(kind, data), int_point(pt), 1)
        assert gen_nijenhuis_frame_sweep(*jet) == (2 * jet[0][0] * jet[1][0], {})


# structures (g, Theta, K1, K2) in the two reductions of assemble: K1 = K2 = P
# gives e^Theta K_P e^-Theta, and K2 = -K1 gives e^Theta K_omega e^-Theta for
# omega = K1^T g; g = S^T [[0, I], [I, 0]] S and K1 = S^-1 diag(I, -I) S for a
# unipotent polynomial S, so the data are polynomials
def assembled_fixture(n, s_entries, theta_entries, reduction):
    names = vars_(n)
    h = n // 2
    s = [[parse_ratfunc(s_entries.get((i, j), "1" if i == j else "0"), names) for j in range(n)]
         for i in range(n)]
    s_inv = [[RatFunc.zero(n)] * n for _ in range(n)]
    for i in range(n):  # S is lower unitriangular: forward substitution
        for j in range(n):
            s_inv[i][j] = (RatFunc.one(n) if i == j else RatFunc.zero(n)) - sum(
                (s[i][l] * s_inv[l][j] for l in range(i)), RatFunc.zero(n))
    g0 = [[RatFunc.one(n) if abs(i - j) == h else RatFunc.zero(n) for j in range(n)]
          for i in range(n)]
    d = [[RatFunc.const(n, 1 if i < h else -1) if i == j else RatFunc.zero(n) for j in range(n)]
         for i in range(n)]
    g = mat_mul(transpose(s), mat_mul(g0, s))
    k1 = mat_mul(s_inv, mat_mul(d, s))
    k2 = k1 if reduction == "product" else mat_neg(k1)
    theta = fixture("omega", n, theta_entries)
    th = [[theta.get((i, j)) for j in range(n)] for i in range(n)]
    base = (STRUCTURES["product"](data_matrix("product", k1)) if reduction == "product"
            else omega_structure(Bilinear(mat_mul(transpose(k1), g))))
    return (g, th, k1, k2), b_conjugate(Bilinear(th), base)


ASSEMBLED = {
    (2, "product"): assembled_fixture(2, {(2, 1): "x1*x2"}, {(1, 2): "x2^2"}, "product"),
    (4, "omega"): assembled_fixture(4, {(2, 1): "x3", (4, 3): "x1*x2"},
                                    {(1, 2): "x4", (2, 3): "1"}, "omega"),
    (4, "product"): assembled_fixture(4, {(3, 1): "x2", (4, 2): "x1^2"}, {(1, 4): "x3"},
                                      "product"),
    (6, "omega"): assembled_fixture(6, {(2, 1): "x5", (6, 3): "x1", (4, 2): "1"},
                                    {(1, 6): "x2", (3, 5): "x4*x6"}, "omega"),
}


@pytest.mark.parametrize("key", ASSEMBLED, ids=[f"{n}-{r}" for n, r in ASSEMBLED])
def test_assembled_k_at_a_point_equals_its_symbolic_reduction(key):
    """The K(p) that `validate` feeds to validate_gen_para for an `assembled`
    descriptor, assemble on the integers of g(p), g(p)^-1, K1(p) and K2(p),
    conjugated by e^Theta(p), equals the symbolic structure it reduces to and
    reference.assemble_endo, and has the flags of its conjugate (no integer
    dK(p) is built for assembled, which `integrability` refuses)."""
    n = key[0]
    data, symbolic = ASSEMBLED[key]
    for pt in regular_points(random.Random(41), n, 3):
        g, th, k1, k2 = (int_jet(x, int_point(pt))[0] for x in data)
        den, m = assemble(g, int_inv(g), k1, k2)
        theta = Bilinear(frac_mat(*th))
        k = b_conjugate(theta, GenEndo.from_matrix(frac_mat(den, m)))
        assert k.as_matrix() == mat_eval(symbolic.as_matrix(), pt), pt
        assert k == assemble_endo(Bilinear(frac_mat(*g)), theta, *(Endo(frac_mat(*x))
                                                                   for x in (k1, k2)))
        assert validate_gen_para(den, m) == fraction_validate_gen_para(k) == dict.fromkeys(
            ["square_is_identity", "pairing_skew", "equal_eigenranks"], True)


def perturbed(m, rng):
    """m with one entry changed, so that some checks fail."""
    out = [list(row) for row in m]
    i, j = rng.randrange(len(m)), rng.randrange(len(m))
    out[i][j] += rng.choice([-2, -1, 1, 3])
    return out


@pytest.mark.parametrize("key", POINTWISE)
def test_integer_validate_gen_para_equals_the_fraction_version(key):
    """validate_gen_para on K(p) over its denominator gives the flags of the
    Fraction reference, on each kind's K(p), on K(p) with one entry changed,
    and on K(p) + dK_1(p) (most of which are not structures)."""
    kind, n, data = POINTWISE[key]
    rng = random.Random(53)
    seen = set()
    for pt in regular_points(rng, n, 3, lambda pt: structure_jet(kind, data_matrix(kind, data),
                                                                 int_point(pt))):
        (d0, k_at), (d1, dk_at) = structure_jet(kind, data_matrix(kind, data), int_point(pt), 1)
        assert all(validate_gen_para(d0, k_at).values())
        for den, m in [(d0, k_at), (d0, perturbed(k_at, rng)),
                       (d0 * d1, mat_add(mat_scale(d1, k_at), mat_scale(d0, dk_at[0])))]:
            got = validate_gen_para(den, m)
            assert got == fraction_validate_gen_para(GenEndo.from_matrix(frac_mat(den, m))), pt
            seen.add(tuple(got.values()))
    assert len(seen) > 1


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
    _, witness = integrability_report("product", data_matrix("product", p))
    assert (witness is None) == integrable and nonconstant
    assert len(calls) <= N * nonconstant
