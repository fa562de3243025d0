"""Exact scalar tower: evaluation, differentiation, equality, parsing, and
the integer Poly and RatFunc against the Fraction oracle of reference."""

import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from paracomplex.exact import PoleAtPoint, RatFunc, parse_ratfunc, parse_rational
from paracomplex.linalg import int_jet
from paracomplex.poly import Poly, rat_str
from paracomplex.reference import FractionPoly, FractionRatFunc, eval_at, int_point, mat_jet

VARS4 = ["x1", "x2", "x3", "x4"]
VARS2 = ["x1", "x2"]


def rf(text, variables=VARS2):
    return parse_ratfunc(text, variables)


def as_point(values, nvars=None) -> tuple:
    """The values as a point of Fractions, checked against the variable count."""
    pt = tuple(Fraction(v) for v in values)
    if nvars is not None and len(pt) != nvars:
        raise ValueError(f"expected {nvars} coordinates, got {len(pt)}")
    return pt


# -- eval -----------------------------------------------------------------


def test_eval_basic_quotient():
    f = rf("x1^2/(1+x2)")
    assert eval_at(f, as_point([3, 1])) == Fraction(9, 2)


def test_eval_constant():
    f = rf("5")
    for p in ([0, 0], [7, -2], [Fraction(1, 3), 4]):
        assert eval_at(f, as_point(p)) == 5


def test_eval_pole_raises():
    f = rf("1/x1")
    with pytest.raises(PoleAtPoint, match=r"^denominator factor vanishes at \(0, 5\)$"):
        eval_at(f, as_point([0, 5]))


def test_eval_evaluates_each_denominator_factor_once(monkeypatch):
    f = rf("x1/(1+x2)") / rf("x1-3") / rf("x1-3")
    assert sorted(m for _, m in f.factors.values()) == [1, 2]
    calls = []
    original = Poly.jet_at

    def counting(self, point, order=0):
        calls.append(self)
        return original(self, point, order)

    monkeypatch.setattr(Poly, "jet_at", counting)
    assert eval_at(f, as_point([1, 1])) == Fraction(1, 8)
    assert len(calls) == 3
    # in a matrix, each factor's jet is computed once for all the entries
    calls.clear()
    assert mat_jet([[f, f * 2], [f / 3, rf("x2")]], as_point([1, 1]), 2)[0][0] == [
        Fraction(1, 8), Fraction(1, 4)]
    assert len([c for c in calls if c.key() in f.factors]) == 2


@pytest.mark.parametrize("order", [0, 1, 2])
def test_a_factor_with_value_zero_and_nonzero_gradient_is_a_pole(order):
    """x1 - 1 vanishes at (1, 5) with gradient (1, 0): the jet of 1/(x1 - 1)
    does not exist there, and the error names the point."""
    f = rf("x2/(x1 - 1)")
    p = as_point([1, 5])
    assert rf("x1 - 1").num.jet_at(int_point(p), 1) == (1, (0, (1, 0)))
    for evaluate in (lambda: f.jet_at(int_point(p), order),
                     lambda: mat_jet([[rf("1"), f]], p, order),
                     lambda: int_jet([[rf("1"), f]], int_point(p), order)):
        with pytest.raises(PoleAtPoint, match=r"^denominator factor vanishes at \(1, 5\)$"):
            evaluate()


def jet_div_reference(a: tuple, u: tuple) -> tuple:
    """The jet of q = a / u in Fractions, where u(p) != 0, solved from a = q u
    by the Leibniz rule: q_i = (a_i - q u_i) / u and
    q_ij = (a_ij - q_i u_j - q_j u_i - q u_ij) / u; the reference for the
    integer quotient rule of RatFunc.jet_at."""
    q = (a[0] / u[0],)
    if len(a) > 1:
        q += (tuple((ai - q[0] * ui) / u[0] for ai, ui in zip(a[1], u[1])),)
    if len(a) > 2:
        g, ug, ns = q[1], u[1], range(len(u[1]))
        q += (tuple(tuple((a[2][i][j] - g[i] * ug[j] - g[j] * ug[i] - q[0] * u[2][i][j]) / u[0]
                          for j in ns) for i in ns),)
    return q


def ratfunc_jet_reference(f, p, order: int) -> tuple:
    """The jet in Fractions of a FractionRatFunc, at a point of Fractions: the
    numerator's jet divided by each factor's jet once per multiplicity, by
    jet_div_reference."""
    jet = fractions(*f.num.jet_at(p, order))
    for u, m in f.factors.values():
        for _ in range(m):
            jet = jet_div_reference(jet, fractions(*u.jet_at(p, order)))
    return jet


def oracle(f: RatFunc) -> FractionRatFunc:
    """The FractionRatFunc of a RatFunc, its factors made monic and its
    numerator divided by den and their leading coefficients."""
    out = FractionRatFunc(FractionPoly(f.nvars, f.num.terms)) / f.den
    for p, m in f.factors.values():
        for _ in range(m):
            out = out / FractionRatFunc(FractionPoly(f.nvars, p.terms))
    return out


@pytest.mark.parametrize("order", [0, 1, 2])
def test_integer_jets_equal_the_leibniz_fraction_reference(order):
    """RatFunc.jet_at runs the quotient rule on integers over one positive
    denominator, and int_jet gives each order of a matrix's jet over its
    least one; entry by entry they equal the Fraction Leibniz reference, for
    factors of multiplicity 1 to 3 with positive and negative values at seeded
    points with mixed and 64-bit denominators, and mat_jet is int_jet over
    its denominators."""
    f = rf("x1/(1+x2)") / rf("x1-3") / rf("x1-3")
    entries = [f, f * rf("x2^2 - 1/3") / rf("2*x1 + x2 + 5"), rf("7/2"), rf("x1^3/(x2 - 2)^3"),
               rf("(x1*x2 - 1/2)/((x1^2 + 1)*(x2 + 4)^2)")]
    assert sorted(m for _, m in f.factors.values()) == [1, 2]
    rng = random.Random(1953)
    points = [as_point([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 7))])
              for _ in range(8)] + [(Fraction(2**64 + 1, 3**40), Fraction(-(2**63), 2**64 - 59))]
    compared = 0
    for p in points:
        try:
            want = [ratfunc_jet_reference(oracle(c), p, order) for c in entries]
        except ZeroDivisionError:
            continue
        for c, w in zip(entries, want):
            den, jet = c.jet_at(int_point(p), order)
            assert den > 0 and all(type(x) is int for x in flat(jet))
            assert fractions(den, jet) == w
        mat = [entries[:2], entries[2:4]]
        jets = int_jet(mat, int_point(p), order)
        got = tuple(fractions(den, part) for den, part in jets)
        assert mat_jet(mat, p, order) == got and len(jets) == order + 1
        assert all(den > 0 and math.gcd(den, *flat(part)) == 1 for den, part in jets)
        for (r, c), w in zip([(0, 0), (0, 1), (1, 0), (1, 1)], want):
            assert got[0][r][c] == w[0]
            if order:
                assert [got[1][i][r][c] for i in range(2)] == list(w[1])
            if order > 1:
                assert [[got[2][i][k][r][c] for k in range(2)] for i in range(2)] == [
                    list(row) for row in w[2]]
        compared += 1
    assert compared >= 6



def flat(jet) -> list:
    """The integers of a jet (value,), (value, gradient) or (value, gradient,
    Hessian), or of a part of int_jet, in nested tuples and lists."""
    return [y for x in jet for y in (flat(x) if isinstance(x, (tuple, list)) else [x])]


def fractions(den: int, jet):
    """The integers of a jet, or of int_jet's parts, over den in Fractions, in
    the same nested tuples and lists."""
    return Fraction(jet, den) if isinstance(jet, int) else type(jet)(fractions(den, x) for x in jet)


def poly_value(f, p) -> Fraction:
    """A polynomial's value at a point, term by term in Fractions."""
    return sum((c * math.prod(Fraction(x) ** k for x, k in zip(p, e))
                for e, c in f.terms.items()), Fraction(0))


@pytest.mark.parametrize("text", ["0", "7/3", "x1^3*x2/5 - 2/7*x1*x2^2 + 1/3",
                                  "(x1 - 1/2)^4*x2 + x2^3"])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_poly_jet_at_equals_the_evaluated_partials(text, order):
    """The term-by-term integer jet equals the symbolic partials evaluated at
    points with mixed denominators, 64-bit ones among them, and plain ints."""
    f = rf(text).num
    points = [(Fraction(1, 3), Fraction(-5, 4)), (2, Fraction(7, 6)), (0, 0),
              (Fraction(2**64 + 1, 3**40), Fraction(-(2**63), 2**64 - 59))]
    for p in points:
        want = (poly_value(f, p),)
        if order:
            want += (tuple(poly_value(f.partial(i), p) for i in range(2)),)
        if order > 1:
            want += (tuple(tuple(poly_value(f.partial(i).partial(k), p) for k in range(2))
                           for i in range(2)),)
        den, got = f.jet_at(int_point(p), order)
        assert den > 0 and all(type(x) is int for x in flat(got))
        assert fractions(den, got) == want


# -- partial --------------------------------------------------------------


def test_partial_monomial():
    f = rf("x1*x2")
    assert f.partial(0) == rf("x2")


def test_partial_constant_is_zero():
    f = rf("7")
    assert f.partial(0).is_zero()
    assert f.partial(1).is_zero()


def central_difference(f, point, i, h):
    """Independent first-order oracle for d f / d x_i at a non-pole point."""
    up = list(point)
    dn = list(point)
    up[i] += h
    dn[i] -= h
    return (eval_at(f, up) - eval_at(f, dn)) / (2 * h)


def test_partial_quotient_rule_against_finite_differences():
    f = rf("x1/x2")
    expected = rf("-x1/x2^2")
    d = f.partial(1)
    assert d == expected
    # cross-check the derivative against central differences at 3 points
    h = Fraction(1, 64)
    for point in (as_point([3, 2]), as_point([1, -1]), as_point([Fraction(1, 2), 5])):
        fd = central_difference(f, point, 1, h)
        exact = eval_at(d, point)
        assert abs(fd - exact) <= 4 * h * h * max(1, abs(exact))


# -- equality -----------------------------------------------------------


def test_rf_equal_cancellation():
    assert rf("x1/x1") == rf("1")


def test_rf_equal_difference_of_squares():
    assert rf("(x1^2-x2^2)/(x1-x2)") == rf("x1+x2")


def test_rf_not_equal():
    assert rf("x1") != rf("x2")


# -- arithmetic laws ------------------------------------------------------

def terms_strategy(nvars=2, max_deg=3, max_size=5):
    exponents = st.tuples(*([st.integers(0, max_deg)] * nvars))
    return st.dictionaries(exponents, st.integers(-50, 50), max_size=max_size)


def poly_strategy(nvars=2, max_deg=3):
    return terms_strategy(nvars, max_deg).map(lambda terms: Poly(nvars, terms))


@given(poly_strategy(), poly_strategy())
@settings(max_examples=60, deadline=None)
def test_poly_add_sub_roundtrip(a, b):
    assert (a + b) - b == a


@given(poly_strategy(), poly_strategy(), poly_strategy())
@settings(max_examples=40, deadline=None)
def test_poly_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(poly_strategy(max_deg=4))
@settings(max_examples=40, deadline=None)
def test_partials_commute(p):
    f = RatFunc(p) / rf("1+x1^2")
    assert f.partial(0).partial(1) == f.partial(1).partial(0)


@given(poly_strategy(), poly_strategy().filter(lambda p: not p.is_zero()), st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_ratfunc_add_sub_roundtrip(n, d, k):
    a = RatFunc(n, None, k) / RatFunc(d)
    b = rf("(1+x1)/(2+x2^2)")
    assert (a + b) - b == a


@given(poly_strategy().filter(lambda p: not p.is_zero()),
       poly_strategy().filter(lambda p: not p.is_zero()))
@settings(max_examples=40, deadline=None)
def test_exact_div_inverts_mul(a, b):
    q = (a * b).exact_div(b)
    assert q is not None and q == a


# -- the integer Poly and RatFunc against the Fraction oracle -----------------------------


def frac(pair) -> Fraction:
    """The Fraction of an integer pair (d, n)."""
    return Fraction(pair[1], pair[0])


@given(terms_strategy(), terms_strategy(), st.integers(0, 3), st.integers(1, 12),
       st.tuples(st.fractions(-3, 3, max_denominator=5), st.fractions(-3, 3, max_denominator=5)))
@settings(max_examples=80, deadline=None)
def test_integer_poly_equals_the_fraction_poly(ta, tb, k, den, point):
    """Sums, products, powers, exact quotients (hits and misses), partials,
    jets and printed forms of integer polynomials equal those of
    reference.FractionPoly on the same terms; a printed form over den equals
    that of the Fraction polynomial divided by den."""
    a, b, fa, fb = Poly(2, ta), Poly(2, tb), FractionPoly(2, ta), FractionPoly(2, tb)
    for got, want in ((a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb), (a ** k, fa ** k),
                      (a.partial(0), fa.partial(0)), (b.partial(1), fb.partial(1))):
        assert got.terms == want.terms and all(type(c) is int for c in got.terms.values())
        assert got.to_str(VARS2) == want.to_str(VARS2)
    assert a.to_str(VARS2, den) == fa.scale(Fraction(1, den)).to_str(VARS2)
    for order in (0, 1, 2):
        assert fractions(*a.jet_at(int_point(point), order)) == fractions(*fa.jet_at(point, order))
    if not b.is_zero():
        assert (a * b).exact_div(b).terms == a.terms
        want = fa.exact_div(fb)
        if want is not None and any(c.denominator != 1 for c in want.terms.values()):
            want = None  # a quotient over Q without integer coefficients
        got = a.exact_div(b)
        assert (got is None) == (want is None) and (got is None or got.terms == want.terms)
        c, prim = b.primitive()
        assert prim.scale(c) == b and prim.leading()[1] > 0
        assert math.gcd(*prim.terms.values()) == 1


# a x1 + b x2 + c for small integers, whose leading coefficient makes its monic form
LINEAR = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)).filter(
    lambda t: t[0] or t[1]).map(lambda t: ("lin",) + t)
ATOMS = st.one_of(st.sampled_from(["x1", "x2"]), st.fractions(-4, 4, max_denominator=6), LINEAR)
PROGRAMS = st.recursive(ATOMS, lambda sub: st.one_of(
    st.tuples(st.sampled_from(["+", "-", "*", "/"]), sub, sub),
    st.tuples(st.just("^"), sub, st.integers(-2, 3)),
    st.tuples(st.just("d"), sub, st.integers(0, 1))), max_leaves=6)


def run(program, cls):
    """The value of a program over the rational-function class cls."""
    if isinstance(program, str):
        return cls.var(int(program[1]) - 1, 2)
    if isinstance(program, Fraction):
        return cls.const(2, program)
    if program[0] == "lin":
        _, a, b, c = program
        return cls.var(0, 2) * a + cls.var(1, 2) * b + c
    op, a, b = program
    a = run(a, cls)
    if op == "^":
        return a ** b
    if op == "d":
        return a.partial(b)
    b = run(b, cls)
    return {"+": a + b, "-": a - b, "*": a * b}[op] if op != "/" else a / b


@given(PROGRAMS, st.lists(LINEAR, max_size=3),
       st.tuples(st.fractions(-3, 3, max_denominator=5), st.fractions(-3, 3, max_denominator=5)))
@settings(max_examples=150, deadline=None)
def test_integer_ratfunc_equals_the_fraction_ratfunc(program, divisors, point):
    """A RatFunc built by sums, products, quotients, powers and partials has
    the factors and multiplicities, the printed form and the jets of the
    parent's Fraction RatFunc (reference.FractionRatFunc) built the same way:
    its factors are primitive with positive leading coefficients, keyed by
    tuples of integers, and print as their monic forms in the order of the
    monic forms' keys.  The program's value is divided by up to three linear
    polynomials in turn, so that several factors meet."""
    for divisor in divisors:
        program = ("/", program, divisor)
    try:
        want = run(program, FractionRatFunc)
    except ZeroDivisionError:
        assume(False)
    got = run(program, RatFunc)
    assume(sum(len(p.terms) for p, _ in got.factors.values()) + len(got.num.terms) < 200)
    assert got.to_str(VARS2) == want.to_str(VARS2)
    assert sorted(m for _, m in got.factors.values()) == sorted(
        m for _, m in want.factors.values())
    assert got.den > 0 and math.gcd(got.den, *got.num.terms.values()) == 1
    for key, (p, _) in got.factors.items():
        assert key == p.key() and all(type(c) is int for _, c in key)
        assert p.leading()[1] > 0 and math.gcd(*p.terms.values()) == 1
    assert oracle(got) == want and got == RatFunc.const(2, 0) + got
    for order in (0, 1, 2):
        try:
            expected = ratfunc_jet_reference(want, point, order)
        except ZeroDivisionError:
            with pytest.raises(PoleAtPoint):
                got.jet_at(int_point(point), order)
            continue
        assert fractions(*got.jet_at(int_point(point), order)) == expected


def test_several_denominator_factors_print_in_the_order_of_their_monic_forms():
    """The factors 3 x1 + 1, 2 x1 + 1 and x1 + 1 print as x1 + 1/3, x1 + 1/2
    and x1 + 1, the order of the monic forms' keys, which is the reverse of
    the integer keys' order."""
    f = rf("x2") / rf("x1 + 1") / rf("2*x1 + 1") / rf("2*x1 + 1") / rf("3*x1 + 1")
    assert [f.factors[k][0].to_str(VARS2) for k in sorted(f.factors)] == [
        "x1 + 1", "2*x1 + 1", "3*x1 + 1"]
    want = "(1/12*x2)/((x1 + 1/3)*(x1 + 1/2)^2*(x1 + 1))"
    assert f.to_str(VARS2) == want
    assert oracle(f).to_str(VARS2) == want


def test_eval_of_partial_matches_finite_difference_sweep():
    f = rf("(x1^2*x2 - 3*x2 + 1)/(2 + x1^2)")
    h = Fraction(1, 128)
    for i in range(2):
        d = f.partial(i)
        for point in (as_point([1, 2]), as_point([-2, 3]), as_point([Fraction(2, 3), -1])):
            fd = central_difference(f, point, i, h)
            exact = eval_at(d, point)
            assert abs(fd - exact) <= 8 * h * h * max(1, abs(exact), abs(fd))


# -- parsing --------------------------------------------------------------


def test_parse_rejects_unknown_variable():
    with pytest.raises(ValueError, match="unknown token 'y1'"):
        rf("y1 + 1")


def test_parse_rejects_trailing_tokens():
    with pytest.raises(ValueError, match="trailing input at token 'x2'"):
        rf("x1 x2")


def test_parse_whitespace_insignificant():
    assert rf(" x1 ^ 2 + 3 * x2 ") == rf("x1^2+3*x2")


def test_to_str_round_trip():
    f = rf("(x1^2 - x2/3 + 7)/(x1*x2 - 5)")
    again = parse_ratfunc(f.to_str(VARS2), VARS2)
    assert f == again


def test_factored_denominator_cancels_powers():
    # (x1+1)^3 / (x1+1)^2 normalizes to a polynomial
    f = rf("(x1+1)^3") / rf("(x1+1)^2")
    assert not f.factors
    assert f == rf("x1+1")


def test_adding_zero_multiplies_no_polynomials(monkeypatch):
    f = rf("x1/(1 + x2^2)")
    zero = RatFunc.zero(2)
    calls = []
    original = Poly.__mul__

    def counting(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting)
    sums = [f + zero, zero + f, f - zero, f + 0, 0 + f]
    assert calls == []
    for s in sums:
        assert s.num == f.num and s.factors == f.factors


@pytest.mark.parametrize("text,k", [
    (text, k)
    for text in ["x1 + 2", "(x1^2 - x2/3)/(x1*x2 - 5)", "x1/(1 + x2)^2",
                 "(x1 + 1)^2/((x1 + 1)*(x2 - 1))", "3/2", "0"]
    for k in [0, 1, 2, 3, 5, -1, -2] if text != "0" or k >= 0])
def test_power_equals_repeated_multiplication(text, k):
    """f^k for k >= 0, and 1 / f^|k| for k < 0, in value and in normal form."""
    f = rf(text)
    expected = RatFunc.one(2)
    for _ in range(abs(k)):
        expected = expected * f
    if k < 0:
        expected = RatFunc.one(2) / expected
    power = f ** k
    assert power == expected
    assert power.to_str(VARS2) == expected.to_str(VARS2)


@pytest.mark.parametrize("text", ["x1/0", "1/(x1 - x1)", "(x2 + 1)/(0*x1)"])
def test_parse_rejects_division_by_zero(text):
    with pytest.raises(ValueError, match="division by zero"):
        rf(text)


@pytest.mark.parametrize("value", [5, None, ["x1"]])
def test_parse_rejects_a_non_string(value):
    with pytest.raises(ValueError, match="expected a string"):
        parse_ratfunc(value, VARS2)


WIDE = "x1/18446744073709551616 + 1/12157665459056928801"


@pytest.mark.parametrize("text,base,k", [
    ("x1^16", "x1", 16), ("(x1^4)^4", "x1", 16), ("(1/(x1 + x2))^16", "1/(x1 + x2)", 16),
    ("(x1^2 + x2)^8", "x1^2 + x2", 8), ("(2^16)^16", "2", 256), ("0^0", "1", 1),
    # coefficients 1/2^64 and 1/3^40 in lowest terms, 65 bits each at most: 15 * 65 <= 1024,
    # though their common denominator has 128 bits
    (f"({WIDE})^15", WIDE, 15),
])
def test_parse_accepts_powers_up_to_the_bound(text, base, k):
    expected = RatFunc.one(2)
    for _ in range(k):
        expected = expected * rf(base)
    assert rf(text) == expected


@pytest.mark.parametrize("text,expected", [
    ("(x1 + x2)^16", "(x1 + x2)^8*(x1 + x2)^8"),
    ("(1/(x1 + x2))^16 + 1", "(1 + (x1 + x2)^16)/(x1 + x2)^16"),
    ("x1/(1/(x1 + x2))^16", "x1*(x1 + x2)^8*(x1 + x2)^8"),
])
def test_parse_accepts_products_up_to_the_bound(text, expected):
    """Squarings, and the products by a denominator factor's power that + and /
    form, each within MAX_TERM_PAIRS term pairs, parse to the literal's value."""
    assert rf(text) == rf(expected)


@pytest.mark.parametrize("text,variables", [
    ("(x1+x2+x3+x4)^16*(x1+x2+x3+x4)^16", VARS4),
    ("(x1+x2+x3+x4)^8*(x1+x2+x3+x4)^8", VARS4),
    ("(y1+y2+y3+y4+y5+y6)^16", ["y1", "y2", "y3", "y4", "y5", "y6"]),
    ("1 + (1/(y1+y2+y3+y4+y5+y6))^16", ["y1", "y2", "y3", "y4", "y5", "y6"]),
    ("x1/(1/(x1+x2+x3+x4))^16", VARS4),
    ("0/(1/(x1+x2+x3+x4))^16", VARS4),
])
def test_parse_rejects_products_above_the_bound(text, variables):
    """The bound on powers holds for each power; each product of polynomials the
    parser forms (for *, in the squarings of ^, and a numerator times the
    denominator factors that + and / multiply it by) is bounded as well, and
    checked before it is formed."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^a product in .* is above the bound of "
                                         r"4096 term pairs$"):
        parse_ratfunc(text, variables)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("text,value", [
    ("7", 7), (" -1/2 ", Fraction(-1, 2)), ("0.25", Fraction(1, 4)), ("1e-3", Fraction(1, 1000)),
    ("2.5E+1000", 25 * 10 ** 999), ("1e-1000", Fraction(1, 10 ** 1000)),
])
def test_parse_rational_reads_fraction_literals(text, value):
    assert parse_rational(text) == (Fraction(value).denominator, Fraction(value).numerator)


# signs, n/d, decimals, exponents up to +-1000, whitespace, underscores (Fraction reads
# them from 3.11, and spaces around "/" from 3.12), non-ASCII digits, and malformed texts
LITERALS = [
    "0", "-0", "+7", "-7", "12/8", "-12/8", "+3/9", " 1/2 ", "\t-5\n", "\xa01\xa0", "1 /2",
    "1/ 2", "1 / 2", "3.25", "-.5", "+5.", "5.", ".5", "0.000", "1.5e3", "1.5E-3", "-2.5e+1000",
    "1e1000", "1e-1000", "7e-0", "00012/0004", "1_000", "1_000/2_0", "1.5_5", "1e1_0", "1__0",
    "1_", "_1", "١٢", "١/٢", "٣.٥", "1/0", "0/0", "-3/0", "1e1001", "1e-1001", "1/-2",
    "-1/-2", "0x10", "nan", "inf", "", " ", "-", "+", ".", "1e", "e5", "1.2/3", "1/2/3", "+-1",
    "1.d", ".d", "1..2", "1e5.0", "2**3", "1/2e3",
]


@pytest.mark.parametrize("text", LITERALS)
def test_parse_rational_reads_what_fraction_reads(text):
    """parse_rational is Fraction(text) on integers: the same value in lowest
    terms, the same exception type and text for a malformed literal, and
    ZeroDivisionError for n/0, on this interpreter's grammar; only the bounds
    on the exponent and the digits are its own."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)) as got:
            parse_rational(text)
        if isinstance(exc, ValueError) and "1001" not in text:
            assert str(got.value) == str(exc)
        return
    if "1001" in text:
        with pytest.raises(ValueError, match="above 1000 in magnitude"):
            parse_rational(text)
        return
    assert parse_rational(text) == (value.denominator, value.numerator)


def test_rat_str_prints_as_fraction_and_lifts_the_digit_limit_only_while_printing():
    """rat_str is str(Fraction(n, d)), for a negative d too, and prints a
    value past Python's int-to-str digit limit; the limit holds again after."""
    for n, d in ((0, 5), (6, -4), (-7, 3), (10, 5), (3, 1)):
        assert rat_str(d, n) == str(Fraction(n, d))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    big = 7 ** 6000  # 5,071 digits
    if not 0 < limit < 5071:
        pytest.skip("no int-to-str digit limit below 5,071 digits here")
    text = rat_str(-3, big)
    assert sys.get_int_max_str_digits() == limit
    with pytest.raises(ValueError):
        str(big)
    sys.set_int_max_str_digits(0)
    try:
        assert text == f"{-big}/3"
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("text", ["1e1001", "1e-1001", "1e9999999", "-3.5E+00099999999"])
def test_parse_rational_bounds_the_exponent(text):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^the exponent of .* is above 1000 in magnitude$"):
        parse_rational(text)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("text", [
    "x1^17", "x1^99999999999", "2^99999999999", "0^17", "(x1^4)^5", "(x1*x2)^9",
    "1/(x1 + 1)^17", "(1/(x1^2 + 1))^9", "((2^16)^16)^16", f"({WIDE})^16",
])
def test_parse_rejects_powers_above_the_bound(text):
    """The exponent, the total degree of the power and its exponent times the
    bit length of the base's coefficients are bounded, so nested powers
    cannot get round the bound on the exponent."""
    with pytest.raises(ValueError, match=r"is above the bound: 16 on the exponent and the "
                                         r"degree, 1024 on the coefficient bits$"):
        rf(text)
