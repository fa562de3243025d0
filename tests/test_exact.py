"""Exact scalar tower: evaluation, differentiation, equality, parsing."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from paracomplex.exact import PoleAtPoint, Poly, RatFunc, parse_ratfunc, parse_rational
from paracomplex.linalg import int_jet
from paracomplex.reference import mat_jet

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
    assert f.eval_at(as_point([3, 1])) == Fraction(9, 2)


def test_eval_constant():
    f = rf("5")
    for p in ([0, 0], [7, -2], [Fraction(1, 3), 4]):
        assert f.eval_at(as_point(p)) == 5


def test_eval_pole_raises():
    f = rf("1/x1")
    with pytest.raises(PoleAtPoint, match=r"^denominator factor vanishes at \(0, 5\)$"):
        f.eval_at(as_point([0, 5]))


def test_eval_evaluates_each_denominator_factor_once(monkeypatch):
    f = rf("x1/(1+x2)") / rf("x1-3") / rf("x1-3")
    assert sorted(m for _, m in f.factors.values()) == [1, 2]
    calls = []
    original = Poly.jet_at

    def counting(self, point, order=0):
        calls.append(self)
        return original(self, point, order)

    monkeypatch.setattr(Poly, "jet_at", counting)
    assert f.eval_at(as_point([1, 1])) == Fraction(1, 8)
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
    assert rf("x1 - 1").num.jet_at(p, 1) == (1, (0, (1, 0)))
    for evaluate in (lambda: f.jet_at(p, order), lambda: mat_jet([[rf("1"), f]], p, order),
                     lambda: int_jet([[rf("1"), f]], p, order)):
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


def ratfunc_jet_reference(f: RatFunc, p, order: int) -> tuple:
    """f's jet in Fractions: the numerator's jet divided by each factor's jet
    once per multiplicity, by jet_div_reference."""
    jet = fractions(*f.num.jet_at(p, order))
    for u, m in f.factors.values():
        for _ in range(m):
            jet = jet_div_reference(jet, fractions(*u.jet_at(p, order)))
    return jet


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
            want = [ratfunc_jet_reference(c, p, order) for c in entries]
        except ZeroDivisionError:
            continue
        for c, w in zip(entries, want):
            den, jet = c.jet_at(p, order)
            assert den > 0 and all(type(x) is int for x in flat(jet))
            assert fractions(den, jet) == w
        mat = [entries[:2], entries[2:4]]
        jets = int_jet(mat, p, order)
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


def poly_value(f: Poly, p) -> Fraction:
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
        den, got = f.jet_at(p, order)
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
    return (f.eval_at(up) - f.eval_at(dn)) / (2 * h)


def test_partial_quotient_rule_against_finite_differences():
    f = rf("x1/x2")
    expected = rf("-x1/x2^2")
    d = f.partial(1)
    assert d == expected
    # cross-check the derivative against central differences at 3 points
    h = Fraction(1, 64)
    for point in (as_point([3, 2]), as_point([1, -1]), as_point([Fraction(1, 2), 5])):
        fd = central_difference(f, point, 1, h)
        exact = d.eval_at(point)
        assert abs(fd - exact) <= 4 * h * h * max(1, abs(exact))


# -- equality -----------------------------------------------------------


def test_rf_equal_cancellation():
    assert rf("x1/x1") == rf("1")


def test_rf_equal_difference_of_squares():
    assert rf("(x1^2-x2^2)/(x1-x2)") == rf("x1+x2")


def test_rf_not_equal():
    assert rf("x1") != rf("x2")


# -- arithmetic laws ------------------------------------------------------

small_fractions = st.builds(
    Fraction, st.integers(-50, 50), st.integers(1, 9)
)


def poly_strategy(nvars=2, max_deg=3):
    exponents = st.tuples(*([st.integers(0, max_deg)] * nvars))
    return st.dictionaries(exponents, small_fractions, max_size=5).map(
        lambda terms: Poly(nvars, terms)
    )


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


@given(poly_strategy(), poly_strategy().filter(lambda p: not p.is_zero()))
@settings(max_examples=60, deadline=None)
def test_ratfunc_add_sub_roundtrip(n, d):
    a = RatFunc(n) / RatFunc(d)
    b = rf("(1+x1)/(2+x2^2)")
    assert (a + b) - b == a


@given(poly_strategy().filter(lambda p: not p.is_zero()),
       poly_strategy().filter(lambda p: not p.is_zero()))
@settings(max_examples=40, deadline=None)
def test_exact_div_inverts_mul(a, b):
    q = (a * b).exact_div(b)
    assert q is not None and q == a


def test_eval_of_partial_matches_finite_difference_sweep():
    f = rf("(x1^2*x2 - 3*x2 + 1)/(2 + x1^2)")
    h = Fraction(1, 128)
    for i in range(2):
        d = f.partial(i)
        for point in (as_point([1, 2]), as_point([-2, 3]), as_point([Fraction(2, 3), -1])):
            fd = central_difference(f, point, i, h)
            exact = d.eval_at(point)
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


@pytest.mark.parametrize("text,base,k", [
    ("x1^16", "x1", 16), ("(x1^4)^4", "x1", 16), ("(1/(x1 + x2))^16", "1/(x1 + x2)", 16),
    ("(x1^2 + x2)^8", "x1^2 + x2", 8), ("(2^16)^16", "2", 256), ("0^0", "1", 1),
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
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", ["1e1001", "1e-1001", "1e9999999", "-3.5E+00099999999"])
def test_parse_rational_bounds_the_exponent(text):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^the exponent of .* is above 1000 in magnitude$"):
        parse_rational(text)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("text", [
    "x1^17", "x1^99999999999", "2^99999999999", "0^17", "(x1^4)^5", "(x1*x2)^9",
    "1/(x1 + 1)^17", "(1/(x1^2 + 1))^9", "((2^16)^16)^16",
])
def test_parse_rejects_powers_above_the_bound(text):
    """The exponent, the total degree of the power and its exponent times the
    bit length of the base's coefficients are bounded, so nested powers
    cannot get round the bound on the exponent."""
    with pytest.raises(ValueError, match=r"is above the bound: 16 on the exponent and the "
                                         r"degree, 1024 on the coefficient bits$"):
        rf(text)
