"""The benchmark's own exact polynomial arithmetic, independent of the
program under test.

Expected answers are derived here from how each input was built: Jacobians
of the maps a metric is pulled back by, exterior derivatives of generated
forms, Poisson jacobiators, Nijenhuis tensors of product structures and
Pfaffians.  Nothing in this module imports ``paracomplex``.

A polynomial in ``N`` variables is a dict mapping exponent tuples to nonzero
``Fraction`` coefficients.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

N = 4
ETA = (1, 1, -1, -1)  # the flat neutral metric diag(1, 1, -1, -1)


def const(c) -> dict:
    c = Fraction(c)
    return {(0,) * N: c} if c else {}


def var(i: int) -> dict:
    return {tuple(1 if j == i else 0 for j in range(N)): Fraction(1)}


def mono(c, exps) -> dict:
    c = Fraction(c)
    return {tuple(exps): c} if c else {}


def add(*ps) -> dict:
    out: dict = {}
    for p in ps:
        for e, c in p.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def scale(p: dict, c) -> dict:
    c = Fraction(c)
    return {e: v * c for e, v in p.items()} if c else {}


def sub(p: dict, q: dict) -> dict:
    return add(p, scale(q, -1))


def mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def diff(p: dict, i: int) -> dict:
    out: dict = {}
    for e, c in p.items():
        if e[i]:
            out[tuple(k - 1 if j == i else k for j, k in enumerate(e))] = c * e[i]
    return out


def evaluate(p: dict, point) -> Fraction:
    total = Fraction(0)
    for e, c in p.items():
        v = c
        for x, k in zip(point, e):
            v *= Fraction(x) ** k
        total += v
    return total


def to_str(p: dict) -> str:
    """A literal the program's expression parser reads back as ``p``."""
    if not p:
        return "0"
    parts = []
    for e in sorted(p, key=lambda e: (-sum(e), e)):
        c = p[e]
        factors = [f"x{i + 1}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(e) if k]
        mag = abs(c)
        coeff = str(mag.numerator) if mag.denominator == 1 else f"({mag})"
        body = "*".join(([coeff] if mag != 1 or not factors else []) + factors)
        parts.append(("-" if c < 0 else "+") + body)
    text = "".join(parts)
    return text[1:] if text[0] == "+" else text


# -- matrices of polynomials ---------------------------------------------------------


def mat_mul(a: list, b: list) -> list:
    n, m, k = len(a), len(b[0]), len(b)
    return [[add(*(mul(a[i][t], b[t][j]) for t in range(k))) for j in range(m)]
            for i in range(n)]


def transpose(a: list) -> list:
    return [list(col) for col in zip(*a)]


def identity() -> list:
    return [[const(1 if i == j else 0) for j in range(N)] for i in range(N)]


def unipotent_inverse(j: list) -> list:
    """Inverse of I + L with L strictly lower triangular: I - L + L^2 - L^3."""
    low = [[j[r][c] if r > c else {} for c in range(N)] for r in range(N)]
    out, power = identity(), identity()
    for k in range(1, N):
        power = mat_mul(power, low)
        out = [[add(out[r][c], scale(power[r][c], (-1) ** k)) for c in range(N)]
               for r in range(N)]
    return out


def jacobian(fs: list) -> list:
    return [[diff(f, c) for c in range(N)] for f in fs]


# -- forms and fields -------------------------------------------------------------------


def d_two_form(comps: dict) -> dict:
    """d of a 2-form {(i, j): poly} (i < j) as a 3-form {(i, j, k): poly}, i < j < k."""
    out = {}
    for i, j, k in itertools.combinations(range(N), 3):
        val = add(diff(comps.get((j, k), {}), i),
                  scale(diff(comps.get((i, k), {}), j), -1),
                  diff(comps.get((i, j), {}), k))
        if val:
            out[(i, j, k)] = val
    return out


def d_one_form(alpha: list) -> dict:
    """d of a 1-form [a_0..a_3]: (d alpha)_{ij} = d_i a_j - d_j a_i."""
    return {(i, j): sub(diff(alpha[j], i), diff(alpha[i], j))
            for i, j in itertools.combinations(range(N), 2)}


def pfaffian(comps: dict) -> dict:
    """Pf of a 2-form {(i, j): poly} (i < j): omega is nondegenerate where it is nonzero."""
    def w(i, j):
        return comps.get((i, j), {})

    return add(mul(w(0, 1), w(2, 3)), scale(mul(w(0, 2), w(1, 3)), -1), mul(w(0, 3), w(1, 2)))


def poisson_jacobiator(pi: dict) -> dict:
    """[pi, pi] components for a bivector {(i, j): poly} (i < j), keyed by i < j < k;
    empty iff pi is Poisson."""
    def p(a, b):
        if a == b:
            return {}
        return pi.get((a, b), {}) if a < b else scale(pi.get((b, a), {}), -1)

    out = {}
    for i, j, k in itertools.combinations(range(N), 3):
        val = add(*(add(mul(p(l, i), diff(p(j, k), l)),
                        mul(p(l, j), diff(p(k, i), l)),
                        mul(p(l, k), diff(p(i, j), l))) for l in range(N)))
        if val:
            out[(i, j, k)] = val
    return out


def lie_bracket(x: list, y: list) -> list:
    return [add(*(sub(mul(x[j], diff(y[i], j)), mul(y[j], diff(x[i], j)))
                  for j in range(N))) for i in range(N)]


def nijenhuis(p: list, x: list, y: list) -> list:
    """N_P(X, Y) = [X, Y] + [PX, PY] - P[PX, Y] - P[X, PY] for an endomorphism field P."""
    def ap(v):
        return [add(*(mul(p[i][j], v[j]) for j in range(N))) for i in range(N)]

    px, py = ap(x), ap(y)
    terms = (lie_bracket(x, y), lie_bracket(px, py),
             ap(lie_bracket(px, y)), ap(lie_bracket(x, py)))
    return [sub(add(a, b), add(c, d)) for a, b, c, d in zip(*terms)]


def coordinate_field(i: int) -> list:
    return [const(1 if j == i else 0) for j in range(N)]
