"""What `theorem --theta` adds: the reader of the potential Theta, and, for a
Theta that is not closed, the seeded search for a witness of the horizontal
obstruction with its one residual per draw.  `theorem` imports this module
only when `--theta` is given, so no other start loads or compiles it, and a
closed Theta runs only the reader: `np_residual` imports `gpx.assemble`
inside itself, so such a start loads no `gpx`.

The residual is R, N_P(A, B) minus the right-hand side of the obstruction
identity, for the generalized structure assembled from (g, S1, S2) by
`gpx.assemble`, computed in one pass on integers: g, g^-1, S1 and S2 are
integer pairs (D, M), dTheta is the pair (F, {(a, b, c): v}) of its
components a < b < c over one F, as the witness search evaluates them, and
sections X + alpha of T + T* are stacked integer vectors.  `contract` reads
each component's three cyclic terms, so no table of dTheta over every index
order is built.  Theta enters only through dTheta: the torsion of the
Hitchin connection is read from dTheta itself, T(X, Y) = g^-1 dTheta(X, Y, .)
and beta(T(X, .)) = dTheta(g^-1 beta, X, .), so no torsion tensor is built,
and the right-hand side of the identity enters as the H-twist
dTheta(X, Y, .) on the form half of each bracket term.  g^-1 is the one the
curvature operator of the point already holds, and both the torsion and the
closed-form assembly read it, so a witness draw runs no elimination.  Its
oracle, `reference.horizontal_np_residual`, computes R in Fractions from the
Hitchin connection's torsion and imports nothing from here.
"""

from __future__ import annotations

import re

from paracomplex.exact import PoleAtPoint, RatFunc, point_strings
from paracomplex.linalg import int_jet, mat_vec
from paracomplex.para import hyperboloid_combination, hyperboloid_draw, rnd_vec2
from paracomplex.parse import parse_ratfunc
from paracomplex.poly import rat_str


# -- the reader of --theta ------------------------------------------------------------------------


_WEDGE_RE = re.compile(r"^dx(\d+)\^dx(\d+)$")


def _split_top_level(text: str, seps: str) -> list[tuple[str, str]]:
    """(separator, piece) pairs of text split on its top-level separator
    characters, the first separator "+"; a piece is empty before a leading,
    doubled or trailing separator."""
    parts, depth, op, start = [], 0, "+", 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch in seps:
            parts.append((op, text[start:i]))
            op, start = ch, i + 1
    parts.append((op, text[start:]))
    return parts


def parse_theta_expr(text: str, variables: list) -> list:
    """Tiny 2-form grammar: terms `c*dxi^dxj` joined by + / -, with c a
    product of rational-function factors in the variables, the metric's
    (default 1).  Returns the antisymmetric n x n matrix theta(d_i, d_j) of RatFuncs, the form of an
    assembled descriptor's "theta"; a term adds c to theta(d_i, d_j) and -c
    to theta(d_j, d_i).  A run of signs before a term multiplies, and an
    empty term or factor is bad input."""
    nvars = len(variables)
    theta = [[RatFunc.zero(nvars)] * nvars for _ in range(nvars)]
    if not text.strip():
        return theta
    sign = "+"
    for op, term in _split_top_level(text.replace(" ", ""), "+-"):
        sign = "+" if (op == "-") == (sign == "-") else "-"
        if not term:  # a sign of the next term
            continue
        factors = [f for _, f in _split_top_level(term, "*")]
        if "" in factors:
            raise ValueError(f"empty factor in term {term!r}")
        match = _WEDGE_RE.match(factors[-1])
        if match is None:
            raise ValueError(f"term {term!r} must end with dxi^dxj")
        i, j = int(match.group(1)) - 1, int(match.group(2)) - 1
        if not (0 <= i < nvars and 0 <= j < nvars) or i == j:
            raise ValueError(f"bad wedge indices in {term!r}")
        coeff_src = "*".join(factors[:-1]) or "1"
        try:
            coeff = parse_ratfunc(coeff_src, variables)
        except ValueError as exc:
            raise ValueError(f"bad coefficient {coeff_src!r}: {exc}") from exc
        if sign == "-":
            coeff = -coeff
        if i > j:  # dxj^dxi = -dxi^dxj
            i, j, coeff = j, i, -coeff
        theta[i][j] = theta[i][j] + coeff
        theta[j][i] = -theta[i][j]
        sign = "+"
    if not term:
        raise ValueError(f"empty term in theta expression {text!r}")
    return theta


# -- the witness search ---------------------------------------------------------------------------


# draws of the witness search at each point where dTheta is not zero
WITNESS_ATTEMPTS = 60


def _np_witness_search(dth: dict, points: list, rng):
    """Bounded seeded search for a nonzero horizontal obstruction residual,
    given the components of dTheta and theorem_verdict's per-point data; a
    point where dTheta is zero or has a pole is skipped.  The sections A and B
    are drawn as their stacked vectors X + alpha, each twice a rnd_vec2 draw,
    so the residual of the integers A' = 2A and B' = 2B is four times A and
    B's."""
    for p, op, js in points:
        try:
            ((dd, (values,)),) = int_jet([list(dth.values())], p)
        except PoleAtPoint:
            continue
        if not any(values):
            continue
        dth_at = dd, dict(zip(dth, values))
        for _ in range(WITNESS_ATTEMPTS):
            o1 = +1 if rng.random() < 0.5 else -1
            s1 = hyperboloid_combination(hyperboloid_draw(rng), js(o1))
            o2 = +1 if rng.random() < 0.5 else -1
            s2 = hyperboloid_combination(hyperboloid_draw(rng), js(o2))
            a = rnd_vec2(rng) + rnd_vec2(rng)
            b = rnd_vec2(rng) + rnd_vec2(rng)
            den, res = np_residual(op.int_g, op.int_ginv, dth_at, s1, s2, a, b)
            if any(res):
                return {"point": point_strings(p),
                        "residual_vector": [rat_str(4 * den, c) for c in res[:4]],
                        "residual_form": [rat_str(4 * den, c) for c in res[4:]]}
    return None


# -- the residual ---------------------------------------------------------------------------------


def contract(dth: dict, x: list, y: list) -> list:
    """The 1-form Z -> dTheta(X, Y, Z) over F, for the components
    {(a, b, c): v}, a < b < c, of dTheta at a point: each adds
    v (dx^a ^ dx^b ^ dx^c)(X, Y, .), whose Z_c coefficient is
    v (X_a Y_b - X_b Y_a), and likewise on the cyclic orders (b, c, a) and
    (c, a, b)."""
    out = [0] * len(x)
    for (a, b, c), v in dth.items():
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            out[k] += v * (x[i] * y[j] - x[j] * y[i])
    return out


def np_residual(g: tuple, ginv: tuple, dth_at: tuple, s1: tuple, s2: tuple, a: list,
                b: list) -> tuple[int, list]:
    """(den, R) with R / den the obstruction residual, N_P(A, B) minus the
    right-hand side of the obstruction identity, for the generalized
    structure P that gpx.assemble builds from (g, g^-1, S1, S2) at a point,
    with g = G / D and g^-1 = M / d given as (D, G) and (d, M), the int_g
    and int_ginv of the point's curvature operator, dTheta as the pair
    dth_at = (F, {(a, b, c): v}) of contract, and integer stacked vectors A
    and B.  With C(U, V) = (T(X, Y), beta(T(X, .)) - alpha(T(Y, .)) + dTheta(X, Y, .))
    for U = X + alpha and V = Y + beta, and s = -1 on the vector half and +1
    on the form half, R is s (C(A, B) + C(PA, PB)) - P s (C(PA, B) + C(A, PB));
    the form term dTheta(X, Y, .) is the H-twist i_Y i_X H with H = dTheta.
    With P = M / dp, P A is M A / dp, and each term carries the dp of every P
    in it, so den = dp^2 d F."""
    from paracomplex.gpx import assemble

    (d, im), (dd, dth) = ginv, dth_at
    n = len(im)
    dp, p = assemble(g, ginv, s1, s2)

    def terms(u: list, v: list) -> list:
        """C(U, V) over d F, for U = X + alpha and V = Y + beta."""
        x, alpha, y, beta = u[:n], u[n:], v[:n], v[n:]
        c = contract(dth, x, y)
        return mat_vec(im, c) + [f - e + d * h for e, f, h in zip(
            contract(dth, mat_vec(im, alpha), y), contract(dth, mat_vec(im, beta), x), c)]

    pa, pb = mat_vec(p, a), mat_vec(p, b)
    t1, t2, t3, t4 = (terms(u, v) for u, v in ((a, b), (pa, pb), (pa, b), (a, pb)))
    sign = [-1] * n + [1] * n
    inner = mat_vec(p, [s * (u + v) for s, u, v in zip(sign, t3, t4)])
    return dp * dp * d * dd, [s * (dp * dp * u + v) - w for s, u, v, w in zip(sign, t1, t2, inner)]
