"""Paracomplex structures on a neutral vector space: validation, and the
random compatible structures of the dim-4 hyperboloid model that the theorem
sampler draws.  `validate` loads this module for an assembled descriptor and
`theorem` for its samples; `curvature` does not load it.

A paracomplex structure is an endomorphism K with K^2 = Id whose +-1
eigenspaces have equal dimension; compatibility with a metric g means
g(KX, Y) + g(X, KY) = 0, which forces g to be of neutral signature.  The
adapted and null bases, the fiber of compatible structures and its
orientation are in `paracomplex.reference`.
"""

from __future__ import annotations

from paracomplex.linalg import (int_mul, j_structures, mat_add, mat_is_zero, mat_neg, mat_scale,
                                transpose)


def validate_para(g: tuple, k: tuple) -> dict[str, bool]:
    """Each check of {k^2 = Id, k != +-Id, trace = 0, g-skew}, on integers for
    g = G / D and k = K / E given as (D, G) and (E, K): K^2 = E^2 Id,
    K != +-E Id, trace K = 0 and K^T G + G K = 0."""
    (_, gm), (e, km) = g, k
    n = len(km)
    ident = [[e * (i == j) for j in range(n)] for i in range(n)]
    return {
        "square_is_identity": int_mul(km, km) == mat_scale(e, ident),
        "not_plus_minus_identity": km not in (ident, mat_neg(ident)),
        "trace_zero": not sum(km[i][i] for i in range(n)),
        "g_skew": mat_is_zero(mat_add(int_mul(transpose(km), gm), int_mul(gm, km))),
    }


# -- the hyperboloid model in dimension 4 ----------------------------------------------


def hyperboloid_draw(rng) -> tuple[int, int, int, int]:
    """(Y1, Y2, Y3, E): a random rational point (Y1, Y2, Y3) / E, E > 0, on the
    hyperboloid -y1^2 + y2^2 + y3^2 = 1: y1 = t, and (y2, y3) is the second
    point of the circle y2^2 + y3^2 = 1 + t^2 on the line of slope m through
    (1, t), for t = a/b and m = c/d drawn as ratios of small integers.  With
    P = c^2 + d^2 and Q = bd + ac: E = bP, Y1 = aP, Y2 = bP - 2Qd, Y3 = aP - 2Qc."""
    a, b = rng.randint(-6, 6), rng.randint(1, 4)
    c, d = rng.randint(-6, 6), rng.randint(1, 4)
    p, q = c * c + d * d, b * d + a * c
    return a * p, b * p - 2 * q * d, a * p - 2 * q * c, b * p


def hyperboloid_combination(point: tuple, triple: tuple) -> tuple[int, list]:
    """(e, K) with y1 J1 + y2 J2 + y3 J3 = K / e, for a hyperboloid_draw point
    (Y1, Y2, Y3, E) and a j_structures J-triple (D, [D J1, D J2, D J3]): K is the
    integer matrix Y1 D J1 + Y2 D J2 + Y3 D J3 and e = E D."""
    (y1, y2, y3, e), (den, mats) = point, triple
    return e * den, [[y1 * a + y2 * b + y3 * c for a, b, c in zip(*rows)]
                     for rows in zip(*mats)]


def random_compatible_structure(g: tuple, onb: tuple, rng, orientation: int = +1,
                                js: tuple | None = None) -> tuple[int, list]:
    """Random g-compatible paracomplex structure of the given orientation in
    dim 4: y1 J1 + y2 J2 + y3 J3 at the hyperboloid_draw point (y1, y2, y3),
    for g and the frame on integers as j_structures takes them, as the pair
    (e, K) of hyperboloid_combination.  A caller drawing many structures at
    one point passes the J-triple j_structures(g, onb, orientation) as js; the
    draws from rng are the same."""
    point = hyperboloid_draw(rng)
    if js is None:
        js = j_structures(g, onb, +1 if orientation > 0 else -1)
    return hyperboloid_combination(point, js)
