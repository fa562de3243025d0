"""The dim-4 integrability verdict of `theorem`: the curvature conditions of a
fiber component at each sample point, the seeded (j,l,r) spot checks of the
curvature identity, and, for a Theta that is not closed, the seeded search for
a witness of the horizontal obstruction (`paracomplex.obstruction`).  Only the
`theorem` command imports this module; the curvature operator, its
decomposition and the frames it reads are `paracomplex.curv`'s, and every
value at a point is an integer pair, printed by `poly.rat_str`.
"""

from __future__ import annotations

import functools
import random
from operator import mul

from paracomplex.curv import (WEDGE4, DegenerateMetric, curvature_operator, decompose,
                              sectional_constant_check)
from paracomplex.exact import DEFAULT_POINTS, PoleAtPoint, point_strings
from paracomplex.linalg import int_jet, j_structures, mat_is_zero
from paracomplex.para import hyperboloid_combination, hyperboloid_draw, random_compatible_structure
from paracomplex.poly import rat_str


# -- the (j, l, r) residual -----------------------------------------------------------------


def _wedge_coords(pairs: list, u: list, v: list) -> dict:
    """Coordinates of u ^ v on the given (index, (i, j)) wedge pairs."""
    return {a: u[i] * v[j] - u[j] * v[i] for a, (i, j) in pairs}


def _pm(den: int, k: list, v: list) -> tuple:
    """(den v + k v, den v - k v) for an integer matrix k and vector v."""
    kv = [sum(map(mul, row, v)) for row in k]
    dv = [den * c for c in v]
    return [a + b for a, b in zip(dv, kv)], [a - b for a, b in zip(dv, kv)]


def sample_jklr(points: list, orientations: tuple, rng, samples: int):
    """Yield (point, (j, l, r), n, d), d > 0, for seeded (j,l,r) samples
    cycling over theorem_verdict's points, where n / d is the residual
    g(R(X^Y + K_j X ^ K_l Y), Z^U + K_r Z ^ K_r U)
    + g(R(K_j X ^ Y + X ^ K_l Y), K_r Z ^ U + Z ^ K_r U); the displayed
    curvature identity holds iff it vanishes.  The draws from rng are those
    of random_compatible_structure for K1 and K2 with the orientations
    (o1, o2), then of randint(1, 2) for j, l, r, then of rnd_vec for X, Y, Z, U.

    The first arguments are A1 +- A2 = (X +- K_j X) ^ (Y +- K_l Y), and the
    second ones B1 +- B2 likewise, so the residual is
    [g(R(A1 + A2), B1 + B2) + g(R(A1 - A2), B1 - B2)] / 2, and on wedge
    coordinates g(R(A), B) = a^T q b for the lowered operator q, summed over
    its nonzero entries.  On integers: per point, q = Q / D_q is the operator's
    int_lowered and J_a = J'_a / D_J the j_structures triple; per sample,
    K = (Y1 J'1 + Y2 J'2 + Y3 J'3) / e with e = E D_J, and X = 2 x by rnd_vec2,
    so x +- K x = (e X +- K' X) / (2 e) and d = 2 D_q 16 e_j e_l e_r^2."""
    data = []
    for p, op, _, js in points[:samples]:
        den_q, q = op.int_lowered
        terms = [(a, b, c) for a, row in enumerate(q) for b, c in enumerate(row) if c]
        rows = [(a, WEDGE4[a]) for a in sorted({a for a, _, _ in terms})]
        cols = [(b, WEDGE4[b]) for b in sorted({b for _, b, _ in terms})]
        data.append((p, den_q, terms, rows, cols,
                     {o: js(o) for o in set(orientations)}))
    for t in range(samples):
        p, den_q, terms, rows, cols, jints = data[t % len(data)]
        ys = [hyperboloid_draw(rng) for _ in orientations]
        j, l, r = (rng.randint(1, 2) for _ in range(3))
        x, y, z, u = (rnd_vec2(rng) for _ in range(4))
        if not terms:
            yield p, (j, l, r), 0, 1
            continue
        ks = {i: hyperboloid_combination(ys[i - 1], jints[orientations[i - 1]])
              for i in {j, l, r}}
        (xp, xm), (yp, ym), (zp, zm), (up, um) = (
            _pm(*ks[i], v) for i, v in ((j, x), (l, y), (r, z), (r, u)))
        a_sum, a_diff = _wedge_coords(rows, xp, yp), _wedge_coords(rows, xm, ym)
        b_sum, b_diff = _wedge_coords(cols, zp, up), _wedge_coords(cols, zm, um)
        n = sum(c * (a_sum[a] * b_sum[b] + a_diff[a] * b_diff[b]) for a, b, c in terms)
        yield p, (j, l, r), n, 32 * den_q * ks[j][0] * ks[l][0] * ks[r][0] ** 2


# -- theorem verdicts -----------------------------------------------------------------------------


def rnd_vec2(rng, n=4) -> list:
    """Twice a random vector of n entries in {-3, ..., 3} / {1, 2}, on integers."""
    return [2 * rng.randint(-3, 3) // rng.randint(1, 2) for _ in range(n)]


def theorem_verdict(model: MetricModel, dth: dict, component: str,
                    sample_points=None, seed: int = 0, jklr_samples: int = 40) -> dict:
    """Integrability of the dim-4 twistor structure on the given component:
    requires dTheta = 0 plus the curvature condition of the component
    (++ : anti-self-dual and Ricci flat; -- : self-dual and Ricci flat;
    +- / -+ : scalar curvature operator, constant sectional curvature).
    Evidence carries sub-condition results and seeded (j,l,r) spot checks.
    dth maps each (i, j, k), i < j < k, to its nonzero component of dTheta,
    as patch.cyclic_sums gives them; {} for a closed Theta, or none."""
    if model.nvars != 4:
        raise ValueError("theorem verdicts require a 4-dimensional patch")
    if component not in ("++", "+-", "-+", "--"):
        raise ValueError(f"unknown component {component!r}")
    rng = random.Random(seed)
    # each point's operator, frame and J-triples, once; a default point where g or the
    # frame has a pole or g degenerates is skipped, but a supplied frame that is not
    # orthonormal there is an input error
    points = []
    for p in sample_points or DEFAULT_POINTS:
        try:
            op = curvature_operator(model.g, p)
            onb = model.onb_at(p, g_at=op.int_g)
        except (PoleAtPoint, ZeroDivisionError, DegenerateMetric):
            if sample_points is not None:
                raise
            continue
        points.append((p, op, onb, functools.cache(functools.partial(j_structures, op.int_g, onb))))
    if not points:
        raise DegenerateMetric("no usable sample points for the metric")
    d_theta_zero = not dth
    evidence: dict = {
        "d_theta_zero": d_theta_zero,
        "points": [point_strings(p) for p, *_ in points],
    }
    if not d_theta_zero:
        evidence["d_theta_witness"] = {
            f"{i+1},{j+1},{k+1}": c.to_str() for (i, j, k), c in sorted(dth.items())
        }
        witness = _np_witness_search(dth, points, rng)
        if witness is not None:
            evidence["np_residual_witness"] = witness
    ricci_ok = True
    w_plus_ok = True
    w_minus_ok = True
    sectional: list = []
    for p, op, onb, js in points:
        dec = decompose(op, onb)
        if not mat_is_zero(op.int_ricci[1]):
            ricci_ok = False
        if not mat_is_zero(dec.int_w_plus[1]):
            w_plus_ok = False
        if not mat_is_zero(dec.int_w_minus[1]):
            w_minus_ok = False
        sectional.append(sectional_constant_check(op))
    evidence["ricci_zero"] = ricci_ok
    evidence["w_plus_zero"] = w_plus_ok
    evidence["w_minus_zero"] = w_minus_ok
    const_ok = len(set(sectional)) == 1 and sectional[0] is not None
    evidence["sectional_constant"] = rat_str(*sectional[0]) if const_ok else None
    if component == "++":
        curvature_ok = w_plus_ok and ricci_ok
    elif component == "--":
        curvature_ok = w_minus_ok and ricci_ok
    else:
        curvature_ok = const_ok
    integrable = d_theta_zero and curvature_ok
    orientations = tuple(+1 if c == "+" else -1 for c in component)
    nonzero, first_witness = 0, None
    for p, jlr, n, d in sample_jklr(points, orientations, rng, jklr_samples):
        if n:
            nonzero += 1
            if first_witness is None:
                first_witness = {"point": point_strings(p), "jlr": list(jlr),
                                 "residual": rat_str(d, n)}
    evidence["jklr"] = {"samples": jklr_samples, "nonzero": nonzero}
    if first_witness is not None:
        evidence["jklr"]["witness"] = first_witness
    return {"component": component, "integrable": integrable, "evidence": evidence}


def _np_witness_search(dth: dict, points: list, rng, attempts: int = 60):
    """Bounded seeded search for a nonzero horizontal obstruction residual,
    given the components of dTheta and theorem_verdict's per-point data; the
    sections A and B are drawn as their stacked vectors X + alpha, each twice
    a rnd_vec2 draw, so the residual of the integers A' = 2A and B' = 2B is
    four times A and B's."""
    from paracomplex.obstruction import np_residual_terms, torsion_at

    for p, op, onb, js in points:
        ((dd, (values,)),) = int_jet([list(dth.values())], p)
        if not any(values):
            continue
        dth_at = (dd, dict(zip(dth, values)))
        t_at = torsion_at(op.int_g, dth_at)
        for _ in range(attempts):
            o1 = +1 if rng.random() < 0.5 else -1
            s1 = random_compatible_structure(op.int_g, onb, rng, o1, js(o1))
            o2 = +1 if rng.random() < 0.5 else -1
            s2 = random_compatible_structure(op.int_g, onb, rng, o2, js(o2))
            a = rnd_vec2(rng) + rnd_vec2(rng)
            b = rnd_vec2(rng) + rnd_vec2(rng)
            den, n_p, cond_rhs = np_residual_terms(op.int_g, t_at, dth_at, s1, s2, a, b)
            res = [u - v for u, v in zip(n_p, cond_rhs)]
            if any(res):
                return {"point": point_strings(p),
                        "residual_vector": [rat_str(4 * den, c) for c in res[:4]],
                        "residual_form": [rat_str(4 * den, c) for c in res[4:]]}
    return None
