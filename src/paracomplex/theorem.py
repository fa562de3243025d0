"""The `theorem` command and its dim-4 integrability verdict: the curvature
conditions of a fiber component at each sample point, the seeded (j,l,r) spot
checks of the curvature identity.  `cli` reads the metric and `--points`;
the reader of `--theta` and, for a Theta that is not closed, the seeded
search for a witness of the horizontal obstruction are
`paracomplex.obstruction`'s, which the command imports only for a
`--theta`.  Only the `theorem` command imports this module; the curvature
operator, its decomposition and the frames the J-triples read are
`paracomplex.curv`'s, and every value at a point is an integer pair, printed
by `poly.rat_str`.
"""

from __future__ import annotations

import functools
import random

from paracomplex.curv import (WEDGE4, DegenerateMetric, MetricModel, curvature_operator,
                              duality_verdict)
from paracomplex.exact import DEFAULT_POINTS, PoleAtPoint, point_strings
from paracomplex.linalg import j_structures, mat_is_zero, mat_vec
from paracomplex.para import _draw, hyperboloid_combination, hyperboloid_draw, rnd_vec2
from paracomplex.poly import rat_str


# -- the (j, l, r) residual -----------------------------------------------------------------


def _wedge_coords(pairs: list, u: list, v: list) -> dict:
    """Coordinates of u ^ v on the given (index, (i, j)) wedge pairs."""
    return {a: u[i] * v[j] - u[j] * v[i] for a, (i, j) in pairs}


def _pm(den: int, k: list, v: list) -> tuple:
    """(den v + k v, den v - k v) for an integer matrix k and vector v."""
    kv = mat_vec(k, v)
    dv = [den * c for c in v]
    return [a + b for a, b in zip(dv, kv)], [a - b for a, b in zip(dv, kv)]


def sample_jklr(points: list, orientations: tuple, rng, samples: int):
    """Yield (point, (j, l, r), n, d), d > 0, for seeded (j,l,r) samples
    cycling over theorem_verdict's points, where n / d is the residual
    g(R(X^Y + K_j X ^ K_l Y), Z^U + K_r Z ^ K_r U)
    + g(R(K_j X ^ Y + X ^ K_l Y), K_r Z ^ U + Z ^ K_r U); the displayed
    curvature identity holds iff it vanishes.  The draws from rng are those
    of hyperboloid_draw for K1 and K2 with the orientations (o1, o2), then
    of randint(1, 2) for j, l, r, then of rnd_vec2 for X, Y, Z, U.

    The first arguments are A1 +- A2 = (X +- K_j X) ^ (Y +- K_l Y), and the
    second ones B1 +- B2 likewise, so the residual is
    [g(R(A1 + A2), B1 + B2) + g(R(A1 - A2), B1 - B2)] / 2, and on wedge
    coordinates g(R(A), B) = a^T q b for the lowered operator q, summed over
    its nonzero entries.  On integers: per point, q = Q / D_q is the operator's
    int_lowered and J_a = J'_a / D_J the j_structures triple; per sample,
    K = (Y1 J'1 + Y2 J'2 + Y3 J'3) / e with e = E D_J, and X = 2 x by rnd_vec2,
    so x +- K x = (e X +- K' X) / (2 e) and d = 2 D_q 16 e_j e_l e_r^2."""
    data = []
    for p, op, js in points[:samples]:
        den_q, q = op.int_lowered
        terms = [(a, b, c) for a, row in enumerate(q) for b, c in enumerate(row) if c]
        rows = [(a, WEDGE4[a]) for a in sorted({a for a, _, _ in terms})]
        cols = [(b, WEDGE4[b]) for b in sorted({b for _, b, _ in terms})]
        data.append((p, den_q, terms, rows, cols, js))
    bits = rng.getrandbits
    for t in range(samples):
        p, den_q, terms, rows, cols, js = data[t % len(data)]
        ys = [hyperboloid_draw(rng) for _ in orientations]
        j, l, r = (_draw(bits, 2, 2) + 1 for _ in range(3))  # randint(1, 2)
        x, y, z, u = (rnd_vec2(rng) for _ in range(4))
        if not terms:
            yield p, (j, l, r), 0, 1
            continue
        ks = {i: hyperboloid_combination(ys[i - 1], js(orientations[i - 1]))
              for i in {j, l, r}}
        (xp, xm), (yp, ym), (zp, zm), (up, um) = (
            _pm(*ks[i], v) for i, v in ((j, x), (l, y), (r, z), (r, u)))
        a_sum, a_diff = _wedge_coords(rows, xp, yp), _wedge_coords(rows, xm, ym)
        b_sum, b_diff = _wedge_coords(cols, zp, up), _wedge_coords(cols, zm, um)
        n = sum(c * (a_sum[a] * b_sum[b] + a_diff[a] * b_diff[b]) for a, b, c in terms)
        yield p, (j, l, r), n, 32 * den_q * ks[j][0] * ks[l][0] * ks[r][0] ** 2


# -- theorem verdicts -----------------------------------------------------------------------------


def theorem_verdict(model: MetricModel, dth: dict, component: str, sample_points: list | None,
                    seed: int, jklr_samples: int) -> dict:
    """Integrability of the dim-4 twistor structure on the given component:
    requires dTheta = 0 plus the curvature condition of the component
    (++ : anti-self-dual and Ricci flat; -- : self-dual and Ricci flat;
    +- / -+ : scalar curvature operator, constant sectional curvature).
    Evidence carries sub-condition results and seeded (j,l,r) spot checks.
    dth maps each (i, j, k), i < j < k, to its nonzero component of dTheta,
    as patch.cyclic_sums gives them; {} for a closed Theta, or none.  With
    sample_points None the points are DEFAULT_POINTS."""
    rng = random.Random(seed)
    # each point's operator and the J-triples of its frame, once; a default point where g
    # or the frame has a pole or g degenerates is skipped, but a supplied frame that is not
    # orthonormal there is an input error
    points, skipped = [], []
    for p in sample_points or DEFAULT_POINTS:
        try:
            op = curvature_operator(model.g, p, +1)
            js = functools.partial(j_structures, op.int_g, model.onb_at(p, op.int_g))
        except (PoleAtPoint, DegenerateMetric) as exc:
            if sample_points is not None:
                raise
            skipped.append(exc)
            continue
        points.append((p, op, functools.cache(js)))
    if not points:
        raise DegenerateMetric(f"no usable sample points for the metric: {skipped[0]}")
    d_theta_zero = not dth
    evidence: dict = {
        "d_theta_zero": d_theta_zero,
        "points": [point_strings(p) for p, *_ in points],
    }
    if not d_theta_zero:
        evidence["d_theta_witness"] = {
            f"{i+1},{j+1},{k+1}": c.to_str(model.names) for (i, j, k), c in sorted(dth.items())
        }
        from paracomplex.obstruction import _np_witness_search

        witness = _np_witness_search(dth, points, rng)
        if witness is not None:
            evidence["np_residual_witness"] = witness
    verdicts = [duality_verdict(op) for _, op, _ in points]
    evidence["ricci_zero"] = ricci_ok = all(mat_is_zero(op.int_ricci[1]) for _, op, *_ in points)
    evidence["w_plus_zero"] = w_plus_ok = all(v["anti_self_dual"] for v in verdicts)
    evidence["w_minus_zero"] = w_minus_ok = all(v["self_dual"] for v in verdicts)
    sectional = {op.sectional for _, op, _ in points}
    const = sectional.pop() if len(sectional) == 1 else None
    evidence["sectional_constant"] = None if const is None else rat_str(*const)
    curvature_ok = {"++": w_plus_ok and ricci_ok, "--": w_minus_ok and ricci_ok}.get(
        component, const is not None)
    integrable = d_theta_zero and curvature_ok
    orientations = tuple(+1 if c == "+" else -1 for c in component)
    evidence["jklr"] = jklr = {"samples": jklr_samples, "nonzero": 0}
    for p, jlr, n, d in sample_jklr(points, orientations, rng, jklr_samples):
        if n:
            jklr["nonzero"] += 1
            if "witness" not in jklr:  # the first nonzero sample
                jklr["witness"] = {"point": point_strings(p), "jlr": list(jlr),
                                   "residual": rat_str(d, n)}
    return {"component": component, "integrable": integrable, "evidence": evidence}


# -- the command ----------------------------------------------------------------------------------


# a (j,l,r) sample costs 10-55 us in process (7-11 us of it its 43 draws; Python 3.11.7,
# 2 shared cores), so the largest count runs for at most about 6 s
MAX_SAMPLES = 100_000


def cmd_theorem(metric, component, theta, points, seed, samples, epsilon) -> dict:
    if samples < 0:
        raise ValueError(f"--samples must be at least 0, got {samples}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"--samples must be at most {MAX_SAMPLES}, got {samples}")
    if theta:
        from paracomplex.obstruction import parse_theta_expr

        theta = parse_theta_expr(theta, metric.names)
    report = {"metric": metric.name, "epsilon": epsilon}
    if epsilon != 1:
        # the three Eells-Salamon-type structures are never integrable; the
        # explicit mixed-term witness is nonzero at every point
        return {**report, "component": component, "integrable": False,
                "evidence": {"epsilon_never_integrable": True,
                             "witness": "mixed vertical-horizontal Nijenhuis value 2*Q4''"}}
    dth = {}
    if theta:
        from paracomplex.patch import cyclic_sums

        dth = cyclic_sums(theta)
    return {**report, "seed": seed,
            **theorem_verdict(metric, dth, component, points, seed, samples)}
