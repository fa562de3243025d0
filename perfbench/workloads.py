"""Seeded workloads and their known answers.

Each workload turns a seed into a list of jobs.  A job is one
``python -m paracomplex ...`` command on generated inputs, together with the
answer known from how the input was built: the exit code and a set of report
fields.  Every expected value is derived with the benchmark's own polynomial
code in ``oracle``; the program under test is never consulted.

Why these workloads (README.md maps each metric to the workload it should move):

* ``dense-metrics``: dense ``file:`` metrics whose curvature is known exactly.
  Symbolic Levi-Civita / Riemann and Poly arithmetic do almost all the work.
* ``catalog-sampling``: catalog metrics with hundreds of (j,l,r) samples at
  seeded points.  The same curvature layers run pointwise (``eval_at``,
  Fraction), with the fiber structures, linear algebra and witness search on
  top.  A symbolic-to-pointwise trade shows its cost here.
* ``structures``: ``validate`` and ``integrability`` on omega, pi and product
  descriptors.  Courant brackets, the frame sweep and generalized validation
  do the work and curvature does none, so a curvature change predicts no
  change here; the short jobs expose interpreter set-up.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as Q
from pathlib import Path

import oracle as O

MISSING = object()  # the report must not have this field
NONZERO = object()  # a positive count


@dataclass
class Job:
    """One command, the answer known from its construction, and, for a job that
    exposes a known defect, the documented wrong answer the program gives."""

    name: str
    argv: list
    exit_code: int
    fields: dict
    defect: str = ""
    defect_exit_code: int | None = None
    defect_fields: dict = field(default_factory=dict)


# -- checking a report against a known answer ----------------------------------------


def _lookup(report, path: str):
    """Dotted path into the report; ``name[*]`` maps the rest over a list."""
    head, _, rest = path.partition(".")
    if head.endswith("[*]"):
        items = report.get(head[:-3], MISSING) if isinstance(report, dict) else MISSING
        if not isinstance(items, list):
            return MISSING
        return [_lookup(item, rest) if rest else item for item in items]
    value = report.get(head, MISSING) if isinstance(report, dict) else MISSING
    return _lookup(value, rest) if rest and value is not MISSING else value


def _same(got, want) -> bool:
    if want is MISSING or got is MISSING:
        return got is want
    if want is NONZERO:
        return type(got) is int and got > 0
    if isinstance(want, Q):
        try:
            return isinstance(got, str) and Q(got) == want
        except (ValueError, ZeroDivisionError):
            return False
    if isinstance(want, frozenset):
        return isinstance(got, dict) and frozenset(got) == want
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same(g, w) for g, w in zip(got, want)))
    return type(got) is type(want) and got == want


def mismatches(code: int, stdout: bytes, exit_code: int, fields: dict) -> list:
    """Every way the (exit code, report) pair differs from the expected one."""
    out = [] if code == exit_code else [f"exit code {code}, expected {exit_code}"]
    try:
        report = json.loads(stdout)
    except ValueError:
        return out + ["stdout is not a JSON report"]
    for path, want in fields.items():
        got = _lookup(report, path)
        if not _same(got, want):
            shown = "absent" if got is MISSING else repr(got)
            out.append(f"{path} is {shown[:80]}")
    return out


# -- shared helpers -----------------------------------------------------------------------


def _coeff(rng) -> Q:
    return Q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))


def _point(rng) -> tuple:
    return tuple(Q(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(O.N))


def _points(rng, count: int, ok=lambda p: True) -> list:
    """Seeded rational points where ``ok`` holds (e.g. away from a pole)."""
    out = []
    while len(out) < count:
        p = _point(rng)
        if ok(p) and p not in out:
            out.append(p)
    return out


def _pt(p) -> str:
    return ",".join(str(c) for c in p)


def _pts(points) -> str:
    return ";".join(_pt(p) for p in points)


def _monomials(nv: int, deg: int) -> list:
    """Exponent tuples of the degree-``deg`` monomials in the first ``nv`` variables."""
    return [e + (0,) * (O.N - nv) for e in itertools.product(range(deg + 1), repeat=nv)
            if sum(e) == deg]


def _poly(rng, exps) -> dict:
    return O.add(*(O.mono(_coeff(rng), e) for e in exps))


def _zeros(n: int) -> list:
    return [[Q(0)] * n for _ in range(n)]


def _write(path: Path, payload) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True))
    return path.as_posix()


COMPONENTS = ("++", "+-", "-+", "--")


def _theorem_fields(integrable: bool, ricci_zero: bool, w_plus_zero: bool,
                    w_minus_zero: bool, sectional, d_theta_keys=None) -> dict:
    """Report fields of ``theorem``; ``sectional`` is the constant or None."""
    fields = {
        "integrable": integrable,
        "evidence.d_theta_zero": d_theta_keys is None,
        "evidence.ricci_zero": ricci_zero,
        "evidence.w_plus_zero": w_plus_zero,
        "evidence.w_minus_zero": w_minus_zero,
        "evidence.sectional_constant": sectional,
    }
    if d_theta_keys is not None:
        fields["evidence.d_theta_witness"] = d_theta_keys
    return fields


def _curvature_fields(s, ricci, sd: bool, asd: bool, sectional) -> dict:
    """Report fields of ``curvature`` for a metric whose traceless Ricci part
    vanishes; the Weyl halves vanish exactly when the duality verdicts say so."""
    zero6 = _zeros(6)
    fields = {
        "s": Q(s),
        "ricci": ricci,
        "b_part": zero6,
        "self_dual": sd,
        "anti_self_dual": asd,
        "conformally_flat": sd and asd,
        "sectional_constant": sectional,
    }
    if sd:
        fields["w_minus"] = zero6
    if asd:
        fields["w_plus"] = zero6
    return fields


def _component_verdict(component: str, ricci_zero: bool, w_plus_zero: bool,
                       w_minus_zero: bool, scalar_operator: bool) -> bool:
    """Curvature condition of the dim-4 theorem on each fiber component."""
    return {"++": w_plus_zero and ricci_zero, "--": w_minus_zero and ricci_zero,
            "+-": scalar_operator, "-+": scalar_operator}[component]


def _theorem_jobs(prefix: str, metric: str, curv: dict, extra: list, components=COMPONENTS,
                  d_theta_keys=None) -> list:
    """``theorem`` on the given components of a metric with known curvature data
    (keys ricci_zero, w_plus_zero, w_minus_zero, sectional) at the sample points.
    The verdict follows the data as identities, under key ``identically`` where
    that differs from the data at the points."""
    truth = curv.get("identically", curv)
    jobs = []
    for comp in components:
        ok = _component_verdict(comp, truth["ricci_zero"], truth["w_plus_zero"],
                                truth["w_minus_zero"], truth["sectional"] is not None)
        integrable = ok and d_theta_keys is None
        fields = _theorem_fields(integrable, curv["ricci_zero"], curv["w_plus_zero"],
                                 curv["w_minus_zero"], curv["sectional"], d_theta_keys)
        if ok:
            # the (j,l,r) identity holds wherever the curvature condition does
            fields["evidence.jklr.nonzero"] = 0
        jobs.append(Job(f"{prefix}.theorem{comp}", ["theorem", metric, f"--component={comp}"]
                        + extra, 0 if integrable else 1, fields))
    return jobs


def _theta_non_closed(rng) -> tuple[str, frozenset]:
    """A seeded 2-form q dx_i^dx_j + r dx_k^dx_l with d theta != 0, as a --theta
    expression and the keys of its nonzero d theta components."""
    while True:
        comps = {}
        for _ in range(2):
            i, j = sorted(rng.sample(range(O.N), 2))
            others = [k for k in range(O.N) if k not in (i, j)]
            exps = [tuple(1 if t == k else 0 for t in range(O.N)) for k in others]
            comps[(i, j)] = O.add(comps.get((i, j), {}), _poly(rng, exps))
        dth = O.d_two_form(comps)
        if dth:
            text = "+".join(f"({O.to_str(c)})*dx{i + 1}^dx{j + 1}"
                            for (i, j), c in sorted(comps.items()) if c)
            keys = frozenset(",".join(str(t + 1) for t in idx) for idx in dth)
            return text, keys


# -- dense-metrics ------------------------------------------------------------------------


def _flat_pullback(rng, deg: int, terms: int) -> dict:
    """The flat metric pulled back by a unipotent triangular polynomial map
    F_i = x_i + q_i(x_1..x_{i-1}) of degree ``deg``.  J = DF is unipotent, so
    g = J^T eta J and the frame J^{-1} e_a are polynomial."""
    fs = [O.add(O.var(i), _poly(rng, _monomials(i, deg)[:terms]) if i else {})
          for i in range(O.N)]
    jac = O.jacobian(fs)
    eta = [[O.const(O.ETA[i] if i == j else 0) for j in range(O.N)] for i in range(O.N)]
    g = O.mat_mul(O.mat_mul(O.transpose(jac), eta), jac)
    jinv = O.unipotent_inverse(jac)
    if O.mat_mul(jac, jinv) != O.identity():
        raise AssertionError("unipotent inverse is wrong")
    return {"g": [[O.to_str(p) for p in row] for row in g],
            "onb": [[O.to_str(p) for p in col] for col in O.transpose(jinv)]}


def _constcurv_pullback(rng) -> tuple[dict, Q, callable]:
    """The constant-curvature model of seeded c pulled back by the shear
    y3 = x3 + a x1 with a = +-2, which mixes the two signs of the metric (|a| = 1
    would cancel g_11, and other positions change the cost).  Returns the metric
    file, c, and the metric at a point (or None at a pole)."""
    c = Q(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
    a = Q(rng.choice((-2, 2)))
    shear = [[Q(1 if i == j else 0) for j in range(O.N)] for i in range(O.N)]
    shear[2][0] = a
    y = [O.add(*(O.scale(O.var(j), shear[i][j]) for j in range(O.N))) for i in range(O.N)]
    phi = O.add(O.const(1), O.scale(
        O.add(*(O.scale(O.mul(y[i], y[i]), O.ETA[i]) for i in range(O.N))), c / 4))
    const_g = [[sum(shear[k][i] * O.ETA[k] * shear[k][j] for k in range(O.N))
                for j in range(O.N)] for i in range(O.N)]
    inv = [[Q(1 if i == j else 0) for j in range(O.N)] for i in range(O.N)]
    inv[2][0] = -a
    phi_s = O.to_str(phi)
    payload = {
        "g": [[f"({v})/({phi_s})^2" if v else "0" for v in row] for row in const_g],
        "onb": [[O.to_str(O.scale(phi, inv[i][col])) for i in range(O.N)]
                for col in range(O.N)],
    }

    def g_at(p):
        ph = O.evaluate(phi, p)
        return None if ph == 0 else [[v / ph ** 2 for v in row] for row in const_g]

    return payload, c, g_at


def dense_metrics(seed: int, inputs: Path) -> list:
    rng = random.Random(f"dense-metrics:{seed}")
    jobs = []
    flat = {"ricci_zero": True, "w_plus_zero": True, "w_minus_zero": True, "sectional": Q(0)}
    for name, deg, terms in (("flat2", 2, 6), ("flat3", 3, 3)):
        metric = "file:" + _write(inputs / f"{name}.json", _flat_pullback(rng, deg, terms))
        jobs += _theorem_jobs(f"dense.{name}", metric, flat, [])
        for k, p in enumerate(_points(rng, 2)):
            jobs.append(Job(f"dense.{name}.curvature{k}",
                            ["curvature", metric, f"--point={_pt(p)}"], 0,
                            _curvature_fields(0, _zeros(4), True, True, Q(0))))
    payload, c, g_at = _constcurv_pullback(rng)
    metric = "file:" + _write(inputs / "constcurv.json", payload)
    curv = {"ricci_zero": False, "w_plus_zero": True, "w_minus_zero": True, "sectional": c}
    jobs += _theorem_jobs("dense.constcurv", metric, curv, [])
    for k, p in enumerate(_points(rng, 2, lambda p: g_at(p) is not None)):
        ricci = [[3 * c * v for v in row] for row in g_at(p)]  # Ricci = 3c g
        jobs.append(Job(f"dense.constcurv.curvature{k}",
                        ["curvature", metric, f"--point={_pt(p)}"], 0,
                        _curvature_fields(12 * c, ricci, True, True, c)))
    return jobs


# -- catalog-sampling ----------------------------------------------------------------------

SAMPLES = 300
COUNTEREXAMPLE = "x1*(x1-1)*(x2^3+x2^2)/2"


def _constcurv_g(c: Q, p) -> list | None:
    phi = 1 + c / 4 * sum(O.ETA[i] * Q(p[i]) ** 2 for i in range(O.N))
    if phi == 0:
        return None
    return [[Q(O.ETA[i]) / phi ** 2 if i == j else Q(0) for j in range(O.N)]
            for i in range(O.N)]


def _ppwave_curvature(f: dict, points) -> dict:
    """ppwave curvature data at the points: Ricci flat, W+ = 0 for the reference
    orientation, W- = 0 exactly where d^2 f / dx2^2 vanishes."""
    f22 = O.diff(O.diff(f, 1), 1)

    def data(w_minus_zero):
        return {"ricci_zero": True, "w_plus_zero": True, "w_minus_zero": w_minus_zero,
                "sectional": Q(0) if w_minus_zero else None}

    return dict(data(all(O.evaluate(f22, p) == 0 for p in points)), identically=data(not f22))


def _ppwave_curvature_job(name: str, metric: str, f: dict, p, orientation: str) -> Job:
    flat_here = O.evaluate(O.diff(O.diff(f, 1), 1), p) == 0
    # reversing the orientation swaps the self-dual and anti-self-dual halves
    sd, asd = (flat_here, True) if orientation == "+" else (True, flat_here)
    return Job(name, ["curvature", metric, f"--point={_pt(p)}", f"--orientation={orientation}"],
               0, _curvature_fields(0, _zeros(4), sd, asd, Q(0) if flat_here else None))


def catalog_sampling(seed: int, inputs: Path) -> list:
    rng = random.Random(f"catalog-sampling:{seed}")
    sampled = ["--samples", str(SAMPLES), "--seed", str(rng.randint(0, 999))]
    jobs = []

    flat = {"ricci_zero": True, "w_plus_zero": True, "w_minus_zero": True, "sectional": Q(0)}
    pts = _points(rng, 2)
    jobs += _theorem_jobs("catalog.flat", "flat", flat, sampled + [f"--points={_pts(pts)}"],
                          components=[rng.choice(COMPONENTS)])
    theta, dkeys = _theta_non_closed(rng)
    jobs += _theorem_jobs("catalog.flat.theta", "flat", flat,
                          sampled + [f"--points={_pts(pts)}", f"--theta={theta}"],
                          components=[rng.choice(COMPONENTS)], d_theta_keys=dkeys)

    c = Q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3, 4)))
    metric = f"constcurv:{c}"
    pts = _points(rng, 2, lambda p: _constcurv_g(c, p) is not None)
    curv = {"ricci_zero": False, "w_plus_zero": True, "w_minus_zero": True, "sectional": c}
    # one definite and one mixed component: each constcurv job redoes the symbolic curvature
    jobs += _theorem_jobs("catalog.constcurv", metric, curv, sampled + [f"--points={_pts(pts)}"],
                          components=[rng.choice(("++", "--")), rng.choice(("+-", "-+"))])
    theta, dkeys = _theta_non_closed(rng)
    jobs += _theorem_jobs("catalog.constcurv.theta", metric, curv,
                          sampled + [f"--points={_pts(pts)}", f"--theta={theta}"],
                          components=["+-"], d_theta_keys=dkeys)
    for k, p in enumerate(pts):
        ricci = [[3 * c * v for v in row] for row in _constcurv_g(c, p)]
        jobs.append(Job(f"catalog.constcurv.curvature{k}",
                        ["curvature", metric, f"--point={_pt(p)}"], 0,
                        _curvature_fields(12 * c, ricci, True, True, c)))

    # f with d^2 f / dx2^2 not identically zero, and one affine in x2 (a flat wave)
    f = _poly(rng, [(0, 2, 0, 0), (1, 2, 0, 0), (2, 1, 0, 0), (1, 0, 0, 0)])
    f_flat = _poly(rng, [(2, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 0)])
    if not O.diff(O.diff(f, 1), 1) or O.diff(O.diff(f_flat, 1), 1):
        raise AssertionError("ppwave profile has the wrong x2-degree")
    metric = f"ppwave:{O.to_str(f)}"
    pts = _points(rng, 2)
    jobs += _theorem_jobs("catalog.ppwave", metric, _ppwave_curvature(f, pts),
                          sampled + [f"--points={_pts(pts)}"])
    theta, dkeys = _theta_non_closed(rng)
    jobs += _theorem_jobs("catalog.ppwave.theta", metric, _ppwave_curvature(f, pts),
                          sampled + [f"--points={_pts(pts)}", f"--theta={theta}"],
                          components=["++"], d_theta_keys=dkeys)
    for k, (p, orient) in enumerate(zip(pts, "+-")):
        jobs.append(_ppwave_curvature_job(f"catalog.ppwave.curvature{k}", metric, f, p, orient))
    flat_metric = f"ppwave:{O.to_str(f_flat)}"
    jobs += _theorem_jobs("catalog.ppwave_flat", flat_metric, _ppwave_curvature(f_flat, pts),
                          sampled + [f"--points={_pts(pts)}"], components=["--"])
    jobs.append(_ppwave_curvature_job("catalog.ppwave_flat.curvature", flat_metric, f_flat,
                                      pts[0], "+"))
    return jobs + _catalog_anchors() + _counterexample_jobs()


def _catalog_anchors() -> list:
    """Fixed jobs of the baseline table, so its numbers carry forward."""
    one = Q(1)
    curv1 = {"ricci_zero": False, "w_plus_zero": True, "w_minus_zero": True, "sectional": one}
    ricci0 = [[3 * one * v for v in row] for row in _constcurv_g(one, (0, 0, 0, 0))]
    anchors = [Job("anchor.curvature_constcurv1", ["curvature", "constcurv:1"], 0,
                   _curvature_fields(12, ricci0, True, True, one))]
    anchors += _theorem_jobs("anchor.constcurv1", "constcurv:1", curv1, [], components=["+-"])
    # f = x2^2 has d^2 f / dx2^2 = 2 everywhere
    wave = {"ricci_zero": True, "w_plus_zero": True, "w_minus_zero": False, "sectional": None}
    anchors += _theorem_jobs("anchor.ppwave_x2sq", "ppwave:x2^2", wave, [], components=["++"])
    theta = {(1, 2): O.var(0)}  # x1 dx2^dx3
    dkeys = frozenset(",".join(str(t + 1) for t in idx) for idx in O.d_two_form(theta))
    flat = {"ricci_zero": True, "w_plus_zero": True, "w_minus_zero": True, "sectional": Q(0)}
    anchors += _theorem_jobs("anchor.flat_theta", "flat", flat, ["--theta=x1*dx2^dx3"],
                             components=["++"], d_theta_keys=dkeys)
    return anchors


def _counterexample_jobs() -> list:
    """ppwave:x1*(x1-1)*(x2^3+x2^2)/2 at the default sample points.  d^2 f / dx2^2
    = x1 (x1 - 1)(3 x2 + 1) is not identically zero, so W- != 0 somewhere and only
    ++ is integrable; but it vanishes at all five default points, where the
    verdict is taken."""
    x1, x2 = O.var(0), O.var(1)
    f = O.scale(O.mul(O.mul(x1, O.sub(x1, O.const(1))), O.add(O.mul(x2, O.mul(x2, x2)),
                                                             O.mul(x2, x2))), Q(1, 2))
    if not O.diff(O.diff(f, 1), 1):
        raise AssertionError("counterexample profile is flat")
    jobs = []
    for comp in ("--", "+-", "-+"):
        jobs.append(Job(
            f"counterexample.theorem{comp}",
            ["theorem", f"ppwave:{COUNTEREXAMPLE}", f"--component={comp}"], 1,
            {"integrable": False, "evidence.d_theta_zero": True},
            defect="theorem verdict taken only at the five default points",
            defect_exit_code=0, defect_fields={"integrable": True}))
    return jobs


# -- structures -----------------------------------------------------------------------------


# monomial of each coefficient of the 1-form alpha in omega0 + d alpha (None: 0),
# per degree of omega's entries
ALPHA = {
    "quadratic": ((0, 1, 2, 0), None, (0, 0, 0, 3), None),
    "mixed": ((0, 1, 2, 0), (0, 0, 1, 1), None, None),
    "cubic": ((0, 1, 2, 0), (0, 0, 1, 1), (1, 0, 0, 2), (2, 1, 0, 0)),
}


def _omega(rng, size: str, closed: bool) -> tuple[dict, dict]:
    """omega0 + d alpha (+ a term with nonzero d when not closed), as a component
    map {(i, j): poly} and its exterior derivative."""
    while True:
        omega = {(0, 1): O.const(_coeff(rng)), (2, 3): O.const(_coeff(rng)),
                 (0, 2): O.const(_coeff(rng))}
        alpha = [_poly(rng, [e]) if e else {} for e in ALPHA[size]]
        for key, val in O.d_one_form(alpha).items():
            omega[key] = O.add(omega.get(key, {}), val)
        if not closed:
            omega[(0, 1)] = O.add(omega[(0, 1)], _poly(rng, [(0, 0, 1, 1)]))
        domega = O.d_two_form(omega)
        if bool(domega) != closed and O.pfaffian(omega):
            return omega, domega


def _pi(rng, poisson: bool) -> dict:
    """f(x1,x2) d1^d2 + h d3^d4: Poisson when h = h(x3,x4); h also depends on
    x1 otherwise, and [pi, pi] has a nonzero component."""
    f = _poly(rng, [(1, 1, 0, 0), (0, 2, 0, 0), (2, 1, 0, 0)])
    h = _poly(rng, [(0, 0, 1, 1), (0, 0, 0, 3)] + ([] if poisson else [(1, 0, 1, 0)]))
    return {(0, 1): f, (2, 3): h}


def _product(rng, integrable: bool) -> list:
    """P = A^{-1} D A with D = diag(1, -1, 1, -1).  A is the Jacobian of a unipotent
    polynomial map when integrable, and a unipotent matrix that is not a Jacobian
    otherwise."""
    a = O.identity()
    if integrable:
        fs = [O.var(0), O.add(O.var(1), _poly(rng, [(2, 0, 0, 0)])),
              O.add(O.var(2), _poly(rng, [(1, 1, 0, 0)])),
              O.add(O.var(3), _poly(rng, [(0, 2, 0, 0), (1, 0, 1, 0)]))]
        a = O.jacobian(fs)
    else:
        a[1][0] = _poly(rng, [(0, 0, 1, 0)])
        a[3][2] = _poly(rng, [(1, 0, 0, 0)])
    d = [[O.const((1, -1, 1, -1)[i] if i == j else 0) for j in range(O.N)] for i in range(O.N)]
    return O.mat_mul(O.mat_mul(O.unipotent_inverse(a), d), a)


def _structure_jobs(prefix: str, path: str, kind: str, criterion: str, witness: dict,
                    pts: list, obstruction_at) -> list:
    """``validate`` and ``integrability`` at the points; the frame sweep finds a
    nonzero pair at a point exactly where the obstruction does not vanish."""
    integrable = not witness
    fields = {"kind": kind, "integrable": integrable, "criterion": criterion,
              "nijenhuis_residual_samples[*].nonzero_frame_pairs":
                  [NONZERO if obstruction_at(p) else 0 for p in pts]}
    if witness:
        fields.update({f"witness.{k}": v for k, v in witness.items()})
    else:
        fields["witness"] = MISSING
    where = f"--points={_pts(pts)}"
    return [
        Job(f"{prefix}.validate", ["validate", path, where], 0,
            {"kind": kind, "ok": True, "points[*].ok": [True] * len(pts)}),
        Job(f"{prefix}.integrability", ["integrability", path, where],
            0 if integrable else 1, fields),
    ]


def structures(seed: int, inputs: Path) -> list:
    rng = random.Random(f"structures:{seed}")
    jobs = []
    for size, closed in itertools.product(ALPHA, (True, False)):
        omega, domega = _omega(rng, size, closed)
        pf = O.pfaffian(omega)

        def obstruction_at(p, domega=domega):
            return any(O.evaluate(v, p) for v in domega.values())

        pts = _points(rng, 2, lambda p: O.evaluate(pf, p) != 0 and (closed or obstruction_at(p)))
        desc = {"schema": 1, "kind": "omega",
                "omega": {f"{i + 1},{j + 1}": O.to_str(v) for (i, j), v in sorted(omega.items())
                          if v}}
        name = f"{size}_{'closed' if closed else 'open'}"
        witness = {"d_omega_component": [t + 1 for t in min(domega)]} if domega else {}
        jobs += _structure_jobs(f"structures.omega_{name}",
                                _write(inputs / f"omega_{name}.json", desc), "omega",
                                "d_omega_zero", witness, pts, obstruction_at)
    for poisson in (True, False):
        pi = _pi(rng, poisson)
        jac = O.poisson_jacobiator(pi)
        if bool(jac) == poisson:
            raise AssertionError("pi construction has the wrong Poisson class")

        def obstruction_at(p, jac=jac):
            return any(O.evaluate(v, p) for v in jac.values())

        pts = _points(rng, 2, lambda p: poisson or obstruction_at(p))
        desc = {"schema": 1, "kind": "pi",
                "pi": {f"{i + 1},{j + 1}": O.to_str(v) for (i, j), v in sorted(pi.items())}}
        name = "poisson" if poisson else "nonpoisson"
        witness = {"jacobiator_triple": [t + 1 for t in min(jac)]} if jac else {}
        jobs += _structure_jobs(f"structures.pi_{name}", _write(inputs / f"pi_{name}.json", desc),
                                "pi", "pi_poisson", witness, pts, obstruction_at)
    for integrable in (True, False):
        p_mat = _product(rng, integrable)
        nij = {(i, j): O.nijenhuis(p_mat, O.coordinate_field(i), O.coordinate_field(j))
               for i, j in itertools.combinations(range(O.N), 2)}
        nij = {k: v for k, v in nij.items() if any(v)}
        if bool(nij) == integrable:
            raise AssertionError("product construction has the wrong integrability")

        def obstruction_at(p, nij=nij):
            return any(O.evaluate(c, p) for v in nij.values() for c in v)

        pts = _points(rng, 2, lambda p: integrable or obstruction_at(p))
        desc = {"schema": 1, "kind": "product", "P": [[O.to_str(v) for v in row] for row in p_mat]}
        name = "integrable" if integrable else "nonintegrable"
        witness = {"frame_pair": [t + 1 for t in min(nij)]} if nij else {}
        jobs += _structure_jobs(f"structures.product_{name}",
                                _write(inputs / f"product_{name}.json", desc), "product",
                                "p_nijenhuis_zero", witness, pts, obstruction_at)
    return jobs + _structure_anchor(inputs)


def _structure_anchor(inputs: Path) -> list:
    """The baseline table's 4-term non-closed omega, at the default points."""
    x = [O.var(i) for i in range(O.N)]
    omega = {(0, 1): O.add(O.const(1), x[2]), (2, 3): O.const(1), (0, 2): O.mul(x[1], x[3]),
             (1, 3): x[0]}
    domega = O.d_two_form(omega)
    desc = {"schema": 1, "kind": "omega",
            "omega": {f"{i + 1},{j + 1}": O.to_str(v) for (i, j), v in sorted(omega.items())}}
    path = _write(inputs / "anchor_omega4.json", desc)
    return [Job("anchor.omega4.integrability", ["integrability", path], 1,
                {"kind": "omega", "integrable": False, "criterion": "d_omega_zero",
                 "witness.d_omega_component": [t + 1 for t in min(domega)]})]


WORKLOADS = {
    "dense-metrics": dense_metrics,
    "catalog-sampling": catalog_sampling,
    "structures": structures,
}

# wall time of one pass when the benchmark was added (Python 3.11, 2 cores); a run makes
# as many passes as fit its --seconds, so every run of a workload does the same work
PASS_S = {"dense-metrics": 14.0, "catalog-sampling": 14.4, "structures": 7.3}
