"""The `validate` and `integrability` commands on a structure descriptor.

Only those two commands import this module, and it imports `gpx` and `patch`
(and `para` for an `assembled` descriptor) but not `curv`.  `cli` reads the
descriptor, as its kind, its matrix and its variables, and the points of
`--point` or `--points`; without them a command samples the default points.
An `assembled` descriptor is checked at Theta = 0, with one inverse of g(p)
per point (`gpx`), the one elimination of its point; a singular g(p) is a
ValueError, which the point's "error" shows.  No other kind runs an
elimination but omega, for omega(p)^-1 in `gpx.structure_jet`.
"""

from __future__ import annotations

from paracomplex.exact import DEFAULT_POINTS, PoleAtPoint, point_strings
from paracomplex.gpx import assemble, is_compatible, structure_jet, validate_gen_para
from paracomplex.linalg import INPUT_ERRORS, int_inv, int_jet, mat_scale, transpose
from paracomplex.patch import check_structure, gen_nijenhuis_frame_sweep, integrability_report
from paracomplex.poly import rat_str


def _points(point, points, nvars: int, count: int) -> list:
    """The points that cli read, of --points or the one of --point, else the
    first count default points."""
    if points or point:
        return points or [point]
    if nvars != 4:
        raise ValueError(f"the default points have 4 coordinates, not {nvars}; give --points")
    return DEFAULT_POINTS[:count]


def _jets_at(kind: str, mat: list, points: list, order: int) -> tuple[list, bool]:
    """gpx.structure_jet of the kind's matrix at each point, or the
    PoleAtPoint it raised there, and whether some point gave K(p): for omega,
    det omega(p) != 0 there, which certifies that its Pfaffian is not zero
    (patch.check_structure)."""
    jets = []
    for p in points:
        try:
            jets.append(structure_jet(kind, mat, p, order))
        except PoleAtPoint as exc:
            jets.append(exc)
    return jets, not all(isinstance(j, Exception) for j in jets)


def _validate_assembled(mat: tuple, p: tuple, entry: dict) -> bool:
    """The checks of an assembled descriptor at a point, into entry: each
    paracomplex factor once, then K of (g, K1, K2), from the one inverse of
    g(p), and its compatibility with g.  Theta(p) is evaluated only so that a
    pole of Theta is reported: every check of (g, Theta, K1, K2) is that of
    (g, K1, K2), since e^Theta keeps them (gpx)."""
    from paracomplex.para import validate_para

    g, _, k1, k2 = [int_jet(m, p)[0] for m in mat]  # a pole in any of them comes first
    entry["k1"], entry["k2"] = checks = [validate_para(g, k) for k in (k1, k2)]
    if not all(all(c.values()) for c in checks):
        return False
    # w_s = K_s^T g is singular iff g is, since K_s^2 = Id
    inv = int_inv(g[1])
    if inv is None:
        raise ValueError("matrix is singular over the scalar field")
    if g[1] != transpose(g[1]):
        raise ValueError("g must be symmetric")
    # no check that g is neutral: K1 passes and g is invertible, so g is nondegenerate
    # and the eigenspaces of K1, of dimension n/2, are g-isotropic
    k = assemble(g, (inv[0], mat_scale(g[0], inv[1])), k1, k2)
    entry["structure"] = checks = validate_gen_para(*k)
    entry["compatible"] = compatible = is_compatible(k, g)
    return all(checks.values()) and compatible


def cmd_validate(descriptor, point, points) -> dict:
    kind, mat, variables = descriptor
    points = _points(point, points, len(variables), 5)
    error, jets = None, [None] * len(points)
    if kind != "assembled":
        jets, certified = _jets_at(kind, mat, points, 0)
        try:
            check_structure(kind, mat, certified)
        except ValueError as exc:
            error = exc  # reported at every point
    results = []
    for p, jet in zip(points, jets):
        entry: dict = {"point": point_strings(p)}
        try:
            if kind == "assembled":
                ok = _validate_assembled(mat, p, entry)
            elif isinstance(error or jet, Exception):
                raise error or jet
            else:
                entry["structure"] = checks = validate_gen_para(*jet[0])
                ok = all(checks.values())
        except INPUT_ERRORS as exc:
            entry["error"] = str(exc)
            ok = False
        entry["ok"] = ok
        results.append(entry)
    return {"kind": kind, "points": results, "ok": all(e["ok"] for e in results)}


def cmd_integrability(descriptor, point, points) -> dict:
    kind, mat, variables = descriptor
    if kind == "assembled":
        raise ValueError("integrability reports cover kinds trivial/omega/pi/product")
    points = _points(point, points, len(variables), 3)
    jets, certified = _jets_at(kind, mat, points, 1)
    criterion, witness = integrability_report(kind, mat, certified, variables)
    samples = []
    for p, jet in zip(points, jets):
        entry: dict = {"point": point_strings(p)}
        if isinstance(jet, PoleAtPoint):
            entry["error"] = str(jet)
        else:
            k, dk = jet
            _, witnesses = gen_nijenhuis_frame_sweep(k, dk)
            entry["nonzero_frame_pairs"] = len(witnesses)
            entry["sample"] = None
            if witnesses:
                # the sweep gives 2 D0 D1 N for K(p) = K / D0 and dK(p) = dK / D1
                pair = min(witnesses)
                comp = next(c for c in witnesses[pair] if c)
                entry["sample"] = {"frame_pair": list(pair),
                                   "component": rat_str(2 * k[0] * dk[0], comp)}
        samples.append(entry)
    report = {
        "kind": kind,
        "integrable": witness is None,
        "criterion": criterion,
        "nijenhuis_residual_samples": samples,
    }
    if witness is not None:
        report["witness"] = witness
    return report
