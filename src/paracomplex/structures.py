"""The `validate` and `integrability` commands on a structure descriptor.

Only those two commands import this module, and it imports `gpx` and `patch`
but not `curv`; `validate` on an `assembled` descriptor imports
`paracomplex.assembled`, which holds that kind's checks, and not `para`.
Each command runs patch.check_structure once, before anything that reads
the structure's data as valid.  `cli` reads the descriptor, as its kind,
its matrix and its variables, and the points of `--point` or `--points`;
without them a command samples the default points.
No kind but assembled, for g(p)^-1, and omega, for omega(p)^-1 in
`gpx.structure_jet`, runs an elimination.
"""

from __future__ import annotations

from paracomplex.exact import DEFAULT_POINTS, PoleAtPoint, point_strings
from paracomplex.gpx import structure_jet, validate_gen_para
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


def _jet_or_pole(kind: str, mat: list, point, order: int):
    """gpx.structure_jet of the kind's matrix at the point, or the
    PoleAtPoint it raised there."""
    try:
        return structure_jet(kind, mat, point, order)
    except PoleAtPoint as exc:
        return exc


def _jets_at(kind: str, mat: list, points: list, order: int) -> tuple[list, bool]:
    """_jet_or_pole at each point, and whether some point gave K(p): for
    omega, det omega(p) != 0 there, which certifies that its Pfaffian is not
    zero (patch.check_structure).  Where no given point does, omega is
    evaluated at two fixed points, the 64-bit words k * 0x9E3779B97F4A7C15
    mod 2^64 for k = 16, 17, ... and k = 32, 33, ..., and is degenerate only
    if it gives no K(p) at both.  A nondegenerate omega gives none at a point
    only where Pf(omega) Q^2 vanishes, Q the product of the entries'
    denominators, a nonzero polynomial of some degree D, so for two points
    drawn uniformly from [0, 2^64)^n the chance of both is at most
    (D / 2^64)^2 (Schwartz-Zippel).  The points are constants, not draws: the
    bound is over their choice, and no report depends on a generator."""
    jets = [_jet_or_pole(kind, mat, p, order) for p in points]
    certified = not all(isinstance(j, Exception) for j in jets)
    if kind == "omega" and not certified:
        fixed = [(1, tuple(k * 0x9E3779B97F4A7C15 % 2 ** 64 for k in range(s, s + len(mat))))
                 for s in (16, 32)]
        certified = not all(isinstance(_jet_or_pole(kind, mat, p, 0), Exception) for p in fixed)
    return jets, certified


def cmd_validate(descriptor, point, points) -> dict:
    kind, mat, variables = descriptor
    points = _points(point, points, len(variables), 5)
    error, jets = None, [None] * len(points)
    if kind == "assembled":
        from paracomplex.assembled import validate_at, validate_identities
    else:
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
                ok = validate_at(mat, p, entry)
            elif isinstance(error or jet, Exception):
                raise error or jet
            else:
                entry["structure"] = checks = validate_gen_para(*jet[0])
                ok = all(checks.values())
        except ValueError as exc:
            entry["error"] = str(exc)
            ok = False
        entry["ok"] = ok
        results.append(entry)
    if kind == "assembled":
        validate_identities(descriptor, results)
    return {"kind": kind, "points": results, "ok": all(e["ok"] for e in results)}


def cmd_integrability(descriptor, point, points) -> dict:
    kind, mat, variables = descriptor
    if kind == "assembled":
        raise ValueError("integrability reports cover kinds trivial/omega/pi/product")
    points = _points(point, points, len(variables), 3)
    jets, certified = _jets_at(kind, mat, points, 1)
    check_structure(kind, mat, certified)
    criterion, witness = integrability_report(kind, mat, variables)
    samples = []
    for p, jet in zip(points, jets):
        entry: dict = {"point": point_strings(p)}
        if isinstance(jet, PoleAtPoint):
            entry["error"] = str(jet)
        else:
            scale, witnesses = gen_nijenhuis_frame_sweep(*jet)
            entry["nonzero_frame_pairs"] = len(witnesses)
            entry["sample"] = None
            if witnesses:
                pair = min(witnesses)
                comp = next(c for c in witnesses[pair] if c)
                entry["sample"] = {"frame_pair": list(pair), "component": rat_str(scale, comp)}
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
