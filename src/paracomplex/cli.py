"""Command-line front end: validate structure descriptors, run integrability
and curvature reports, and check the dim-4 theorem verdicts.

Exit codes: 0 pass, 1 semantic failure (invalid structure / not integrable),
2 input error.  Reports are deterministic: identical inputs and seed produce
identical bytes.

Each command imports the modules it runs inside its function, so a start
loads (and, without cached bytecode, compiles) only those: `validate` and
`integrability` load `gpx` and `patch` but not `curv`; `curvature` and
`theorem` load `curv` but, without `--theta`, neither `gpx` nor `patch`.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from paracomplex.exact import (DEFAULT_POINTS, VARS4, PoleAtPoint, RatFunc, check_variables,
                               parse_ratfunc, parse_rational)
from paracomplex.linalg import SingularMatrix, int_jet, mat_to_strings, transpose


# -- small parsers ------------------------------------------------------------


def parse_point(text: str, nvars: int = 4) -> tuple:
    try:
        coords = tuple(parse_rational(c) for c in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad point {text!r}") from exc
    if len(coords) != nvars:
        raise ValueError(f"expected {nvars} coordinates in {text!r}")
    return coords


def parse_points_arg(text: str, nvars: int = 4) -> list:
    points = [parse_point(part, nvars) for part in text.split(";") if part.strip()]
    if not points:
        raise ValueError(f"no point given in {text!r}")
    return points


_WEDGE_RE = re.compile(r"^dx(\d+)\^dx(\d+)$")


def _split_top_level(text: str, seps: str) -> list[tuple[str, str]]:
    """Split on top-level separator characters, keeping the sign/operator."""
    parts = []
    depth = 0
    current = []
    op = "+"
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in seps and current:
            parts.append((op, "".join(current)))
            op = ch
            current = []
        elif depth == 0 and ch in seps and not current:
            # leading sign
            op = ch if op == "+" else ("+" if ch == "-" and op == "-" else ch)
        else:
            current.append(ch)
    if current:
        parts.append((op, "".join(current)))
    return parts


def parse_theta_expr(text: str, variables=VARS4):
    """Tiny 2-form grammar: terms `c*dxi^dxj` joined by + / -, with c a
    product of rational-function factors (default 1); a patch.KForm."""
    from paracomplex.patch import KForm

    nvars = len(variables)
    theta = KForm(nvars, 2)
    if not text.strip():
        return theta
    for sign, term in _split_top_level(text.replace(" ", ""), "+-"):
        factors = [f for _, f in _split_top_level(term, "*")]
        if not factors:
            raise ValueError(f"empty term in theta expression {text!r}")
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
        theta = theta + KForm(nvars, 2, {(i, j): coeff})
    return theta


def _component_map_to_matrix(data, variables, antisym=True):
    """Accept either a full matrix of strings or a component map
    {"i,j": "expr"} with 1-based indices."""
    nvars = len(variables)
    if isinstance(data, list):
        if len(data) != nvars or any(not isinstance(row, list) or len(row) != nvars
                                     for row in data):
            raise ValueError("matrix has the wrong shape")
        mat = [[parse_ratfunc(s, variables) for s in row] for row in data]
        for i in range(nvars if antisym else 0):
            for j in range(i, nvars):
                if not (mat[i][j] + mat[j][i]).is_zero():
                    raise ValueError(f"matrix is not antisymmetric at ({i + 1},{j + 1})")
        return mat
    if isinstance(data, dict):
        mat = [[RatFunc.zero(nvars) for _ in range(nvars)] for _ in range(nvars)]
        for key, expr in data.items():
            try:
                i, j = (int(p) - 1 for p in key.split(","))
            except ValueError as exc:
                raise ValueError(f"bad component key {key!r}") from exc
            if not (0 <= i < nvars and 0 <= j < nvars):
                raise ValueError(f"component key {key!r} is outside 1..{nvars}")
            if antisym and i == j:
                raise ValueError(f"component key {key!r} is diagonal")
            value = parse_ratfunc(expr, variables)
            mat[i][j] = mat[i][j] + value
            if antisym:
                mat[j][i] = mat[j][i] - value
        return mat
    raise ValueError("expected a matrix or a component map")


def load_descriptor(path: str) -> dict:
    try:
        with open(path) as fh:
            desc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read descriptor {path!r}: {exc}") from exc
    if not isinstance(desc, dict):
        raise ValueError(f"descriptor {path!r} is not a JSON object")
    return desc


def _descriptor_structure(desc: dict):
    """The kind of a structure descriptor, its n x n matrix of rational
    functions (the form omega(d_i, d_j), the bivector pi^{ij}, P, or zero for
    trivial; for assembled the four matrices g, Theta, K1 and K2), and the
    variables."""
    kind = desc.get("kind")
    variables = check_variables(desc.get("vars", VARS4))

    def field(name, antisym=True):
        if name not in desc:
            raise ValueError(f"a {kind!r} descriptor needs {name!r}")
        return _component_map_to_matrix(desc[name], variables, antisym)

    if kind == "trivial":
        return kind, _component_map_to_matrix({}, variables), variables
    if kind in ("omega", "pi"):
        return kind, field(kind), variables
    if kind == "product":
        return kind, field("P", antisym=False), variables
    if kind == "assembled":
        g = field("g", antisym=False)
        theta = _component_map_to_matrix(desc.get("theta", {}), variables)
        return kind, (g, theta, field("k1", antisym=False), field("k2", antisym=False)), variables
    raise ValueError(f"unknown structure kind {kind!r}")


# -- commands -------------------------------------------------------------------

# failures that `validate` reports per point (exit 1) rather than as bad input
_POINT_ERRORS = (ValueError, PoleAtPoint, ZeroDivisionError)


def _jets_at(kind: str, mat: list, points: list, order: int) -> tuple[list, bool]:
    """gpx.structure_jet of the kind's matrix at each point, or the
    PoleAtPoint it raised there, and whether some point gave K(p): for omega,
    det omega(p) != 0 there, which certifies that its Pfaffian is not zero
    (patch.check_structure)."""
    from paracomplex.gpx import structure_jet

    jets = []
    for p in points:
        try:
            jets.append(structure_jet(kind, mat, p, order))
        except PoleAtPoint as exc:
            jets.append(exc)
    return jets, not all(isinstance(j, Exception) for j in jets)


def _validate_assembled(mat: tuple, p: tuple, entry: dict) -> bool:
    """The checks of an assembled descriptor at a point, into entry: each
    paracomplex factor once, then K and its compatibility with (g, Theta)."""
    from paracomplex.gpx import assemble, is_compatible, validate_gen_para
    from paracomplex.para import validate_para

    g, theta, k1, k2 = [int_jet(m, p)[0] for m in mat]  # a pole in any of them comes first
    entry["k1"], entry["k2"] = checks = [validate_para(g, k) for k in (k1, k2)]
    if not all(all(c.values()) for c in checks):
        return False
    k = assemble(g, theta, k1, k2)
    if g[1] != transpose(g[1]):
        raise ValueError("g must be symmetric")
    # no check that g is neutral: K1 passes and w_1 = K1^T g is invertible, so g is
    # nondegenerate and the eigenspaces of K1, of dimension n/2, are g-isotropic
    entry["structure"] = checks = validate_gen_para(*k)
    entry["compatible"] = compatible = is_compatible(k, g, theta)
    return all(checks.values()) and compatible


def cmd_validate(args) -> tuple[dict, int]:
    from paracomplex.gpx import validate_gen_para
    from paracomplex.patch import check_structure

    desc = load_descriptor(args.descriptor)
    kind, mat, variables = _descriptor_structure(desc)
    points = _points_from_args(args, len(variables), default_count=5)
    error, jets = None, [None] * len(points)
    if kind != "assembled":
        jets, certified = _jets_at(kind, mat, points, 0)
        try:
            check_structure(kind, mat, certified)
        except ValueError as exc:
            error = exc  # reported at every point
    results = []
    for p, jet in zip(points, jets):
        entry: dict = {"point": [str(c) for c in p]}
        try:
            if kind == "assembled":
                ok = _validate_assembled(mat, p, entry)
            elif isinstance(error or jet, Exception):
                raise error or jet
            else:
                entry["structure"] = checks = validate_gen_para(*jet[0])
                ok = all(checks.values())
        except _POINT_ERRORS as exc:
            entry["error"] = str(exc)
            ok = False
        entry["ok"] = ok
        results.append(entry)
    report = {"schema": 1, "command": "validate", "kind": kind,
              "points": results, "ok": all(e["ok"] for e in results)}
    return report, 0 if report["ok"] else 1


def cmd_integrability(args) -> tuple[dict, int]:
    from paracomplex.patch import gen_nijenhuis_frame_sweep, integrability_report

    desc = load_descriptor(args.descriptor)
    kind, mat, variables = _descriptor_structure(desc)
    if kind == "assembled":
        raise ValueError("integrability reports cover kinds trivial/omega/pi/product")
    points = _points_from_args(args, len(variables), default_count=3)
    jets, certified = _jets_at(kind, mat, points, 1)
    rep = integrability_report(kind, mat, certified)
    samples = []
    for p, jet in zip(points, jets):
        entry: dict = {"point": [str(c) for c in p]}
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
                                   "component": str(Fraction(comp, 2 * k[0] * dk[0]))}
        samples.append(entry)
    report = {
        "schema": 1,
        "command": "integrability",
        "kind": kind,
        "integrable": rep.integrable,
        "criterion": rep.criterion,
        "nijenhuis_residual_samples": samples,
    }
    if rep.witness is not None:
        report["witness"] = rep.witness
    return report, 0 if rep.integrable else 1


def cmd_curvature(args) -> tuple[dict, int]:
    from paracomplex.curv import (curvature_operator, decompose, duality_verdict,
                                  parse_metric_id, sectional_constant_check)

    model = parse_metric_id(args.metric)
    point = parse_point(args.point, model.nvars)
    orientation = +1 if args.orientation == "+" else -1
    op = curvature_operator(model.g, point)
    dec = decompose(op, model.onb_at(point, orientation, op.int_g))
    verdict = duality_verdict(dec)
    const = sectional_constant_check(op)
    report = {
        "schema": 1,
        "command": "curvature",
        "metric": model.name,
        "point": [str(c) for c in point],
        "orientation": args.orientation,
        "s": str(op.s),
        "ricci": mat_to_strings(op.ricci),
        "b_part": mat_to_strings(dec.b_part),
        "w_plus": mat_to_strings(dec.w_plus),
        "w_minus": mat_to_strings(dec.w_minus),
        "self_dual": verdict["self_dual"],
        "anti_self_dual": verdict["anti_self_dual"],
        "conformally_flat": verdict["conformally_flat"],
        "sectional_constant": str(const) if const is not None else None,
    }
    return report, 0


# a (j,l,r) sample costs 25-80 us, so the largest count runs for at most about 8 s
MAX_SAMPLES = 100_000


def cmd_theorem(args) -> tuple[dict, int]:
    from paracomplex.curv import parse_metric_id, theorem_verdict

    if args.samples < 0:
        raise ValueError(f"--samples must be at least 0, got {args.samples}")
    if args.samples > MAX_SAMPLES:
        raise ValueError(f"--samples must be at most {MAX_SAMPLES}, got {args.samples}")
    model = parse_metric_id(args.metric)
    theta = parse_theta_expr(args.theta) if args.theta else None
    points = parse_points_arg(args.points, model.nvars) if args.points is not None else None
    if args.epsilon != 1:
        # the three Eells-Salamon-type structures are never integrable; the
        # explicit mixed-term witness is nonzero at every point
        report = {
            "schema": 1,
            "command": "theorem",
            "metric": model.name,
            "component": args.component,
            "epsilon": args.epsilon,
            "integrable": False,
            "evidence": {"epsilon_never_integrable": True,
                         "witness": "mixed vertical-horizontal Nijenhuis value 2*Q4''"},
        }
        return report, 1
    out = theorem_verdict(model, theta, args.component, sample_points=points,
                          seed=args.seed, jklr_samples=args.samples)
    report = {
        "schema": 1,
        "command": "theorem",
        "metric": model.name,
        "component": out["component"],
        "epsilon": 1,
        "seed": args.seed,
        "integrable": out["integrable"],
        "evidence": out["evidence"],
    }
    return report, 0 if out["integrable"] else 1


def _points_from_args(args, nvars: int, default_count: int) -> list:
    if args.points is not None:
        return parse_points_arg(args.points, nvars)
    if args.point is not None:
        return [parse_point(args.point, nvars)]
    if nvars != 4:
        raise ValueError(f"the default points have 4 coordinates, not {nvars}; give --points")
    pts = [tuple(Fraction(c) for c in p) for p in DEFAULT_POINTS]
    return pts[:default_count]


# -- rendering --------------------------------------------------------------------


def _render_text(report: dict, lines=None, prefix="") -> str:
    if lines is None:
        lines = []
        for key in sorted(report):
            _render_text({key: report[key]}, lines)
        return "\n".join(lines) + "\n"
    for key, value in report.items():
        label = f"{prefix}{key}"
        if isinstance(value, dict):
            for sub in sorted(value):
                _render_text({sub: value[sub]}, lines, prefix=label + ".")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for idx, item in enumerate(value):
                for sub in sorted(item):
                    _render_text({sub: item[sub]}, lines, prefix=f"{label}[{idx}].")
        else:
            lines.append(f"{label}: {value}")
    return ""


def emit(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    return _render_text(report)


# -- entry point --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paracomplex",
        description="Exact checks for paracomplex and generalized paracomplex "
                    "structures over neutral-signature patches.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "text"), default="json")

    p_val = sub.add_parser("validate", help="validate a structure descriptor")
    p_val.add_argument("descriptor")
    p_val.add_argument("--point", help="single sample point c1,c2,c3,c4")
    p_val.add_argument("--points", help="semicolon-separated sample points")
    common(p_val)

    p_int = sub.add_parser("integrability", help="integrability report")
    p_int.add_argument("descriptor")
    p_int.add_argument("--point")
    p_int.add_argument("--points")
    common(p_int)

    p_cur = sub.add_parser("curvature", help="curvature decomposition report")
    p_cur.add_argument("metric")
    p_cur.add_argument("--point", default="0,0,0,0")
    p_cur.add_argument("--orientation", choices=("+", "-"), default="+")
    common(p_cur)

    p_thm = sub.add_parser("theorem", help="dim-4 integrability verdict")
    p_thm.add_argument("metric")
    p_thm.add_argument("--theta", default="")
    p_thm.add_argument("--component", required=True,
                       choices=("++", "+-", "-+", "--", "pp", "pm", "mp", "mm"),
                       help="fiber component; pp/pm/mp/mm are aliases for "
                            "++/+-/-+/-- (shell-friendly)")
    p_thm.add_argument("--points")
    p_thm.add_argument("--seed", type=int, default=0)
    p_thm.add_argument("--samples", type=int, default=40)
    p_thm.add_argument("--epsilon", type=int, choices=(1, 2, 3, 4), default=1)
    common(p_thm)
    return parser


COMMANDS = {
    "validate": cmd_validate,
    "integrability": cmd_integrability,
    "curvature": cmd_curvature,
    "theorem": cmd_theorem,
}


_COMPONENT_ALIASES = {"pp": "++", "pm": "+-", "mp": "-+", "mm": "--"}


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # argparse silently drops a literal "--" value (it marks end-of-options),
    # so rewrite the = form before parsing
    argv = ["--component=mm" if a == "--component=--" else a for a in argv]
    args = parser.parse_args(argv)
    if getattr(args, "component", None) in _COMPONENT_ALIASES:
        args.component = _COMPONENT_ALIASES[args.component]
    try:
        report, code = COMMANDS[args.command](args)
    except (ValueError, PoleAtPoint, SingularMatrix) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    sys.stdout.write(emit(report, args.format))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
