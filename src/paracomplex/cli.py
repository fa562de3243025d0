"""Command-line front end: validate structure descriptors, run integrability
and curvature reports, and check the dim-4 theorem verdicts.

Exit codes: 0 pass, 1 semantic failure (invalid structure / not integrable),
2 input error.  Reports are deterministic: identical inputs and seed produce
identical bytes.

Only `curvature` and `theorem` run `paracomplex.curv`, so only they import it;
`validate` and `integrability` start without loading (or compiling) it.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from paracomplex.exact import (DEFAULT_POINTS, VARS4, ParseError, PoleAtPoint, RatFunc,
                               check_variables, parse_ratfunc)
from paracomplex.gpx import GenEndo, assemble, gen_metric, is_compatible, validate_gen_para
from paracomplex.linalg import Bilinear, Endo, SingularMatrix, mat_eval, mat_jet, mat_to_strings
from paracomplex.para import validate_para
from paracomplex.patch import (STRUCTURES, BiVectorField, KForm,
                               gen_nijenhuis_frame_sweep, integrability_report)


class InputError(ValueError):
    """Bad descriptor, expression, or flag value (exit code 2)."""


# -- small parsers ------------------------------------------------------------


def parse_point(text: str, nvars: int = 4) -> tuple:
    try:
        coords = tuple(Fraction(c.strip()) for c in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad point {text!r}") from exc
    if len(coords) != nvars:
        raise InputError(f"expected {nvars} coordinates in {text!r}")
    return coords


def parse_points_arg(text: str, nvars: int = 4) -> list:
    points = [parse_point(part, nvars) for part in text.split(";") if part.strip()]
    if not points:
        raise InputError(f"no point given in {text!r}")
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


def parse_theta_expr(text: str, variables=VARS4) -> KForm:
    """Tiny 2-form grammar: terms `c*dxi^dxj` joined by + / -, with c a
    product of rational-function factors (default 1)."""
    nvars = len(variables)
    theta = KForm(nvars, 2)
    if not text.strip():
        return theta
    for sign, term in _split_top_level(text.replace(" ", ""), "+-"):
        factors = [f for _, f in _split_top_level(term, "*")]
        if not factors:
            raise InputError(f"empty term in theta expression {text!r}")
        match = _WEDGE_RE.match(factors[-1])
        if match is None:
            raise InputError(f"term {term!r} must end with dxi^dxj")
        i, j = int(match.group(1)) - 1, int(match.group(2)) - 1
        if not (0 <= i < nvars and 0 <= j < nvars) or i == j:
            raise InputError(f"bad wedge indices in {term!r}")
        coeff_src = "*".join(factors[:-1]) or "1"
        try:
            coeff = parse_ratfunc(coeff_src, variables)
        except ParseError as exc:
            raise InputError(f"bad coefficient {coeff_src!r}: {exc}") from exc
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
            raise InputError("matrix has the wrong shape")
        mat = [[parse_ratfunc(s, variables) for s in row] for row in data]
        for i in range(nvars if antisym else 0):
            for j in range(i, nvars):
                if not (mat[i][j] + mat[j][i]).is_zero():
                    raise InputError(f"matrix is not antisymmetric at ({i + 1},{j + 1})")
        return mat
    if isinstance(data, dict):
        mat = [[RatFunc.zero(nvars) for _ in range(nvars)] for _ in range(nvars)]
        for key, expr in data.items():
            try:
                i, j = (int(p) - 1 for p in key.split(","))
            except ValueError as exc:
                raise InputError(f"bad component key {key!r}") from exc
            if not (0 <= i < nvars and 0 <= j < nvars):
                raise InputError(f"component key {key!r} is outside 1..{nvars}")
            if antisym and i == j:
                raise InputError(f"component key {key!r} is diagonal")
            value = parse_ratfunc(expr, variables)
            mat[i][j] = mat[i][j] + value
            if antisym:
                mat[j][i] = mat[j][i] - value
        return mat
    raise InputError("expected a matrix or a component map")


def load_descriptor(path: str) -> dict:
    try:
        with open(path) as fh:
            desc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read descriptor {path!r}: {exc}") from exc
    if not isinstance(desc, dict):
        raise InputError(f"descriptor {path!r} is not a JSON object")
    return desc


def _descriptor_structure(desc: dict):
    """Build the patch-level data for a structure descriptor."""
    kind = desc.get("kind")
    variables = check_variables(desc.get("vars", VARS4))
    nvars = len(variables)

    def field(name):
        if name not in desc:
            raise InputError(f"a {kind!r} descriptor needs {name!r}")
        return desc[name]

    if kind == "trivial":
        return kind, nvars, variables
    if kind == "omega":
        mat = _component_map_to_matrix(field("omega"), variables)
        omega = KForm(nvars, 2, {(i, j): mat[i][j]
                                 for i in range(nvars) for j in range(i + 1, nvars)})
        return kind, omega, variables
    if kind == "pi":
        mat = _component_map_to_matrix(field("pi"), variables)
        pi = BiVectorField(nvars, {(i, j): mat[i][j]
                                   for i in range(nvars) for j in range(i + 1, nvars)})
        return kind, pi, variables
    if kind == "product":
        mat = _component_map_to_matrix(field("P"), variables, antisym=False)
        return kind, mat, variables
    if kind == "assembled":
        g = _component_map_to_matrix(field("g"), variables, antisym=False)
        theta = _component_map_to_matrix(desc.get("theta", {}), variables)
        k1 = _component_map_to_matrix(field("k1"), variables, antisym=False)
        k2 = _component_map_to_matrix(field("k2"), variables, antisym=False)
        return kind, (g, theta, k1, k2), variables
    raise InputError(f"unknown structure kind {kind!r}")


# -- commands -------------------------------------------------------------------

# failures that `validate` reports per point (exit 1) rather than as bad input
_POINT_ERRORS = (ValueError, PoleAtPoint, ZeroDivisionError)


def cmd_validate(args) -> tuple[dict, int]:
    desc = load_descriptor(args.descriptor)
    kind, data, variables = _descriptor_structure(desc)
    nvars = len(variables)
    points = _points_from_args(args, nvars, default_count=5)
    k = error = None
    if kind != "assembled":
        try:
            k = STRUCTURES[kind](data)
        except _POINT_ERRORS as exc:
            error = str(exc)  # reported at every point
    results = []
    all_ok = True
    for p in points:
        entry: dict = {"point": [str(c) for c in p]}
        try:
            if error is not None:
                entry["error"] = error
                ok = False
            elif kind == "assembled":
                g_mat, th_mat, k1_mat, k2_mat = (
                    mat_eval(m, p) for m in data)
                g = Bilinear(g_mat)
                k1, k2 = Endo(k1_mat), Endo(k2_mat)
                rep1 = validate_para(g, k1)
                rep2 = validate_para(g, k2)
                entry["k1"] = rep1.checks
                entry["k2"] = rep2.checks
                ok = rep1.ok and rep2.ok
                if ok:
                    k = assemble(g, Bilinear(th_mat), k1, k2)
                    rep = validate_gen_para(k)
                    compat = is_compatible(k, gen_metric(g, Bilinear(th_mat)))
                    entry["structure"] = rep.checks
                    entry["compatible"] = compat
                    ok = rep.ok and compat
            else:
                rep = validate_gen_para(GenEndo.from_matrix(mat_eval(k.as_matrix(), p)))
                entry["structure"] = rep.checks
                ok = rep.ok
        except _POINT_ERRORS as exc:
            entry["error"] = str(exc)
            ok = False
        entry["ok"] = ok
        all_ok = all_ok and ok
        results.append(entry)
    report = {"schema": 1, "command": "validate", "kind": kind,
              "points": results, "ok": all_ok}
    return report, 0 if all_ok else 1


def cmd_integrability(args) -> tuple[dict, int]:
    desc = load_descriptor(args.descriptor)
    kind, data, variables = _descriptor_structure(desc)
    if kind == "assembled":
        raise InputError("integrability reports cover kinds trivial/omega/pi/product")
    nvars = len(variables)
    points = _points_from_args(args, nvars, default_count=3)
    rep = integrability_report(kind, data)
    k = rep.structure.as_matrix()
    samples = []
    for p in points:
        entry: dict = {"point": [str(c) for c in p]}
        try:
            k_at, dk_at = mat_jet(k, p, 1)
            _, witnesses = gen_nijenhuis_frame_sweep(
                GenEndo.from_matrix(k_at), [GenEndo.from_matrix(d) for d in dk_at])
        except PoleAtPoint as exc:
            entry["error"] = str(exc)
        else:
            entry["nonzero_frame_pairs"] = len(witnesses)
            entry["sample"] = None
            if witnesses:
                pair = min(witnesses)
                comp = next(str(c) for c in witnesses[pair].x + witnesses[pair].alpha if c)
                entry["sample"] = {"frame_pair": list(pair), "component": comp}
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
    dec = decompose(op, model.onb_at(point, orientation))
    verdict = duality_verdict(dec)
    const = sectional_constant_check(op)
    report = {
        "schema": 1,
        "command": "curvature",
        "metric": model.name,
        "point": [str(c) for c in point],
        "orientation": args.orientation,
        "s": str(op.s),
        "ricci": mat_to_strings(op.ricci.mat),
        "b_part": mat_to_strings(dec.b_part),
        "w_plus": mat_to_strings(dec.w_plus),
        "w_minus": mat_to_strings(dec.w_minus),
        "self_dual": verdict["self_dual"],
        "anti_self_dual": verdict["anti_self_dual"],
        "conformally_flat": verdict["conformally_flat"],
        "sectional_constant": str(const) if const is not None else None,
    }
    return report, 0


def cmd_theorem(args) -> tuple[dict, int]:
    from paracomplex.curv import parse_metric_id, theorem_verdict

    if args.samples < 0:
        raise InputError(f"--samples must be at least 0, got {args.samples}")
    model = parse_metric_id(args.metric)
    theta = parse_theta_expr(args.theta) if args.theta else KForm(model.nvars, 2)
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
        raise InputError(f"the default points have 4 coordinates, not {nvars}; give --points")
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
