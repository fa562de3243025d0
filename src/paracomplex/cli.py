"""Command-line front end: validate structure descriptors, run integrability
and curvature reports, and check the dim-4 theorem verdicts.

Exit codes: 0 pass, 1 semantic failure (invalid structure / not integrable),
2 input error.  `main` alone decides them, and adds the envelope of every
report, its schema and command; each command's body returns the rest.
Reports are deterministic: identical inputs and seed produce identical bytes.

Every input file and every point is read here; `theorem` reads its own
`--theta`.

`main` imports the module of a command's body when it runs it (COMMANDS), so
a start loads, and without cached bytecode compiles, only what it runs:
`validate` and `integrability` load `structures`, with `gpx` and `patch` but
not `curv`; `curvature` loads `curv` and runs `cmd_curvature` here; and
`theorem` loads `theorem`, with `curv` and `para`, and for `--theta` `patch`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from paracomplex.exact import DEFAULT_POINTS, VARS4, PoleAtPoint, RatFunc, point_strings
from paracomplex.linalg import SingularMatrix, mat_to_strings, transpose
from paracomplex.parse import check_variables, parse_ratfunc, parse_rational
from paracomplex.poly import rat_str

# the faults of an input: main exits 2 on them, and validate reports them per point
INPUT_ERRORS = (ValueError, PoleAtPoint, SingularMatrix)


# -- small parsers ------------------------------------------------------------


def parse_point(text: str, nvars: int) -> tuple:
    """The point (D, X) of comma-separated Fraction literals, with D the least
    common denominator of the coordinates X / D."""
    try:
        coords = [parse_rational(c) for c in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad point {text!r}") from exc
    if len(coords) != nvars:
        raise ValueError(f"expected {nvars} coordinates in {text!r}")
    den = math.lcm(*(d for d, _ in coords))
    return den, tuple(n * (den // d) for d, n in coords)


def parse_points_arg(text: str, nvars: int) -> list:
    points = [parse_point(part, nvars) for part in text.split(";") if part.strip()]
    if not points:
        raise ValueError(f"no point given in {text!r}")
    return points


def _points_from_args(args, nvars: int, default_count: int) -> list:
    if args.points is not None:
        return parse_points_arg(args.points, nvars)
    if args.point is not None:
        return [parse_point(args.point, nvars)]
    if nvars != 4:
        raise ValueError(f"the default points have 4 coordinates, not {nvars}; give --points")
    return DEFAULT_POINTS[:default_count]


def matrix_reader(variables):
    """read(value, name, antisym=False): the n x n RatFunc matrix of a full
    matrix of literals or a component map {"i,j": literal} (1-based; with
    antisym also -literal at (j, i)), each distinct literal parsed once."""
    n = len(variables)
    memo: dict = {}

    def literal(text):
        f = memo.get(text) if isinstance(text, str) else None
        if f is None:
            f = memo[text] = parse_ratfunc(text, variables)
        return f

    def read(value, name: str, antisym: bool = False) -> list:
        if isinstance(value, dict):
            mat = [[RatFunc.zero(n)] * n for _ in range(n)]
            for key, expr in value.items():
                try:
                    i, j = (int(p) - 1 for p in key.split(","))
                except ValueError as exc:
                    raise ValueError(f"bad component key {key!r}") from exc
                if not (0 <= i < n and 0 <= j < n):
                    raise ValueError(f"component key {key!r} is outside 1..{n}")
                if antisym and i == j:
                    raise ValueError(f"component key {key!r} is diagonal")
                f = literal(expr)
                mat[i][j] = mat[i][j] + f
                if antisym:
                    mat[j][i] = mat[j][i] - f
            return mat
        if not (isinstance(value, list) and len(value) == n
                and all(isinstance(row, list) and len(row) == n for row in value)):
            raise ValueError(f"{name!r} must be a {n}x{n} matrix or a component map")
        mat = [[literal(s) for s in row] for row in value]
        for i in range(n if antisym else 0):
            for j in range(i, n):
                if not (mat[i][j] + mat[j][i]).is_zero():
                    raise ValueError(f"matrix is not antisymmetric at ({i + 1},{j + 1})")
        return mat

    return read


def load_input(path: str, what: str) -> tuple:
    """The JSON object of an input file, its variables and its matrix_reader;
    each fault in reading the object is a ValueError that names the file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"cannot read {what} {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{what} {path!r} is not a JSON object")
    variables = check_variables(data.get("vars", VARS4))
    return data, variables, matrix_reader(variables)


def _descriptor_structure(path: str):
    """The kind of the structure descriptor at path, its n x n matrix of
    rational functions (the form omega(d_i, d_j), the bivector pi^{ij}, P, or
    zero for trivial; for assembled the four matrices g, Theta, K1 and K2),
    and the variables."""
    desc, variables, read = load_input(path, "descriptor")
    kind = desc.get("kind")

    def field(name, antisym=False):
        if name not in desc:
            raise ValueError(f"a {kind!r} descriptor needs {name!r}")
        return read(desc[name], name, antisym)

    if kind == "trivial":
        return kind, read({}, kind), variables
    if kind in ("omega", "pi"):
        return kind, field(kind, antisym=True), variables
    if kind == "product":
        return kind, field("P"), variables
    if kind == "assembled":
        return kind, (field("g"), read(desc.get("theta", {}), "theta", antisym=True),
                      field("k1"), field("k2")), variables
    raise ValueError(f"unknown structure kind {kind!r}")


def parse_metric_id(text: str):
    """The curv.MetricModel of flat, constcurv:<c>, ppwave:<f> or file:<path>."""
    from paracomplex.curv import MetricModel, constcurv_metric, flat_metric, ppwave_metric

    if text == "flat":
        return flat_metric()
    arg = text.partition(":")[2]
    if text.startswith("constcurv:"):
        try:
            den, num = parse_rational(arg)
        except ZeroDivisionError:
            raise ValueError(f"division by zero in {arg!r}") from None
        return constcurv_metric(num, den)
    if text.startswith("ppwave:"):
        return ppwave_metric(parse_ratfunc(arg, VARS4))
    if text.startswith("file:"):
        data, variables, read = load_input(arg, "metric file")
        if "g" not in data:
            raise ValueError(f"metric file {arg!r} needs 'g'")
        g = read(data["g"], "g")
        if g != transpose(g):
            raise ValueError("the metric field is not symmetric")
        onb = data.get("onb")
        return MetricModel(text, g, None if onb is None else read(onb, "onb"), variables)
    raise ValueError(f"unknown metric identifier {text!r}")


# -- the curvature command; COMMANDS names the modules of the others -----------------


def cmd_curvature(args) -> dict:
    from paracomplex.curv import (curvature_operator, decompose, duality_verdict,
                                  sectional_constant_check)

    model = parse_metric_id(args.metric)
    point = parse_point(args.point, len(model.g))
    orientation = +1 if args.orientation == "+" else -1
    op = curvature_operator(model.g, point)
    dec = decompose(op, model.onb_at(point, op.int_g, orientation))
    verdict = duality_verdict(dec)
    const = sectional_constant_check(op)
    return {
        "metric": model.name,
        "point": point_strings(point),
        "orientation": args.orientation,
        "s": rat_str(*dec.int_s),
        "ricci": mat_to_strings(*op.int_ricci),
        "b_part": mat_to_strings(*dec.int_b),
        "w_plus": mat_to_strings(*dec.int_w_plus),
        "w_minus": mat_to_strings(*dec.int_w_minus),
        "self_dual": verdict["self_dual"],
        "anti_self_dual": verdict["anti_self_dual"],
        "conformally_flat": verdict["conformally_flat"],
        "sectional_constant": rat_str(*const) if const is not None else None,
    }


# -- rendering --------------------------------------------------------------------


def _text_lines(value, label: str):
    """The lines `label: leaf` of a report value: a dict's entries by sorted
    key under label.key, and a list of dicts item by item under label[i]."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _text_lines(value[key], f"{label}.{key}" if label else key)
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        for idx, item in enumerate(value):
            yield from _text_lines(item, f"{label}[{idx}]")
    else:
        yield f"{label}: {value}"


def emit(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    return "\n".join(_text_lines(report, "")) + "\n"


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


# the module that holds each command's cmd_<command>, which returns the body of its
# report; main imports it when the command runs, by __import__ rather than
# importlib.import_module, which -X importtime does not list
COMMANDS = {
    "validate": "paracomplex.structures",
    "integrability": "paracomplex.structures",
    "curvature": __name__,
    "theorem": "paracomplex.theorem",
}


_COMPONENT_ALIASES = {"pp": "++", "pm": "+-", "mp": "-+", "mm": "--"}

# options whose value may begin with a minus sign: a point -1,0,0,0 or a Theta -x1*dx2^dx3
_SIGNED_VALUE_OPTIONS = ("--point", "--points", "--theta")


def _prepare_argv(argv: list) -> list:
    """argv rewritten where argparse would misread it.  argparse takes a token
    with a single leading "-" for an option, so such a token right after an
    option of _SIGNED_VALUE_OPTIONS, and the component -+ or -- right after
    --component, is joined to it by "=", as in --point=-1,0,0,0; and it
    silently drops a literal "--" value (it marks end-of-options), so
    --component=-- becomes its alias mm."""
    out: list = []
    for a in argv:
        prev = out[-1] if out else None
        if (prev in _SIGNED_VALUE_OPTIONS and a[:1] == "-" and a[:2] != "--"
                or prev == "--component" and a in ("-+", "--")):
            out[-1] = f"{prev}={a}"
        else:
            out.append(a)
    return ["--component=mm" if a == "--component=--" else a for a in out]


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_prepare_argv(argv))
    if getattr(args, "component", None) in _COMPONENT_ALIASES:
        args.component = _COMPONENT_ALIASES[args.component]
    try:
        __import__(COMMANDS[args.command])
        body = getattr(sys.modules[COMMANDS[args.command]], f"cmd_{args.command}")(args)
    except INPUT_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    sys.stdout.write(emit({"schema": 1, "command": args.command, **body}, args.format))
    # the verdict: "ok" of validate, "integrable" of integrability and theorem; curvature has none
    return 0 if body.get("ok", body.get("integrable", True)) else 1


if __name__ == "__main__":
    raise SystemExit(main())
