"""Command-line front end: validate structure descriptors, run integrability
and curvature reports, and check the dim-4 theorem verdicts.

Exit codes: 0 pass, 1 semantic failure (invalid structure / not integrable),
2 input error.  `main` alone decides them, and adds the envelope of every
report, its schema and command; each command's body returns the rest.
Reports are deterministic: identical inputs and seed produce identical bytes.

`main` reads every input file and every point, and passes the parsed values
to the command's body by name; `theorem` reads its own `--theta`.  No module
of a command's body imports this one.  The command line is read by
`read_argv` from one table, COMMANDS, of each command's module, input and
options, and CHOICES: a bad argv is a ValueError like any other input fault,
so exit 2 with one `error:` line, and the usage that -h prints is made from
the table.  No start loads argparse,
which with gettext and locale cost each start about 4 ms and 0.4 MB.

`main` imports the module of a command's body when it runs it (COMMANDS), so
a start loads, and without cached bytecode compiles, only what it runs:
`validate` and `integrability` load `structures`, with `gpx` and `patch` but
not `curv`, and `validate` on an `assembled` descriptor `assembled`;
`curvature` loads `curvature`, with `curv`; and `theorem` loads `theorem`,
with `curv` and `para`, for `--theta` `obstruction` and `patch`, and `gpx`
for a Theta that is not closed.  `curvature` and `theorem` on a metric
without "onb" load `frame`, the frame search.
"""

from __future__ import annotations

import json
import math
import sys

from paracomplex.exact import VARS4, RatFunc
from paracomplex.linalg import transpose
from paracomplex.parse import check_variables, parse_ratfunc, parse_rational


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
    """The curv.MetricModel of flat, constcurv:<c>, ppwave:<f> or file:<path>;
    every metric is on a patch of dimension 4."""
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
        if len(variables) != 4:
            raise ValueError("curvature operator decomposition requires dim 4")
        onb = data.get("onb")
        return MetricModel(text, g, None if onb is None else read(onb, "onb"), variables)
    raise ValueError(f"unknown metric identifier {text!r}")


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


HELP = ("-h", "--help")
_STRUCTURE_OPTIONS = {"point": None, "points": None, "format": "json"}

# each command's module, which holds its cmd_<command> (main imports it when the command
# runs, by __import__ rather than importlib.import_module, which -X importtime does not
# list), the name of its one input, and the default of each of its options (`...` for one
# that each run must give).  An option with an int default is read with int().  main
# passes the input and every option but --format to cmd_<command> by name: the input,
# --point and --points as it parsed them, the others as read_argv read them.
COMMANDS = {
    "validate": ("paracomplex.structures", "descriptor", _STRUCTURE_OPTIONS),
    "integrability": ("paracomplex.structures", "descriptor", _STRUCTURE_OPTIONS),
    "curvature": ("paracomplex.curvature", "metric",
                  {"point": "0,0,0,0", "orientation": "+", "format": "json"}),
    "theorem": ("paracomplex.theorem", "metric", {
        "component": ..., "theta": "", "points": None, "seed": 0, "samples": 40,
        "epsilon": 1, "format": "json"}),
}
# the values an option takes, wherever it occurs, each mapped to the value it stands for;
# the components' aliases pp, pm, mp and mm need no shell quoting
CHOICES = {
    "format": {"json": "json", "text": "text"},
    "orientation": {"+": "+", "-": "-"},
    "component": dict(zip("++ +- -+ -- pp pm mp mm".split(), "++ +- -+ --".split() * 2)),
    "epsilon": {e: e for e in range(1, 5)},
}


def read_argv(argv: list) -> tuple:
    """The command that argv names and the values of its input and options by
    name, the options not given at their defaults; or, for -h or --help, None
    and the usage of that command, or of every command when no command comes
    before it.  The input and the options --name=value or --name value come in
    any order, the token after an option is its value whatever it begins with,
    and the last of a repeated option wins.  Each fault is a ValueError that
    names the command or the option."""
    tokens = iter(argv)
    command = next(tokens, None)
    if command in COMMANDS:
        _, input_name, options = COMMANDS[command]
        values = {input_name: ..., **options}
        for token in tokens:
            if token in HELP:
                break
            if not token.startswith("--"):
                if values[input_name] is not ...:
                    raise ValueError(f"{command} takes one {input_name}, not also {token!r}")
                values[input_name] = token
                continue
            name, eq, text = token[2:].partition("=")
            if name not in options:
                raise ValueError(f"{command} has no option {'--' + name!r}")
            text = text if eq else next(tokens, None)
            if text is None:
                raise ValueError(f"--{name} needs a value")
            try:
                value = int(text) if type(options[name]) is int else text
                values[name] = CHOICES.get(name, {value: value})[value]
            except (ValueError, KeyError):
                raise ValueError(f"--{name} takes "
                                 f"{' or '.join(map(str, CHOICES.get(name, ['an integer'])))}, "
                                 f"not {text!r}") from None
        else:
            for name, value in values.items():
                if value is ...:
                    raise ValueError(f"{command} needs "
                                     f"{'a ' if name == input_name else '--'}{name}")
            return command, values
    elif command not in HELP:
        raise ValueError(f"{'no command' if command is None else f'unknown command {command!r}'}; "
                         f"expected one of {', '.join(COMMANDS)}, or --help")
    usage = ""
    for each in COMMANDS if command in HELP else [command]:
        _, input_name, options = COMMANDS[each]
        usage += f"paracomplex {each} <{input_name}>"
        for name in options:
            word = f"--{name} {'|'.join(map(str, CHOICES.get(name, [name.upper()])))}"
            usage += f" {word}" if options[name] is ... else f" [{word}]"
        usage += "\n"
    return None, usage


def main(argv=None) -> int:
    try:
        command, values = read_argv(sys.argv[1:] if argv is None else argv)
        if command is None:
            sys.stdout.write(values)
            return 0
        fmt = values.pop("format")
        # the body's module first, so that its compile does not hold the input; with a
        # fromlist, __import__ returns the module itself, not its package
        cmd = getattr(__import__(COMMANDS[command][0], fromlist=["cmd"]), f"cmd_{command}")
        if "metric" in values:
            values["metric"] = parse_metric_id(values["metric"])
            nvars = 4  # the dimension of every metric's patch
        else:
            values["descriptor"] = descriptor = _descriptor_structure(values["descriptor"])
            nvars = len(descriptor[2])
        if None not in (values.get("point"), values.get("points")):
            raise ValueError("give --point or --points, not both")
        for name, parse in ("point", parse_point), ("points", parse_points_arg):
            if values.get(name) is not None:
                values[name] = parse(values[name], nvars)
        body = cmd(**values)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    sys.stdout.write(emit({"schema": 1, "command": command, **body}, fmt))
    # the verdict: "ok" of validate, "integrable" of integrability and theorem; curvature has none
    return 0 if body.get("ok", body.get("integrable", True)) else 1


if __name__ == "__main__":
    raise SystemExit(main())
