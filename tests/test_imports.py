"""Start-up: each command loads only the modules it runs.

A fresh interpreter without cached bytecode compiles every module it imports,
and that compile time is paid on every start of the CLI.  `import
paracomplex.cli` loads no command's body: `validate` and `integrability` load
`paracomplex.structures`, `curvature` loads `paracomplex.curvature`, and
`theorem` loads `paracomplex.theorem`.  Imports run one way: no module of a
command's body imports `paracomplex.cli`, so `python -m paracomplex.cli`
compiles `cli.py` once, as `__main__`.
`validate` and `integrability` never run `paracomplex.curv` or the theorem
verdict, so they must not load them; `curvature` and `theorem` without
`--theta` never run `gpx`, `patch` or `structures`, so they must not load
those; no command may load `dataclasses` (it pulls in `inspect`,
`ast`, `dis` and `tokenize`), `fractions` (it pulls in `decimal` and
`numbers`: every value on a command path is an integer pair) or `argparse`
(it pulls in `gettext`, and its first message `locale`: `cli` reads the
command line from its own table), and none loads
`paracomplex.reference`, the home of the closed forms and oracles that only
the tests and the demos call; `curvature` loads neither `paracomplex.theorem`
nor `paracomplex.para`, which `theorem` runs.  Two parts of `theorem` and
`curvature` run only on some inputs, and only those starts load them:
`paracomplex.obstruction`, the reader of `--theta` and the witness search of
a Theta that is not closed, loads only with `--theta` (and `gpx` only where
dTheta is not zero), and `paracomplex.frame`, the rational frame search, only
for a metric without "onb".  Each check runs in its own
subprocess with PYTHONDONTWRITEBYTECODE=1 and compares the modules loaded
before and after.

An uncached start's peak RSS is set by compiling the largest module it loads:
on CPython 3.11 it grows by 0.35-0.4 MB per 1,000 significant tokens of that
module (2,680 tokens of one source add 1.26 MB to a bare start, 4,380 add
2.02 MB and 7,070 add 2.75 MB), and CPython's parser doubles its token array
at 8,192 tokens, so each module a command loads stays below 5,000 tokens.
Tokens do not count the bytes of strings and docstrings, which the compile
holds too, so each such module is also bounded by tracemalloc's peak while
compile() runs on it.
Every def of a module a command loads is entered by some pinned command of
test_report_bytes, with no exception but a __repr__; what only tests, demos
or the oracles call lives in paracomplex.reference, and `Poly` and `RatFunc`
keep no operand protocol that no command runs.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import paracomplex
from paracomplex.cli import main

SRC = Path(paracomplex.__file__).resolve().parent.parent

# the modules loaded by `import paracomplex.cli` and by main(argv), as a JSON
# line on stderr, next to main's exit code; the report goes to stdout
PROBE = """
import sys
before = set(sys.modules)
from paracomplex.cli import main
imported = set(sys.modules) - before
code = main(sys.argv[1:]) if len(sys.argv) > 1 else None
ran = set(sys.modules) - before
import json
sys.stderr.write(json.dumps({"code": code, "imported": sorted(imported), "ran": sorted(ran)}))
"""

OMEGA = {"kind": "omega", "omega": {"1,2": "1+x3^2", "3,4": "x1", "1,3": "x2*x4", "2,4": "x3"}}


def probe(*argv):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    info = json.loads(proc.stderr)
    return info["code"], set(info["imported"]), set(info["ran"]), proc.stdout


# the modules that no start may add to those that site already loaded: fractions (with
# decimal and numbers: every value on a command path is an integer pair) and argparse
# (with gettext and its locale: cli reads argv from its own table)
NEVER_LOADED = ("fractions", "decimal", "numbers", "argparse", "gettext", "locale")

# runs each command of the JSON list argv[1] with main in one process, and writes to
# the file argv[2] the first command after which each module of NEVER_LOADED that site
# had not loaded was loaded
NO_FRACTIONS = """
import json, sys
before = set(sys.modules)
from paracomplex.cli import main
first = {}
for argv in json.loads(sys.argv[1]):
    main(argv)
    for name in %r:
        if name in sys.modules and name not in before:
            first.setdefault(name, argv)
with open(sys.argv[2], "w") as fh:
    json.dump(first, fh)
""" % (NEVER_LOADED,)


def _with_and_without_theta(argv: list) -> list:
    """argv, and for theorem also argv with its --theta taken out or a
    --theta that is not closed put in."""
    if argv[0] != "theorem":
        return [argv]
    if "--theta" in argv:
        i = argv.index("--theta")
        return [argv, argv[:i] + argv[i + 2:]]
    return [argv, argv + ["--theta", "x1*dx2^dx3"]]


def test_no_pinned_command_loads_fractions_decimal_or_numbers(tmp_path):
    """Every PINNED command of test_report_bytes, and each theorem among them
    with and without --theta, run in one fresh process, adds none of
    NEVER_LOADED to the modules that site loaded: not fractions, decimal or
    numbers, since points, values, the frame search and the witness search are
    integer pairs and poly.rat_str prints them, and not argparse, gettext or
    locale, since cli.read_argv reads the command line."""
    from test_report_bytes import PINNED, _label

    runs = []
    for k, (argv, _, _) in enumerate(PINNED):
        args = []
        for arg in argv:
            if isinstance(arg, dict):
                path = tmp_path / f"descriptor{k}.json"
                path.write_text(json.dumps(arg))
                args.append(str(path))
            else:
                if isinstance(arg, tuple):
                    (tmp_path / arg[0]).write_text(json.dumps(arg[1]))
                args.append(_label(arg))
        runs += _with_and_without_theta(args)
    assert {"--theta" in r for r in runs if r[0] == "theorem"} == {True, False}
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = tmp_path / "first.json"
    proc = subprocess.run([sys.executable, "-c", NO_FRACTIONS, json.dumps(runs), str(out)],
                          cwd=tmp_path, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text()) == {}


def test_importing_the_cli_loads_neither_curv_nor_dataclasses():
    """`import paracomplex.cli` loads poly, exact, parse and linalg only, and
    no module of command bodies, structures, curvature or theorem: each
    command imports the rest it runs.  It adds none of NEVER_LOADED, nor
    dataclasses, to the modules that site loaded."""
    _, imported, _, _ = probe()
    assert "paracomplex.cli" in imported
    assert {m for m in imported if m.startswith("paracomplex.")} == {
        "paracomplex.cli", "paracomplex.poly", "paracomplex.exact", "paracomplex.parse",
        "paracomplex.linalg"}
    assert {"dataclasses", *NEVER_LOADED} & imported == set()


@pytest.mark.parametrize("argv,loads", [
    (["curvature", "constcurv:1", "--point", "0,0,0,0"], set()),
    (["theorem", "constcurv:1", "--component=+-"], set()),
    (["theorem", "constcurv:1", "--component=+-", "--theta", "dx1^dx2"],
     {"paracomplex.patch", "paracomplex.obstruction"}),
    (["theorem", "constcurv:1", "--component=+-", "--theta", "x1*dx2^dx3"],
     {"paracomplex.gpx", "paracomplex.patch", "paracomplex.obstruction"}),
], ids=["curvature", "theorem", "theorem-closed-theta", "theorem-theta"])
def test_curvature_commands_load_gpx_and_patch_only_for_theta(capsys, argv, loads):
    """`curvature`, and `theorem` without `--theta`, load neither `gpx`,
    `patch` nor `obstruction`; a `--theta` brings in `obstruction` for its
    reader and `patch` for dTheta, a closed one nothing more, and one that
    is not closed `gpx` too, for the witness search (patch and obstruction
    import no gpx at the top).  None of them loads `frame` on a catalog
    metric, which has a frame, nor `structures`, the bodies of `validate`
    and `integrability`, or `assembled`, the checks of an assembled
    descriptor.  The report is the one main gives in process."""
    code, _, ran, out = probe(*argv)
    assert {"paracomplex.gpx", "paracomplex.patch", "paracomplex.obstruction",
            "paracomplex.frame"} & ran == loads
    assert {"paracomplex.structures", "paracomplex.assembled"} & ran == set()
    assert (code, out) == (main(argv), capsys.readouterr().out)


@pytest.mark.parametrize("command", ["validate", "integrability"])
def test_structure_commands_load_no_curv(tmp_path, capsys, command):
    """A `validate` and an `integrability` run on an omega descriptor, in a
    fresh process, load `structures` but neither `curv`, `theorem`,
    `obstruction`, `frame` nor `dataclasses`, nor `para` and `assembled`,
    which only an assembled descriptor runs, and print the report that main
    gives in process."""
    path = tmp_path / "omega.json"
    path.write_text(json.dumps(OMEGA))
    code, _, ran, out = probe(command, str(path))
    assert "paracomplex.structures" in ran
    assert {"paracomplex.curv", "paracomplex.theorem", "paracomplex.obstruction",
            "paracomplex.frame", "paracomplex.para", "paracomplex.assembled",
            "dataclasses"} & ran == set()
    assert (code, out) == (main([command, str(path)]), capsys.readouterr().out)


def test_validate_on_an_assembled_descriptor_loads_assembled_but_not_para(tmp_path, capsys):
    """`validate` on an assembled descriptor loads `assembled`, which checks
    its factors, and not `para`, which holds only the hyperboloid model that
    `theorem` draws from, nor `obstruction` or `frame`, though its Theta and
    g are those of `theorem --theta` and a metric; its report in a fresh
    process is the one main gives in process."""
    k = [["0", "0", "1", "0"], ["0", "0", "0", "1"], ["1", "0", "0", "0"], ["0", "1", "0", "0"]]
    g = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]
    path = tmp_path / "assembled.json"
    path.write_text(json.dumps({"kind": "assembled", "g": g, "theta": {"1,2": "3"}, "k1": k, "k2": k}))
    code, _, ran, out = probe("validate", str(path))
    assert code == 0 and {"paracomplex.structures", "paracomplex.assembled"} <= ran
    assert {"paracomplex.para", "paracomplex.curv", "paracomplex.theorem",
            "paracomplex.obstruction", "paracomplex.frame"} & ran == set()
    assert (code, out) == (main(["validate", str(path)]), capsys.readouterr().out)


def test_theorem_loads_curv_and_gives_its_report(capsys):
    """`theorem` imports `curv` and `theorem` inside the command, and its
    report in a fresh process is the one main gives in process (pinned in
    test_report_bytes)."""
    argv = ["theorem", "constcurv:1", "--component=+-"]
    code, imported, ran, out = probe(*argv)
    assert "paracomplex.curv" not in imported and "paracomplex.curv" in ran
    assert "paracomplex.theorem" not in imported and "paracomplex.theorem" in ran
    assert "dataclasses" not in ran
    assert (code, out) == (main(argv), capsys.readouterr().out)


def test_curvature_loads_neither_theorem_nor_para(tmp_path, capsys):
    """`curvature` runs its body, `paracomplex.curvature`, and the operator and
    its decomposition from `curv`, and searches its frame with
    `frame.onb_search` when the metric gives none, so it loads neither the
    theorem verdict, the structures it samples, nor the bodies of `validate`
    and `integrability`."""
    from test_report_bytes import NO_ONB

    path = tmp_path / NO_ONB[0]
    path.write_text(json.dumps(NO_ONB[1]))
    argv = ["curvature", f"file:{path}", "--point", "1,1,0,0"]
    code, _, ran, out = probe(*argv)
    assert code == 0 and {"paracomplex.curvature", "paracomplex.curv", "paracomplex.poly"} <= ran
    assert {"paracomplex.theorem", "paracomplex.para", "paracomplex.structures"} & ran == set()
    assert (code, out) == (main(argv), capsys.readouterr().out)


# a metric whose value at the origin is diag(1, 1, -1, -1), so that the frame search finds a
# frame there and the identity frame is orthonormal there
FRAME_G = [["1+x3^2", "x1", "0", "0"], ["x1", "1", "0", "0"], ["0", "0", "-1", "x2"],
           ["0", "0", "x2", "-1"]]


@pytest.mark.parametrize("onb", [False, True], ids=["no-onb", "onb"])
@pytest.mark.parametrize("argv", [
    ["curvature", "--point", "0,0,0,0"],
    ["theorem", "--component=++", "--points", "0,0,0,0"],
], ids=lambda argv: argv[0])
def test_only_a_metric_without_a_frame_loads_the_frame_search(tmp_path, capsys, argv, onb):
    """`curvature` and `theorem` on a metric file load `paracomplex.frame`,
    the rational frame search, exactly when the file gives no "onb": the
    same g with the identity frame, orthonormal at the origin, loads no
    `frame`.  Neither loads `obstruction` without `--theta`, and the report
    is the one main gives in process."""
    metric = {"g": FRAME_G}
    if onb:
        metric["onb"] = [[str(int(i == j)) for j in range(4)] for i in range(4)]
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(metric))
    argv = [argv[0], f"file:{path}", *argv[1:]]
    code, _, ran, out = probe(*argv)
    assert code in (0, 1)
    assert ("paracomplex.frame" in ran) == (not onb)
    assert "paracomplex.obstruction" not in ran
    assert (code, out) == (main(argv), capsys.readouterr().out)


@pytest.mark.parametrize("argv", [
    ["validate", "{path}"],
    ["integrability", "{path}"],
    ["curvature", "constcurv:1", "--point", "0,0,0,0"],
    ["theorem", "constcurv:1", "--component=+-"],
], ids=lambda argv: argv[0])
def test_no_command_loads_the_reference_module(tmp_path, argv):
    path = tmp_path / "omega.json"
    path.write_text(json.dumps(OMEGA))
    code, _, ran, _ = probe(*(a.format(path=path) for a in argv))
    assert code in (0, 1)
    assert "paracomplex.reference" not in ran


# the top-level functions and classes that no command calls: the paper's closed
# forms and the symbolic oracles, now in paracomplex.reference (among them the
# symbolic structures, their frame sweep over rational functions and the
# Gauss-Jordan inverse they use), the Fraction wrappers of forms,
# endomorphisms, 2-vectors, structures on T + T* and generalized metrics with
# the routines only they use (the commands pass integer pairs (D, M)), the
# sparse k-forms and their exterior derivative (a 2-form on the command paths is
# an antisymmetric matrix, and patch.cyclic_sums gives its d and the Jacobiator),
# helpers that one test file keeps as a local reference, the second readers of
# input files that cli.load_input and cli.matrix_reader replaced, and the copies of
# one decision: the integer product that linalg.mat_mul now is, the draw of a
# compatible structure that the witness search spells out, and the one-line wrapper
# of kernel_basis that onb_search calls directly, and the entry-wise matrix equality
# that == on lists of lists already is; and the second curvature and torsion paths that
# the lowered Riemann formula and the dTheta contractions through g^-1 replaced: the
# Christoffel-derivative helper, the torsion tensor and its contractions, and the dTheta
# table rebuilt per contraction; and the fixed star of the frame that the Hodge star was
# conjugated from before it became det P eps L(g); and the section type that the sweep wrapped
# its stacked columns in, and the exception of the Fraction inverses, which g(p) no longer raises;
# and the expansion of omega's Pfaffian, which its evaluation at fixed points replaced
MOVED = [
    "Rational", "Scalar", "basis_vec", "eval_at", "frac_mat", "int_mats", "int_point",
    "mat_identity", "one_like", "rnd_vec", "zero_like",
    "as_point",
    "g_adjoint", "hodge_star", "lambda2_inner", "selfdual_split", "vec_sub",
    "adapted_basis", "anticommutes", "fiber_metric", "fiber_structure", "fiber_tangent_basis",
    "fiber_tangent_dim", "hyperboloid_coords", "hyperboloid_structure", "induced_orientation",
    "is_fiber_tangent", "null_basis", "standard_para_structure", "z_tangent_project",
    "_fiber_constraint_rows", "_positive_norm_vector",
    "b_conjugate", "b_endo", "b_transform", "bivector_from_symplectic", "check_omega_compat",
    "check_pi_conditions", "check_product_compat", "classify_component", "extract_pair",
    "gen_pairing", "hat_metric_equiv", "p_epsilon", "s_ij_endo", "split_components",
    "structure_to_descriptor", "vertical_endo", "_transferred_frame_images",
    "b_bracket_residual", "classical_nijenhuis", "courant_bracket", "courant_jacobiator",
    "double_contract", "gen_nijenhuis", "_section_jet",
    "Connection", "TorsionTensor", "curvature_endo", "hitchin_connection",
    "horizontal_np_residual", "levi_civita", "metricity_residual", "omega_eps",
    "reflector_mixed_nijenhuis", "reflector_nijenhuis", "riemann_at", "twistor_mixed_nijenhuis",
    "twistor_vertical_nijenhuis", "vertical_pair_basis",
    "as_ints", "endo_from_2vector", "j_triple", "mat_det", "sd_basis",
    "STRUCTURES", "_frame_jets", "_nijenhuis", "_omega_structure", "endo_jet", "gauss_jordan_inv",
    "omega_structure", "pairing_matrix", "pi_structure", "product_structure",
    "symbolic_frame_sweep", "trivial_structure", "validate_structure",
    "Bilinear", "BiVectorField", "Endo", "GenEndo", "GeneralizedMetric", "TwoVector",
    "ValidationReport", "_bilinear", "assemble_endo", "gen_metric", "is_compatible_endo",
    "is_g_skew", "mat_eval", "mat_from_columns", "mat_inv", "mat_jet", "mat_rank", "mat_zero",
    "signature", "vec_add", "vec_eq", "vec_scale",
    "IntegrabilityReport", "KForm", "_sort_index", "ext_deriv", "poisson_jacobiator", "sparse_add",
    "_component_map_to_matrix", "_const_mat", "load_descriptor", "metric_from_strings",
    "int_mul", "random_compatible_structure", "_orthogonal_complement_basis",
    "mat_eq",
    "_sym", "torsion_at", "_torsion_vec", "_covector_alpha_iota", "_dth_full", "_dtheta_covector",
    "_STAR_U",
    "GenVector", "SingularMatrix",
    "CurvDecomposition", "decompose", "sectional_constant_check", "INPUT_ERRORS",
    "pfaffian",
]
COMMAND_MODULES = ["cli", "poly", "exact", "parse", "linalg", "para", "gpx", "patch", "curv",
                   "theorem", "structures", "obstruction", "curvature", "assembled", "frame"]


def significant_tokens(path: Path) -> int:
    """The tokenize tokens of a source file other than COMMENT and NL."""
    with open(path) as fh:
        return sum(1 for tok in tokenize.generate_tokens(fh.readline)
                   if tok.type not in (tokenize.COMMENT, tokenize.NL))


@pytest.mark.parametrize("module", COMMAND_MODULES + ["__init__", "__main__"])
def test_each_module_a_command_loads_is_below_5000_tokens(module):
    """An uncached compile of a module adds 0.35-0.4 MB per 1,000 significant
    tokens to a start's peak RSS, and the largest module a command loads sets
    that peak; every module a command loads (all but paracomplex.reference)
    stays below 5,000 tokens."""
    assert significant_tokens(SRC / "paracomplex" / f"{module}.py") < 5000


@pytest.mark.parametrize("module", COMMAND_MODULES + ["__init__", "__main__"])
def test_each_module_a_command_loads_is_below_8192_tokens(module):
    """At 8,192 tokens CPython's parser doubles its token array, and an
    uncached compile of that module peaks about 1 MB higher; every module a
    command loads (all but paracomplex.reference) stays below."""
    assert significant_tokens(SRC / "paracomplex" / f"{module}.py") < 8192


# tracemalloc's peak, in MiB, while compile() runs in a fresh interpreter on exact.py
# before the literal parser moved out of it to parse.py, the heaviest command module to
# compile then: CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0 (cli.py read 0.01 MiB less)
COMPILE_PEAK_MIB = {(3, 10): 1.935, (3, 11): 1.712, (3, 12): 1.997, (3, 13): 2.232}

COMPILE_PEAK = """
import sys, tracemalloc
with open(sys.argv[1]) as fh:
    source = fh.read()
tracemalloc.start()
compile(source, sys.argv[1], "exec")
print(tracemalloc.get_traced_memory()[1])
"""


@pytest.mark.parametrize("module", COMMAND_MODULES + ["__init__", "__main__"])
def test_each_module_a_command_loads_compiles_below_the_old_exact_peak(module):
    """The compile of a module holds its strings and docstrings as well as its
    tokens, so two modules of one token count can differ in peak: `cli` with
    309 fewer tokens than `exact` compiled as heavily.  Each module a command
    loads compiles with a lower traced peak than `exact` did while it held the
    parser.  The peak is deterministic for one interpreter, and a fresh
    process reads it without the strings an earlier import interned."""
    bound = COMPILE_PEAK_MIB.get(sys.version_info[:2])
    if bound is None:
        pytest.skip(f"no compile-peak bound measured for Python {sys.version_info[:2]}")
    path = SRC / "paracomplex" / f"{module}.py"
    proc = subprocess.run([sys.executable, "-c", COMPILE_PEAK, str(path)], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) / 2 ** 20 < bound


# what moved out of exact to parse, out of cli to theorem, structures and curvature, out of
# para to assembled, out of theorem to obstruction (what --theta adds), out of curv and linalg
# to frame (the frame search of a metric without "onb"), and out of linalg to patch and
# out of patch to reference (the Pfaffian: omega's nondegeneracy is decided by evaluation,
# and its expansion is the oracle)
SPLIT = {
    "exact": ["parse_rational", "_Tokens", "check_variables", "parse_ratfunc", "MAX_EXPONENT",
              "MAX_POWER", "MAX_POWER_BITS", "MAX_TERM_PAIRS", "MAX_VARS"],
    "cli": ["cmd_theorem", "parse_theta_expr", "_split_top_level", "_WEDGE_RE", "MAX_SAMPLES",
            "cmd_validate", "cmd_integrability", "_jets_at", "_validate_assembled",
            "_POINT_ERRORS", "cmd_curvature"],
    "para": ["validate_para"],
    "theorem": ["parse_theta_expr", "_split_top_level", "_WEDGE_RE", "_np_witness_search",
                "WITNESS_ATTEMPTS"],
    "curv": ["onb_search", "_is_square", "kernel_basis"],
    "linalg": ["kernel_basis", "pfaffian"],
    "patch": ["pfaffian"],
}


@pytest.mark.parametrize("module", sorted(SPLIT))
def test_split_leaves_no_alias(module):
    """exact compiles without the parser, cli without the bodies of theorem,
    validate, integrability and curvature, para without the factor checks of
    an assembled descriptor, theorem without what --theta adds, curv and
    linalg without the frame search of a metric with no frame, and linalg
    and patch without the Pfaffian, and none imports them back."""
    held = importlib.import_module(f"paracomplex.{module}")
    assert [name for name in SPLIT[module] if hasattr(held, name)] == []


@pytest.mark.parametrize("name", MOVED)
def test_no_command_module_holds_a_function_only_tests_call(name):
    """A command compiles every module it imports, so a function that only the
    tests, the demos or paracomplex.reference call lives outside them, and no
    alias or re-export is left behind."""
    holders = [m for m in COMMAND_MODULES
               if hasattr(importlib.import_module(f"paracomplex.{m}"), name)]
    assert holders == []


@pytest.mark.parametrize("module", [m for m in COMMAND_MODULES if m != "cli"])
def test_only_cli_reads_input(module):
    """cli opens every input file, reads its JSON and parses its literals, with
    load_input and matrix_reader; no other command module names open or json,
    and none but parse, which defines them, and obstruction, which reads the
    coefficients of --theta, names the literal parsers."""
    with open(SRC / "paracomplex" / f"{module}.py") as fh:
        names = {tok.string for tok in tokenize.generate_tokens(fh.readline)
                 if tok.type == tokenize.NAME}
    assert not {"open", "json"} & names
    assert module in ("parse", "obstruction") or not {"parse_ratfunc", "parse_rational"} & names


@pytest.mark.parametrize("module", [m for m in COMMAND_MODULES if m != "cli"] + ["__init__"])
def test_no_command_module_imports_the_cli(module):
    """cli reads every input and passes the parsed values to the command's
    body, so imports run one way: no module a command loads imports
    paracomplex.cli, at the top or inside a function, absolutely or
    relatively, and only __main__ does."""
    tree = ast.parse((SRC / "paracomplex" / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            # a relative import (level 1) names a module of the package
            source = ".".join(filter(None, ["paracomplex" if node.level else "", node.module]))
            imported |= {source} | {f"{source}.{alias.name}" for alias in node.names}
    assert "paracomplex.cli" not in imported


def test_running_the_cli_module_compiles_it_once(tmp_path):
    """`python -m paracomplex.cli validate <omega>` runs cli.py as __main__, and
    no module it imports loads it again as paracomplex.cli: -X importtime,
    which lists each module that an import statement loads, lists no
    paracomplex.cli row, while it lists structures, the body's module."""
    path = tmp_path / "omega.json"
    path.write_text(json.dumps(OMEGA))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "paracomplex.cli", "validate",
                           str(path)], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode in (0, 1) and "Traceback" not in proc.stderr, proc.stderr
    rows = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}
    assert "paracomplex.structures" in rows
    assert "paracomplex.cli" not in rows


def test_the_obstruction_oracle_imports_nothing_from_obstruction():
    """reference.horizontal_np_residual is the oracle of
    obstruction.np_residual, computed apart from it in Fractions (from the
    Hitchin torsion, ext_deriv and assemble_endo): paracomplex.reference
    imports nothing from paracomplex.obstruction, at the top or inside a
    function, so the integer residual is not checked against itself."""
    tree = ast.parse((SRC / "paracomplex" / "reference.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            source = ".".join(filter(None, ["paracomplex" if node.level else "", node.module]))
            imported |= {source} | {f"{source}.{alias.name}" for alias in node.names}
    assert "paracomplex.obstruction" not in imported


def unread_imports(module: str) -> list:
    """The names that a module of the package imports, at the top or inside a
    function, and never reads as a name."""
    tree = ast.parse((SRC / "paracomplex" / f"{module}.py").read_text())
    imported = {(alias.asname or alias.name).partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


@pytest.mark.parametrize("module", COMMAND_MODULES)
def test_every_name_a_command_module_imports_is_used_there(module):
    """A name that a command module imports, at the top or inside a function,
    is read somewhere in that module: an import that a move or a deletion left
    behind is a stale name, which every start still resolves and which points
    a reader at code that no longer needs it."""
    assert unread_imports(module) == []


def test_every_module_of_the_package_reads_what_it_imports():
    """The same holds for every module of the package, paracomplex.reference
    and __main__ among them, which no start compiles but whose stale imports
    point a reader at code as wrongly; __init__'s imports are read by name
    only through __all__, which exempts them."""
    modules = sorted(path.stem for path in (SRC / "paracomplex").glob("*.py"))
    assert set(COMMAND_MODULES) < set(modules)
    unread = {module: unread_imports(module) for module in modules}
    assert set(unread.pop("__init__")) <= set(paracomplex.__all__)
    assert {module: names for module, names in unread.items() if names} == {}


def unread_parameters(module: str) -> list:
    """The parameters of the defs and lambdas of a module of the package,
    nested ones and methods too, that their bodies never read, as
    "name (line) parameter"; a method's self is exempt."""
    tree = ast.parse((SRC / "paracomplex" / f"{module}.py").read_text())
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = [node.body] if isinstance(node, ast.Lambda) else node.body
        read = {sub.id for stmt in body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unread += [f"{name} (line {node.lineno}) {p}" for p in params
                   if p != "self" and p not in read]
    return unread


@pytest.mark.parametrize("module", COMMAND_MODULES)
def test_every_parameter_a_command_module_takes_is_read(module):
    """Every parameter of every def and lambda in a command module is read in
    its body: a parameter that a change left behind (a Theta that a closed
    form no longer needs) makes every caller build and pass a value for
    nothing, and tells a reader that the result depends on it."""
    assert unread_parameters(module) == []


def _defs(code, prefix: str, out: dict) -> dict:
    """Map (name, first line) of every def compiled into code, nested ones and
    methods too, to its dotted name after prefix; a class body, a lambda and a
    comprehension are no def."""
    for const in code.co_consts:
        if not hasattr(const, "co_code") or const.co_name.startswith("<"):
            continue
        if const.co_flags & inspect.CO_OPTIMIZED:
            out[(const.co_name, const.co_firstlineno)] = prefix + const.co_name
        _defs(const, f"{prefix}{const.co_name}.", out)
    return out


def test_every_def_of_a_command_module_is_entered_by_a_pinned_command(tmp_path, monkeypatch,
                                                                         capsys):
    """Every PINNED command of test_report_bytes runs in process under
    sys.setprofile.  A def of a command module that none of them enters is
    code that every start compiles for nothing, so it belongs in
    paracomplex.reference or in the test that calls it; only a __repr__,
    which a failing assertion or a debugger calls, is exempt."""
    from test_report_bytes import PINNED, _label

    monkeypatch.chdir(tmp_path)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    for argv, _, _ in PINNED:
        descriptor = tmp_path / "descriptor.json"
        for arg in argv:
            if isinstance(arg, dict):
                descriptor.write_text(json.dumps(arg))
            elif isinstance(arg, tuple):
                (tmp_path / arg[0]).write_text(json.dumps(arg[1]))
        sys.setprofile(profile)
        try:
            main([str(descriptor) if isinstance(a, dict) else _label(a) for a in argv])
        finally:
            sys.setprofile(None)
        capsys.readouterr()
    missed = []
    for module in COMMAND_MODULES:
        path = SRC / "paracomplex" / f"{module}.py"
        ran = {(c.co_name, c.co_firstlineno) for c in entered if c.co_filename == str(path)}
        defs = _defs(compile(path.read_text(), str(path), "exec"), f"{module}.", {})
        missed += [f"{name} (line {key[1]})" for key, name in sorted(defs.items(), key=str)
                   if key not in ran and not name.endswith(".__repr__")]
    assert missed == [], "\n".join(missed)


TRACER = SRC.parent / "perfbench" / "tracer.py"


def _tracer_table(tree, name: str) -> list:
    """The literal list that perfbench/tracer.py assigns to name."""
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]]
    return ast.literal_eval(value)


def test_the_benchmark_tracer_finds_what_it_imports():
    """perfbench/tracer.py, which the traced benchmark run loads, is read
    here and not imported: every `from paracomplex.<m> import <names>` in it
    resolves, every module its SPANS and COUNTED tables name imports (a
    listed function the program no longer has is left out on purpose), and
    gen_nijenhuis_frame_sweep returns a pair whose second item has a len, which
    the tracer's hook on that span reads.  Without this a rename such as
    patch.GenSection shows only when the traced run starts."""
    from paracomplex.gpx import structure_jet
    from paracomplex.parse import parse_ratfunc
    from paracomplex.patch import gen_nijenhuis_frame_sweep

    tree = ast.parse(TRACER.read_text())
    missing = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("paracomplex.")
               for alias in node.names
               if not hasattr(importlib.import_module(node.module), alias.name)]
    assert missing == []
    tables = _tracer_table(tree, "SPANS") + _tracer_table(tree, "COUNTED")
    assert tables
    for mod in sorted({mod for _, mod, _ in tables}):
        importlib.import_module(f"paracomplex.{mod}")
    data = [[parse_ratfunc(c, ["x1", "x2"]) for c in row] for row in [["0", "x2"], ["0-x2", "0"]]]
    res = gen_nijenhuis_frame_sweep(*structure_jet("omega", data, (1, (1, 1)), 1))
    assert len(res) == 2 and len(res[1]) == 0  # a 2-form on two variables is closed
