"""Start-up: each command loads only the modules it runs.

A fresh interpreter without cached bytecode compiles every module it imports,
and that compile time is paid on every start of the CLI.  `validate` and
`integrability` never run `paracomplex.curv`, so they must not load it;
`curvature` and `theorem` without `--theta` never run `gpx` or `patch`, so they
must not load those; no command may load `dataclasses` (it pulls in `inspect`,
`ast`, `dis` and `tokenize`) or `fractions` (it pulls in `decimal` and
`numbers`: every value on a command path is an integer pair), and none loads
`paracomplex.reference`, the home of the closed forms and oracles that only
the tests and the demos call; `curvature` loads neither `paracomplex.theorem`
nor `paracomplex.para`, which `theorem` runs.  Each check runs in its own
subprocess with PYTHONDONTWRITEBYTECODE=1 and compares the modules loaded
before and after.

An uncached start's peak RSS is set by compiling the largest module it loads:
on CPython 3.11 it grows by 0.35-0.4 MB per 1,000 significant tokens of that
module (2,680 tokens of one source add 1.26 MB to a bare start, 4,380 add
2.02 MB and 7,070 add 2.75 MB), and CPython's parser doubles its token array
at 8,192 tokens, so each module a command loads stays below 5,000 tokens.
Every def of a module a command loads is entered by some pinned command of
test_report_bytes, save a short allowlist; what only tests, demos or the
oracles call lives in paracomplex.reference.
"""

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


# runs each command of the JSON list argv[1] with main in one process, and writes to
# the file argv[2] the first command after which each of fractions, decimal and
# numbers was loaded
NO_FRACTIONS = """
import json, sys
from paracomplex.cli import main
first = {}
for argv in json.loads(sys.argv[1]):
    main(argv)
    for name in ("fractions", "decimal", "numbers"):
        if name in sys.modules:
            first.setdefault(name, argv)
with open(sys.argv[2], "w") as fh:
    json.dump(first, fh)
"""


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
    with and without --theta, run in one fresh process, loads none of
    fractions, decimal and numbers: points, values, the frame search and the
    witness search are integer pairs, and poly.rat_str prints them."""
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
    """`import paracomplex.cli` loads poly, exact and linalg only: each command
    imports the rest it runs."""
    _, imported, _, _ = probe()
    assert "paracomplex.cli" in imported
    assert {m for m in imported if m.startswith("paracomplex.")} == {
        "paracomplex.cli", "paracomplex.poly", "paracomplex.exact", "paracomplex.linalg"}
    assert "dataclasses" not in imported


@pytest.mark.parametrize("argv,loads", [
    (["curvature", "constcurv:1", "--point", "0,0,0,0"], set()),
    (["theorem", "constcurv:1", "--component=+-"], set()),
    (["theorem", "constcurv:1", "--component=+-", "--theta", "x1*dx2^dx3"],
     {"paracomplex.gpx", "paracomplex.patch", "paracomplex.obstruction"}),
], ids=["curvature", "theorem", "theorem-theta"])
def test_curvature_commands_load_gpx_and_patch_only_for_theta(capsys, argv, loads):
    """`curvature`, and `theorem` without `--theta`, load neither `gpx` nor
    `patch`; a `--theta` brings in `patch` for dTheta, and one that is not
    closed `gpx` and `obstruction` for the witness search.  The report is the one main
    gives in process."""
    code, _, ran, out = probe(*argv)
    assert {"paracomplex.gpx", "paracomplex.patch", "paracomplex.obstruction"} & ran == loads
    assert (code, out) == (main(argv), capsys.readouterr().out)


@pytest.mark.parametrize("command", ["validate", "integrability"])
def test_structure_commands_load_no_curv(tmp_path, capsys, command):
    """A `validate` and an `integrability` run on an omega descriptor, in a
    fresh process, load neither `curv` nor `dataclasses`, and print the
    report that main gives in process."""
    path = tmp_path / "omega.json"
    path.write_text(json.dumps(OMEGA))
    code, _, ran, out = probe(command, str(path))
    assert "paracomplex.curv" not in ran and "dataclasses" not in ran
    assert (code, out) == (main([command, str(path)]), capsys.readouterr().out)


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
    """`curvature` runs the operator and its decomposition from `curv`, and
    searches its frame with `curv.onb_search` when the metric gives none, so
    it loads neither the theorem verdict nor the structures it samples."""
    from test_report_bytes import NO_ONB

    path = tmp_path / NO_ONB[0]
    path.write_text(json.dumps(NO_ONB[1]))
    argv = ["curvature", f"file:{path}", "--point", "1,1,0,0"]
    code, _, ran, out = probe(*argv)
    assert code == 0 and {"paracomplex.curv", "paracomplex.poly"} <= ran
    assert {"paracomplex.theorem", "paracomplex.para"} & ran == set()
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
# and helpers that one test file keeps as a local reference
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
]
COMMAND_MODULES = ["cli", "poly", "exact", "linalg", "para", "gpx", "patch", "curv", "theorem",
                   "obstruction"]


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


@pytest.mark.parametrize("name", MOVED)
def test_no_command_module_holds_a_function_only_tests_call(name):
    """A command compiles every module it imports, so a function that only the
    tests, the demos or paracomplex.reference call lives outside them, and no
    alias or re-export is left behind."""
    holders = [m for m in COMMAND_MODULES
               if hasattr(importlib.import_module(f"paracomplex.{m}"), name)]
    assert holders == []


# defs of command modules that no pinned command enters: the number protocol of
# Poly and RatFunc, which tests and paracomplex.reference use with int operands
ENTRY_ALLOWLIST = {
    "poly.Poly.__bool__", "poly.Poly.__hash__", "poly.Poly.__rsub__",
    "exact.RatFunc.__hash__", "exact.RatFunc.__rtruediv__",
}


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
    paracomplex.reference or in the test that calls it, unless
    ENTRY_ALLOWLIST names it; a __repr__ is allowed anywhere."""
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
                   if key not in ran and name not in ENTRY_ALLOWLIST
                   and not name.endswith(".__repr__")]
    assert missed == [], "\n".join(missed)
