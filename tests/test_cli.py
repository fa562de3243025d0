"""Command-line interface: descriptors, reports, exit codes, determinism."""

import json
import subprocess
import sys
import time

import pytest

from paracomplex.cli import main, parse_theta_expr
from paracomplex.linalg import mat_is_zero
from paracomplex.patch import cyclic_sums


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_desc(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# -- validate ---------------------------------------------------------------


def test_validate_trivial_ok(tmp_path, capsys):
    path = write_desc(tmp_path, "trivial.json", {"schema": 1, "kind": "trivial"})
    code, out = run_cli(capsys, "validate", path)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["kind"] == "trivial"


def test_validate_bad_product_names_invariant(tmp_path, capsys):
    p_bad = [["2", "0", "0", "0"], ["0", "2", "0", "0"],
             ["0", "0", "2", "0"], ["0", "0", "0", "2"]]
    path = write_desc(tmp_path, "badp.json", {"kind": "product", "P": p_bad})
    code, out = run_cli(capsys, "validate", path)
    assert code == 1
    report = json.loads(out)
    assert not report["ok"]
    assert any("P^2" in entry.get("error", "") for entry in report["points"])


def test_validate_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _ = run_cli(capsys, "validate", str(path))
    assert code == 2


@pytest.mark.parametrize("command", ["validate", "integrability"])
@pytest.mark.parametrize("kind,key", [("omega", "0,2"), ("omega", "1,5"), ("pi", "5,1")])
def test_component_key_outside_range_exit_2(tmp_path, capsys, command, kind, key):
    path = write_desc(tmp_path, "desc.json",
                      {"kind": kind, kind: {"1,2": "1", "3,4": "1", key: "x1"}})
    code = main([command, path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: component key {key!r} is outside 1..4\n"


@pytest.mark.parametrize("command", ["validate", "integrability"])
@pytest.mark.parametrize("kind,key", [("omega", "1,1"), ("pi", "4,4")])
def test_diagonal_component_key_of_a_two_form_or_bivector_exit_2(tmp_path, capsys,
                                                                   command, kind, key):
    path = write_desc(tmp_path, "desc.json",
                      {"kind": kind, kind: {"1,2": "1", "3,4": "1", key: "x1"}})
    code = main([command, path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: component key {key!r} is diagonal\n"


@pytest.mark.parametrize("kind", ["omega", "pi"])
@pytest.mark.parametrize("entry,where", [((0, 0), "(1,1)"), ((1, 0), "(1,2)")])
def test_full_matrix_of_a_two_form_or_bivector_must_be_antisymmetric(tmp_path, capsys,
                                                                     kind, entry, where):
    mat = [["0", "1", "0", "0"], ["-1", "0", "0", "0"], ["0", "0", "0", "1"], ["0", "0", "-1", "0"]]
    path = write_desc(tmp_path, "ok.json", {"kind": kind, kind: mat})
    assert main(["integrability", path]) == 0
    capsys.readouterr()
    mat[entry[0]][entry[1]] = "x1"
    path = write_desc(tmp_path, "bad.json", {"kind": kind, kind: mat})
    code = main(["integrability", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: matrix is not antisymmetric at {where}\n"


def assert_one_line_input_error(capsys, code, message):
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["validate", "integrability"])
@pytest.mark.parametrize("payload,message", [
    ([{"kind": "trivial"}], "descriptor {path!r} is not a JSON object"),
    ({"kind": "omega"}, "a 'omega' descriptor needs 'omega'"),
    ({"kind": "pi", "vars": ["x1", "x2"]}, "a 'pi' descriptor needs 'pi'"),
    ({"kind": "omega", "omega": {"1,2": 5}}, "expected a string literal, got 5"),
    ({"kind": "product", "P": [1, 2, 3, 4]}, "matrix has the wrong shape"),
    ({"kind": "omega", "omega": {"1,2": "1", "3,4": "x1/0"}}, "division by zero in 'x1/0'"),
], ids=["list", "omega-missing", "pi-missing", "non-string", "rows-not-lists", "divide-by-zero"])
def test_malformed_descriptor_exit_2_with_one_line(tmp_path, capsys, command, payload, message):
    path = write_desc(tmp_path, "desc.json", payload)
    assert_one_line_input_error(capsys, main([command, path]), message.format(path=path))


@pytest.mark.parametrize("payload,message", [
    (None, "cannot read metric file {path!r}: [Errno 2] No such file or directory: {path!r}"),
    ({"g": 5}, "g of file:{path} must be a 4x4 matrix"),
    ([["1"]], "metric file {path!r} is not a JSON object with a \"g\" matrix"),
    ({"onb": []}, "metric file {path!r} is not a JSON object with a \"g\" matrix"),
    ({"g": [["1", "0"], ["0", "1"]]}, "g of file:{path} must be a 4x4 matrix"),
    ({"g": [["1/0", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "-1", "0"],
            ["0", "0", "0", "-1"]]}, "division by zero in '1/0'"),
], ids=["missing", "g-not-a-matrix", "list", "no-g", "wrong-shape", "divide-by-zero"])
def test_malformed_metric_file_exit_2_with_one_line(tmp_path, capsys, payload, message):
    path = str(tmp_path / "nope.json") if payload is None else write_desc(tmp_path, "m.json",
                                                                         payload)
    code = main(["curvature", f"file:{path}", "--point", "1,0,0,0"])
    assert_one_line_input_error(capsys, code, message.format(path=path))


@pytest.mark.parametrize("argv,message", [
    (["curvature", "constcurv:1/0"], "division by zero in '1/0'"),
    (["theorem", "constcurv:2/0", "--component", "+-"], "division by zero in '2/0'"),
], ids=["curvature", "theorem"])
def test_constcurv_zero_denominator_exit_2_with_one_line(capsys, argv, message):
    assert_one_line_input_error(capsys, main(argv), message)


@pytest.mark.parametrize("argv,message", [
    (["validate", "{desc}", "--points", ";"], "no point given in ';'"),
    (["validate", "{desc}", "--points", ""], "no point given in ''"),
    (["integrability", "{desc}", "--points", " ; "], "no point given in ' ; '"),
    (["curvature", "flat", "--point", ";"], "bad point ';'"),
    (["theorem", "ppwave:1/x1", "--component", "++", "--points", ";"], "no point given in ';'"),
], ids=["validate", "validate-empty", "integrability", "curvature", "theorem"])
def test_an_empty_point_list_exit_2_with_one_line(tmp_path, capsys, argv, message):
    """No point is bad input, not a vacuous pass over zero points (the
    degenerate omega below is invalid at every point) nor the default points."""
    path = write_desc(tmp_path, "desc.json", {"kind": "omega", "omega": {"1,2": "1"}})
    code = main([a.format(desc=path) for a in argv])
    assert_one_line_input_error(capsys, code, message)


@pytest.mark.parametrize("command", ["validate", "integrability"])
@pytest.mark.parametrize("variables", [5, "x1", ["x1", "x1", "x3", "x4"], ["x1", "2x"], [],
                                       ["x1", "x2", "x3", 4]],
                         ids=["int", "string", "duplicate", "not-identifier", "empty", "non-string"])
def test_descriptor_vars_must_be_distinct_identifiers(tmp_path, capsys, command, variables):
    path = write_desc(tmp_path, "desc.json", {"kind": "trivial", "vars": variables})
    assert_one_line_input_error(
        capsys, main([command, path]),
        f'"vars" must be a list of distinct identifiers, got {variables!r}')


@pytest.mark.parametrize("command", ["validate", "integrability", "curvature"])
def test_more_than_max_vars_variables_exit_2_with_one_line(tmp_path, capsys, command):
    """A structure on n variables is swept over C(2n, 2) frame pairs, so "vars"
    holds at most exact.MAX_VARS = 16 names, for descriptors and for file:
    metrics; 16 names still run."""
    names = [f"y{i}" for i in range(17)]
    if command == "curvature":
        path = write_desc(tmp_path, "m.json", {"vars": names, "g": [["1"] * 17] * 17})
        argv = [command, f"file:{path}", "--point", ",".join(["0"] * 17)]
    else:
        path = write_desc(tmp_path, "desc.json", {"kind": "trivial", "vars": names})
        argv = [command, path, "--point", ",".join(["1"] * 17)]
    assert_one_line_input_error(capsys, main(argv),
                                '"vars" has 17 names, above the bound of 16')
    if command != "curvature":
        path = write_desc(tmp_path, "desc16.json", {"kind": "trivial", "vars": names[:16]})
        code, out = run_cli(capsys, command, path, "--point", ",".join(["1"] * 16))
        assert code == 0 and len(json.loads(out)["kind"]) == 7


# omega = x1 dx1^dx2 + dx3^dx4: det omega(p) = x1^2 vanishes where x1 = 0
OMEGA_SINGULAR_AT_X1_0 = {"kind": "omega", "omega": {"1,2": "x1", "3,4": "1"}}
# omega = a^b + c^d on six variables: its 15 entries are nonzero, and so are the
# 15 terms of its Pfaffian, which sum to zero
OMEGA6_RANK4 = {
    "1,2": "2", "1,3": "-x4*x5 + 1", "1,4": "x3 - x5", "1,5": "2", "1,6": "-x5 + 1",
    "2,3": "x1 - x4", "2,4": "x1*x3 - 2", "2,5": "x1 - 2", "2,6": "-x2 - 1", "3,4": "-1",
    "3,5": "x4 - 2", "3,6": "-x2 + x4", "4,5": "-2*x3 + 2", "4,6": "-x2*x3 + 1", "5,6": "-x2 - 1"}
# the same with a third term e^f: a 15-term Pfaffian that is not zero
OMEGA6 = {
    "1,2": "2", "1,3": "-x4*x5", "1,4": "x3 - x5 - x6", "1,5": "2", "1,6": "-x5",
    "2,3": "x1 - x4 - 1", "2,4": "x1*x3 - x6 - 2", "2,5": "x1 - 2", "2,6": "-x2 - 2", "3,4": "-1",
    "3,5": "x1 + x4 - 2", "3,6": "-x2 + x4 + 2", "4,5": "x1*x6 - 2*x3 + 2",
    "4,6": "-x2*x3 + 2*x6 + 1", "5,6": "-x1 - x2 - 1"}
VARS6 = ["x1", "x2", "x3", "x4", "x5", "x6"]


def test_a_point_where_det_omega_vanishes_keeps_the_pole_text(tmp_path, capsys):
    """omega(p)^-1 comes from one elimination at the point; where det omega(p)
    = 0, omega^-1 has a pole, and the entry carries the pole text."""
    path = write_desc(tmp_path, "omega.json", OMEGA_SINGULAR_AT_X1_0)
    pole = "denominator factor vanishes at (0, 0, 0, 0)"
    code, out = run_cli(capsys, "validate", path, "--points", "0,0,0,0;1,0,0,0")
    points = json.loads(out)["points"]
    assert code == 1 and points[0] == {"error": pole, "ok": False, "point": ["0"] * 4}
    assert points[1]["ok"]
    code, out = run_cli(capsys, "integrability", path, "--points", "0,0,0,0;1,0,0,0")
    samples = json.loads(out)["nijenhuis_residual_samples"]
    assert code == 0 and samples[0] == {"error": pole, "point": ["0"] * 4}
    assert samples[1] == {"nonzero_frame_pairs": 0, "point": ["1", "0", "0", "0"], "sample": None}


@pytest.mark.parametrize("variables,omega,point", [
    (None, {"1,2": "x1", "1,3": "x2"}, "1,2,3,4"),
    (["x", "y", "z"], {"1,2": "1", "2,3": "x"}, "1,2,3"),
    (VARS6, OMEGA6_RANK4, "1,2,3,4,5,6"),
], ids=["rank-2", "three-variables", "six-variables-rank-4"])
def test_an_omega_with_zero_pfaffian_is_degenerate_at_every_point(tmp_path, capsys, variables,
                                                                 omega, point):
    """omega's degeneracy is decided by its symbolic Pfaffian (zero on an odd
    number of variables): validate reports it at every point and exits 1,
    integrability exits 2."""
    desc = {"kind": "omega", "omega": omega}
    if variables:
        desc["vars"] = variables
    path = write_desc(tmp_path, "omega.json", desc)
    other = ",".join(["0"] * len(point.split(",")))
    code, out = run_cli(capsys, "validate", path, "--points", f"{point};{other}")
    points = json.loads(out)["points"]
    assert code == 1 and [p["error"] for p in points] == ["omega field is degenerate"] * 2
    assert_one_line_input_error(capsys, main(["integrability", path, "--point", point]),
                                "omega field is degenerate")


def test_a_six_variable_omega_with_a_fifteen_term_pfaffian_is_a_structure(tmp_path, capsys):
    path = write_desc(tmp_path, "omega6.json", {"kind": "omega", "vars": VARS6, "omega": OMEGA6})
    code, out = run_cli(capsys, "validate", path, "--points", "1,2,3,4,5,6;0,1,0,-1,2,1/3")
    assert code == 0 and all(p["ok"] for p in json.loads(out)["points"])
    code, out = run_cli(capsys, "integrability", path, "--point", "1,2,3,4,5,6")
    report = json.loads(out)
    assert code == 1 and report["nijenhuis_residual_samples"][0]["nonzero_frame_pairs"] > 0


# a dense omega on 16 variables: every entry y_k + c is nonconstant, and its Pfaffian
# has up to 15!! = 2,027,025 terms
VARS16 = [f"y{k}" for k in range(1, 17)]
OMEGA16 = {f"{i},{j}": f"y{(3 * i + 5 * j) % 16 + 1} + {(i + 2 * j) % 5 + 1}"
           for i in range(1, 17) for j in range(i + 1, 17)}


def test_a_dense_sixteen_variable_omega_is_certified_at_a_point(tmp_path, capsys, monkeypatch):
    """A point where det omega(p) != 0 certifies that the Pfaffian is not
    zero, so validate and integrability on a dense omega over 16 variables at
    two points never expand it, and each finishes within 5 s."""
    import paracomplex.patch

    def expanded(*args):
        raise AssertionError("the Pfaffian was expanded")

    monkeypatch.setattr(paracomplex.patch, "pfaffian", expanded)
    path = write_desc(tmp_path, "omega16.json", {"kind": "omega", "vars": VARS16, "omega": OMEGA16})
    points = ";".join(",".join(str(k * s % 7 - 3) for k in range(1, 17)) for s in (1, 2))
    for command, want in (("validate", 0), ("integrability", 1)):
        start = time.perf_counter()
        code, out = run_cli(capsys, command, path, f"--points={points}")
        assert time.perf_counter() - start < 5
        assert code == want and "error" not in out


def test_metric_file_vars_must_be_a_list(tmp_path, capsys):
    path = write_desc(tmp_path, "m.json", {"vars": "x", "g": [["1"]]})
    assert_one_line_input_error(capsys, main(["curvature", f"file:{path}", "--point", "0"]),
                                "\"vars\" must be a list of distinct identifiers, got 'x'")


@pytest.mark.parametrize("command", ["validate", "integrability"])
def test_default_points_must_fit_the_variables(tmp_path, capsys, command):
    path = write_desc(tmp_path, "omega2.json",
                      {"kind": "omega", "vars": ["x", "y"], "omega": {"1,2": "1 + x^2"}})
    assert_one_line_input_error(capsys, main([command, path]),
                                "the default points have 4 coordinates, not 2; give --points")
    code, out = run_cli(capsys, command, path, "--points", "1,2;0,1/2")
    samples = {"validate": "points", "integrability": "nijenhuis_residual_samples"}[command]
    assert code == 0 and len(json.loads(out)[samples]) == 2


@pytest.mark.parametrize("command", [["curvature"], ["theorem", "--component", "+-"]],
                         ids=["curvature", "theorem"])
def test_asymmetric_file_metric_exit_2_with_one_line(tmp_path, capsys, command):
    payload = {"g": [["1", "x1", "0", "0"], ["0", "1", "0", "0"],
                     ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]}
    path = write_desc(tmp_path, "asymmetric.json", payload)
    code = main([command[0], f"file:{path}"] + command[1:])
    assert_one_line_input_error(capsys, code, "the metric field is not symmetric")


def test_theta_division_by_zero_exit_2_with_one_line(capsys):
    code = main(["theorem", "flat", "--theta", "x1/0*dx1^dx2", "--component", "++"])
    assert_one_line_input_error(capsys, code,
                                "bad coefficient 'x1/0': division by zero in 'x1/0'")


def test_a_value_past_the_int_to_str_digit_limit_is_printed():
    """The curvature of ppwave:x2^16 at x2 = 10^1000 has a w_minus entry of
    14,003 digits, past the 4,300 digits to which Python (3.10.7 on) limits
    an int converted to str; the command used to exit 2 with that limit's
    text.  The value is exact and is printed, in a fresh process, in
    seconds."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "paracomplex", "curvature", "ppwave:x2^16",
                           "--point", "0,1e1000,0,0"], capture_output=True, text=True,
                          timeout=60)
    assert time.perf_counter() - start < 10
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert max(len(x.lstrip("-").partition("/")[0]) for row in report["w_minus"]
               for x in row) == 14003


@pytest.mark.parametrize("metric", ["ppwave:x1^99999999999", "ppwave:2^99999999999"])
def test_a_long_exponent_exit_2_at_once(capsys, metric):
    """A power above the parser's bound is an input error, found before any
    expansion: x1^99999999999 used to tabulate that many powers of x1 per jet,
    and 2^99999999999 to square a constant that many bits long."""
    start = time.perf_counter()
    code = main(["curvature", metric])
    assert time.perf_counter() - start < 0.5
    assert_one_line_input_error(capsys, code, "power ^99999999999 is above the bound: 16 on the "
                                              "exponent and the degree, 1024 on the coefficient bits")


OMEGA = {"kind": "omega", "omega": {"1,2": "1", "3,4": "1"}}


# (argv, message) with a coordinate or constcurv constant in exponent notation
LONG_EXPONENTS = [
    (["curvature", "constcurv:1", "--point", "1e9999999,0,0,0"], "bad point '1e9999999,0,0,0'"),
    (["curvature", "constcurv:1", "--point", "1e5000,0,0,0"], "bad point '1e5000,0,0,0'"),
    (["curvature", "constcurv:1e9999999"],
     "the exponent of '1e9999999' is above 1000 in magnitude"),
    (["theorem", "constcurv:1e9999999", "--component=++"],
     "the exponent of '1e9999999' is above 1000 in magnitude"),
    (["theorem", "flat", "--component=++", "--points", "0,0,0,0;0,1E-9999999,0,0"],
     "bad point '0,1E-9999999,0,0'"),
    (["validate", "{path}", "--point", "0,0,0,1e9999999"], "bad point '0,0,0,1e9999999'"),
    (["integrability", "{path}", "--points", "1,0,0,0;1e+99999,0,0,0"],
     "bad point '1e+99999,0,0,0'"),
]


@pytest.mark.parametrize("argv,message",
                         [pytest.param(a, m, id=" ".join(a)) for a, m in LONG_EXPONENTS])
def test_a_long_decimal_exponent_exit_2_at_once(tmp_path, capsys, argv, message):
    """Coordinates and the constcurv constant are read with their decimal
    exponent bounded before Fraction expands it: 1e9999999 used to build a
    ten-million-digit integer without output, and 1e5000 to exit with Python's
    own text on the digit limit of integer strings."""
    path = write_desc(tmp_path, "omega.json", OMEGA)
    start = time.perf_counter()
    code = main([a.format(path=path) for a in argv])
    assert time.perf_counter() - start < 0.5
    assert_one_line_input_error(capsys, code, message)


LONG = "1" + "0" * 1100  # 1,101 digits, past the bound of 1,001


@pytest.mark.parametrize("argv,message", [
    (["curvature", "constcurv:1", "--point", f"{LONG},0,0,0"], f"bad point '{LONG},0,0,0'"),
    (["theorem", "flat", "--component=++", "--points", f"0,0,0,1/{LONG}"],
     f"bad point '0,0,0,1/{LONG}'"),
    (["curvature", f"constcurv:{LONG}"],
     f"the numerator or denominator of '{LONG}' has more than 1001 digits"),
], ids=["point", "denominator", "constcurv"])
def test_a_long_literal_exit_2_at_once(capsys, argv, message):
    """A coordinate or constcurv constant whose numerator or denominator has
    more digits than 1e1000 (1,001) is an input error: a 1,101-digit
    coordinate used to exit with Python's own text on the 4,300-digit limit of
    integer strings, raised while printing the report."""
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 0.5
    assert_one_line_input_error(capsys, code, message)


def test_an_exponent_within_the_bound_is_read_in_full(capsys):
    code, out = run_cli(capsys, "curvature", "constcurv:1e-3", "--point", "1e3,-2.5e1,0,1E0")
    report = json.loads(out)
    assert code == 0 and report["point"] == ["1000", "-25", "0", "1"]
    code, out = run_cli(capsys, "curvature", "constcurv:1", "--point", "1e1000,0,0,0")
    assert code == 0 and json.loads(out)["point"][0] == "1" + "0" * 1000
    assert report["metric"] == "constcurv:1/1000" and report["sectional_constant"] == "1/1000"


@pytest.mark.parametrize("payload", [
    {"kind": "omega", "omega": {"1,2": "(x1+x2+x3+x4)^16*(x1+x2+x3+x4)^16", "3,4": "1"}},
    {"kind": "omega", "vars": ["y1", "y2", "y3", "y4", "y5", "y6"],
     "omega": {"1,2": "(y1+y2+y3+y4+y5+y6)^16", "3,4": "1", "5,6": "1"}},
], ids=["product-of-powers", "six-variable-power"])
@pytest.mark.parametrize("command", ["validate", "integrability"])
def test_a_long_product_exit_2_at_once(tmp_path, capsys, payload, command):
    """Each product the parser forms is bounded in term pairs, so a literal
    whose expansion is long is an input error before the expansion: the first
    literal took 9 s to parse, the second 20 s."""
    path = write_desc(tmp_path, "desc.json", payload)
    start = time.perf_counter()
    code = main([command, path, "--point", "1,1,1,1,1,1" if "vars" in payload else "1,1,1,1"])
    assert time.perf_counter() - start < 1.0
    literal = payload["omega"]["1,2"]
    assert_one_line_input_error(capsys, code,
                                f"a product in {literal!r} is above the bound of 4096 term pairs")


def test_diagonal_component_keys_of_p_are_entries(tmp_path, capsys):
    path = write_desc(tmp_path, "p.json", {"kind": "product", "P": {
        "1,1": "1", "2,2": "1", "3,3": "-1", "4,4": "-1"}})
    code, out = run_cli(capsys, "integrability", path)
    assert code == 0 and json.loads(out)["integrable"]


def test_validate_assembled(tmp_path, capsys):
    k_std = [["0", "0", "1", "0"], ["0", "0", "0", "1"],
             ["1", "0", "0", "0"], ["0", "1", "0", "0"]]
    g = [["1", "0", "0", "0"], ["0", "1", "0", "0"],
         ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]
    path = write_desc(tmp_path, "asm.json", {
        "kind": "assembled", "g": g, "theta": {"1,2": "3"},
        "k1": k_std, "k2": k_std,
    })
    code, out = run_cli(capsys, "validate", path)
    assert code == 0
    report = json.loads(out)
    assert report["ok"]
    assert all(entry["compatible"] for entry in report["points"])


def test_validate_checks_each_assembled_factor_once_per_point(tmp_path, capsys, monkeypatch):
    """`validate` runs validate_para once on K1 and once on K2 at each point;
    gpx.assemble takes the checked factors and checks none again."""
    import paracomplex.para

    calls = []
    original = paracomplex.para.validate_para

    def counting(g, k):
        calls.append(k)
        return original(g, k)

    for name, module in list(sys.modules.items()):
        if name.startswith("paracomplex") and getattr(module, "validate_para", None) is original:
            monkeypatch.setattr(module, "validate_para", counting)
    k_std = [["0", "0", "1", "0"], ["0", "0", "0", "1"], ["1", "0", "0", "0"], ["0", "1", "0", "0"]]
    g = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]
    path = write_desc(tmp_path, "asm.json", {"kind": "assembled", "g": g, "k1": k_std, "k2": k_std})
    code, _ = run_cli(capsys, "validate", path, "--points", "0,0,0,0;1,2,3,4")
    assert code == 0 and len(calls) == 4


@pytest.mark.parametrize("sign", ["1", "-1"])
def test_product_plus_minus_identity_is_rejected(tmp_path, capsys, sign):
    p = [[sign if i == j else "0" for j in range(4)] for i in range(4)]
    path = write_desc(tmp_path, "pid.json", {"kind": "product", "P": p})
    code, out = run_cli(capsys, "validate", path, "--points", "0,0,0,0;1,2,3,4;1/2,0,-1,5")
    assert code == 1
    points = json.loads(out)["points"]
    assert len(points) == 3
    assert all(entry["error"] == "P = +-Id" and not entry["ok"] for entry in points)
    assert main(["integrability", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "P = +-Id" in captured.err


@pytest.mark.parametrize("command", ["validate", "integrability"])
def test_structure_commands_build_no_symbolic_structure(tmp_path, capsys, monkeypatch, command):
    """K(p) is built at each point on integers from the jet of omega: no
    rational function is divided (a Gauss-Jordan inverse over rational
    functions divides by each pivot), and every block of a structure matrix
    built holds integers only (no command module has a Fraction inverse,
    test_imports.MOVED)."""
    import paracomplex.gpx as gpx
    from paracomplex.exact import RatFunc

    calls = []

    def counting(name, original):
        def wrapped(*args):
            calls.append(name)
            return original(*args)
        return wrapped

    monkeypatch.setattr(RatFunc, "__truediv__", counting("RatFunc division", RatFunc.__truediv__))
    monkeypatch.setattr(RatFunc, "__rtruediv__", counting("RatFunc division",
                                                          RatFunc.__rtruediv__))
    entries = []
    join = gpx._blocks

    def recording(*blocks):
        entries.extend(type(x) for b in blocks for row in b for x in row)
        return join(*blocks)

    monkeypatch.setattr(gpx, "_blocks", recording)
    path = write_desc(tmp_path, "omega.json", {
        "kind": "omega", "omega": {"1,2": "1 + x3^2", "3,4": "x1", "1,3": "x2*x4"}})
    code, out = run_cli(capsys, command, path, "--points", "1,0,0,0;1,1,1,1;2,-1,3,1/2")
    assert code in (0, 1) and "1/2" in out
    assert calls == [] and entries and set(entries) == {int}


# -- integrability ---------------------------------------------------------------


def test_integrability_symplectic(tmp_path, capsys):
    path = write_desc(tmp_path, "omega.json", {
        "kind": "omega", "omega": {"1,2": "1", "3,4": "1"}})
    code, out = run_cli(capsys, "integrability", path)
    assert code == 0
    report = json.loads(out)
    assert report["integrable"] and report["criterion"] == "d_omega_zero"
    assert all(s["nonzero_frame_pairs"] == 0
               for s in report["nijenhuis_residual_samples"])


def test_integrability_non_poisson_witness(tmp_path, capsys):
    path = write_desc(tmp_path, "pi.json", {
        "kind": "pi", "pi": {"1,2": "1", "3,4": "x1"}})
    code, out = run_cli(capsys, "integrability", path)
    assert code == 1
    report = json.loads(out)
    assert not report["integrable"]
    assert report["witness"]["jacobiator_triple"] == [2, 3, 4]


def test_integrability_trivial(tmp_path, capsys):
    path = write_desc(tmp_path, "triv.json", {"kind": "trivial"})
    code, out = run_cli(capsys, "integrability", path)
    assert code == 0
    assert json.loads(out)["integrable"]


@pytest.mark.parametrize("payload,code", [
    ({"kind": "trivial"}, 0),
    ({"kind": "omega", "omega": {"1,2": "1", "3,4": "x1"}}, 1),
    ({"kind": "pi", "pi": {"1,2": "1"}}, 0),
    ({"kind": "product", "P": [["0", "1", "0", "0"], ["1", "0", "0", "0"],
                               ["0", "0", "0", "1"], ["0", "0", "1", "0"]]}, 0),
], ids=["trivial", "omega", "pi", "product"])
def test_integrability_sweeps_the_frame_once(tmp_path, capsys, monkeypatch, payload, code):
    """The CLI never builds a symbolic Nijenhuis section: it calls the sweep
    once per sample point, on the integers of K(p) and dK(p) over their
    denominators."""
    import paracomplex.patch as patch

    original = patch.gen_nijenhuis_frame_sweep
    calls = []

    def counting(k, dk):
        (d0, m), (d1, dm) = k, dk
        calls.append({type(c) for c in [d0, d1] + [c for e in [m] + dm for row in e for c in row]})
        return original(k, dk)

    # replace the sweep in every module that holds it, so no caller escapes the count
    for name, module in list(sys.modules.items()):
        if name.startswith("paracomplex") and getattr(module, "gen_nijenhuis_frame_sweep",
                                                      None) is original:
            monkeypatch.setattr(module, "gen_nijenhuis_frame_sweep", counting)
    path = write_desc(tmp_path, "desc.json", payload)
    assert run_cli(capsys, "integrability", path, "--points", "1,0,0,0;2,1,0,-1")[0] == code
    assert calls == [{int}, {int}]


# -- curvature --------------------------------------------------------------------


def test_curvature_flat(capsys):
    code, out = run_cli(capsys, "curvature", "flat", "--point", "0,0,0,0")
    assert code == 0
    report = json.loads(out)
    assert report["s"] == "0"
    assert report["self_dual"] and report["anti_self_dual"]
    assert report["sectional_constant"] == "0"
    assert all(v == "0" for row in report["ricci"] for v in row)


def test_curvature_constcurv(capsys):
    code, out = run_cli(capsys, "curvature", "constcurv:1", "--point", "0,0,0,0")
    assert code == 0
    report = json.loads(out)
    assert report["s"] == "12"
    assert report["sectional_constant"] == "1"
    assert all(v == "0" for row in report["b_part"] for v in row)
    assert all(v == "0" for row in report["w_plus"] for v in row)
    assert all(v == "0" for row in report["w_minus"] for v in row)


def test_curvature_file_metric_nonzero_weyl(tmp_path, capsys):
    payload = {
        "vars": ["x1", "x2", "x3", "x4"],
        "g": [["1", "0", "0", "0"],
              ["0", "(1+x1*x2/2)^2", "0", "0"],
              ["0", "0", "-1", "0"],
              ["0", "0", "0", "-(1+x1/3)^2"]],
        "onb": [["1", "0", "0", "0"],
                ["0", "1/(1+x1*x2/2)", "0", "0"],
                ["0", "0", "1", "0"],
                ["0", "0", "0", "1/(1+x1/3)"]],
    }
    path = write_desc(tmp_path, "metric.json", payload)
    code, out = run_cli(capsys, "curvature", f"file:{path}", "--point", "1,1/2,0,0")
    assert code == 0
    report = json.loads(out)
    assert any(v != "0" for row in report["w_plus"] for v in row)
    assert not report["conformally_flat"]


# g of ppwave:x2^2 and its catalog frame, as columns with norms 1, 1, -1, -1
PPWAVE_G = [["x2^2", "0", "0", "1"], ["0", "0", "1", "0"], ["0", "1", "0", "0"], ["1", "0", "0", "0"]]
PPWAVE_ONB = [["1", "0", "0", "1/2 - x2^2/2"], ["0", "1", "1/2", "0"],
              ["1", "0", "0", "-1/2 - x2^2/2"], ["0", "1", "-1/2", "0"]]


@pytest.mark.parametrize("command", [["curvature"], ["theorem", "--component=++"]],
                         ids=["curvature", "theorem"])
@pytest.mark.parametrize("order,scale,where", [
    ([0, 2, 1, 3], "1", "(0, 0, 0, 0)"),
    ([0, 1, 2, 3], "(1+x1)", "(1, 0, 0, 0)"),
], ids=["norms-1-1-1-1", "not-unit-off-the-origin"])
def test_a_supplied_frame_must_be_orthonormal(tmp_path, capsys, command, order, scale, where):
    """The frame's columns must have norms 1, 1, -1, -1 at every point used:
    reordered to norms 1, -1, 1, -1, the frame of ppwave:x2^2 used to give
    `w_plus_zero: false`.  theorem does not skip a default point where the
    frame fails (the second frame is orthonormal only where x1 = 0)."""
    path = write_desc(tmp_path, "good.json", {"g": PPWAVE_G, "onb": PPWAVE_ONB})
    assert main([command[0], f"file:{path}"] + command[1:]) == 0
    capsys.readouterr()
    onb = [PPWAVE_ONB[i] for i in order]
    onb[0] = [f"{scale}*({v})" for v in onb[0]]
    path = write_desc(tmp_path, "bad.json", {"g": PPWAVE_G, "onb": onb})
    if command[0] == "curvature":
        command, where = command + ["--point", "1,0,0,0"], "(1, 0, 0, 0)"
    code = main([command[0], f"file:{path}"] + command[1:])
    assert_one_line_input_error(capsys, code, f"the onb of file:{path} is not orthonormal with "
                                              f"norms 1, 1, -1, -1 at {where}")


def test_curvature_ppwave_orientation_swap(capsys):
    code, out = run_cli(capsys, "curvature", "ppwave:x2^2", "--point", "0,0,0,0")
    assert code == 0
    report = json.loads(out)
    assert report["anti_self_dual"] and not report["self_dual"]
    code, out = run_cli(capsys, "curvature", "ppwave:x2^2", "--point", "0,0,0,0",
                        "--orientation", "-")
    report_rev = json.loads(out)
    assert report_rev["self_dual"] and not report_rev["anti_self_dual"]


def test_curvature_pole_exit_2(capsys):
    # constcurv:1 has a pole of the conformal factor where phi = 0
    code, _ = run_cli(capsys, "curvature", "constcurv:-4", "--point", "1,0,0,0")
    assert code == 2


def test_curvature_conformal_pole_exit_2(capsys):
    # phi = 1 + (x1^2 + x2^2 - x3^2 - x4^2) / 4 vanishes at (0, 0, 2, 0)
    assert main(["curvature", "constcurv:1", "--point", "0,0,2,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "denominator factor vanishes" in captured.err


def test_curvature_file_metric_singular_at_point_exit_2(tmp_path, capsys):
    payload = {"g": [["x1", "0", "0", "0"], ["0", "1", "0", "0"],
                     ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]}
    path = write_desc(tmp_path, "singular.json", payload)
    code, _ = run_cli(capsys, "curvature", f"file:{path}", "--point", "1,0,0,0")
    assert code == 0
    assert main(["curvature", f"file:{path}", "--point", "0,1,0,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "degenerate" in captured.err


def test_curvature_asymmetric_file_metric_exit_2(tmp_path, capsys):
    payload = {"g": [["1", "x2", "0", "0"], ["0", "1", "0", "0"],
                     ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]}
    path = write_desc(tmp_path, "asymmetric.json", payload)
    code, out = run_cli(capsys, "curvature", f"file:{path}", "--point", "1,0,0,0")
    assert code == 2 and out == ""


# -- theorem -----------------------------------------------------------------------


def test_theorem_flat_all_ok(capsys):
    code, out = run_cli(capsys, "theorem", "flat", "--component", "++",
                        "--samples", "5")
    assert code == 0
    assert json.loads(out)["integrable"]


def test_theorem_constcurv_verdicts(capsys):
    code, out = run_cli(capsys, "theorem", "constcurv:1", "--component", "+-",
                        "--samples", "5")
    assert code == 0 and json.loads(out)["integrable"]
    code, out = run_cli(capsys, "theorem", "constcurv:1", "--component", "++",
                        "--samples", "5")
    assert code == 1
    report = json.loads(out)
    assert not report["integrable"]
    assert report["evidence"]["ricci_zero"] is False


def test_theorem_theta_obstruction(capsys):
    code, out = run_cli(capsys, "theorem", "flat", "--theta", "x1*dx2^dx3",
                        "--component", "++", "--samples", "4")
    assert code == 1
    report = json.loads(out)
    assert report["evidence"]["d_theta_zero"] is False
    assert "np_residual_witness" in report["evidence"]


def test_theorem_epsilon_never_integrable(capsys):
    code, out = run_cli(capsys, "theorem", "flat", "--component", "++",
                        "--epsilon", "2")
    assert code == 1
    assert json.loads(out)["evidence"]["epsilon_never_integrable"]


def test_theorem_deterministic_bytes(capsys):
    args = ("theorem", "constcurv:1", "--component", "+-", "--samples", "6",
            "--seed", "11")
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_theorem_bad_point_exit_2(capsys):
    code, _ = run_cli(capsys, "theorem", "flat", "--component", "++",
                      "--points", "0,0,0")
    assert code == 2


@pytest.mark.parametrize("argv,option,value", [
    (["curvature", "constcurv:1"], "--point", "-1,0,0,0"),
    (["theorem", "constcurv:1", "--component=+-"], "--points", "-1,0,0,0"),
    (["theorem", "constcurv:1", "--component=+-"], "--points", "-1,1,1,1;0,-2/3,-1,-3/2"),
    (["theorem", "flat", "--component=++"], "--theta", "-x1*dx2^dx3"),
    (["theorem", "flat", "--component=++"], "--theta", "-x1*dx2^dx3+x2*dx1^dx4"),
    (["validate", "{path}"], "--point", "-1,2,3,4"),
    (["integrability", "{path}"], "--points", "-1,2,3,4;1,-2,3,4"),
], ids=["curvature-point", "theorem-points", "theorem-two-points", "theorem-theta",
        "theorem-theta-two-terms", "validate-point", "integrability-points"])
def test_a_value_with_a_leading_minus_reads_as_its_equals_form(tmp_path, capsys, argv, option,
                                                                value):
    """A point or Theta that begins with a minus sign, given as the token after
    its option, is that option's value, as in the = form; argparse used to take
    it for an option and exit 2 with its usage text."""
    path = write_desc(tmp_path, "omega.json", {"kind": "omega", "omega": {"1,2": "1", "3,4": "x1"}})
    argv = [a.format(path=path) for a in argv]
    spaced = run_cli(capsys, *argv, option, value)
    assert spaced == run_cli(capsys, *argv, f"{option}={value}")
    assert spaced[0] in (0, 1) and capsys.readouterr().err == ""


@pytest.mark.parametrize("argv,message", [
    (["curvature", "constcurv:1", "--point", "-x"], "bad point '-x'"),
    (["theorem", "flat", "--component=++", "--points", "-1,0"],
     "expected 4 coordinates in '-1,0'"),
    (["theorem", "flat", "--component=++", "--theta", "-dx2"],
     "term 'dx2' must end with dxi^dxj"),
], ids=["point", "points", "theta"])
def test_a_bad_value_with_a_leading_minus_exit_2_with_one_line(capsys, argv, message):
    assert_one_line_input_error(capsys, main(argv), message)


@pytest.mark.parametrize("component,same_as", [("-+", "--component=-+"), ("--", "--component=mm")],
                         ids=["-+", "--"])
def test_a_component_with_a_leading_minus_reads_as_its_equals_form(capsys, component, same_as):
    """The components -+ and --, given as the token after --component, are its
    value, as in --component=-+ and the alias mm; argparse used to take them
    for an option and for the end of options, and exit 2 with its usage text."""
    spaced = run_cli(capsys, "theorem", "flat", "--component", component, "--samples", "2")
    assert spaced == run_cli(capsys, "theorem", "flat", same_as, "--samples", "2")
    assert spaced[0] == 0 and capsys.readouterr().err == ""


def test_theorem_negative_samples_exit_2(capsys):
    code = main(["theorem", "flat", "--component", "++", "--samples", "-5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --samples must be at least 0, got -5\n"
    code, out = run_cli(capsys, "theorem", "flat", "--component", "++", "--samples", "0")
    assert code == 0
    assert json.loads(out)["evidence"]["jklr"] == {"samples": 0, "nonzero": 0}


def test_theorem_samples_above_the_bound_exit_2_at_once(capsys):
    """--samples is at most 100,000 (at most about 8 s of samples); 10^11
    samples used to run without output until killed."""
    start = time.perf_counter()
    code = main(["theorem", "constcurv:1", "--component=+-", "--samples", "100000000000"])
    assert time.perf_counter() - start < 0.5
    assert_one_line_input_error(capsys, code, "--samples must be at most 100000, got 100000000000")


def test_theorem_pairs_lambda2_only_for_the_gram(capsys, monkeypatch):
    """The (j,l,r) samples contract wedge coordinates with the lowered
    operator: the Lambda^2 inner product runs at most for the 36 Gram entries
    at each point, however many samples are drawn (the Gram matrix is
    lambda2_matrix of g(p), so none at all)."""
    import paracomplex.curv
    import paracomplex.reference

    calls = []
    original = paracomplex.reference.lambda2_inner

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(paracomplex.reference, "lambda2_inner", counting)
    monkeypatch.setattr(paracomplex.curv, "lambda2_inner", counting, raising=False)
    code, out = run_cli(capsys, "theorem", "constcurv:-1/2", "--component=--",
                        "--samples", "300")
    report = json.loads(out)
    assert code == 1 and report["evidence"]["jklr"]["nonzero"] > 0
    assert len(calls) <= 36 * len(report["evidence"]["points"])



def test_theorem_inverts_no_matrix(capsys, monkeypatch):
    """No matrix is inverted in Fractions in `theorem` (no command module has
    a Fraction inverse, test_imports.MOVED), and on integers only g(p), once
    per point in the Riemann kernel, by int_inv: the Lambda^2 Gram matrix is
    eliminated once per point by the bareiss on [L(g) | q^T] that gives the
    operator, the Hodge star reads the frame's inverse as ONB_GRAM P^T g, and
    the J-triples need no inverse (S_a = -A g)."""
    import paracomplex.curv

    original = paracomplex.curv.int_inv
    sizes = []

    def counting(a):
        sizes.append(len(a))
        return original(a)

    monkeypatch.setattr(paracomplex.curv, "int_inv", counting)
    code, out = run_cli(capsys, "theorem", "constcurv:1", "--component", "+-")
    assert code == 0 and len(json.loads(out)["evidence"]["points"]) == 5
    assert sizes == [4] * 5


def test_theorem_reads_each_point_jet_once_and_scales_nothing(capsys, monkeypatch):
    """With 300 samples over the five default points, curv reads the
    metric's 2-jet and the frame once per point, on integers from int_jet;
    the lowered operator q and the J-triple of each orientation come out of
    curvature_operator and j_structures on integers, and curv holds no
    Fraction scaling (int_mats) to run, per point or per sample."""
    import paracomplex.curv

    jets = []
    original_jet = paracomplex.curv.int_jet

    def counting_jet(a, point, order=0):
        jets.append(order)
        return original_jet(a, point, order)

    monkeypatch.setattr(paracomplex.curv, "int_jet", counting_jet)
    code, out = run_cli(capsys, "theorem", "constcurv:1", "--component", "+-",
                        "--samples", "300")
    report = json.loads(out)
    assert code == 0 and report["evidence"]["jklr"] == {"samples": 300, "nonzero": 0}
    assert len(report["evidence"]["points"]) == 5
    assert not hasattr(paracomplex.curv, "int_mats") and sorted(jets) == [0] * 5 + [2] * 5


PHI = "(x1^4/12 - x1^3/3 + 1)"


@pytest.mark.parametrize("component", ["+-", "-+"])
def test_theorem_requires_one_sectional_constant_over_the_points(tmp_path, capsys, component):
    """g = phi^-2 diag(1, 1, -1, -1) with phi'' = x1^2 - 2 x1 has R = c Id at
    x1 = 0 (c = 0) and at x1 = 2 (c = -16/9): a scalar operator at each point,
    but no constant sectional curvature."""
    sig = [1, 1, -1, -1]
    path = write_desc(tmp_path, "phi.json", {
        "g": [[f"{sig[i]}/{PHI}^2" if i == j else "0" for j in range(4)] for i in range(4)],
        "onb": [[PHI if i == j else "0" for j in range(4)] for i in range(4)]})
    constants = []
    for point in ("0,0,0,0", "2,0,0,0"):
        code, out = run_cli(capsys, "curvature", f"file:{path}", "--point", point)
        constants.append(json.loads(out)["sectional_constant"])
    assert constants == ["0", "-16/9"]
    code, out = run_cli(capsys, "theorem", f"file:{path}", f"--component={component}",
                        "--points", "0,0,0,0;2,0,0,0")
    report = json.loads(out)
    assert code == 1 and report["integrable"] is False
    assert report["evidence"]["sectional_constant"] is None
    code, out = run_cli(capsys, "theorem", f"file:{path}", f"--component={component}",
                        "--points", "2,0,0,0;2,1,0,0")
    assert code == 0 and json.loads(out)["evidence"]["sectional_constant"] == "-16/9"


# -- theta grammar -------------------------------------------------------------------


def test_parse_theta_expr_terms():
    theta = parse_theta_expr("3*dx1^dx2 - x1*dx2^dx3 + dx3^dx4")
    assert theta[0][1].to_str() == "3" and theta[1][0].to_str() == "-3"
    assert theta[1][2].to_str() == "-x1" and theta[2][1].to_str() == "x1"
    assert theta[2][3].to_str() == "1" and theta[3][2].to_str() == "-1"
    assert [theta[i][j] for i, j in ((0, 2), (0, 3), (1, 3))] == [0, 0, 0]
    assert all(theta[i][i] == 0 for i in range(4))


def test_parse_theta_expr_parenthesized_coeff():
    theta = parse_theta_expr("(1+x1)*dx1^dx3")
    assert theta[0][2].to_str() == "x1 + 1"


def test_parse_theta_expr_leading_minus():
    theta = parse_theta_expr("-dx1^dx2")
    assert theta[0][1].to_str() == "-1"


def test_parse_theta_expr_reversed_and_repeated_wedges():
    """dxj^dxi = -dxi^dxj, and the terms of one wedge add up."""
    theta = parse_theta_expr("x1*dx3^dx2 + 2*dx2^dx3 - x1*dx2^dx3 + dx4^dx1 - dx4^dx1")
    assert theta[1][2].to_str() == "-2*x1 + 2" and theta[2][1].to_str() == "2*x1 - 2"
    assert theta[0][3] == 0 and theta[3][0] == 0


@pytest.mark.parametrize("theta,message", [
    ("-", "empty term in theta expression '-'"),
    ("+", "empty term in theta expression '+'"),
    ("x1*dx2^dx3-", "empty term in theta expression 'x1*dx2^dx3-'"),
    ("x1*dx2^dx3*", "empty factor in term 'x1*dx2^dx3*'"),
    ("*dx2^dx3", "empty factor in term '*dx2^dx3'"),
    ("x1**dx2^dx3", "empty factor in term 'x1**dx2^dx3'"),
    ("x1*-x2*dx1^dx2", "empty factor in term 'x1*'"),
])
def test_an_empty_theta_term_or_factor_exit_2_with_one_line(capsys, theta, message):
    """A sign with no term after it and an empty factor are bad input.  They
    used to be dropped: --theta=- and --theta=+ ran as Theta = 0, so
    `theorem flat --component=++` exited 0 with integrable: true, and the
    other texts here read as x1*dx2^dx3."""
    code = main(["theorem", "flat", f"--theta={theta}", "--component=++"])
    assert_one_line_input_error(capsys, code, message)


@pytest.mark.parametrize("text,same_as", [
    ("x1*dx2^dx3+-x2*dx1^dx4", "x1*dx2^dx3 - x2*dx1^dx4"),
    ("x1*dx2^dx3--x2*dx1^dx4", "x1*dx2^dx3 + x2*dx1^dx4"),
    ("--x1*dx2^dx3", "x1*dx2^dx3"),
    ("+-x1*dx2^dx3", "-x1*dx2^dx3"),
    ("-+x1*dx2^dx3", "-x1*dx2^dx3"),
    ("x1*dx1^dx2-+x1*dx2^dx3", "x1*dx1^dx2 - x1*dx2^dx3"),
])
def test_a_run_of_theta_signs_multiplies(text, same_as):
    """Stacked signs before a term, as parse_ratfunc reads +- and --, give
    the product of the signs; -+ used to give +."""
    assert parse_theta_expr(text) == parse_theta_expr(same_as)


def test_an_empty_theta_is_zero(capsys):
    code, out = run_cli(capsys, "theorem", "flat", "--theta=", "--component=++",
                        "--samples", "3")
    assert code == 0 and json.loads(out)["evidence"]["d_theta_zero"] is True
    assert mat_is_zero(parse_theta_expr("  "))


def test_validate_accepts_single_point(tmp_path, capsys):
    path = write_desc(tmp_path, "triv2.json", {"kind": "trivial"})
    code, out = run_cli(capsys, "validate", path, "--point", "1,2,3,4")
    assert code == 0
    report = json.loads(out)
    assert len(report["points"]) == 1
    assert report["points"][0]["point"] == ["1", "2", "3", "4"]


def test_the_order_of_theta_terms_leaves_the_report_unchanged(capsys):
    """dTheta is summed from the matrix of Theta, entry (i, j) by entry, so
    the order of the terms of --theta leaves every printed component as it
    is.  A RatFunc's printed form depends on the order of a sum when its
    denominator factors share a factor, (x1^2 - 1) with its square here, and
    the component 1,2,4 used to print over ((x1^4 - 2*x1^2 + 1)) or over
    ((x1^2 - 1)^2) as the terms came."""
    terms = ["x2/(x1^2-1)*dx2^dx4", "x3*x4/(x1^2-1)^2*dx1^dx2"]
    argv = ["theorem", "flat", "--component=++", "--samples=0", "--points=2,1,1,1"]
    code, out = run_cli(capsys, *argv, "--theta=" + "+".join(terms))
    assert (code, out) == run_cli(capsys, *argv, "--theta=" + "+".join(reversed(terms)))
    witness = json.loads(out)["evidence"]["d_theta_witness"]
    assert code == 1 and witness["1,2,4"] == "(-2*x1*x2 + x3)/((x1^2 - 1)^2)"


def test_theta_expr_matches_module_level_forms():
    d = cyclic_sums(parse_theta_expr("x1*dx2^dx3"))
    assert list(d) == [(0, 1, 2)] and d[(0, 1, 2)].to_str() == "1"


# -- text format and console entry -----------------------------------------------------


def test_text_format(capsys):
    code, out = run_cli(capsys, "curvature", "flat", "--format", "text")
    assert code == 0
    assert "s: 0" in out
    assert "self_dual: True" in out


def test_module_invocation_round_trip():
    # --component=-- reaches argparse as its alias mm
    proc = subprocess.run(
        [sys.executable, "-m", "paracomplex", "theorem", "flat",
         "--component=--", "--samples", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["integrable"]
