"""Command-line interface: descriptors, reports, exit codes, determinism."""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from paracomplex.cli import main
from paracomplex.exact import VARS4
from paracomplex.linalg import mat_is_zero, mat_mul, transpose
from paracomplex.parse import parse_ratfunc
from paracomplex.patch import cyclic_sums
from paracomplex.obstruction import parse_theta_expr


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_desc(tmp_path, name, payload):
    """The path of the file name holding payload as JSON, or as it is when it
    is a string; no file is written for None."""
    path = tmp_path / name
    if payload is not None:
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
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


# the same faults of a descriptor and of a metric file, and the same text for each
NOT_JSON = "{not json"
NOT_JSON_ERROR = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
NO_FILE_ERROR = "[Errno 2] No such file or directory: {path!r}"


@pytest.mark.parametrize("command", ["validate", "integrability"])
@pytest.mark.parametrize("payload,message", [
    (None, "cannot read descriptor {path!r}: " + NO_FILE_ERROR),
    (NOT_JSON, "cannot read descriptor {path!r}: " + NOT_JSON_ERROR),
    ([{"kind": "trivial"}], "descriptor {path!r} is not a JSON object"),
    ({"kind": "omega"}, "a 'omega' descriptor needs 'omega'"),
    ({"kind": "pi", "vars": ["x1", "x2"]}, "a 'pi' descriptor needs 'pi'"),
    ({"kind": "omega", "omega": {"1,2": 5}}, "expected a string literal, got 5"),
    ({"kind": "product", "P": [1, 2, 3, 4]}, "'P' must be a 4x4 matrix or a component map"),
    ({"kind": "product", "P": [["1", "0"], ["0", "1"]]},
     "'P' must be a 4x4 matrix or a component map"),
    ({"kind": "omega", "omega": 5}, "'omega' must be a 4x4 matrix or a component map"),
    ({"kind": "omega", "omega": {"1,2": "1", "3,4": "x1/0"}}, "division by zero in 'x1/0'"),
    ({"kind": "omega", "omega": {"a,b": "1"}}, "bad component key 'a,b'"),
    ({"kind": "omega", "omega": {"1,2": "x1 $ 2"}}, "unexpected character '$'"),
    ({"kind": "omega", "omega": {"1,2": "x1^x2"}},
     "exponent must be a nonnegative integer, got 'x2'"),
    ({"kind": "omega", "omega": {"1,2": "(x1 2)"}}, "missing closing parenthesis"),
], ids=["missing", "not-json", "list", "omega-missing", "pi-missing", "non-string",
        "rows-not-lists", "wrong-shape", "omega-not-a-matrix", "divide-by-zero", "bad-key",
        "bad-character", "variable-exponent", "unclosed-parenthesis"])
def test_malformed_descriptor_exit_2_with_one_line(tmp_path, capsys, command, payload, message):
    path = write_desc(tmp_path, "input.json", payload)
    assert_one_line_input_error(capsys, main([command, path]), message.format(path=path))


@pytest.mark.parametrize("payload,message", [
    (None, "cannot read metric file {path!r}: " + NO_FILE_ERROR),
    (NOT_JSON, "cannot read metric file {path!r}: " + NOT_JSON_ERROR),
    ({"g": 5}, "'g' must be a 4x4 matrix or a component map"),
    ([["1"]], "metric file {path!r} is not a JSON object"),
    ({"onb": []}, "metric file {path!r} needs 'g'"),
    ({"g": [["1", "0"], ["0", "1"]]}, "'g' must be a 4x4 matrix or a component map"),
    ({"g": {"1,1": "1", "2,2": "1", "3,3": "-1", "4,4": "-1"}, "onb": [1, 2, 3, 4]},
     "'onb' must be a 4x4 matrix or a component map"),
    ({"g": [["1/0", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "-1", "0"],
            ["0", "0", "0", "-1"]]}, "division by zero in '1/0'"),
], ids=["missing", "not-json", "g-not-a-matrix", "list", "no-g", "wrong-shape",
        "onb-not-a-matrix", "divide-by-zero"])
def test_malformed_metric_file_exit_2_with_one_line(tmp_path, capsys, payload, message):
    path = write_desc(tmp_path, "input.json", payload)
    code = main(["curvature", f"file:{path}", "--point", "1,0,0,0"])
    assert_one_line_input_error(capsys, code, message.format(path=path))


@pytest.mark.parametrize("argv,what", [(["validate", "{path}"], "descriptor"),
                                       (["curvature", "file:{path}"], "metric file")],
                         ids=["descriptor", "metric-file"])
def test_json_nested_past_the_recursion_limit_exit_2_with_one_line(tmp_path, capsys, argv, what):
    """json.load raises RecursionError on deep nesting; it is a fault in reading
    the file like any other.  Its text varies with the interpreter."""
    path = write_desc(tmp_path, "input.json", "[" * 100_000)
    code = main([a.format(path=path) for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: cannot read {what} {path!r}: maximum recursion depth")


def test_each_distinct_literal_of_an_input_file_is_parsed_once(tmp_path, capsys, monkeypatch):
    """A descriptor and a metric file each parse a literal that repeats once,
    and a metric file may give g as a component map, as a descriptor may."""
    import paracomplex.cli as cli

    parsed = []

    def counting(text, variables):
        parsed.append(text)
        return parse_ratfunc(text, variables)

    monkeypatch.setattr(cli, "parse_ratfunc", counting)
    p = [["0", "1", "0", "0"], ["1", "0", "0", "0"], ["0", "0", "0", "1"], ["0", "0", "1", "0"]]
    path = write_desc(tmp_path, "p.json", {"kind": "product", "P": p})
    assert run_cli(capsys, "validate", path)[0] == 0
    assert sorted(parsed) == ["0", "1"]
    parsed.clear()
    g = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]
    full = run_cli(capsys, "curvature", f"file:{write_desc(tmp_path, 'g.json', {'g': g})}")
    assert sorted(parsed) == ["-1", "0", "1"]
    parsed.clear()
    as_map = {"1,1": "1", "2,2": "1", "3,3": "-1", "4,4": "-1"}
    path = write_desc(tmp_path, "g.json", {"g": as_map})
    assert run_cli(capsys, "curvature", f"file:{path}") == full
    assert sorted(parsed) == ["-1", "1"]


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
    holds at most parse.MAX_VARS = 16 names, for descriptors and for file:
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
    """An omega whose Pfaffian is zero (always on an odd number of variables)
    is singular at every given point and at both fixed points, so it is
    degenerate: validate reports it at every point and exits 1, integrability
    exits 2."""
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
    two points never evaluate it at the fixed points, and each finishes
    within 5 s."""
    import paracomplex.structures

    points = ";".join(",".join(str(k * s % 7 - 3) for k in range(1, 17)) for s in (1, 2))
    given = [(1, tuple(map(int, p.split(",")))) for p in points.split(";")]
    jet_or_pole = paracomplex.structures._jet_or_pole

    def at_given_points(kind, mat, point, order):
        assert point in given, "omega was evaluated at a fixed point"
        return jet_or_pole(kind, mat, point, order)

    monkeypatch.setattr(paracomplex.structures, "_jet_or_pole", at_given_points)
    path = write_desc(tmp_path, "omega16.json", {"kind": "omega", "vars": VARS16, "omega": OMEGA16})
    for command, want in (("validate", 0), ("integrability", 1)):
        start = time.perf_counter()
        code, out = run_cli(capsys, command, path, f"--points={points}")
        assert time.perf_counter() - start < 5
        assert code == want and "error" not in out


def _seeded_omega(seed):
    """(kind, variables, component map, points, whether every point is
    singular by construction) of a seeded omega = f sum_{k<r} a_k ^ b_k on
    n <= 8 variables, with 1-forms of coefficients y_m + c: rank-deficient
    (r < n/2), nondegenerate (r = n/2, f = 1; on even seeds b_0(p) = a_0(p)
    and b_1(q) = a_1(q) at the two points p and q, so both are singular), or
    f omega_0 with f = y1 - c zero at both points."""
    rng = random.Random(seed)
    kind = ("rank-deficient", "nondegenerate", "vanishing-factor")[seed % 3]
    n = rng.choice([4, 5, 6, 7, 8] if kind == "rank-deficient" else [4, 6, 8])
    r = rng.randint(1, (n - 1) // 2) if kind == "rank-deficient" else n // 2
    points = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(2)]
    c = points[0][0] = points[1][0]
    forms = [[(rng.randrange(n), rng.randint(-4, 4)) for _ in range(n)] for _ in range(2 * r)]
    singular = kind != "nondegenerate" or seed % 2 == 0
    if kind == "nondegenerate" and singular:
        for k, p in enumerate(points):  # b_k(p) = a_k(p) in each coefficient, with other y_m
            forms[2 * k + 1] = [((m + 1) % n, p[m] + e - p[(m + 1) % n]) for m, e in forms[2 * k]]
    lit = [[f"y{m + 1} + ({e})" for m, e in form] for form in forms]
    factor = f"(y1 - ({c}))*" if kind == "vanishing-factor" else ""
    omega = {f"{i + 1},{j + 1}": factor + "(" + " + ".join(
        f"({a[i]})*({b[j]}) - ({a[j]})*({b[i]})" for a, b in zip(lit[::2], lit[1::2])) + ")"
        for i in range(n) for j in range(i + 1, n)}
    return kind, [f"y{m}" for m in range(1, n + 1)], omega, points, singular


@pytest.mark.parametrize("seed", range(18))
def test_omega_is_accepted_exactly_when_its_pfaffian_is_not_zero(tmp_path, capsys, seed):
    """validate and integrability accept an omega, decided at the given and
    the fixed points, exactly when reference.pfaffian, the expansion over
    rational functions, is not zero: on rank-deficient omega, nondegenerate
    omega and f omega_0 with f zero at every given point, each kind with
    every given point singular on some seeds."""
    from paracomplex.exact import PoleAtPoint, RatFunc
    from paracomplex.gpx import structure_jet
    from paracomplex.reference import pfaffian

    kind, variables, omega, points, singular = _seeded_omega(seed)
    n = len(variables)
    mat = [[RatFunc.zero(n)] * n for _ in range(n)]
    for key, text in omega.items():
        i, j = (int(k) - 1 for k in key.split(","))
        mat[i][j] = parse_ratfunc(text, variables)
        mat[j][i] = -mat[i][j]
    for p in points if singular else ():
        with pytest.raises(PoleAtPoint):
            structure_jet("omega", mat, (1, tuple(p)), 0)
    nondegenerate = bool(pfaffian(mat, tuple(range(n)), {}))
    assert nondegenerate == (kind != "rank-deficient")
    path = write_desc(tmp_path, "omega.json", {"kind": "omega", "vars": variables, "omega": omega})
    arg = ";".join(",".join(map(str, p)) for p in points)
    code, out = run_cli(capsys, "validate", path, "--points", arg)
    errors = [p.get("error") for p in json.loads(out)["points"]]
    assert (errors == ["omega field is degenerate"] * 2) == (not nondegenerate)
    assert code == 1 or nondegenerate
    code = main(["integrability", path, "--points", arg])
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "error: omega field is degenerate\n") or (
        nondegenerate and code in (0, 1))


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


# ROADMAP item 26: factors that pass validate_para at the five default points and fail off
# them, where f = x4 (2 x4 - 1) is not zero; g0 = [[0, Id], [Id, 0]] and D = diag(1, 1, -1, -1)
F_26 = "x4*(2*x4-1)"
G0 = [["0", "0", "1", "0"], ["0", "0", "0", "1"], ["1", "0", "0", "0"], ["0", "1", "0", "0"]]
D_STD = {"1,1": "1", "2,2": "1", "3,3": "-1", "4,4": "-1"}
K_STD = [["0", "0", "1", "0"], ["0", "0", "0", "1"], ["1", "0", "0", "0"], ["0", "1", "0", "0"]]


@pytest.mark.parametrize("desc,error", [
    # K1 = diag(1 + f, 1, -1 - f, -1): g0-skew and of trace zero, and K1^2 = Id only where f = 0
    ({"g": G0, "k1": {"1,1": f"1+{F_26}", "2,2": "1", "3,3": f"-1-{F_26}", "4,4": "-1"},
      "k2": D_STD},
     "k1: K^2 = Id fails as a rational-function identity: "
     "(K^2 - Id)[1,1] is 4*x4^4 - 4*x4^3 + 5*x4^2 - 2*x4"),
    # K2 = D + f e_13: an involution of trace zero, and g0-skew only where f = 0
    ({"g": G0, "k1": D_STD, "k2": {**D_STD, "1,3": F_26}},
     "k2: K^T g + g K = 0 fails as a rational-function identity: "
     "(K^T g + g K)[3,3] is 4*x4^2 - 2*x4"),
    # g = diag(1, 1, -1, -1) + f (e_12 - e_34), symmetric only where f = 0, and K_STD is g-skew
    ({"g": {**D_STD, "1,2": F_26, "3,4": f"-{F_26}"}, "k1": K_STD, "k2": K_STD},
     "g: g = g^T fails as a rational-function identity: (g - g^T)[1,2] is 2*x4^2 - x4"),
], ids=["k1-square", "k2-skew", "g-symmetric"])
def test_validate_assembled_decides_identities_not_points(tmp_path, capsys, desc, error):
    """An `assembled` descriptor whose factors pass every check at the five
    default points, and fail one off them, exits 1: once every point has
    passed, each check is decided as a rational-function identity, and the
    first that fails is the "error" of every point, with "ok" false there,
    while the point's own checks read true.  Off the zero set of f the point
    fails by its own checks."""
    path = write_desc(tmp_path, "asm.json", {"kind": "assembled", **desc})
    code, out = run_cli(capsys, "validate", path)
    report = json.loads(out)
    assert code == 1 and report["ok"] is False and len(report["points"]) == 5
    for entry in report["points"]:
        assert entry["error"] == error and entry["ok"] is False
        checks = [entry["k1"], entry["k2"], entry["structure"]]
        assert entry["compatible"] and all(all(c.values()) for c in checks)
    code, out = run_cli(capsys, "validate", path, "--point", "0,0,0,1")
    (entry,) = json.loads(out)["points"]
    assert code == 1 and entry["ok"] is False and entry.get("error") != error


def test_validate_checks_each_assembled_factor_once_per_point(tmp_path, capsys, monkeypatch):
    """`validate` runs validate_para once on K1 and once on K2 at each point;
    gpx.assemble takes the checked factors and checks none again."""
    import paracomplex.assembled

    calls = []
    original = paracomplex.assembled.validate_para

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


def _elementary(n, i, j, c):
    """Id + c e_ij, and its inverse Id - c e_ij, for i != j."""
    m = [[c if (r, s) == (i, j) else int(r == s) for s in range(n)] for r in range(n)]
    inv = [[-c if (r, s) == (i, j) else int(r == s) for s in range(n)] for r in range(n)]
    return m, inv


def _gauge_descriptor(rng, n, fault):
    """A seeded `assembled` descriptor of dimension n as (g, K1, K2) in
    strings, with variables x1..xn: g = phi S^T T^T (g0 + a) T S and
    K_s = +-S^-1 T_s^-1 D T_s S for g0 = [[0, Id], [Id, 0]] and
    D = diag(Id, -Id), a unipotent polynomial S, integer g0-isometries T_s,
    a polynomial phi (g is singular where it vanishes, x1 = 1 for some) and
    an antisymmetric a = [[0, M], [-M^T, 0]], zero but for fault "asymmetric"
    (which sets T_2 = T_1 and phi = 1, so both factors stay g-skew and g
    invertible); fault "factor" adds one to an entry of K1 and fault "zero"
    makes g zero."""
    h, names = n // 2, [f"x{i + 1}" for i in range(n)]
    one = parse_ratfunc("1", names)

    def poly():
        return parse_ratfunc(rng.choice(["{c}*x{i}", "{c}*x{i}*x{j}", "{c}"]).format(
            c=rng.choice([-2, -1, 1, 3]), i=rng.randint(1, n), j=rng.randint(1, n)), names)

    s = [[one * int(i == j) for j in range(n)] for i in range(n)]
    s_inv = [row[:] for row in s]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        e, e_inv = _elementary(n, max(i, j), min(i, j), poly())
        s, s_inv = mat_mul(e, s), mat_mul(s_inv, e_inv)

    def isometry():
        t = [[int(i == j) for j in range(n)] for i in range(n)]
        t_inv = [row[:] for row in t]
        for _ in range(2 if h > 1 else 0):
            i, j = rng.sample(range(h), 2)
            c = rng.choice([-2, -1, 1, 2])
            if rng.random() < 0.5:  # [[A, 0], [0, A^-T]] for A = Id + c e_ij
                e, e_inv = _elementary(n, i, j, c)
                e[h + j][h + i], e_inv[h + j][h + i] = -c, c
            else:  # [[Id, B], [0, Id]] for B = c (e_ij - e_ji)
                e, e_inv = _elementary(n, i, h + j, c)
                e[j][h + i], e_inv[j][h + i] = -c, c
            t, t_inv = mat_mul(e, t), mat_mul(t_inv, e_inv)
        return t, t_inv

    t1 = isometry()
    t2 = t1 if fault == "asymmetric" else isometry()
    d = [[(1 if i < h else -1) * int(i == j) for j in range(n)] for i in range(n)]
    g0 = [[int(abs(i - j) == h) for j in range(n)] for i in range(n)]
    phi = rng.choice([one, one, parse_ratfunc("x1 - 1", names), poly()])
    if fault == "asymmetric":  # M = 2 e_11, so g0 + a = [[0, Id + M], [Id - M^T, 0]] is invertible
        g0[0][h], g0[h][0], phi = 3, -1, one
    g = [[phi * x for x in row] for row in
         mat_mul(transpose(s), mat_mul(transpose(t1[0]), mat_mul(g0, mat_mul(t1[0], s))))]
    ks = [mat_mul(s_inv, mat_mul(t[1], mat_mul(d, mat_mul(t[0], s)))) for t in (t1, t2)]
    sign = rng.choice([1, -1])
    ks[1] = [[sign * x for x in row] for row in ks[1]]
    if fault == "factor":
        i, j = rng.randrange(n), rng.randrange(n)
        ks[0][i][j] = ks[0][i][j] + 1
    if fault == "zero":
        g = [[0 * x for x in row] for row in g]
    return names, (g, *ks)


def _theta(rng, names, closed):
    """Theta = d alpha for a random polynomial 1-form alpha when closed, else
    random entries, one of them 1/(x1 - 1) at times."""
    n = len(names)
    if closed:
        alpha = [parse_ratfunc(f"{rng.randint(-2, 2)}*x{rng.randint(1, n)}^2*x{i + 1}", names)
                 for i in range(n)]
        return {f"{i + 1},{j + 1}": (alpha[j].partial(i) - alpha[i].partial(j)).to_str(names)
                for i in range(n) for j in range(i + 1, n)}
    theta = {f"{i + 1},{j + 1}": f"{rng.randint(-3, 3)}*x{rng.randint(1, n)}*x{rng.randint(1, n)}"
             for i in range(n) for j in range(i + 1, n)}
    if rng.random() < 0.5:
        theta["1,2"] = "1/(x1 - 1)"
    return theta


@pytest.mark.parametrize("n", [2, 4, 6])
def test_theta_is_a_gauge_for_validate(tmp_path, capsys, n):
    """The structure and the metric of (g, Theta) are e^Theta K e^-Theta and
    the B-transform of g's, and a B-transform keeps K^2 = Id, skewness, the
    eigenranks and compatibility: at every point where Theta has no pole, the
    `validate` entry of a descriptor with a closed or a non-closed Theta is
    the entry without "theta", on seeded descriptors that pass,
    that have a factor that fails, an asymmetric g, a zero g, or a g that is
    singular at some points."""
    rng = random.Random(400 + n)
    seen = set()
    for trial in range(8):
        fault = [None, None, None, "factor", "asymmetric", "zero", None, None][trial]
        names, (g, k1, k2) = _gauge_descriptor(rng, n, fault)
        desc = {"kind": "assembled", "vars": names,
                **{key: [[x.to_str(names) for x in row] for row in m]
                   for key, m in (("g", g), ("k1", k1), ("k2", k2))}}
        # the first point has x1 = 1, a pole of 1/(x1 - 1) and a zero of phi = x1 - 1
        points = [["1"] + [rng.choice(["0", "2", "-1/2", "3/2"]) for _ in range(n - 1)]]
        points += [[str(rng.randint(-3, 3)) for _ in range(n)] for _ in range(2)]
        argv = ["--points", ";".join(map(",".join, points))]
        code, out = run_cli(capsys, "validate", write_desc(tmp_path, "gauge.json", desc), *argv)
        bare = json.loads(out)["points"]
        for closed in (True, False):
            theta = _theta(rng, names, closed)
            path = write_desc(tmp_path, "gauge.json", dict(desc, theta=theta))
            code_theta, out = run_cli(capsys, "validate", path, *argv)
            entries = json.loads(out)["points"]
            poles = [theta.get("1,2") == "1/(x1 - 1)" and p[0] == "1" for p in points]
            assert [e for e, pole in zip(entries, poles) if not pole] == \
                   [e for e, pole in zip(bare, poles) if not pole], (trial, closed)
            assert code_theta == code or any(poles)
            seen.update(entry.get("error", entry["ok"]) for entry in bare)
    assert seen == {True, False, "g must be symmetric", "matrix is singular over the scalar field"}


def _fraction_value(f, point):
    """A RatFunc at a point of Fractions, from its terms and its factors."""
    def poly(p):
        return sum(c * math.prod(x ** e for x, e in zip(point, exps)) for exps, c in p.terms.items())

    return Fraction(poly(f.num)) / (f.den * math.prod(poly(p) ** m for p, m in f.factors.values()))


def _first_failing_identity(g, k1, k2, points):
    """The identity that `validate` on the assembled descriptor (g, K1, K2)
    names first, in its order (K^2 = Id, trace K = 0 and K^T g + g K = 0 for
    K1 and then K2, then g = g^T), found as the first of them that is not
    zero at one of points, in Fractions; None when all are zero there.  It
    calls nothing from assembled, para or patch."""
    def mul(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

    def residuals(gp, k):
        n, square = len(k), mul(k, k)
        skew = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(mul(list(zip(*k)), gp), mul(gp, k))]
        return [("K^2 = Id", [square[i][j] - (i == j) for i in range(n) for j in range(n)]),
                ("trace K = 0", [sum(k[i][i] for i in range(n))]),
                ("K^T g + g K = 0", [x for row in skew for x in row])]

    table = []  # per point, each identity's name and whether it fails there
    for p in points:
        gp, *kps = [[[_fraction_value(x, p) for x in row] for row in m] for m in (g, k1, k2)]
        row = [(f"{name}: {check}", any(values))
               for name, kp in zip(("k1", "k2"), kps) for check, values in residuals(gp, kp)]
        row.append(("g: g = g^T", any(a != b for ra, rb in zip(gp, zip(*gp)) for a, b in zip(ra, rb))))
        table.append(row)
    return next((col[0][0] for col in zip(*table) if any(fails for _, fails in col)), None)


def test_validate_assembled_identities_equal_a_fraction_reference(tmp_path, capsys):
    """On 100 seeded `assembled` descriptors (random.Random(426)) whose five
    default points all pass their checks, `validate` exits 0 iff a Fraction
    reference finds every identity zero at three seeded rational points with
    x4 not in {0, 1/2}, and its "error" names the identity that the reference
    finds failing first.  The descriptors are those of _gauge_descriptor with
    no fault or with f e_ij, for f = x4 (2 x4 - 1), which vanishes at every
    default point, added to K1 only, to K2 only, or to g's (1,2) entry only."""
    rng = random.Random(426)
    names = VARS4
    f = parse_ratfunc("x4*(2*x4-1)", names)
    kept, seen = 0, set()
    while kept < 100:
        _, (g, k1, k2) = _gauge_descriptor(rng, 4, None)
        fault = rng.choice([None, "k1", "k2", "g"])
        i, j = (0, 1) if fault == "g" else (rng.randrange(4), rng.randrange(4))
        if fault:
            target = {"k1": k1, "k2": k2, "g": g}[fault]
            target[i][j] = target[i][j] + f
        desc = {"kind": "assembled", "vars": names,
                **{key: [[x.to_str(names) for x in row] for row in m]
                   for key, m in (("g", g), ("k1", k1), ("k2", k2))}}
        code, out = run_cli(capsys, "validate", write_desc(tmp_path, "asm.json", desc))
        entries = json.loads(out)["points"]
        if not all(all(all(e.get(key, {"": False}).values()) for key in ("k1", "k2", "structure"))
                   and e.get("compatible") for e in entries):
            continue  # a default point fails its own checks
        kept += 1
        points = []
        while len(points) < 3:
            p = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)]
            if p[3] not in (0, Fraction(1, 2)):
                points.append(tuple(p))
        expected = _first_failing_identity(g, k1, k2, points)
        errors = {e.get("error", "").partition(" fails as a rational-function identity")[0]
                  for e in entries}
        assert (code, errors) == ((1, {expected}) if expected else (0, {""})), (kept, fault)
        seen.add((fault, expected))
    assert {fault for fault, expected in seen if expected} == {"k1", "k2", "g"}
    assert (None, None) in seen


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


@pytest.mark.parametrize("payload,witness", [
    ({"kind": "omega", "omega": {"1,2": "1+c^2", "3,4": "a", "1,3": "b*d", "2,4": "c"}},
     {"d_omega_component": [1, 2, 3], "value": "2*c - d"}),
    ({"kind": "product", "P": [["0", "c", "0", "0"], ["1/c", "0", "0", "0"],
                               ["0", "0", "0", "1"], ["0", "0", "1", "0"]]},
     {"frame_pair": [1, 3], "value": ["(-1)/((c))", "0", "0", "0"]}),
], ids=["omega", "product"])
def test_an_integrability_witness_names_the_descriptor_variables(tmp_path, capsys, payload,
                                                                 witness):
    """The witness value prints in the descriptor's "vars", a, b, c, d here,
    not as x1..x4 (2*x3 - x4 for the d omega component)."""
    path = write_desc(tmp_path, "named.json", {**payload, "vars": ["a", "b", "c", "d"]})
    code, out = run_cli(capsys, "integrability", path, "--points", "1,1,1,1")
    assert code == 1 and json.loads(out)["witness"] == witness


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
    import paracomplex.structures  # noqa: F401 (imported before the patch, it binds the original)

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


# g of ppwave:x2^2 and its catalog frame, one vector per inner list, norms 1, 1, -1, -1
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
    """The frame's vectors must have norms 1, 1, -1, -1 at every point used:
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


def test_a_frame_is_read_one_vector_per_inner_list(tmp_path, capsys):
    """A metric file's "onb" lists the frame vectors, one per inner list: the
    catalog frame of ppwave:x2^2 written so passes at (1, 2, 3, 4), and its
    transpose, the same vectors as columns, is refused there."""
    path = write_desc(tmp_path, "rows.json", {"g": PPWAVE_G, "onb": PPWAVE_ONB})
    assert main(["curvature", f"file:{path}", "--point", "1,2,3,4"]) == 0
    capsys.readouterr()
    columns = [list(column) for column in zip(*PPWAVE_ONB)]
    path = write_desc(tmp_path, "columns.json", {"g": PPWAVE_G, "onb": columns})
    code = main(["curvature", f"file:{path}", "--point", "1,2,3,4"])
    assert_one_line_input_error(capsys, code, f"the onb of file:{path} is not orthonormal with "
                                              "norms 1, 1, -1, -1 at (1, 2, 3, 4)")


def test_curvature_ppwave_orientation_swap(capsys):
    code, out = run_cli(capsys, "curvature", "ppwave:x2^2", "--point", "0,0,0,0")
    assert code == 0
    report = json.loads(out)
    assert report["anti_self_dual"] and not report["self_dual"]
    code, out = run_cli(capsys, "curvature", "ppwave:x2^2", "--point", "0,0,0,0",
                        "--orientation", "-")
    report_rev = json.loads(out)
    assert report_rev["self_dual"] and not report_rev["anti_self_dual"]


def test_a_ppwave_report_names_its_profile(capsys):
    """A pp-wave's report names it ppwave:<f> with f in canonical form, as
    constcurv:<c> names its c: two profiles give two names, and the name read
    back as a metric id gives the same report, byte for byte."""
    names = set()
    for metric in ("ppwave:x2^2", "ppwave:x1*(x1-1)*(x2^3+x2^2)/2"):
        for argv in (["curvature", metric, "--point", "1,2,0,0"],
                     ["theorem", metric, "--component", "--", "--samples", "20"]):
            code, out = run_cli(capsys, *argv)
            name = json.loads(out)["metric"]
            names.add(name)
            assert run_cli(capsys, argv[0], name, *argv[2:]) == (code, out)
    assert names == {"ppwave:x2^2",
                     "ppwave:1/2*x1^2*x2^3 + 1/2*x1^2*x2^2 - 1/2*x1*x2^3 - 1/2*x1*x2^2"}


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


@pytest.mark.parametrize("command", [
    ["curvature", "--point", "0,0,0"],
    ["curvature"],
    ["theorem", "--component=++"],
    ["theorem", "--component", "++", "--points", "1,2"],
    ["theorem", "--component=++", "--epsilon", "2"],
], ids=["curvature", "curvature-default-point", "theorem", "theorem-points", "theorem-epsilon"])
def test_a_three_variable_metric_file_exit_2_with_one_line(tmp_path, capsys, command):
    """cli.parse_metric_id, which main runs before it reads a point, is the
    one check that a metric's patch has dimension 4: a point is never read
    against three variables, neither the default --point 0,0,0,0 that the
    user did not type nor a --points of two coordinates, and a theorem with
    epsilon 2, which computes no curvature, refuses the metric too."""
    path = write_desc(tmp_path, "g3.json", {
        "vars": ["x1", "x2", "x3"], "g": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]]})
    code = main([command[0], f"file:{path}"] + command[1:])
    assert_one_line_input_error(capsys, code, "curvature operator decomposition requires dim 4")


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


# ROADMAP item 1's counterexample: d2^2 f = x1 (x1 - 1) (3 x2 + 1) vanishes at every default
# point, so the curvature conditions of +-, -+ and -- hold there and nowhere near them; its
# twin, with (x1 + 1/7) and (x2 + 1/5) substituted, is the same metric translated off them
PPWAVE_COUNTEREXAMPLE = "ppwave:x1*(x1-1)*(x2^3+x2^2)/2"
PPWAVE_TWIN = "ppwave:(x1+1/7)*((x1+1/7)-1)*((x2+1/5)^3+(x2+1/5)^2)/2"
ITEM_1 = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: theorem decides the curvature conditions at the five "
                        "default points only, which all lie where d2^2 f vanishes")


@pytest.mark.parametrize("component,code", [
    ("++", 0), pytest.param("+-", 1, marks=ITEM_1), pytest.param("-+", 1, marks=ITEM_1),
    pytest.param("--", 1, marks=ITEM_1)])
def test_item_1_counterexample_gives_its_translated_twins_verdict(capsys, component, code):
    """The translated twin is integrable on ++ only (Ricci flat and
    anti-self-dual, and no constant sectional curvature), and a translation
    changes no verdict, so the counterexample must exit as its twin does on
    each component.  On +-, -+ and -- it exits 0 today (item 1)."""
    assert main(["theorem", PPWAVE_TWIN, f"--component={component}"]) == code
    assert main(["theorem", PPWAVE_COUNTEREXAMPLE, f"--component={component}"]) == code
    capsys.readouterr()


def test_a_pole_of_dtheta_at_a_sample_point_is_skipped(capsys):
    """dTheta = x1/(x1 - 1) dx1^dx2^dx3 is not zero, which decides the verdict;
    the witness search skips (0, 0, 0, 0), where dTheta is zero, and
    (1, 0, 0, 0), where it has a pole, as theorem_verdict skips a default point
    where g has one."""
    code, out = run_cli(capsys, "theorem", "flat", "--component=++",
                        "--theta", "x1*x3/(x1-1)*dx1^dx2")
    evidence = json.loads(out)["evidence"]
    assert code == 1 and evidence["d_theta_witness"] == {"1,2,3": "(x1)/((x1 - 1))"}
    assert evidence["np_residual_witness"]["point"] == ["1/2", "-1/3", "1/5", "0"]


def test_a_theta_closed_at_every_supplied_point_leaves_no_np_witness(capsys):
    """dTheta = 2 x1 dx1^dx2^dx3 is not zero, which decides the verdict, but it
    vanishes at both supplied points, so the witness search skips each of them
    and the evidence has no np_residual_witness."""
    code, out = run_cli(capsys, "theorem", "constcurv:1", "--component=++",
                        "--theta", "x1^2*dx2^dx3", "--points", "0,0,0,0;0,1,0,0")
    evidence = json.loads(out)["evidence"]
    assert code == 1 and evidence["d_theta_zero"] is False
    assert evidence["d_theta_witness"] == {"1,2,3": "2*x1"}
    assert "np_residual_witness" not in evidence


@pytest.mark.parametrize("theta,witness", [("a*dx2^dx3", "1"), ("a*b*dx2^dx3", "b")])
def test_theta_reads_and_prints_the_variables_of_a_metric_file(tmp_path, capsys, theta,
                                                               witness):
    """--theta is read over the "vars" of a file: metric, and its dTheta
    witness printed in them."""
    path = write_desc(tmp_path, "named.json", {
        "vars": ["a", "b", "c", "d"],
        "g": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "-1", "0"],
              ["0", "0", "0", "-1"]]})
    code, out = run_cli(capsys, "theorem", f"file:{path}", "--component=++", "--theta", theta)
    assert code == 1 and json.loads(out)["evidence"]["d_theta_witness"] == {"1,2,3": witness}
    code = main(["theorem", f"file:{path}", "--component=++", "--theta", "x1*dx2^dx3"])
    assert_one_line_input_error(capsys, code, "bad coefficient 'x1': unknown token 'x1'")


def test_theorem_epsilon_never_integrable(capsys):
    code, out = run_cli(capsys, "theorem", "flat", "--component", "++",
                        "--epsilon", "2")
    assert code == 1
    assert json.loads(out)["evidence"]["epsilon_never_integrable"]


def test_theorem_without_a_rational_frame_at_any_default_point_exit_2(tmp_path, capsys):
    """diag(2, 3, -1, -1) has no rational orthonormal frame (det g = 6 is not a
    square), so every default point is skipped."""
    path = write_desc(tmp_path, "diag.json", {"g": [["2", "0", "0", "0"], ["0", "3", "0", "0"],
                                                    ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]})
    code = main(["theorem", f"file:{path}", "--component=++"])
    assert_one_line_input_error(capsys, code, "no usable sample points for the metric: "
                                "no rational orthonormal basis found; supply one")


def test_theorem_with_a_pole_at_every_default_point_exit_2(tmp_path, capsys):
    """x4 (2 x4 - 1) vanishes at each default point, so every one is skipped,
    and the error names the pole at the first."""
    path = write_desc(tmp_path, "poles.json", {
        "g": [["1/(x4*(2*x4-1))", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "-1", "0"],
              ["0", "0", "0", "-1"]]})
    code = main(["theorem", f"file:{path}", "--component=++"])
    assert_one_line_input_error(capsys, code, "no usable sample points for the metric: "
                                "denominator factor vanishes at (0, 0, 0, 0)")


def test_theorem_at_a_supplied_pole_of_the_metric_exit_2(tmp_path, capsys):
    """A default point where g has a pole is skipped, but a supplied one is an
    input error."""
    path = write_desc(tmp_path, "pole.json", {
        "g": [["1/(x1-1)", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "-1", "0"],
              ["0", "0", "0", "-1"]]})
    code = main(["theorem", f"file:{path}", "--component=++", "--points", "1,0,0,0"])
    assert_one_line_input_error(capsys, code, "denominator factor vanishes at (1, 0, 0, 0)")


def test_theorem_skips_the_default_points_where_the_metric_has_a_pole(tmp_path, capsys):
    """g = eta / (x1 - 1)^2 with the frame (x1 - 1) Id has constant sectional
    curvature -1; the verdict reads only the three default points with x1 != 1."""
    eta = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]
    path = write_desc(tmp_path, "hyperbolic.json", {
        "g": [[f"{v}/(x1-1)^2" for v in row] for row in eta],
        "onb": [["x1-1" if i == j else "0" for j in range(4)] for i in range(4)]})
    code, out = run_cli(capsys, "theorem", f"file:{path}", "--component=+-")
    evidence = json.loads(out)["evidence"]
    assert code == 0 and evidence["sectional_constant"] == "-1"
    assert evidence["points"] == [["0", "0", "0", "0"], ["0", "1", "0", "0"],
                                  ["1/2", "-1/3", "1/5", "0"]]


def test_theorem_on_a_ppwave_with_x3_and_x4_swapped_finds_w_plus(tmp_path, capsys):
    """g = 2 dx1 dx3 + 2 dx2 dx4 + x2^2 dx1^2 is ppwave:x2^2 with x3 and x4
    swapped, which reverses the coordinate orientation, so its Weyl curvature
    sits in W+ for the frame onb_search finds: ++ fails, and -- holds."""
    path = write_desc(tmp_path, "ppwave_swapped.json", {
        "g": [["x2^2", "0", "1", "0"], ["0", "0", "0", "1"], ["1", "0", "0", "0"],
              ["0", "1", "0", "0"]]})
    code, out = run_cli(capsys, "theorem", f"file:{path}", "--component=++")
    evidence = json.loads(out)["evidence"]
    assert code == 1 and evidence["ricci_zero"] and evidence["w_minus_zero"]
    assert evidence["w_plus_zero"] is False
    assert main(["theorem", f"file:{path}", "--component=--"]) == 0


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
    its option, is that option's value, as in the = form: the token after an
    option is its value, whatever it begins with."""
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
    value, as in --component=-+ and the alias mm: the token after an option is
    its value, whatever it begins with, so -- there marks no end of options."""
    spaced = run_cli(capsys, "theorem", "flat", "--component", component, "--samples", "2")
    assert spaced == run_cli(capsys, "theorem", "flat", same_as, "--samples", "2")
    assert spaced[0] == 0 and capsys.readouterr().err == ""


# -- the command line ----------------------------------------------------------------


@pytest.mark.parametrize("command", ["validate", "integrability"])
def test_point_and_points_together_exit_2(tmp_path, capsys, command):
    """--point and --points exclude each other; --points used to win in silence."""
    path = write_desc(tmp_path, "omega.json", {"kind": "omega", "omega": {"1,2": "1", "3,4": "x1"}})
    code = main([command, path, "--point", "1,2,3,4", "--points", "5,6,7,8"])
    assert_one_line_input_error(capsys, code, "give --point or --points, not both")


@pytest.mark.parametrize("argv,message", [
    ([], "no command; expected one of validate, integrability, curvature, theorem, or --help"),
    (["check", "flat"],
     "unknown command 'check'; expected one of validate, integrability, curvature, theorem, "
     "or --help"),
    (["--format=text", "curvature", "flat"],
     "unknown command '--format=text'; expected one of validate, integrability, curvature, "
     "theorem, or --help"),
    (["validate", "{path}", "--bogus", "1"], "validate has no option '--bogus'"),
    (["theorem", "flat", "--comp=++"], "theorem has no option '--comp'"),
    (["curvature", "flat", "--orient", "-"], "curvature has no option '--orient'"),
    (["integrability", "{path}", "--theta", "x1*dx2^dx3"], "integrability has no option '--theta'"),
    (["validate", "{path}", "--"], "validate has no option '--'"),
    (["theorem", "flat", "--component=++", "--", "--seed", "1"], "theorem has no option '--'"),
    (["curvature", "flat", "--point"], "--point needs a value"),
    (["theorem", "flat", "--component"], "--component needs a value"),
    (["theorem", "flat", "--component=+"], "--component takes ++ or +- or -+ or -- or pp or pm "
                                           "or mp or mm, not '+'"),
    (["curvature", "flat", "--orientation", "0"], "--orientation takes + or -, not '0'"),
    (["integrability", "{path}", "--format", "xml"], "--format takes json or text, not 'xml'"),
    (["theorem", "flat", "--component=++", "--epsilon", "5"],
     "--epsilon takes 1 or 2 or 3 or 4, not '5'"),
    (["theorem", "flat", "--component=++", "--epsilon=x"],
     "--epsilon takes 1 or 2 or 3 or 4, not 'x'"),
    (["theorem", "flat", "--component=++", "--seed", "x"], "--seed takes an integer, not 'x'"),
    (["theorem", "flat", "--component=++", "--samples=1.5"],
     "--samples takes an integer, not '1.5'"),
    (["theorem", "flat"], "theorem needs --component"),
    (["theorem", "flat", "--component", "++", "--epsilon", "2"], None),
    (["validate"], "validate needs a descriptor"),
    (["theorem", "--component=++"], "theorem needs a metric"),
    (["curvature", "flat", "constcurv:1"], "curvature takes one metric, not also 'constcurv:1'"),
    (["integrability", "{path}", "{path}"], "integrability takes one descriptor, not also '{path}'"),
    (["integrability", "{assembled}"],
     "integrability reports cover kinds trivial/omega/pi/product"),
    # two faults: main reads the input and the points before the body checks the rest
    (["integrability", "{assembled}", "--points", "bad"], "bad point 'bad'"),
    (["theorem", "nosuch", "--component", "++", "--samples", "-1"],
     "unknown metric identifier 'nosuch'"),
    (["theorem", "flat", "--component=++", "--samples", "-1", "--points", "bad"],
     "bad point 'bad'"),
    (["theorem", "flat", "--component=++", "--theta", "dx1", "--points", "bad"],
     "bad point 'bad'"),
], ids=["no-command", "unknown-command", "option-first", "unknown-option", "abbreviation",
        "abbreviation-spaced", "other-command-option", "bare-dashes", "bare-dashes-mid",
        "no-value", "no-component-value", "component-choice", "orientation-choice",
        "format-choice", "epsilon-choice", "epsilon-not-int", "seed-not-int", "samples-not-int",
        "no-component", "epsilon-2-holds", "no-descriptor", "no-metric", "second-metric",
        "second-descriptor", "integrability-assembled", "points-before-assembled",
        "metric-before-samples", "points-before-samples", "points-before-theta"])
def test_a_bad_command_line_exit_2_with_one_line(tmp_path, capsys, argv, message):
    """Each fault of the command line is an input fault: main returns 2 without
    raising, prints no report and one `error:` line that names the command or
    the option.  An argv that reads is the control.  Of two faults, one that
    main finds in reading the input or the points comes before one that the
    command's body finds: --samples, --theta, or an assembled descriptor for
    integrability."""
    path = write_desc(tmp_path, "omega.json", {"kind": "omega", "omega": {"1,2": "1", "3,4": "x1"}})
    k = [["0", "0", "1", "0"], ["0", "0", "0", "1"], ["1", "0", "0", "0"], ["0", "1", "0", "0"]]
    assembled = write_desc(tmp_path, "assembled.json",
                           {"kind": "assembled", "g": {"1,1": "1", "2,2": "1", "3,3": "-1",
                                                       "4,4": "-1"}, "k1": k, "k2": k})
    code = main([a.format(path=path, assembled=assembled) for a in argv])
    if message is None:
        assert code == 1 and capsys.readouterr().err == ""
    else:
        assert_one_line_input_error(capsys, code, message.format(path=path))


# every option of each command, as the usage names it
OPTIONS = {
    "validate": ["--point", "--points", "--format"],
    "integrability": ["--point", "--points", "--format"],
    "curvature": ["--point", "--orientation", "--format"],
    "theorem": ["--component", "--theta", "--points", "--seed", "--samples", "--epsilon",
                "--format"],
}


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("argv", [[], *([c] for c in OPTIONS), ["theorem", "flat", "--seed=2"]],
                         ids=["top", *OPTIONS, "theorem-after-options"])
def test_help_prints_the_usage_and_exits_0(capsys, argv, flag):
    """-h and --help print the usage to stdout and exit 0: before a command, a
    line for every command; after one, that command's line, which names each
    of its options and its input."""
    code = main(argv + [flag])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    commands = argv[:1] or list(OPTIONS)
    lines = captured.out.splitlines()
    assert [line.split()[:2] for line in lines] == [["paracomplex", c] for c in commands]
    for command, line in zip(commands, lines):
        words = line.replace("[", " ").split()
        assert [w for w in words if w.startswith("--")] == OPTIONS[command]
        assert words[2] == ("<descriptor>" if command in ("validate", "integrability")
                            else "<metric>")


def test_the_readme_synopsis_is_the_help_output(capsys):
    """README's CLI synopsis is what --help prints, so it names every option."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    synopsis = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    assert main(["--help"]) == 0
    assert capsys.readouterr().out == synopsis


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
    at each point, however many samples are drawn (the operator reads the
    Gram matrix's inverse as lambda2_matrix of adj g(p), so none at all)."""
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
    a Fraction inverse, test_imports.MOVED), and on integers each point runs
    one inversion of g(p) and one 4 x 4 elimination, with or without a
    non-closed --theta: these are every bareiss call of the run.  The
    inversion is int_inv in the Riemann kernel; the curvature operator keeps
    its g^-1, which the Lambda^2 Gram inverse (L(g)^-1 = L(g^-1)), rho and
    the witness search's np_residual read, so obstruction inverts nothing: its
    torsion and gpx.assemble's closed form, w_s^-1 = g^-T K_s^T, read that
    g^-1.  The elimination is the one bareiss of onb_at, which orients the
    frame for the J-triples; the Hodge star reads g and the orientation alone
    (star_matrix is o eps L(G) / sqrt(det G), with sqrt(det G) from the
    operator's g^-1), and the J-triples need no inverse (S_a = -A g)."""
    import paracomplex.curv
    import paracomplex.gpx
    import paracomplex.linalg
    import paracomplex.obstruction

    original, original_bareiss = paracomplex.linalg.int_inv, paracomplex.linalg.bareiss
    sizes, eliminations = [], []

    def counting(pair):
        sizes.append(len(pair[1]))
        return original(pair)

    def counting_bareiss(m):
        eliminations.append((len(m), len(m[0])))
        return original_bareiss(m)

    for module in (paracomplex.curv, paracomplex.gpx, paracomplex.obstruction):
        monkeypatch.setattr(module, "int_inv", counting, raising=False)
    for module in (paracomplex.curv, paracomplex.linalg):
        monkeypatch.setattr(module, "bareiss", counting_bareiss)
    for theta in ([], ["--theta", "x1*dx2^dx3"]):
        sizes.clear()
        eliminations.clear()
        code, out = run_cli(capsys, "theorem", "constcurv:1", "--component=+-", *theta)
        report = json.loads(out)
        assert code == (1 if theta else 0) and len(report["evidence"]["points"]) == 5
        assert ("np_residual_witness" in report["evidence"]) == bool(theta)
        assert sizes == [4] * 5
        # int_inv's [g | Id] five times and onb_at's frame five times: none of the Lambda^2
        # Gram matrix, and none of gpx.assemble's w_s
        assert sorted(eliminations) == [(4, 4)] * 5 + [(4, 8)] * 5


def count_eliminations(monkeypatch) -> list:
    """The (rows, columns) of every linalg.bareiss call from here on: the
    wrapper replaces it in every loaded module of the package that holds it,
    once `validate`'s modules are loaded."""
    import paracomplex.linalg
    import paracomplex.structures

    original = paracomplex.linalg.bareiss
    eliminations = []

    def counting(m):
        eliminations.append((len(m), len(m[0])))
        return original(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("paracomplex") and getattr(module, "bareiss", None) is original:
            monkeypatch.setattr(module, "bareiss", counting)
    return eliminations


def test_validate_assembled_runs_one_inversion_per_point(tmp_path, capsys, monkeypatch):
    """`validate` on an `assembled` descriptor runs, at each point, exactly
    one elimination, the inversion of g(p) ([g | Id], 4 x 8):
    gpx.assemble inverts no w_s, gpx.is_compatible is an identity of matrix
    products with no rank of [F | K F], and validate_gen_para reads equal
    eigenranks from K^2 and trace K with no rank of D Id +- K."""
    eliminations = count_eliminations(monkeypatch)
    k_std = [["0", "0", "1", "0"], ["0", "0", "0", "1"], ["1", "0", "0", "0"], ["0", "1", "0", "0"]]
    g = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]
    path = write_desc(tmp_path, "asm.json", {"kind": "assembled", "g": g, "theta": {"1,2": "3"},
                                             "k1": k_std, "k2": k_std})
    code, out = run_cli(capsys, "validate", path)
    assert code == 0 and len(json.loads(out)["points"]) == 5
    assert eliminations == [(4, 8)] * 5


@pytest.mark.parametrize("desc, per_point", [
    ({"kind": "omega", "omega": {"1,2": "1 + x3^2", "3,4": "x1", "1,3": "x2*x4", "2,4": "x3"}},
     [(4, 8)]),
    ({"kind": "pi", "pi": {"1,2": "x3", "1,3": "x2*x4", "2,4": "x1^2", "3,4": "1/(1 + x2^2)"}}, []),
    ({"kind": "product", "P": [["0", "1", "0", "0"], ["1", "0", "0", "0"], ["0", "0", "0", "1"],
                               ["0", "0", "1", "0"]]}, []),
    ({"kind": "trivial"}, []),
], ids=["omega", "pi", "product", "trivial"])
def test_validate_runs_an_elimination_only_to_invert_omega(tmp_path, capsys, monkeypatch, desc,
                                                          per_point):
    """`validate` on the other kinds runs one elimination per point only for
    omega, the inversion of omega(p) ([omega | Id], n x 2n) in
    gpx.structure_jet, whether or not it is singular there; K_pi, K_P and
    the trivial structure are built with no elimination, and
    validate_gen_para runs none."""
    eliminations = count_eliminations(monkeypatch)
    code, out = run_cli(capsys, "validate", write_desc(tmp_path, "desc.json", desc))
    assert code in (0, 1) and len(json.loads(out)["points"]) == 5
    assert eliminations == per_point * 5


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


def test_theorem_builds_the_hodge_star_once_per_usable_point(capsys, monkeypatch):
    """curvature_operator carries W_+- for its orientation, so theorem reads
    the duality flags and the sectional constant from one record per point:
    on constcurv:1's five default points, all usable, star_matrix runs 5
    times."""
    import paracomplex.curv

    calls = []
    original = paracomplex.curv.star_matrix
    monkeypatch.setattr(paracomplex.curv, "star_matrix",
                        lambda *args: calls.append(args) or original(*args))
    code, out = run_cli(capsys, "theorem", "constcurv:1", "--component=+-")
    assert code == 0 and len(json.loads(out)["evidence"]["points"]) == 5
    assert len(calls) == 5


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
    theta = parse_theta_expr("3*dx1^dx2 - x1*dx2^dx3 + dx3^dx4", VARS4)
    assert theta[0][1].to_str() == "3" and theta[1][0].to_str() == "-3"
    assert theta[1][2].to_str() == "-x1" and theta[2][1].to_str() == "x1"
    assert theta[2][3].to_str() == "1" and theta[3][2].to_str() == "-1"
    assert [theta[i][j] for i, j in ((0, 2), (0, 3), (1, 3))] == [0, 0, 0]
    assert all(theta[i][i] == 0 for i in range(4))


def test_parse_theta_expr_parenthesized_coeff():
    theta = parse_theta_expr("(1+x1)*dx1^dx3", VARS4)
    assert theta[0][2].to_str() == "x1 + 1"


def test_parse_theta_expr_leading_minus():
    theta = parse_theta_expr("-dx1^dx2", VARS4)
    assert theta[0][1].to_str() == "-1"


def test_parse_theta_expr_reversed_and_repeated_wedges():
    """dxj^dxi = -dxi^dxj, and the terms of one wedge add up."""
    theta = parse_theta_expr("x1*dx3^dx2 + 2*dx2^dx3 - x1*dx2^dx3 + dx4^dx1 - dx4^dx1", VARS4)
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
    assert parse_theta_expr(text, VARS4) == parse_theta_expr(same_as, VARS4)


def test_an_empty_theta_is_zero(capsys):
    code, out = run_cli(capsys, "theorem", "flat", "--theta=", "--component=++",
                        "--samples", "3")
    assert code == 0 and json.loads(out)["evidence"]["d_theta_zero"] is True
    assert mat_is_zero(parse_theta_expr("  ", VARS4))


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
    d = dict(cyclic_sums(parse_theta_expr("x1*dx2^dx3", VARS4)))
    assert list(d) == [(0, 1, 2)] and d[(0, 1, 2)].to_str() == "1"


# -- text format and console entry -----------------------------------------------------


def test_text_format(capsys):
    code, out = run_cli(capsys, "curvature", "flat", "--format", "text")
    assert code == 0
    assert "s: 0" in out
    assert "self_dual: True" in out


def test_module_invocation_round_trip():
    # --component=-- names the component --, as its alias mm does
    proc = subprocess.run(
        [sys.executable, "-m", "paracomplex", "theorem", "flat",
         "--component=--", "--samples", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["integrable"]
