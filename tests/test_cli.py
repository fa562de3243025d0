"""Command-line interface: descriptors, reports, exit codes, determinism."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from paracomplex.cli import main, parse_theta_expr
from paracomplex.patch import KForm, ext_deriv


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


def test_validate_builds_the_structure_once(tmp_path, capsys, monkeypatch):
    import paracomplex.linalg as linalg

    original = linalg.mat_inv
    calls = []

    def counting(m):
        calls.append(len(m))
        return original(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("paracomplex") and getattr(module, "mat_inv", None) is original:
            monkeypatch.setattr(module, "mat_inv", counting)
    path = write_desc(tmp_path, "omega.json", {
        "kind": "omega", "omega": {"1,2": "1 + x3^2", "3,4": "x1", "1,3": "x2*x4"}})
    code, out = run_cli(capsys, "validate", path, "--points", "1,0,0,0;1,1,1,1;2,-1,3,1/2")
    assert code == 0 and len(json.loads(out)["points"]) == 3
    assert calls == [4]  # one symbolic inversion of omega, not one per point


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
    once per sample point, on K and dK evaluated there in Q."""
    import paracomplex.patch as patch

    original = patch.gen_nijenhuis_frame_sweep
    calls = []

    def counting(k, dk=None):
        entries = [c for e in [k] + (dk or []) for row in e.as_matrix() for c in row]
        calls.append({type(c) for c in entries})
        return original(k, dk)

    # replace the sweep in every module that holds it, so no caller escapes the count
    for name, module in list(sys.modules.items()):
        if name.startswith("paracomplex") and getattr(module, "gen_nijenhuis_frame_sweep",
                                                      None) is original:
            monkeypatch.setattr(module, "gen_nijenhuis_frame_sweep", counting)
    path = write_desc(tmp_path, "desc.json", payload)
    assert run_cli(capsys, "integrability", path, "--points", "1,0,0,0;2,1,0,-1")[0] == code
    assert calls == [{Fraction}, {Fraction}]


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


def test_theorem_negative_samples_exit_2(capsys):
    code = main(["theorem", "flat", "--component", "++", "--samples", "-5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --samples must be at least 0, got -5\n"
    code, out = run_cli(capsys, "theorem", "flat", "--component", "++", "--samples", "0")
    assert code == 0
    assert json.loads(out)["evidence"]["jklr"] == {"samples": 0, "nonzero": 0}


def test_theorem_pairs_lambda2_only_for_the_gram(capsys, monkeypatch):
    """The (j,l,r) samples contract wedge coordinates with the lowered
    operator: the Lambda^2 inner product runs at most for the 36 Gram entries
    at each point, however many samples are drawn (the Gram matrix is
    lambda2_matrix of g(p), so none at all)."""
    import paracomplex.curv
    import paracomplex.linalg

    calls = []
    original = paracomplex.linalg.lambda2_inner

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(paracomplex.linalg, "lambda2_inner", counting)
    monkeypatch.setattr(paracomplex.curv, "lambda2_inner", counting, raising=False)
    code, out = run_cli(capsys, "theorem", "constcurv:-1/2", "--component=--",
                        "--samples", "300")
    report = json.loads(out)
    assert code == 1 and report["evidence"]["jklr"]["nonzero"] > 0
    assert len(calls) <= 36 * len(report["evidence"]["points"])



def test_theorem_inverts_each_point_frame_and_gram_once(capsys, monkeypatch):
    """Per default point, mat_inv runs twice: on the Lambda^2 Gram matrix and
    on the frame (once for the Hodge star matrix).  g(p)^-1 comes from
    bareiss in the Riemann kernel, and the J-triples need no inverse (S_a = -A g)."""
    import paracomplex

    original = paracomplex.linalg.mat_inv
    sizes = []

    def counting(a):
        sizes.append(len(a))
        return original(a)

    for module in vars(paracomplex).values():
        if getattr(module, "mat_inv", None) is original:
            monkeypatch.setattr(module, "mat_inv", counting)
    code, out = run_cli(capsys, "theorem", "constcurv:1", "--component", "+-")
    assert code == 0 and len(json.loads(out)["evidence"]["points"]) == 5
    assert sorted(sizes) == [4] * 5 + [6] * 5


def test_theorem_scales_each_point_q_and_j_triple_once(capsys, monkeypatch):
    """With 300 samples over the five default points, int_mats in curv runs
    once per point on each of: the 21 matrices of the metric's 2-jet (the
    Riemann kernel), the lowered operator q, and the J-triple of each of the
    two orientations of +-; never once per sample."""
    import paracomplex.curv

    original = paracomplex.curv.int_mats
    sizes = []

    def counting(mats):
        mats = list(mats)
        sizes.append(len(mats))
        return original(mats)

    monkeypatch.setattr(paracomplex.curv, "int_mats", counting)
    code, out = run_cli(capsys, "theorem", "constcurv:1", "--component", "+-",
                        "--samples", "300")
    report = json.loads(out)
    assert code == 0 and report["evidence"]["jklr"] == {"samples": 300, "nonzero": 0}
    assert len(report["evidence"]["points"]) == 5
    assert sorted(sizes) == [1] * 5 + [3] * 10 + [21] * 5


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
    assert theta.get((0, 1)).to_str() == "3"
    assert theta.get((1, 2)).to_str() == "-x1"
    assert theta.get((2, 3)).to_str() == "1"


def test_parse_theta_expr_parenthesized_coeff():
    theta = parse_theta_expr("(1+x1)*dx1^dx3")
    assert theta.get((0, 2)).to_str() == "x1 + 1"


def test_parse_theta_expr_leading_minus():
    theta = parse_theta_expr("-dx1^dx2")
    assert theta.get((0, 1)).to_str() == "-1"


def test_validate_accepts_single_point(tmp_path, capsys):
    path = write_desc(tmp_path, "triv2.json", {"kind": "trivial"})
    code, out = run_cli(capsys, "validate", path, "--point", "1,2,3,4")
    assert code == 0
    report = json.loads(out)
    assert len(report["points"]) == 1
    assert report["points"][0]["point"] == ["1", "2", "3", "4"]


def test_theta_expr_matches_module_level_forms():
    theta = parse_theta_expr("x1*dx2^dx3")
    d = ext_deriv(theta)
    assert d.get((0, 1, 2)).to_str() == "1"


# -- text format and console entry -----------------------------------------------------


def test_text_format(capsys):
    code, out = run_cli(capsys, "curvature", "flat", "--format", "text")
    assert code == 0
    assert "s: 0" in out
    assert "self_dual: True" in out


def test_module_invocation_round_trip():
    # the -- component needs the = form so argparse does not eat it
    proc = subprocess.run(
        [sys.executable, "-m", "paracomplex", "theorem", "flat",
         "--component=--", "--samples", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["integrable"]
