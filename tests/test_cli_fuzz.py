"""The exit-code contract under generated input: `main` returns 0, 1 or 2 and
raises nothing, a report goes to stdout only on 0 and 1, and exit 2 prints
one `error:` line and no report.  Input known to be malformed must give 2: a
bad token or coordinate, an exponent above the parser's bound, a missing
field, a component key outside 1..4, an entry that is not a string, a
`"vars"` that is not a list of distinct identifiers, an unknown kind or
metric.

The generators build descriptors, metric ids, points and theta strings from
rational-function literals with powers (0^0, nested powers, long exponents)
and degenerate or singular omega, pi, P and `assembled` data.  Each literal
is drawn with a flag that says whether it is certainly malformed.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import paracomplex
from paracomplex.cli import main


def weighted(good, bad, weight):
    """(value, malformed) pairs, each good value `weight` times as likely as a
    bad one; good values come first, where Hypothesis starts."""
    return st.sampled_from([(v, False) for v in good] * weight + [(v, True) for v in bad])


# a bad atom or exponent makes every literal that holds it malformed; "()" is malformed in
# every position, unlike an empty atom, which "" - b turns into the valid unary minus -b
ATOMS = weighted(["0", "1", "2", "7", "x1", "x2", "x3", "x4"], ["y1", "()"], 8)
EXPONENTS = weighted(["0", "1", "2", "4", "16"], ["17", "99999999999", "x1", "-1"], 6)


def _compound(children):
    return st.one_of(
        st.builds(lambda a, op, b: (a[0] + op + b[0], a[1] or b[1]),
                  children, st.sampled_from("+-*/"), children),
        st.builds(lambda a, k: (f"({a[0]})^{k[0]}", a[1] or k[1]), children, EXPONENTS),
        st.builds(lambda a: (f"-{a[0]}", a[1]), children),
    )


LITERALS = st.recursive(ATOMS, _compound, max_leaves=4)
# a literal, or now and then an empty string or a value that is not a string
ENTRIES = st.tuples(st.integers(0, 15), LITERALS).map(
    lambda t: {14: ("", True), 15: (5, True)}.get(t[0], t[1]))

# degenerate data: zero, rank-2 and pointwise degenerate forms, the zero matrix, -Id
DEGENERATE = st.sampled_from([
    {}, {"1,2": "0"}, {"1,2": "x1", "3,4": "x1"}, {"1,2": "1"},
    [["0"] * 4 for _ in range(4)],
    [["-1" if i == j else "0" for j in range(4)] for i in range(4)],
])


def _malformed(data) -> bool:
    return any(bad for _, bad in data)


@st.composite
def matrices(draw):
    """(data, malformed): a component map, a 4 x 4 matrix, fixed degenerate
    data or a value of the wrong shape."""
    shape = draw(st.sampled_from(["map"] * 3 + ["matrix", "degenerate", "wrong"]))
    if shape == "map":
        keys = weighted(["1,2", "1,3", "2,4", "3,4", "2,1", "1,1"], ["0,2", "1,5", "a"], 6)
        entries = draw(st.dictionaries(keys, ENTRIES, max_size=3))
        bad = _malformed(entries) or _malformed(entries.values())
        return {k: v for (k, _), (v, _) in entries.items()}, bad
    if shape == "matrix":
        rows = draw(st.lists(st.lists(ENTRIES, min_size=4, max_size=4), min_size=4, max_size=4))
        return [[v for v, _ in row] for row in rows], any(_malformed(row) for row in rows)
    if shape == "degenerate":
        return draw(DEGENERATE), False
    return draw(st.sampled_from([[], [1, 2, 3, 4], 5, "x1"])), True


FIELDS = {"omega": ["omega"], "pi": ["pi"], "product": ["P"],
          "assembled": ["g", "theta", "k1", "k2"]}


@st.composite
def descriptors(draw):
    kind, bad = draw(weighted(["trivial", "omega", "pi", "product", "assembled"], ["other"], 2))
    desc = {"kind": kind}
    for name in FIELDS.get(kind, []):
        if draw(st.integers(0, 15)) < 15:  # a missing field is an input error
            desc[name], field_bad = draw(matrices())
            bad = bad or field_bad
        elif name != "theta":
            bad = True
    if draw(st.booleans()):
        desc["vars"], vars_bad = draw(weighted([["x1", "x2", "x3", "x4"]],
                                               [["x1", "x1", "x3", "x4"], 5], 4))
        bad = bad or vars_bad
    return desc, bad


@st.composite
def points(draw, max_points=3):
    """(text, malformed) for --points: up to max_points points, mostly of 4
    coordinates; a bad coordinate is always malformed."""
    coords = weighted(["0", "1", "-1/2", "3/7", " 2 "], ["a", "1/0", ""], 4)
    count = draw(st.sampled_from([4, 4, 4, 3, 5]))
    drawn = draw(st.lists(st.lists(coords, min_size=count, max_size=count), min_size=1,
                          max_size=max_points))
    text = ";".join(",".join(c for c, _ in p) for p in drawn)
    return text, any(_malformed(p) for p in drawn)


# g of ppwave:x2^2 and its catalog frame (columns), and the frame reordered
PPWAVE_G = [["x2^2", "0", "0", "1"], ["0", "0", "1", "0"], ["0", "1", "0", "0"], ["1", "0", "0", "0"]]
PPWAVE_ONB = [["1", "0", "0", "1/2 - x2^2/2"], ["0", "1", "1/2", "0"],
              ["1", "0", "0", "-1/2 - x2^2/2"], ["0", "1", "-1/2", "0"]]


@st.composite
def metric_ids(draw, path):
    """(metric id, malformed); a `file:` metric is written to path."""
    family, bad = draw(weighted(["ppwave", "constcurv", "file", "flat"], ["sphere:1"], 2))
    if family in ("flat", "sphere:1"):
        return family, bad
    if family == "constcurv":
        c, bad = draw(weighted(["1", "-1/2", "0"], ["1/0", "x"], 3))
        return f"constcurv:{c}", bad
    if family == "ppwave":
        f, bad = draw(LITERALS)
        return f"ppwave:{f}", bad
    g, bad = draw(st.one_of(
        st.just((PPWAVE_G, False)),
        st.lists(st.lists(LITERALS, min_size=4, max_size=4), min_size=4, max_size=4).map(
            lambda rows: ([[v for v, _ in row] for row in rows],
                          any(_malformed(row) for row in rows)))))
    metric = {"g": g}
    onb = draw(st.sampled_from([None, PPWAVE_ONB, [PPWAVE_ONB[i] for i in (0, 2, 1, 3)]]))
    if onb is not None:
        metric["onb"] = onb
    path.write_text(json.dumps(metric))
    return f"file:{path}", bad


THETA_WEDGES = weighted(["dx1^dx2", "dx3^dx4", "dx2^dx4"], ["dx2^dx2", "dx1^dx5", "dx1"], 2)


@st.composite
def thetas(draw):
    """(theta, malformed): terms (c)*dxi^dxj joined by + or -."""
    terms = draw(st.lists(st.tuples(LITERALS, THETA_WEDGES), max_size=2))
    text = "".join(f"{draw(st.sampled_from('+-'))}({c})*{w}" for (c, _), (w, _) in terms)
    return text, any(c_bad or w_bad for (_, c_bad), (_, w_bad) in terms)


@st.composite
def invocations(draw, path):
    """(argv, malformed) for one of the four commands."""
    command = draw(st.sampled_from(["validate", "integrability", "curvature", "theorem"]))
    if command in ("validate", "integrability"):
        desc, bad = draw(descriptors())
        path.write_text(json.dumps(desc))
        argv = [command, str(path)]
        if draw(st.booleans()):
            pts, pts_bad = draw(points())
            argv.append(f"--points={pts}")
            bad = bad or pts_bad
        return argv, bad
    metric, bad = draw(metric_ids(path))
    if command == "curvature":
        pts, pts_bad = draw(points(max_points=1))
        return [command, metric, f"--point={pts}"], bad or pts_bad
    argv = [command, metric, f"--component={draw(st.sampled_from(['++', '+-', '-+', '--']))}",
            f"--samples={draw(st.integers(0, 3))}", f"--seed={draw(st.integers(0, 9))}"]
    theta, theta_bad = draw(thetas())
    if theta:
        argv.append(f"--theta={theta}")
    if draw(st.booleans()):
        pts, pts_bad = draw(points())
        argv.append(f"--points={pts}")
        bad = bad or pts_bad
    if draw(st.integers(0, 5)) == 0:
        argv.append("--epsilon=2")
    return argv, bad or theta_bad


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, out, err):
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == "" and json.loads(out)["schema"] == 1


@given(st.data())
@settings(max_examples=120, deadline=None, derandomize=True, database=None)
def test_every_run_keeps_the_exit_code_contract(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz-input.json"
    argv, malformed = data.draw(invocations(path))
    code, out, err = run(argv)
    assert_contract(code, out, err)
    if malformed:
        assert code == 2, argv


@pytest.mark.parametrize("argv", [
    ["curvature", "ppwave:x1^99999999999"],
    ["curvature", "ppwave:2^99999999999"],
    ["curvature", "ppwave:(x1^4)^5"],
    ["curvature", "ppwave:((2^16)^16)^16"],
    ["curvature", "ppwave:x1^"],
    ["curvature", "ppwave:(x1"],
    ["theorem", "flat", "--component=++", "--theta=(x1^99999999999)*dx1^dx2"],
    ["theorem", "flat", "--component=++", "--theta=dx2^dx2"],
    ["theorem", "ppwave:x2^2", "--component=++", "--points=1,2"],
    ["curvature", "constcurv:1/0"],
    ["curvature", "flat", "--point=0,0,a,0"],
], ids=lambda a: " ".join(a))
def test_known_malformed_input_exit_2(argv):
    code, out, err = run(argv)
    assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("desc,command,code", [
    ({"kind": "omega", "omega": {"1,2": "0"}}, "integrability", 2),
    ({"kind": "omega", "omega": {"1,2": "0"}}, "validate", 1),
    ({"kind": "product", "P": {}}, "integrability", 2),
    ({"kind": "product", "P": {}}, "validate", 1),
    ({"kind": "assembled", "g": {}, "k1": {}, "k2": {}}, "validate", 1),
    ({"kind": "assembled", "g": {}, "k1": {}, "k2": {}}, "integrability", 2),
    ({"kind": "pi", "pi": {"1,2": "(x1^4)^5"}}, "validate", 2),
    ({"kind": "omega", "omega": {"1,2": "0^0", "3,4": "1"}}, "integrability", 0),
], ids=["omega-zero-integrability", "omega-zero-validate", "p-zero-integrability",
        "p-zero-validate", "assembled-zero-validate", "assembled-integrability",
        "pi-long-power", "omega-zero-to-the-zero"])
def test_degenerate_structures_keep_the_contract(tmp_path, desc, command, code):
    path = tmp_path / "desc.json"
    path.write_text(json.dumps(desc))
    got = run([command, str(path)])
    assert_contract(*got)
    assert got[0] == code


# a child that caps its own CPU seconds before it runs main, so that an input which
# expands without bound dies of SIGXCPU instead of holding the suite
CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_CPU, (5, 5))
from paracomplex.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("n", [12, 16])
@pytest.mark.parametrize("command,code", [("validate", 1), ("integrability", 2)])
def test_an_omega_singular_at_every_point_is_refused_within_5_cpu_seconds(tmp_path, n,
                                                                        command, code):
    """The extreme shape of a degenerate omega: a seeded sum of (n - 2) / 2
    wedges a_k ^ b_k of 1-forms with coefficients y_m + c, of rank n - 2
    everywhere, so that no point certifies it, on 12 and 16 variables.  Both
    commands refuse it with the one message, in a child that may spend 5 CPU
    seconds; expanding its Pfaffian takes minutes at 12 variables."""
    rng = random.Random(n)
    forms = [[f"y{rng.randrange(1, n + 1)} + {rng.randrange(1, 6)}" for _ in range(n)]
             for _ in range(n - 2)]
    omega = {f"{i + 1},{j + 1}": " + ".join(f"({a[i]})*({b[j]}) - ({a[j]})*({b[i]})"
                                            for a, b in zip(forms[::2], forms[1::2]))
             for i in range(n) for j in range(i + 1, n)}
    path = tmp_path / "omega.json"
    path.write_text(json.dumps({"kind": "omega", "vars": [f"y{m}" for m in range(1, n + 1)],
                                "omega": omega}))
    src = str(Path(paracomplex.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    points = ";".join(",".join(str((k * s) % 5 - 2) for k in range(n)) for s in (1, 2))
    proc = subprocess.run([sys.executable, "-c", CAPPED, command, str(path), "--points", points],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code
    assert "omega field is degenerate" in (proc.stdout if code == 1 else proc.stderr)
