"""Tests of the benchmark itself:  python3 -m pytest perfbench

They check that counts and reports repeat exactly between runs, that the
untraced run leaves the program's functions alone, and that every expected
answer is derived from the generated input rather than from program output.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

CHEAP = ("structures.omega_quadratic_closed.integrability", "structures.pi_nonpoisson.integrability",
         "structures.product_nonintegrable.validate", "anchor.curvature_constcurv1")


def _cheap_jobs(tmp_path: Path, seed: int = 3) -> list:
    jobs = workloads.structures(seed, tmp_path / "inputs") \
        + workloads.catalog_sampling(seed, tmp_path / "inputs")
    return [j for j in jobs if j.name in CHEAP]


def _eval(text: str, point) -> Q:
    """Value of a generated polynomial literal at a point, read with Python's own
    arithmetic instead of the program's parser."""
    names = {f"x{i + 1}": Q(c) for i, c in enumerate(point)}
    names["Q"] = Q
    source = re.sub(r"(?<![A-Za-z_\d])\d+", lambda m: f"Q({m.group()})", text.replace("^", "**"))
    return Q(eval(source, {"__builtins__": {}}, names))


def _point(arg: str) -> tuple:
    return tuple(Q(c) for c in arg.split("=", 1)[1].split(","))


# -- repeatability -------------------------------------------------------------------------


def test_two_traced_passes_repeat_counts_sizes_and_digests(tmp_path):
    jobs = _cheap_jobs(tmp_path)
    assert len(jobs) == len(CHEAP)
    summaries, digests = [], []
    for k in range(2):
        scratch = tmp_path / f"run{k}"
        scratch.mkdir()
        with run.Runner(ROOT, scratch) as runner:
            _, results = runner.run_pass(jobs, traced=True)
        assert [r["outcome"] for r in results] == ["ok"] * len(jobs)
        summaries.append(tracer.summarize([r.pop("trace") for r in results]))
        digests.append([r["sha256"] for r in results])
    first, second = summaries
    assert first["counts"] == second["counts"]
    assert first["calls"] == second["calls"]
    assert first["counts"]["curv.riemann.num_terms"] > 0
    assert first["counts"]["patch.frame_pairs.nonzero"] > 0
    assert digests[0] == digests[1]


def test_traced_report_bytes_match_untraced(tmp_path):
    jobs = _cheap_jobs(tmp_path)[:2]
    with run.Runner(ROOT, tmp_path) as runner:
        _, plain = runner.run_pass(jobs)
        _, traced = runner.run_pass(jobs, traced=True)
    assert [r["sha256"] for r in plain] == [r["sha256"] for r in traced]


# -- the untraced run installs nothing --------------------------------------------------------


def _wrapped_targets():
    import importlib

    targets = {}
    for name, mod, attr in tracer.SPANS + tracer.COUNTED:
        module = importlib.import_module(f"paracomplex.{mod}")
        owner, _, leaf = attr.rpartition(".")
        holder = getattr(module, owner) if owner else module
        targets[(mod, attr)] = vars(holder)[leaf]
    return targets


def test_untraced_run_leaves_functions_as_the_originals(tmp_path, monkeypatch):
    import paracomplex.cli  # noqa: F401
    import paracomplex.curv

    before = _wrapped_targets()
    riemann = paracomplex.curv.riemann

    def refuse(rec):
        raise AssertionError("the untraced run installed wrappers")

    monkeypatch.setattr(tracer, "install", refuse)
    units = {k: "u" for k in ("setup_s", "jobs_per_s", "job_s.p50", "job_s.tail", "peak_rss_mb")}
    with run.Runner(ROOT, tmp_path) as runner:
        _, results, _ = run.end_to_end(runner, _cheap_jobs(tmp_path)[:1], 1, units)
    assert results[0]["outcome"] == "ok"
    assert _wrapped_targets() == before
    assert paracomplex.curv.riemann is riemann and paracomplex.cli.riemann is riemann


def test_install_wraps_every_namespace_that_holds_a_function():
    code = """
import sys
sys.path[:0] = [{here!r}, {src!r}]
import paracomplex.cli, paracomplex.curv, tracer
originals = {{id(f): f for f in (paracomplex.curv.riemann, paracomplex.curv.parse_metric_id,
                                 paracomplex.exact.parse_ratfunc, paracomplex.linalg.mat_inv)}}
tracer.install(tracer.Recorder("job"))
assert paracomplex.cli.riemann is paracomplex.curv.riemann
for name, module in sys.modules.items():
    if name.startswith("paracomplex"):
        for attr, value in vars(module).items():
            assert id(value) not in originals or value is not originals[id(value)], (name, attr)
print("ok")
""".format(here=str(HERE), src=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "ok", out.stderr


# -- known answers are derived -------------------------------------------------------------------


def test_expected_answers_are_built_without_the_program(tmp_path):
    code = """
import sys
sys.modules["paracomplex"] = None
sys.path.insert(0, {here!r})
import workloads
from pathlib import Path
for name, build in workloads.WORKLOADS.items():
    jobs = build(5, Path({tmp!r}) / name)
    assert jobs and all(job.exit_code in (0, 1) and job.fields for job in jobs)
print("ok")
""".format(here=str(HERE), tmp=str(tmp_path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "ok", out.stderr


@pytest.mark.parametrize("seed", [1, 7])
def test_dense_frames_are_orthonormal_for_the_generated_metrics(tmp_path, seed):
    jobs = workloads.dense_metrics(seed, tmp_path)
    for job in (j for j in jobs if j.argv[0] == "curvature"):
        data = json.loads(Path(job.argv[1].split(":", 1)[1]).read_text())
        p = _point(job.argv[2])
        g = [[_eval(s, p) for s in row] for row in data["g"]]
        onb = [[_eval(s, p) for s in col] for col in data["onb"]]
        gram = [[sum(u[i] * g[i][j] * v[j] for i in range(4) for j in range(4)) for v in onb]
                for u in onb]
        assert gram == [[Q((1, 1, -1, -1)[a]) if a == b else 0 for b in range(4)]
                        for a in range(4)]
        if "constcurv" in job.name:
            c = job.fields["sectional_constant"]
            assert job.fields["s"] == 12 * c
            assert job.fields["ricci"] == [[3 * c * v for v in row] for row in g]


@pytest.mark.parametrize("seed", [1, 7])
def test_structure_answers_follow_the_descriptors(tmp_path, seed):
    jobs = {j.name: j for j in workloads.structures(seed, tmp_path)}
    for name, job in jobs.items():
        if not name.endswith("integrability") or name.startswith("anchor"):
            continue
        desc = json.loads(Path(job.argv[1]).read_text())
        points = [tuple(Q(c) for c in p.split(",")) for p in job.argv[2].split("=", 1)[1].split(";")]
        if desc["kind"] == "omega":
            for p in points:  # the points avoid the poles of omega^{-1}
                w = {tuple(int(t) - 1 for t in k.split(",")): _eval(v, p)
                     for k, v in desc["omega"].items()}
                m = [[w.get((i, j), 0) - w.get((j, i), 0) for j in range(4)] for i in range(4)]
                assert m[0][1] * m[2][3] - m[0][2] * m[1][3] + m[0][3] * m[1][2] != 0
        if desc["kind"] == "product":
            p = points[0]
            mat = [[_eval(s, p) for s in row] for row in desc["P"]]
            square = [[sum(mat[i][k] * mat[k][j] for k in range(4)) for j in range(4)]
                      for i in range(4)]
            assert square == [[int(i == j) for j in range(4)] for i in range(4)]
        integrable = job.exit_code == 0
        assert job.fields["integrable"] is integrable
        assert ("_closed" in name or "_poisson" in name or "_integrable" in name) == integrable


def test_catalog_answers_follow_the_seeded_ids(tmp_path):
    for seed in (2, 9):
        jobs = {j.name: j for j in workloads.catalog_sampling(seed, tmp_path)}
        job = jobs["catalog.constcurv.curvature0"]
        c = Q(job.argv[1].split(":", 1)[1])
        p = _point(job.argv[2])
        phi = 1 + c / 4 * (p[0] ** 2 + p[1] ** 2 - p[2] ** 2 - p[3] ** 2)
        assert job.fields["s"] == 12 * c
        assert job.fields["ricci"][0][0] == 3 * c / phi ** 2
        theorems = [j for name, j in jobs.items() if name.startswith("catalog.constcurv.theorem")]
        assert len(theorems) == 2
        for j in theorems:
            mixed = j.name[-2] != j.name[-1]  # only +- and -+ are integrable for c != 0
            assert j.exit_code == (0 if mixed else 1)
            assert j.fields["evidence.sectional_constant"] == c


# -- checking and reporting ---------------------------------------------------------------------


def test_mismatches_and_known_defect_classification():
    job = workloads._counterexample_jobs()[0]
    right = json.dumps({"integrable": False, "evidence": {"d_theta_zero": True}}).encode()
    wrong = json.dumps({"integrable": True, "evidence": {"d_theta_zero": True}}).encode()
    assert run.classify(job, 1, right, b"", False) == ("ok", [])
    assert run.classify(job, 0, wrong, b"", False)[0] == "defect"
    assert run.classify(job, 0, wrong, b"Traceback (most recent call last)", False)[0] == "fail"
    assert run.classify(job, 2, b"", b"", False)[0] == "fail"
    assert run.classify(job, 1, right, b"", True)[0] == "fail"
    fields = {"a.b[*].c": [workloads.NONZERO, 0], "s": Q(3, 2), "w": workloads.MISSING}
    report = json.dumps({"a": {"b": [{"c": 2}, {"c": 0}]}, "s": "3/2"}).encode()
    assert workloads.mismatches(0, report, 0, fields) == []
    report = json.dumps({"a": {"b": [{"c": 0}, {"c": 0}]}, "s": "1", "w": 1}).encode()
    assert len(workloads.mismatches(1, report, 0, fields)) == 4


def test_tail_percentile_keeps_ten_samples_above_it():
    walls = [float(k) for k in range(1, 101)]
    assert run.tail(walls) == (90, 90.0)
    pct, value = run.tail(walls[:40])
    assert pct == 75 and sum(w > value for w in walls[:40]) >= 10


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "structures",
                          "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=""))
    assert out.returncode != 0
    assert out.stdout == ""
