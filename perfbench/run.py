"""Known-answer benchmark of the paracomplex command line.

    python3 perfbench/run.py --workload dense-metrics --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the program is run from ``src/``.
The seed generates the workload's inputs (see ``workloads.py``).  Each job is
a ``python -m paracomplex ...`` subprocess, one at a time (a closed loop with
one client), and its exit code and report are checked against the answer
known from how the input was built.

``--trace 0`` measures the end-to-end metrics: it times interpreter set-up,
then makes as many passes over the job list as fit ``--seconds`` at the
workload's nominal pass time, so every run of a workload does the same work.
``--trace 1`` runs one plain pass and one pass under ``tracer.py`` and reports
the per-layer metrics.  The last line of stdout is one JSON object; the run
record (machine, per-job results) and the spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

JOB_TIMEOUT_S = 60
SETUP_STARTS = 7  # per sampling point
HERE = Path(__file__).resolve().parent


class Runner:
    """Runs jobs in the checkout at ``root``, one at a time through ``launcher.py``,
    and checks them.  Use it as a context manager: leaving it stops the launcher."""

    def __init__(self, root: Path, scratch: Path):
        self.root = root
        self.scratch = scratch
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=str(root / "src")))

    def __enter__(self) -> Runner:
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()

    def _spawn(self, cmd: list) -> tuple:
        """(exit code, wall s, peak RSS MB, stdout, stderr, timed out) of one command."""
        out_path, err_path = self.scratch / "job.out", self.scratch / "job.err"
        request = {"cmd": cmd, "cwd": str(self.root), "out": str(out_path),
                   "err": str(err_path), "timeout": JOB_TIMEOUT_S}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the job launcher stopped")
        r = json.loads(reply)
        return (r["code"], r["wall_s"], r["rss_mb"], out_path.read_bytes(),
                err_path.read_bytes(), r["timed_out"])

    def setup_walls(self, starts: int) -> list:
        """Wall times of starting the interpreter and importing the CLI."""
        walls = []
        for _ in range(starts):
            code, wall, _, _, err, _ = self._spawn([sys.executable, "-c", "import paracomplex.cli"])
            if code != 0:
                raise RuntimeError(f"cannot import paracomplex.cli: {err.decode()[-300:]}")
            walls.append(wall)
        return walls

    def run_pass(self, jobs: list, traced: bool = False) -> tuple[float, list]:
        """Run every job once; returns the pass wall time and one result per job."""
        results = []
        start = time.perf_counter()
        for k, job in enumerate(jobs):
            cmd = [sys.executable, "-m", "paracomplex", *job.argv]
            if traced:
                span_file = self.scratch / f"spans-{k}.json"
                span_file.unlink(missing_ok=True)
                cmd = [sys.executable, str(HERE / "tracer.py"), str(span_file), job.name,
                       *job.argv]
            code, wall, rss, out, err, timed_out = self._spawn(cmd)
            outcome, problems = classify(job, code, out, err, timed_out)
            result = {"name": job.name, "exit": code, "wall_s": wall, "rss_mb": rss,
                      "sha256": hashlib.sha256(out).hexdigest(), "outcome": outcome,
                      "problems": problems}
            if traced:
                result["trace"] = json.loads(span_file.read_text()) if span_file.exists() \
                    else {"spans": [], "counts": {}}
            results.append(result)
        return time.perf_counter() - start, results


def classify(job, code: int, out: bytes, err: bytes, timed_out: bool) -> tuple[str, list]:
    """"ok" when the job gives its known answer, "defect" when it gives the
    documented wrong answer of a known defect, else "fail"."""
    if timed_out:
        return "fail", [f"timed out after {JOB_TIMEOUT_S} s"]
    problems = ["printed a traceback"] if b"Traceback" in err else []
    problems += workloads.mismatches(code, out, job.exit_code, job.fields)
    if not problems:
        return "ok", []
    if job.defect and b"Traceback" not in err and not workloads.mismatches(
            code, out, job.defect_exit_code, job.defect_fields):
        return "defect", [f"known defect: {job.defect}"] + problems
    return "fail", problems


def tail(walls: list) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples above it, and its
    nearest-rank value."""
    n = len(walls)
    pct = max(50, math.floor(100 * (n - 10) / n)) if n > 10 else 50
    ordered = sorted(walls)
    return pct, ordered[max(0, math.ceil(pct / 100 * n) - 1)]


def check_repeats(results: list) -> None:
    """Reports are byte-deterministic: a job whose stdout differs between passes fails."""
    first = {}
    for r in results:
        digest = first.setdefault(r["name"], r["sha256"])
        if digest != r["sha256"] and r["outcome"] != "fail":
            r["outcome"] = "fail"
            r["problems"].append("report bytes differ between passes")


def end_to_end(runner: Runner, jobs: list, repeats: int, units: dict) -> tuple[dict, list, dict]:
    """Set-up is sampled before, between and after the passes, so that a burst of
    load on the machine moves few of its samples.  Job times are taken per job
    as the median over the passes, so one stalled run does not set a percentile."""
    runner.setup_walls(1)  # writes the bytecode cache
    setup = runner.setup_walls(SETUP_STARTS)
    passes = []
    for _ in range(repeats):
        passes.append(runner.run_pass(jobs))
        setup += runner.setup_walls(SETUP_STARTS)
    results = [r for _, rs in passes for r in rs]
    check_repeats(results)
    per_job = {}
    for r in results:
        per_job.setdefault(r["name"], []).append(r["wall_s"])
    walls = [statistics.median(per_job[r["name"]]) for r in results]
    pct, tail_s = tail(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": statistics.median(len(rs) / wall for wall, rs in passes),
        "job_s.p50": statistics.median(walls),
        "job_s.tail": tail_s,
        "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in rs) for _, rs in passes),
    }
    notes = {"passes": len(passes), "pass_wall_s": [w for w, _ in passes],
             "setup_starts": len(setup),
             "job_s.tail": {"percentile": pct, "samples": len(walls)},
             "job_s.median": {name: statistics.median(w) for name, w in per_job.items()}}
    return {k: (v, units[k]) for k, v in metrics.items()}, results, notes


def per_layer(runner: Runner, jobs: list, units: dict) -> tuple[dict, list, dict]:
    plain_wall, plain = runner.run_pass(jobs)
    traced_wall, traced = runner.run_pass(jobs, traced=True)
    for p, t in zip(plain, traced):
        if p["sha256"] != t["sha256"] and t["outcome"] != "fail":
            t["outcome"] = "fail"
            t["problems"].append("report bytes differ under tracing")
    traces = [r.pop("trace") for r in traced]
    with open(runner.scratch / "spans.jsonl", "w") as fh:
        for trace in traces:
            for span in trace["spans"]:
                fh.write(json.dumps(span) + "\n")
    s = tracer.summarize(traces)
    self_s, calls, counts = s["self_s"], s["calls"], s["counts"]
    metrics = {}
    for name, unit in units.items():
        base, _, kind = name.rpartition(".")
        if kind == "self_s":
            value = self_s[base]
        elif kind == "calls" and base in calls:
            value = calls[base]
        elif base == "exact.exact_div" and kind == "hit_ratio":
            value = counts["exact.exact_div.hits"] / max(1, counts["exact.exact_div.calls"])
        elif name.startswith("share."):
            value = s["shares"][kind]
        elif name == "trace.overhead_s":
            value = traced_wall - plain_wall
        elif name == "fail_ratio":
            value = sum(r["outcome"] != "ok" for r in plain + traced) / len(plain + traced)
        else:
            value = counts[name]
        metrics[name] = (value, unit)
    results = plain + traced
    notes = {"plain_pass_s": plain_wall, "traced_pass_s": traced_wall,
             "traced_in_spans_s": s["traced_s"],
             "self_s": dict(sorted(self_s.items(), key=lambda kv: -kv[1]))}
    return metrics, results, notes


def machine(root: Path) -> dict:
    """Python version, git revision, usable CPUs and CPU model of this run."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    rev = ""
    if (root / ".git").exists():  # the checkout itself, never a repository above it
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "git_revision": rev or "unknown",
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "paracomplex" / "__main__.py").is_file():
        print("error: run from a checkout that has src/paracomplex", file=sys.stderr)
        return 2
    scratch = root / ".bench_out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    scratch.mkdir(parents=True, exist_ok=True)
    # relative input paths keep the reports (which name file: metrics) identical between checkouts
    jobs = workloads.WORKLOADS[args.workload](args.seed, Path(".bench_out") / "inputs"
                                              / f"{args.workload}-s{args.seed}")
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        with Runner(root, scratch) as runner:
            if args.trace:
                metrics, results, notes = per_layer(runner, jobs, units)
            else:
                repeats = max(1, round(args.seconds / workloads.PASS_S[args.workload]))
                metrics, results, notes = end_to_end(runner, jobs, repeats, units)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = [r for r in results if r["outcome"] != "ok"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(root), "jobs_per_pass": len(jobs),
              "attempted": len(results), "failed": len(failed), "notes": notes,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "results": results}
    (scratch / "record.json").write_text(json.dumps(record, indent=1))

    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:12.6g} {unit}", file=sys.stderr)
    print(f"failed {len(failed)} of {len(results)} attempted", file=sys.stderr)
    for r in failed:
        print(f"  {r['outcome']}: {r['name']}: {'; '.join(r['problems'])}", file=sys.stderr)
    correct = all(r["outcome"] != "fail" for r in results)
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
