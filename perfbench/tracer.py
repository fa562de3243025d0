"""Run one paracomplex CLI command with spans and counters on its layers.

    python3 perfbench/tracer.py OUT.json JOB_ID <paracomplex arguments...>

The wrappers are installed from here, outside the program: each listed public
function is replaced at every ``paracomplex.*`` namespace that holds it, so
``from ... import`` sites are covered too.  ``exact`` gets counters on the
``Poly``/``RatFunc`` class attributes and a span only on its coarse entry
point, the parser.  Spans (name, start, end, parent, job id) stay in memory
and are written to OUT.json when the command ends.  The report on stdout is
the program's own, byte for byte.

``summarize`` turns the span files of a pass into per-layer metrics.  The
untraced run never imports this module.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("exact", "curv", "para", "linalg", "gpx", "patch", "cli")
# symbolic curvature: these spans and everything under them
SYMBOLIC = ("curv.levi_civita", "curv.riemann", "curv.hitchin_connection")

# (span name, module, attribute); a dotted attribute is a method on a class
SPANS = [
    ("cli.main", "cli", "main"),
    ("cli.load", "cli", "load_descriptor"),
    ("cli.load", "cli", "_descriptor_structure"),
    ("cli.load", "cli", "parse_theta_expr"),
    ("cli.load", "cli", "parse_points_arg"),
    ("cli.load", "cli", "parse_point"),
    ("cli.load", "curv", "parse_metric_id"),
    ("cli.emit", "cli", "emit"),
    ("exact.parse_ratfunc", "exact", "parse_ratfunc"),
    ("curv.levi_civita", "curv", "levi_civita"),
    ("curv.riemann", "curv", "riemann"),
    ("curv.hitchin_connection", "curv", "hitchin_connection"),
    ("curv.sample_points_for", "curv", "sample_points_for"),
    ("curv.onb_at", "curv", "MetricModel.onb_at"),
    ("curv.curvature_operator", "curv", "curvature_operator"),
    ("curv.decompose", "curv", "decompose"),
    ("curv.duality_verdict", "curv", "duality_verdict"),
    ("curv.theorem_verdict", "curv", "theorem_verdict"),
    ("curv.np_witness_search", "curv", "_np_witness_search"),
    ("curv.jklr_residual", "curv", "jklr_residual"),
    ("para.random_compatible_structure", "para", "random_compatible_structure"),
    ("para.validate_para", "para", "validate_para"),
    ("linalg.j_structures", "linalg", "j_structures"),
    ("linalg.mat_inv", "linalg", "mat_inv"),
    ("linalg.hodge_star", "linalg", "hodge_star"),
    ("gpx.validate_gen_para", "gpx", "validate_gen_para"),
    ("patch.integrability_report", "patch", "integrability_report"),
    ("patch.gen_nijenhuis_frame_sweep", "patch", "gen_nijenhuis_frame_sweep"),
    ("patch.ext_deriv", "patch", "ext_deriv"),
    ("patch.poisson_jacobiator", "patch", "poisson_jacobiator"),
    ("patch.classical_nijenhuis", "patch", "classical_nijenhuis"),
    ("patch.patch_structure", "patch", "patch_omega"),
    ("patch.patch_structure", "patch", "patch_pi"),
    ("patch.patch_structure", "patch", "patch_product"),
]

# functions called too often for a span each: a call count only
COUNTED = [
    ("curv.np_residual_terms", "curv", "np_residual_terms"),
    ("linalg.lambda2_inner", "linalg", "lambda2_inner"),
    ("gpx.assemble", "gpx", "assemble"),
    ("gpx.p_epsilon", "gpx", "p_epsilon"),
    ("patch.courant_bracket", "patch", "courant_bracket"),
]


class Recorder:
    """Spans and counters of one traced command."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list = []  # [name, start, end, parent index]
        self.stack: list = []
        self.counts: Counter = Counter()

    def span(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if after is not None:
                after(result)
            return result

        return traced

    def counted(self, name: str, fn, measure=None):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[name] += 1
            if measure is not None:
                measure(args)
            return fn(*args, **kwargs)

        return wrapped

    def dump(self, path: str) -> None:
        spans = [[name, start, end, parent, self.job] for name, start, end, parent in self.spans]
        with open(path, "w") as fh:
            json.dump({"job": self.job, "spans": spans, "counts": dict(self.counts)}, fh)


def _replace(old, new) -> None:
    """Point every ``paracomplex.*`` module attribute that is ``old`` at ``new``."""
    for modname, module in list(sys.modules.items()):
        if modname.startswith("paracomplex") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


def _patch_method(cls, attr: str, make) -> None:
    """Wrap a class attribute and every alias of it on the class (``__rmul__``)."""
    old = cls.__dict__.get(attr)
    if old is None:
        return
    new = make(old)
    for name, value in list(cls.__dict__.items()):
        if value is old:
            setattr(cls, name, new)


def _riemann_sizes(counts: Counter):
    def after(rm):
        bits = counts["curv.riemann.coeff_bits"]
        for c in (c for a in rm.r for b in a for d in b for c in d):
            counts["curv.riemann.num_terms"] += len(c.num.terms)
            counts["curv.riemann.den_mult"] += sum(m for _, m in c.factors.values())
            for q in c.num.terms.values():
                bits = max(bits, q.numerator.bit_length() + q.denominator.bit_length())
        counts["curv.riemann.coeff_bits"] = bits
    return after


def install(rec: Recorder) -> None:
    """Wrap the layers of an imported ``paracomplex`` for the recorder.  A listed
    function the program no longer has is left out, and its metrics read 0."""
    import importlib

    from paracomplex.exact import Poly, PoleAtPoint, RatFunc
    from paracomplex.patch import GenSection

    counts = rec.counts
    after = {
        "curv.riemann": _riemann_sizes(counts),
        "patch.gen_nijenhuis_frame_sweep":
            lambda res: counts.update({"patch.frame_pairs.nonzero": len(res[1])}),
    }
    for name, mod, attr in SPANS + COUNTED:
        module = importlib.import_module(f"paracomplex.{mod}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            if cls is not None:
                _patch_method(cls, meth, lambda old, name=name: rec.span(name, old))
            continue
        old = getattr(module, attr, None)
        if old is not None:
            _replace(old, rec.span(name, old, after.get(name)) if (name, mod, attr) in SPANS
                     else rec.counted(f"{name}.calls", old))

    def term_pairs(args):
        a, b = args
        counts["exact.poly_mul.term_pairs"] += len(a.terms) * (
            len(b.terms) if isinstance(b, Poly) else 1)

    _patch_method(Poly, "__mul__", lambda old: rec.counted("exact.poly_mul.calls", old, term_pairs))
    _patch_method(RatFunc, "partial", lambda old: rec.counted("exact.ratfunc_partial.calls", old))
    _patch_method(RatFunc, "eval_at", lambda old: rec.counted("exact.eval_at.calls", old))

    def exact_div(old):
        def wrapped(self, divisor):
            counts["exact.exact_div.calls"] += 1
            q = old(self, divisor)
            if q is not None:
                counts["exact.exact_div.hits"] += 1
            return q
        return wrapped

    _patch_method(Poly, "exact_div", exact_div)

    def section_eval(old):
        def wrapped(self, point):
            try:
                return old(self, point)
            except PoleAtPoint:
                counts["patch.eval_at.poles"] += 1
                raise
        return wrapped

    _patch_method(GenSection, "eval_at", section_eval)


# -- turning span files into per-layer metrics ----------------------------------------------


def summarize(traces: list) -> dict:
    """Per-name self time and span counts, counters, and shares of the traced
    time (the ``cli.main`` spans) per layer and in symbolic curvature, over the
    span files of a pass."""
    self_s: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    bits = 0
    total = symbolic_s = 0.0
    for trace in traces:
        spans = trace["spans"]
        child = [0.0] * len(spans)
        symbolic = [False] * len(spans)
        for k, (name, start, end, parent, _) in enumerate(spans):
            symbolic[k] = name in SYMBOLIC or (parent >= 0 and symbolic[parent])
            if parent >= 0:
                child[parent] += end - start
            else:
                total += end - start
        for (name, start, end, _, _), inner, sym in zip(spans, child, symbolic):
            self_s[name] += end - start - inner
            calls[name] += 1
            symbolic_s += (end - start - inner) if sym else 0.0
        for key, value in trace["counts"].items():
            if key == "curv.riemann.coeff_bits":
                bits = max(bits, value)
            else:
                counts[key] += value
    counts["curv.riemann.coeff_bits"] = bits
    shares = {layer: sum(v for k, v in self_s.items() if k.split(".")[0] == layer) / total
              if total else 0.0 for layer in LAYERS}
    shares["symbolic_curvature"] = symbolic_s / total if total else 0.0
    return {"self_s": self_s, "calls": calls, "counts": counts, "shares": shares,
            "traced_s": total}


def main(argv: list) -> int:
    out_path, job = argv[0], argv[1]
    import paracomplex.cli as cli

    rec = Recorder(job)
    install(rec)
    try:
        return cli.main(argv[2:])
    finally:
        sys.stdout.flush()
        rec.dump(out_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
