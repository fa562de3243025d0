"""Patch-level integrability dichotomies, the curvature decomposition, and
the dim-4 theorem verdicts.

Run with:  python3 demos/03_integrability_and_curvature.py
"""

from fractions import Fraction

from paracomplex.exact import parse_ratfunc
from paracomplex.curv import (
    constcurv_metric,
    curvature_operator,
    decompose,
    duality_verdict,
    flat_metric,
    ppwave_metric,
    sectional_constant_check,
    theorem_verdict,
)
from paracomplex.linalg import mat_jet
from paracomplex.patch import BiVectorField, KForm, integrability_report

V = ["x1", "x2", "x3", "x4"]
rf = lambda s: parse_ratfunc(s, V)

# Integrability is decided exactly: d omega = 0, Poisson, or the classical
# Nijenhuis tensor, always cross-checked by the Courant frame sweep.
omega = KForm(4, 2, {(0, 1): rf("1"), (2, 3): rf("x1")})
rep = integrability_report("omega", omega)
print("omega = dx1^dx2 + x1 dx3^dx4 integrable:", rep.integrable,
      "| witness:", rep.witness)

pi = BiVectorField(4, {(0, 1): rf("1"), (2, 3): rf("x1")})
rep = integrability_report("pi", pi)
print("pi = d1^d2 + x1 d3^d4 Poisson:", rep.integrable,
      "| witness:", rep.witness)

# Constant curvature: the operator is (s/12) Id with s = 12c.  Curvature is
# evaluated in Q at a point from the 2-jet (g, dg, ddg) of the metric there,
# which mat_jet computes by Taylor arithmetic without symbolic derivatives.
m = constcurv_metric(1)
origin = (Fraction(0),) * 4
g0, dg0, ddg0 = mat_jet(m.g, origin, 2)
print("\nconstcurv:1 at origin: g_11 =", g0[0][0], "| d1 d1 g_11 =", ddg0[0][0][0][0])
op = curvature_operator(m.g, origin)
print("constcurv:1 at origin: s =", op.s,
      "| sectional constant =", sectional_constant_check(op))
dec = decompose(op, m.onb_at(origin))
print("traceless-Ricci part zero:", all(not c for row in dec.b_part for c in row))

# The pp-wave fixture is Ricci flat with W+ = 0 but W- != 0.
w = ppwave_metric(rf("x2^2"))
opw = curvature_operator(w.g, origin)
print("\nppwave duality:", duality_verdict(decompose(opw, w.onb_at(origin))))

# Theorem verdicts per fiber component (seeded, deterministic).
for metric, name in ((flat_metric(), "flat"), (m, "constcurv:1"), (w, "ppwave")):
    verdicts = {}
    for comp in ("++", "+-"):
        out = theorem_verdict(metric, KForm(4, 2), comp, seed=3, jklr_samples=8)
        verdicts[comp] = out["integrable"]
    print(f"{name:12s} ++ integrable: {verdicts['++']!s:5s}  +- integrable: {verdicts['+-']}")

# A non-closed potential obstructs every component.
theta = KForm(4, 2, {(1, 2): rf("x1")})
out = theorem_verdict(flat_metric(), theta, "++", seed=3, jklr_samples=4)
print("\nflat with Theta = x1 dx2^dx3, ++ integrable:", out["integrable"],
      "| dTheta zero:", out["evidence"]["d_theta_zero"])
