"""Patch-level integrability dichotomies, the curvature decomposition, and
the dim-4 theorem verdicts.

Run with:  python3 demos/03_integrability_and_curvature.py
"""

from paracomplex.exact import RatFunc
from paracomplex.parse import parse_ratfunc
from paracomplex.curv import (
    constcurv_metric,
    curvature_operator,
    duality_verdict,
    flat_metric,
    ppwave_metric,
)
from paracomplex.linalg import int_jet
from paracomplex.patch import cyclic_sums, integrability_report
from paracomplex.poly import rat_str
from paracomplex.theorem import theorem_verdict

V = ["x1", "x2", "x3", "x4"]
rf = lambda s: parse_ratfunc(s, V)


def antisymmetric(comps):
    """The 4x4 antisymmetric matrix with the given entries above the diagonal,
    as a descriptor holds the form omega(d_i, d_j) or the bivector pi^{ij}."""
    m = [[RatFunc.zero(4)] * 4 for _ in range(4)]
    for (i, j), c in comps.items():
        m[i][j], m[j][i] = rf(c), -rf(c)
    return m


# Integrability is decided exactly: d omega = 0, Poisson, or the classical
# Nijenhuis tensor, always cross-checked by the Courant frame sweep.
# A 2-form and a bivector are both antisymmetric matrices; the criterion comes
# with its witness, None iff integrable.
omega = antisymmetric({(0, 1): "1", (2, 3): "x1"})
_, witness = integrability_report("omega", omega)
print("omega = dx1^dx2 + x1 dx3^dx4 integrable:", witness is None,
      "| witness:", witness)

pi = antisymmetric({(0, 1): "1", (2, 3): "x1"})
_, witness = integrability_report("pi", pi)
print("pi = d1^d2 + x1 d3^d4 Poisson:", witness is None,
      "| witness:", witness)

# Constant curvature: the operator is (s/12) Id with s = 12c.  Curvature is
# evaluated in Q at a point from the 2-jet (g, dg, ddg) of the metric there,
# which int_jet computes on integers over common denominators, without
# symbolic derivatives.  A point is an integer pair (D, X) for the
# coordinates X / D, and every value an integer pair (D, N) for N / D.
m = constcurv_metric(1)
origin = (1, (0, 0, 0, 0))
(d0, g0), (d1, dg0), (d2, ddg0) = int_jet(m.g, origin, 2)
print("\nconstcurv:1 at origin: g_11 =", rat_str(d0, g0[0][0]),
      "| d1 d1 g_11 =", rat_str(d2, ddg0[0][0][0][0]))
op = curvature_operator(m.g, origin, +1)
print("constcurv:1 at origin: s =", rat_str(*op.int_s),
      "| sectional constant =", rat_str(*op.sectional))
print("traceless-Ricci part zero:", all(not c for row in op.int_b[1] for c in row))

# The pp-wave fixture is Ricci flat with W+ = 0 but W- != 0.  The split
# W = W+ + W- depends only on g and the orientation, +1 for the coordinates'.
w = ppwave_metric(rf("x2^2"))
opw = curvature_operator(w.g, origin, +1)
print("\nppwave duality:", duality_verdict(opw))

# Theorem verdicts per fiber component (seeded, deterministic).
for metric, name in ((flat_metric(), "flat"), (m, "constcurv:1"), (w, "ppwave")):
    verdicts = {}
    for comp in ("++", "+-"):
        out = theorem_verdict(metric, {}, comp, sample_points=None, seed=3, jklr_samples=8)
        verdicts[comp] = out["integrable"]
    print(f"{name:12s} ++ integrable: {verdicts['++']!s:5s}  +- integrable: {verdicts['+-']}")

# A non-closed potential obstructs every component; the verdict reads the
# components of dTheta, here d(x1 dx2^dx3) = dx1^dx2^dx3.
theta = antisymmetric({(1, 2): "x1"})
out = theorem_verdict(flat_metric(), dict(cyclic_sums(theta)), "++", sample_points=None,
                      seed=3, jklr_samples=4)
print("\nflat with Theta = x1 dx2^dx3, ++ integrable:", out["integrable"],
      "| dTheta zero:", out["evidence"]["d_theta_zero"])
