"""The `curvature` command: the curvature operator of a metric at a point, its
scalar/traceless-Ricci/Weyl decomposition for the orientation, and its
duality verdicts.  Only `curvature` imports this module; `cli` reads the
metric and the point, and `curv` computes.  The decomposition reads no
frame, but the point must have one: a point with no rational orthonormal
frame, or a supplied frame that is not orthonormal there, is refused.
"""

from paracomplex.curv import curvature_operator, duality_verdict
from paracomplex.exact import point_strings
from paracomplex.linalg import mat_to_strings
from paracomplex.poly import rat_str


def cmd_curvature(metric, point, orientation) -> dict:
    op = curvature_operator(metric.g, point, +1 if orientation == "+" else -1)
    metric.onb_at(point, op.int_g)  # a rational frame there, orthonormal if supplied
    return {
        "metric": metric.name,
        "point": point_strings(point),
        "orientation": orientation,
        "s": rat_str(*op.int_s),
        "ricci": mat_to_strings(*op.int_ricci),
        "b_part": mat_to_strings(*op.int_b),
        "w_plus": mat_to_strings(*op.int_w_plus),
        "w_minus": mat_to_strings(*op.int_w_minus),
        **duality_verdict(op),
        "sectional_constant": op.sectional and rat_str(*op.sectional),
    }
