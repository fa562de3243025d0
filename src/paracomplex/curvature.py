"""The `curvature` command: the curvature operator of a metric at a point, its
scalar/traceless-Ricci/Weyl decomposition in the oriented frame, and its
duality verdicts.  Only `curvature` imports this module; `cli` reads the
metric and the point, and `curv` computes.
"""

from paracomplex.curv import (curvature_operator, decompose, duality_verdict,
                              sectional_constant_check)
from paracomplex.exact import point_strings
from paracomplex.linalg import mat_to_strings
from paracomplex.poly import rat_str


def cmd_curvature(metric, point, orientation) -> dict:
    op = curvature_operator(metric.g, point)
    dec = decompose(op, metric.onb_at(point, op.int_g, +1 if orientation == "+" else -1))
    const = sectional_constant_check(op)
    return {
        "metric": metric.name,
        "point": point_strings(point),
        "orientation": orientation,
        "s": rat_str(*dec.int_s),
        "ricci": mat_to_strings(*op.int_ricci),
        "b_part": mat_to_strings(*dec.int_b),
        "w_plus": mat_to_strings(*dec.int_w_plus),
        "w_minus": mat_to_strings(*dec.int_w_minus),
        **duality_verdict(dec),
        "sectional_constant": rat_str(*const) if const is not None else None,
    }
