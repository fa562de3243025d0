"""The search for a rational orthonormal frame of a metric at a point, for a
metric given without "onb": small integer combinations of a basis of the
orthogonal complement of the vectors found so far, read through the one
elimination `linalg.bareiss` as kernels (`kernel_basis`), with a candidate
accepted when its norm is the square of a rational (`_is_square`).
`curv.MetricModel.onb_at` imports this module only for a metric without a
frame, so no start on a metric with one, and no `validate` or
`integrability`, compiles it.
"""

from __future__ import annotations

import itertools
import math
from operator import mul

from paracomplex.curv import DegenerateMetric
from paracomplex.linalg import bareiss, mat_mul, mat_vec, reduced, transpose


def kernel_basis(rows: list, ncols: int | None = None) -> tuple[int, list]:
    """A basis of the right kernel {v : rows v = 0} over Q of an integer
    matrix, one vector per free column of the reduced row echelon form R / d
    of bareiss: 1 there and -R[i][fc] / d at the pivot of row i.  As an
    integer pair (|d|, [V_1, ...]) with the vectors V_k / |d|; ncols gives
    the width of an empty row list."""
    n = len(rows[0]) if rows else ncols or 0
    r, pivots, d, _ = bareiss(rows)
    s = 1 if d > 0 else -1
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[fc] = s * d
        for row, pc in zip(r, pivots):
            v[pc] = -s * row[fc]
        basis.append(v)
    return s * d, basis


def _is_square(den: int, num: int) -> tuple | None:
    """The square root of num / den, den > 0, as a pair (d, n) in lowest
    terms, when it is rational."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    rn, rd = math.isqrt(max(num, 0)), math.isqrt(den)
    return (rd, rn) if num >= 0 and rn * rn == num and rd * rd == den else None


def onb_search(g: tuple) -> tuple:
    """Search for a rational orthonormal basis with norms (1, 1, -1, -1) of
    g = G / D, given as (D, G); the frame (E, [U_1, ..., U_4]) with the vectors
    U_a / E over their least common denominator.  Works when unit vectors
    exist over Q; otherwise raises DegenerateMetric (supply an onb with the
    metric in that case).  The candidates are small integer combinations c of
    the complement basis V / e of the vectors found so far, whose norm is
    c^T M c / (e^2 D) for M = V G V^T, and only the accepted vector is built."""
    den, gm = g
    n = len(gm)
    found: list = []  # (e_a, U_a) for the vectors U_a / e_a
    for target in (1, 1, -1, -1):
        # G is symmetric, so the complement {w : g(u, w) = 0} is the kernel of the rows G u
        e, comp = kernel_basis([mat_vec(gm, u) for _, u in found], n)
        gram = mat_mul(mat_mul(comp, gm), transpose(comp))
        pick = None
        for bound in (1, 2, 3, 4):
            for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(comp)):
                if not any(coeffs) or max(abs(c) for c in coeffs) != bound:
                    continue
                q = target * sum(map(mul, coeffs, [sum(map(mul, row, coeffs)) for row in gram]))
                root = q > 0 and _is_square(e * e * den, q)
                if root:
                    # (sum c_k V_k / e) / (n / d)
                    pick = (e * root[1], [root[0] * sum(c * b[i] for c, b in zip(coeffs, comp))
                                          for i in range(n)])
                    break
            if pick is not None:
                break
        if pick is None:
            raise DegenerateMetric("no rational orthonormal basis found; supply one")
        found.append(pick)
    top = math.lcm(*(e for e, _ in found))
    return reduced(top, [[x * (top // e) for x in u] for e, u in found])
