"""`validate` on an `assembled` descriptor (g, Theta, K1, K2), which alone
loads this module.  The four checks of a paracomplex factor K of g (K^2 = Id,
K != +-Id, trace K = 0 and K^T g + g K = 0) are written once, as the
residuals of factor_residuals: validate_para reads them on the integers of
each point, and validate_identities, once every point has passed, as
rational-function identities, so that no verdict rests on the points alone.
K^2 - Id is that of patch.involution_checks, which check_structure reads for
the P of a product descriptor.  This module loads no `para`, which keeps
only the hyperboloid model that `theorem` draws from.
"""

from __future__ import annotations

from paracomplex.gpx import assemble, is_compatible, validate_gen_para
from paracomplex.linalg import int_inv, int_jet, mat_add, mat_is_zero, mat_mul, mat_sub, transpose
from paracomplex.patch import involution_checks


def factor_residuals(g: list, k: tuple):
    """K^2 - E^2 Id, whether K = +-E Id (patch.involution_checks), trace K and
    K^T g + g K, in turn, for a factor K / E given as k = (E, K) and a metric
    g, or the G of g = G / D: K / E is a g-skew paracomplex structure iff the
    flag is false and the rest are zero.  A reader that stops at a failing
    check computes no trace or skew sum after it."""
    yield from involution_checks(k)
    km = k[1]
    yield sum(row[i] for i, row in enumerate(km))
    yield mat_add(mat_mul(transpose(km), g), mat_mul(g, km))


def validate_para(g: tuple, k: tuple) -> dict[str, bool]:
    """Each check of {k^2 = Id, k != +-Id, trace = 0, g-skew} of a factor at a
    point, on integers for g = G / D and k = K / E given as (D, G) and
    (E, K), from factor_residuals(G, k)."""
    square, plus_minus, trace, skew = factor_residuals(g[1], k)
    return {"square_is_identity": mat_is_zero(square), "not_plus_minus_identity": not plus_minus,
            "trace_zero": not trace, "g_skew": mat_is_zero(skew)}


def validate_at(mat: tuple, p: tuple, entry: dict) -> bool:
    """The checks of an assembled descriptor at a point, into entry: each
    paracomplex factor once, then K of (g, K1, K2), from the pair of g(p)^-1
    that int_inv gives, the one elimination of the point (a singular g(p) is
    a ValueError, which the point's "error" shows), and its compatibility
    with g.  Theta(p) is evaluated only so that a pole of Theta is reported:
    every check of (g, Theta, K1, K2) is that of (g, K1, K2), since e^Theta
    keeps them (gpx)."""
    g, _, k1, k2 = [int_jet(m, p)[0] for m in mat]  # a pole in any of them comes first
    entry["k1"], entry["k2"] = checks = [validate_para(g, k) for k in (k1, k2)]
    if not all(all(c.values()) for c in checks):
        return False
    # w_s = K_s^T g is singular iff g is, since K_s^2 = Id
    inv = int_inv(g)
    if inv is None:
        raise ValueError("matrix is singular over the scalar field")
    if g[1] != transpose(g[1]):
        raise ValueError("g must be symmetric")
    # no check that g is neutral: K1 passes and g is invertible, so g is nondegenerate
    # and the eigenspaces of K1, of dimension n/2, are g-isotropic
    k = assemble(g, inv, k1, k2)
    entry["structure"] = checks = validate_gen_para(*k)
    entry["compatible"] = compatible = is_compatible(k, g)
    return all(checks.values()) and compatible


def validate_identities(descriptor: tuple, entries: list) -> None:
    """validate_para's checks of an assembled descriptor's factors, and
    g = g^T, decided as rational-function identities of its RatFunc
    matrices (g, Theta, K1, K2) on its variables, once every point of
    validate's entries has passed, so that no verdict rests on the points
    alone: for K1 and then K2, the residuals of factor_residuals over E = 1
    (K^2 = Id, K != +-Id, trace K = 0 and K^T g + g K = 0), then g = g^T.
    The first that fails sets every entry's "error" to a message that names
    the factor, the identity and its first nonzero entry, and its "ok" to
    false.  Once K^2 = Id holds, K != +-Id and trace K = 0 follow from any
    point where they hold (the trace of an involution is a constant
    integer); they are computed all the same, as every check is."""
    if not all(e["ok"] for e in entries):
        return
    _, (g, _, *ks), names = descriptor

    def failure(factor: str, check: str, residual: str, cells) -> str | None:
        """The message of a check whose residual has a nonzero cell (where, value)."""
        where, x = next(((w, x) for w, x in cells if x), ("", None))
        return None if x is None else (f"{factor}: {check} fails as a rational-function "
                                       f"identity: {residual}{where} is {x.to_str(names)}")

    def cells(m: list):
        return ((f"[{i + 1},{j + 1}]", x) for i, row in enumerate(m) for j, x in enumerate(row))

    def failures():  # each check in turn, computed only once the ones before it hold
        for factor, k in zip(("k1", "k2"), ks):
            residuals = factor_residuals(g, (1, k))
            yield failure(factor, "K^2 = Id", "(K^2 - Id)", cells(next(residuals)))
            yield next(residuals) and f"{factor}: K = +-Id as a rational-function identity"
            yield failure(factor, "trace K = 0", "trace K", [("", next(residuals))])
            yield failure(factor, "K^T g + g K = 0", "(K^T g + g K)", cells(next(residuals)))
        yield failure("g", "g = g^T", "(g - g^T)", cells(mat_sub(g, transpose(g))))

    error = next(filter(None, failures()), None)
    for entry in entries if error else ():
        entry.update(error=error, ok=False)
