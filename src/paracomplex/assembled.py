"""`validate` on an `assembled` descriptor (g, Theta, K1, K2): its checks at
each point, on integers, and, once every point has passed, the same checks
as rational-function identities, so that no verdict rests on the points
alone.  Only such a run loads this module, and with it `para`.  `theorem`
loads `para` for its draws but not this module: the identities in `para`
raised the uncached peak RSS of a `theorem constcurv:1 --component=+-`
start by 0.13 MB (medians of 12 interleaved starts, Python 3.11.7).
"""

from __future__ import annotations

from paracomplex.gpx import assemble, is_compatible, validate_gen_para
from paracomplex.linalg import int_inv, int_jet, mat_add, mat_mul, mat_scale, mat_sub, transpose
from paracomplex.para import validate_para
from paracomplex.patch import involution_checks


def validate_at(mat: tuple, p: tuple, entry: dict) -> bool:
    """The checks of an assembled descriptor at a point, into entry: each
    paracomplex factor once, then K of (g, K1, K2), from the one inverse of
    g(p), the one elimination of the point (a singular g(p) is a ValueError,
    which the point's "error" shows), and its compatibility with g.  Theta(p)
    is evaluated only so that a pole of Theta is reported: every check of
    (g, Theta, K1, K2) is that of (g, K1, K2), since e^Theta keeps them
    (gpx)."""
    g, _, k1, k2 = [int_jet(m, p)[0] for m in mat]  # a pole in any of them comes first
    entry["k1"], entry["k2"] = checks = [validate_para(g, k) for k in (k1, k2)]
    if not all(all(c.values()) for c in checks):
        return False
    # w_s = K_s^T g is singular iff g is, since K_s^2 = Id
    inv = int_inv(g[1])
    if inv is None:
        raise ValueError("matrix is singular over the scalar field")
    if g[1] != transpose(g[1]):
        raise ValueError("g must be symmetric")
    # no check that g is neutral: K1 passes and g is invertible, so g is nondegenerate
    # and the eigenspaces of K1, of dimension n/2, are g-isotropic
    k = assemble(g, (inv[0], mat_scale(g[0], inv[1])), k1, k2)
    entry["structure"] = checks = validate_gen_para(*k)
    entry["compatible"] = compatible = is_compatible(k, g)
    return all(checks.values()) and compatible


def validate_identities(descriptor: tuple, entries: list) -> None:
    """para.validate_para's checks of an assembled descriptor's factors, and
    g = g^T, decided as rational-function identities of its RatFunc
    matrices (g, Theta, K1, K2) on its variables, once every point of
    validate's entries has passed, so that no verdict rests on the points
    alone: for K1 and then K2, K^2 = Id and K != +-Id
    (patch.involution_checks), trace K = 0 and K^T g + g K = 0, then
    g = g^T.  The first that fails sets every entry's "error" to a message
    that names the factor, the identity and its first nonzero entry, and
    its "ok" to false.  Once K^2 = Id holds, K != +-Id and trace K = 0
    follow from any point where they hold (the trace of an involution is a
    constant integer); they are computed all the same, as every check is."""
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
            square, plus_minus = involution_checks(k)
            yield failure(factor, "K^2 = Id", "(K^2 - Id)", cells(square))
            yield plus_minus and f"{factor}: K = +-Id as a rational-function identity"
            yield failure(factor, "trace K = 0", "trace K",
                          [("", sum(row[i] for i, row in enumerate(k)))])
            yield failure(factor, "K^T g + g K = 0", "(K^T g + g K)",
                          cells(mat_add(mat_mul(transpose(k), g), mat_mul(g, k))))
        yield failure("g", "g = g^T", "(g - g^T)", cells(mat_sub(g, transpose(g))))

    error = next(filter(None, failures()), None)
    for entry in entries if error else ():
        entry.update(error=error, ok=False)
