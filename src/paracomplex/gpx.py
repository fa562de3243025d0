"""The double space T + T*: canonical pairing, generalized paracomplex
structures, B-transforms, generalized metrics, compatibility, and the
extraction/assembly correspondence with pairs of paracomplex structures.

Conventions.  A bilinear form phi acts as a map T -> T* by
phi(X)(Y) = phi(X, Y); in coordinates the map matrix is the transpose of the
form matrix.  A bivector pi contracts with a 1-form alpha through
beta(i_alpha pi) = (alpha ^ beta)(pi) with the determinant convention
(alpha ^ beta)(u ^ v) = alpha(u) beta(v) - alpha(v) beta(u).
"""

from __future__ import annotations

from fractions import Fraction

from paracomplex.linalg import (
    Bilinear,
    Endo,
    TwoVector,
    basis_vec,
    mat_add,
    mat_eq,
    mat_from_columns,
    mat_identity,
    mat_inv,
    mat_is_zero,
    mat_mul,
    mat_neg,
    mat_rank,
    mat_scale,
    mat_sub,
    mat_vec,
    mat_zero,
    signature,
    transpose,
    vec_add,
    vec_eq,
    vec_scale,
    wedge_pairs,
    zero_like,
)
from paracomplex.para import (
    ValidationReport,
    induced_orientation,
    is_fiber_tangent,
    validate_para,
)


class GenVector:
    """Element X + alpha of T + T*."""

    __slots__ = ("x", "alpha")

    def __init__(self, x: list, alpha: list):
        self.x, self.alpha = x, alpha

    def __add__(self, other: GenVector) -> GenVector:
        return GenVector(vec_add(self.x, other.x), vec_add(self.alpha, other.alpha))

    def __sub__(self, other: GenVector) -> GenVector:
        return GenVector([a - b for a, b in zip(self.x, other.x)],
                         [a - b for a, b in zip(self.alpha, other.alpha)])

    def __neg__(self) -> GenVector:
        return self.scale(Fraction(-1))

    def scale(self, c) -> GenVector:
        return GenVector(vec_scale(c, self.x), vec_scale(c, self.alpha))

    def stacked(self) -> list:
        return list(self.x) + list(self.alpha)

    @staticmethod
    def vector(v: list) -> GenVector:
        return GenVector(list(v), [zero_like(v[0])] * len(v))

    @staticmethod
    def covector(a: list) -> GenVector:
        return GenVector([zero_like(a[0])] * len(a), list(a))

    def is_zero(self) -> bool:
        return all(not c for c in self.x) and all(not c for c in self.alpha)

    def __eq__(self, other):
        return (isinstance(other, GenVector)
                and vec_eq(self.x, other.x) and vec_eq(self.alpha, other.alpha))


class GenEndo:
    """Endomorphism of T + T* in blocks a: T->T, b: T*->T, c: T->T*, d: T*->T*."""

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d
        self.dim = len(a)

    @staticmethod
    def identity(n: int, like=Fraction(1)) -> GenEndo:
        return GenEndo(mat_identity(n, like), mat_zero(n, like=like),
                       mat_zero(n, like=like), mat_identity(n, like))

    @staticmethod
    def from_matrix(m: list) -> GenEndo:
        n = len(m) // 2
        a = [row[:n] for row in m[:n]]
        b = [row[n:] for row in m[:n]]
        c = [row[:n] for row in m[n:]]
        d = [row[n:] for row in m[n:]]
        return GenEndo(a, b, c, d)

    def as_matrix(self) -> list:
        top = [ra + rb for ra, rb in zip(self.a, self.b)]
        bottom = [rc + rd for rc, rd in zip(self.c, self.d)]
        return top + bottom

    def apply(self, v: GenVector) -> GenVector:
        x = vec_add(mat_vec(self.a, v.x), mat_vec(self.b, v.alpha))
        alpha = vec_add(mat_vec(self.c, v.x), mat_vec(self.d, v.alpha))
        return GenVector(x, alpha)

    def compose(self, other: GenEndo) -> GenEndo:
        return GenEndo.from_matrix(mat_mul(self.as_matrix(), other.as_matrix()))

    def __add__(self, other: GenEndo) -> GenEndo:
        return GenEndo.from_matrix(mat_add(self.as_matrix(), other.as_matrix()))

    def __sub__(self, other: GenEndo) -> GenEndo:
        return GenEndo.from_matrix(mat_sub(self.as_matrix(), other.as_matrix()))

    def __neg__(self) -> GenEndo:
        return self.scale(Fraction(-1))

    def scale(self, c) -> GenEndo:
        return GenEndo.from_matrix(mat_scale(c, self.as_matrix()))

    def __eq__(self, other):
        return isinstance(other, GenEndo) and mat_eq(self.as_matrix(), other.as_matrix())

    def __repr__(self):
        return f"GenEndo(a={self.a!r}, b={self.b!r}, c={self.c!r}, d={self.d!r})"


# -- canonical pairing ---------------------------------------------------------


def gen_pairing(a: GenVector, b: GenVector):
    """<X + alpha, Y + beta> = (alpha(Y) + beta(X)) / 2."""
    total = zero_like(a.x[0])
    for c, y in zip(a.alpha, b.x):
        total = total + c * y
    for c, y in zip(b.alpha, a.x):
        total = total + c * y
    return total / 2


def pairing_matrix(n: int, like=Fraction(1)) -> list:
    half = Fraction(1, 2)
    z = mat_zero(n, like=like)
    i_half = mat_scale(half, mat_identity(n, like))
    return [rz + ri for rz, ri in zip(z, i_half)] + \
           [ri + rz for rz, ri in zip(z, i_half)]


# -- constructors ----------------------------------------------------------------
# Each builds its blocks in the scalar type of its data: Fractions at a point,
# RatFuncs on a coordinate patch (patch.STRUCTURES).


def trivial_structure(n: int, like=Fraction(1)) -> GenEndo:
    """K(X + alpha) = X - alpha."""
    return GenEndo(mat_identity(n, like), mat_zero(n, like=like),
                   mat_zero(n, like=like), mat_neg(mat_identity(n, like)))


def omega_structure(omega: Bilinear) -> GenEndo:
    """K(X + alpha) = omega^{-1}(alpha) + omega(X) for nondegenerate skew omega."""
    if not omega.is_antisymmetric():
        raise ValueError("omega must be antisymmetric")
    omega_map = omega.map_mat()
    try:
        omega_inv = mat_inv(omega_map)
    except ZeroDivisionError as exc:
        raise ValueError("omega field is degenerate") from exc
    n = omega.dim
    like = omega.mat[0][0]
    return GenEndo(mat_zero(n, like=like), omega_inv, omega_map, mat_zero(n, like=like))


def pi_structure(pi) -> GenEndo:
    """K(X + alpha) = (X - i_alpha pi) - alpha for a TwoVector or a bivector field."""
    n = pi.dim
    like = pi.get(0, 0)
    full = [[pi.get(i, j) for j in range(n)] for i in range(n)]
    # (i_alpha pi)^l = sum_k alpha_k pi^{kl}, so the T* -> T block is +pi
    return GenEndo(mat_identity(n, like), full, mat_zero(n, like=like),
                   mat_neg(mat_identity(n, like)))


def product_structure(p: Endo) -> GenEndo:
    """K(X + alpha) = P X - P* alpha for a product structure P."""
    n = p.dim
    ident = mat_identity(n, like=p.mat[0][0])
    if not mat_eq(mat_mul(p.mat, p.mat), ident):
        raise ValueError("P^2 != Id as a rational-function identity")
    if mat_eq(p.mat, ident) or mat_eq(p.mat, mat_neg(ident)):
        raise ValueError("P = +-Id")
    z = mat_zero(n, like=p.mat[0][0])
    return GenEndo(p.mat, z, z, mat_neg(transpose(p.mat)))


def validate_gen_para(k: GenEndo) -> ValidationReport:
    """Check K^2 = Id, skewness for the canonical pairing, and that both
    eigenspaces have dimension 2n (half the dimension of T + T*)."""
    m = k.as_matrix()
    n2 = len(m)
    ident = mat_identity(n2, like=m[0][0])
    pair = pairing_matrix(k.dim, like=m[0][0])
    skew = mat_is_zero(mat_add(mat_mul(transpose(m), pair), mat_mul(pair, m)))
    plus = mat_scale(Fraction(1, 2), mat_add(ident, m))
    minus = mat_scale(Fraction(1, 2), mat_sub(ident, m))
    return ValidationReport({
        "square_is_identity": mat_eq(mat_mul(m, m), ident),
        "pairing_skew": skew,
        "equal_eigenranks": mat_rank(plus) == n2 // 2 == mat_rank(minus),
    })


# -- B-transforms ------------------------------------------------------------------


def b_transform(b: Bilinear, a: GenVector) -> GenVector:
    """e^B: X + alpha -> X + alpha + i_X B."""
    return GenVector(list(a.x), vec_add(a.alpha, mat_vec(b.map_mat(), a.x)))


def b_endo(b: Bilinear) -> GenEndo:
    n = b.dim
    like = b.mat[0][0]
    return GenEndo(mat_identity(n, like), mat_zero(n, like=like),
                   b.map_mat(), mat_identity(n, like))


def b_conjugate(b: Bilinear, k: GenEndo) -> GenEndo:
    """e^B K e^{-B}, again a generalized paracomplex structure."""
    eb = b_endo(b)
    eminus = b_endo(Bilinear(mat_neg(b.mat)))
    return eb.compose(k).compose(eminus)


# -- generalized metrics --------------------------------------------------------------


class GeneralizedMetric:
    """E' = {X + g(X) + Theta(X)} with E'' = {X - g(X) + Theta(X)} = E'^perp."""

    __slots__ = ("g", "theta", "frame_prime", "frame_dprime")

    def __init__(self, g: Bilinear, theta: Bilinear, frame_prime: list, frame_dprime: list):
        self.g, self.theta = g, theta
        self.frame_prime, self.frame_dprime = frame_prime, frame_dprime

    @property
    def dim(self) -> int:
        return self.g.dim


def gen_metric(g: Bilinear, theta: Bilinear) -> GeneralizedMetric:
    if not g.is_symmetric():
        raise ValueError("g must be symmetric")
    if not theta.is_antisymmetric():
        raise ValueError("Theta must be antisymmetric")
    n = g.dim
    if isinstance(g.mat[0][0], Fraction):
        pos, neg, null = signature(g)
        if null or pos != neg:
            raise ValueError(f"metric signature {(pos, neg, null)} is not neutral")
    g_map = g.map_mat()
    th_map = theta.map_mat()
    prime, dprime = [], []
    for i in range(n):
        e = basis_vec(i, n, like=g.mat[0][0])
        prime.append(GenVector(e, vec_add(mat_vec(g_map, e), mat_vec(th_map, e))))
        dprime.append(GenVector(e, vec_add(mat_vec(mat_neg(g_map), e), mat_vec(th_map, e))))
    return GeneralizedMetric(g, theta, prime, dprime)


def split_components(e: GeneralizedMetric, a: GenVector) -> tuple[GenVector, GenVector]:
    """Closed-formula E' and E'' components; the parts sum to the input."""
    g_map = e.g.map_mat()
    g_inv = mat_inv(g_map)
    th_map = e.theta.map_mat()
    half = Fraction(1, 2)
    x, alpha = a.x, a.alpha
    gi_th = mat_mul(g_inv, th_map)
    th_gi_th = mat_mul(th_map, gi_th)
    th_gi = mat_mul(th_map, g_inv)
    # vector-part contribution
    x_pr = vec_add(vec_scale(half, vec_add(x, vec_scale(Fraction(-1), mat_vec(gi_th, x)))),
                   vec_scale(half, mat_vec(g_inv, alpha)))
    al_pr = vec_add(
        vec_scale(half, vec_add(mat_vec(g_map, x), vec_scale(Fraction(-1), mat_vec(th_gi_th, x)))),
        vec_scale(half, vec_add(alpha, mat_vec(th_gi, alpha))),
    )
    prime = GenVector(x_pr, al_pr)
    dprime = a - prime
    return prime, dprime


def is_compatible(k: GenEndo, e: GeneralizedMetric) -> bool:
    """K preserves E iff the images of the E' frame stay in its span."""
    frame_cols = [v.stacked() for v in e.frame_prime]
    image_cols = [k.apply(v).stacked() for v in e.frame_prime]
    base = mat_from_columns(frame_cols)
    both = mat_from_columns(frame_cols + image_cols)
    return mat_rank(both) == mat_rank(base) == e.dim


def extract_pair(k: GenEndo, e: GeneralizedMetric) -> tuple[Endo, Endo]:
    """The paracomplex pair (K1, K2) with K(X + g(X) + Theta(X)) =
    K1 X + g(K1 X) + Theta(K1 X), and likewise for K2 on E''."""
    if not is_compatible(k, e):
        raise ValueError("structure does not preserve the generalized metric")
    k1_cols, k2_cols = [], []
    for v in e.frame_prime:
        k1_cols.append(k.apply(v).x)
    for v in e.frame_dprime:
        k2_cols.append(k.apply(v).x)
    k1 = Endo(mat_from_columns(k1_cols))
    k2 = Endo(mat_from_columns(k2_cols))
    return k1, k2


def assemble(g: Bilinear, theta: Bilinear, k1: Endo, k2: Endo) -> GenEndo:
    """Block-matrix assembly of the compatible generalized paracomplex structure
    from (g, Theta, K1, K2):

        K = 1/2 [[I, 0], [Th, I]] [[K1+K2, -w1^-1 + w2^-1],
                                   [-w1 + w2, -K1* - K2*]] [[I, 0], [-Th, I]]

    with w_s(X, Y) = g(X, K_s Y) and all forms acting as maps T -> T*."""
    for ks in (k1, k2):
        if not validate_para(g, ks).ok:
            raise ValueError(f"invalid paracomplex factor: {validate_para(g, ks).failures}")
    g_map = g.map_mat()
    th = theta.map_mat()
    w1 = mat_mul(transpose(k1.mat), g_map)
    w2 = mat_mul(transpose(k2.mat), g_map)
    w1_inv = mat_inv(w1)
    w2_inv = mat_inv(w2)
    a_mid = mat_add(k1.mat, k2.mat)
    b_mid = mat_add(mat_neg(w1_inv), w2_inv)
    c_mid = mat_add(mat_neg(w1), w2)
    d_mid = mat_neg(mat_add(transpose(k1.mat), transpose(k2.mat)))
    # conjugate by the B-transform of Theta and halve
    a_blk = mat_sub(a_mid, mat_mul(b_mid, th))
    b_blk = b_mid
    c_blk = mat_sub(mat_add(mat_mul(th, a_mid), c_mid),
                    mat_mul(mat_add(mat_mul(th, b_mid), d_mid), th))
    d_blk = mat_add(mat_mul(th, b_mid), d_mid)
    half = Fraction(1, 2)
    return GenEndo(mat_scale(half, a_blk), mat_scale(half, b_blk),
                   mat_scale(half, c_blk), mat_scale(half, d_blk))


# -- example compatibility conditions ----------------------------------------------------


def check_omega_compat(omega: Bilinear, g: Bilinear, theta: Bilinear):
    """True (with witness L = omega^{-1} (g + Theta)) iff L is a product
    structure reproducing g and Theta through
    g(X,Y) = (omega(LX,Y) - omega(X,LY)) / 2 and
    Theta(X,Y) = (omega(LX,Y) + omega(X,LY)) / 2."""
    omega_map = omega.map_mat()
    try:
        omega_inv = mat_inv(omega_map)
    except ZeroDivisionError as exc:
        raise ValueError("omega field is degenerate") from exc
    l_mat = mat_mul(omega_inv, mat_add(g.map_mat(), theta.map_mat()))
    ident = mat_identity(len(l_mat), like=l_mat[0][0])
    if not mat_eq(mat_mul(l_mat, l_mat), ident):
        return False, None
    if mat_eq(l_mat, ident) or mat_eq(l_mat, mat_neg(ident)):
        return False, None
    half = Fraction(1, 2)
    lt_om = mat_mul(transpose(l_mat), omega.mat)
    om_l = mat_mul(omega.mat, l_mat)
    g_back = mat_scale(half, mat_sub(lt_om, om_l))
    th_back = mat_scale(half, mat_add(lt_om, om_l))
    if mat_eq(g_back, g.mat) and mat_eq(th_back, theta.mat):
        return True, Endo(l_mat)
    return False, None


def check_pi_conditions(g: Bilinear, basis: list, theta: Bilinear) -> bool:
    """For pi = e1 ^ e2 in dim 4 with the null-frame metric g(e_i, f_j) =
    delta_ij on basis (e1, e2, f1, f2): compatibility holds iff
    Theta(e1,e2) = -2, Theta(e1,f2) = Theta(e2,f1) = 0,
    Theta(e1,f1) = Theta(e2,f2), and
    2 Theta(f1,f2) = 1 - Theta(e1,f1) Theta(e2,f2).

    The quadratic constraint follows from evaluating the skew part of the
    compatibility identity at (f1, f2); it is cross-checked exactly against
    the rank-based compatibility test."""
    if g.dim != 4 or len(basis) != 4:
        raise ValueError("expected a 4-dimensional null frame")
    e1, e2, f1, f2 = basis
    for u in (e1, e2):
        for v in (e1, e2):
            if g.apply(u, v) != 0:
                raise ValueError("g(e_i, e_j) must vanish")
    for u in (f1, f2):
        for v in (f1, f2):
            if g.apply(u, v) != 0:
                raise ValueError("g(f_i, f_j) must vanish")
    for i, u in enumerate((e1, e2)):
        for j, v in enumerate((f1, f2)):
            if g.apply(u, v) != (1 if i == j else 0):
                raise ValueError("g(e_i, f_j) must be delta_ij")
    th = theta.apply
    return (th(e1, e2) == -2
            and th(e1, f2) == 0
            and th(e2, f1) == 0
            and th(e1, f1) == th(e2, f2)
            and 2 * th(f1, f2) == 1 - th(e1, f1) * th(e2, f2))


def check_product_compat(p: Endo, theta: Bilinear) -> bool:
    """Theta(PX, Y) + Theta(X, PY) = 0 on all basis pairs."""
    return mat_is_zero(mat_add(mat_mul(transpose(p.mat), theta.mat),
                               mat_mul(theta.mat, p.mat)))


def hat_metric_equiv(k: GenEndo, g: Bilinear) -> bool:
    """Skewness of K for the metric g-hat = g + g* on T + T*; equivalent to
    compatibility with the generalized metric {X + g(X)}."""
    n = g.dim
    g_star = mat_inv(g.mat)
    z = mat_zero(n, like=g.mat[0][0])
    ghat = [list(rg) + list(rz) for rg, rz in zip(g.mat, z)] + \
           [list(rz) + list(rs) for rz, rs in zip(z, g_star)]
    m = k.as_matrix()
    return mat_is_zero(mat_add(mat_mul(transpose(m), ghat), mat_mul(ghat, m)))


# -- bivectors from forms -----------------------------------------------------------------


def bivector_from_symplectic(omega: Bilinear) -> TwoVector:
    """The 2-vector with (alpha ^ beta)(pi) = omega(omega^{-1} alpha, omega^{-1} beta):
    its full component matrix is the inverse of the omega map."""
    pi_full = mat_inv(omega.map_mat())
    n = omega.dim
    return TwoVector(n, {(i, j): pi_full[i][j] for (i, j) in wedge_pairs(n)})


# -- the fiber of compatible structures ---------------------------------------------------


def _transferred_frame_images(v: Endo, e: GeneralizedMetric, prime: bool) -> list:
    """Images of the E' (resp. E'') frame under the transfer of v from T:
    the transferred endomorphism sends F(e_i) to F(v e_i)."""
    frame = e.frame_prime if prime else e.frame_dprime
    out = []
    for i in range(e.dim):
        img_t = [v.mat[r][i] for r in range(e.dim)]
        lifted = GenVector([zero_like(img_t[0])] * e.dim, [zero_like(img_t[0])] * e.dim)
        for j, c in enumerate(img_t):
            if c:
                lifted = lifted + frame[j].scale(c)
        out.append(lifted.stacked())
    return out


def vertical_endo(e: GeneralizedMetric, v1: Endo, v2: Endo) -> GenEndo:
    """The endomorphism of T + T* acting as the transfer of v1 on E' and of
    v2 on E''."""
    frame_cols = [w.stacked() for w in e.frame_prime] + \
                 [w.stacked() for w in e.frame_dprime]
    image_cols = _transferred_frame_images(v1, e, prime=True) + \
                 _transferred_frame_images(v2, e, prime=False)
    frame = mat_from_columns(frame_cols)
    images = mat_from_columns(image_cols)
    return GenEndo.from_matrix(mat_mul(images, mat_inv(frame)))


def p_epsilon(eps: int, kpair: tuple[Endo, Endo], e: GeneralizedMetric,
              v: tuple[Endo, Endo]) -> tuple[Endo, Endo]:
    """The four fiber paracomplex structures on vertical pairs:
    P1(V1, V2) = (K1 V1, K2 V2), P2(V1, V2) = (K1 V1, -K2 V2),
    P3 = -P2, P4 = -P1."""
    k1, k2 = kpair
    v1, v2 = v
    for ks, vs in ((k1, v1), (k2, v2)):
        if not is_fiber_tangent(e.g, ks, vs):
            raise ValueError("component is not tangent at the base structure")
    w1 = Endo(mat_mul(k1.mat, v1.mat))
    w2 = Endo(mat_mul(k2.mat, v2.mat))
    if eps == 1:
        return w1, w2
    if eps == 2:
        return w1, -w2
    if eps == 3:
        return -w1, w2
    if eps == 4:
        return -w1, -w2
    raise ValueError("epsilon must be 1, 2, 3, or 4")


def s_ij_endo(g: Bilinear, onb: list, i: int, j: int) -> Endo:
    """The frame generator S_ij of g-skew endomorphisms for an orthogonal basis:
    S_ij u_k = delta_ik |u_j|^2 u_j - delta_kj |u_i|^2 u_i (transferred to T)."""
    n = g.dim
    cols = []
    norms = [g.apply(u, u) for u in onb]
    for k in range(n):
        col = [zero_like(g.mat[0][0])] * n
        vecs = []
        if k == i:
            vecs.append(vec_scale(norms[j], onb[j]))
        if k == j:
            vecs.append(vec_scale(-norms[i], onb[i]))
        for v in vecs:
            col = vec_add(col, v)
        cols.append(col)
    # columns are images of the onb vectors; convert to the reference basis
    p = mat_from_columns(onb)
    return Endo(mat_mul(mat_from_columns(cols), mat_inv(p)))


def classify_component(k: GenEndo, e: GeneralizedMetric) -> str:
    """Connected component of the fiber: orientation signs of (K1, K2)."""
    k1, k2 = extract_pair(k, e)
    s1 = "+" if induced_orientation(e.g, k1) > 0 else "-"
    s2 = "+" if induced_orientation(e.g, k2) > 0 else "-"
    return s1 + s2


# -- JSON descriptors ----------------------------------------------------------------------


def structure_to_descriptor(kind: str, **parts) -> dict:
    from paracomplex.linalg import mat_to_strings

    desc = {"schema": 1, "kind": kind}
    for name, value in parts.items():
        if isinstance(value, Bilinear):
            desc[name] = mat_to_strings(value.mat)
        elif isinstance(value, Endo):
            desc[name] = mat_to_strings(value.mat)
        elif isinstance(value, TwoVector):
            desc[name] = {f"{i + 1},{j + 1}": str(c) for (i, j), c in value.comps.items()}
        else:
            desc[name] = value
    return desc
