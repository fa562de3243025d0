"""The dim-4 hyperboloid model of paracomplex structures: the seeded draw of
a compatible structure that the theorem's samples and witness search read,
and the seeded draw of the vectors they evaluate it on.
Only `theorem` loads this module; `curvature` does not, and `validate` on an
`assembled` descriptor checks its factors in `paracomplex.assembled`.

A paracomplex structure is an endomorphism K with K^2 = Id whose +-1
eigenspaces have equal dimension; compatibility with a metric g means
g(KX, Y) + g(X, KY) = 0, which forces g to be of neutral signature.  The
adapted and null bases, the fiber of compatible structures and its
orientation are in `paracomplex.reference`.
"""

from __future__ import annotations


def _draw(bits, n: int, k: int) -> int:
    """A draw from 0..n-1 for bits = rng.getrandbits and k = n.bit_length(),
    as random.Random.randint(a, a + n - 1) takes it: bits(k), drawn again
    while it is n or more.  So a + _draw(...) is that randint's value, from
    the same stream, without its randrange and _randbelow calls."""
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def rnd_vec2(rng, n=4) -> list:
    """Twice a random vector of n entries in {-3, ..., 3} / {1, 2}, on integers:
    each entry's numerator and denominator drawn as randint(-3, 3) and
    randint(1, 2) would draw them."""
    bits = rng.getrandbits
    return [2 * (_draw(bits, 7, 3) - 3) // (_draw(bits, 2, 2) + 1) for _ in range(n)]


def hyperboloid_draw(rng) -> tuple[int, int, int, int]:
    """(Y1, Y2, Y3, E): a random rational point (Y1, Y2, Y3) / E, E > 0, on the
    hyperboloid -y1^2 + y2^2 + y3^2 = 1: y1 = t, and (y2, y3) is the second
    point of the circle y2^2 + y3^2 = 1 + t^2 on the line of slope m through
    (1, t), for t = a/b and m = c/d drawn as ratios of small integers.  With
    P = c^2 + d^2 and Q = bd + ac: E = bP, Y1 = aP, Y2 = bP - 2Qd, Y3 = aP - 2Qc."""
    bits = rng.getrandbits
    a, b = _draw(bits, 13, 4) - 6, _draw(bits, 4, 3) + 1  # randint(-6, 6), randint(1, 4)
    c, d = _draw(bits, 13, 4) - 6, _draw(bits, 4, 3) + 1
    p, q = c * c + d * d, b * d + a * c
    return a * p, b * p - 2 * q * d, a * p - 2 * q * c, b * p


def hyperboloid_combination(point: tuple, triple: tuple) -> tuple[int, list]:
    """(e, K) with y1 J1 + y2 J2 + y3 J3 = K / e, for a hyperboloid_draw point
    (Y1, Y2, Y3, E) and a j_structures J-triple (D, [D J1, D J2, D J3]): K is the
    integer matrix Y1 D J1 + Y2 D J2 + Y3 D J3 and e = E D."""
    (y1, y2, y3, e), (den, mats) = point, triple
    return e * den, [[y1 * a + y2 * b + y3 * c for a, b, c in zip(*rows)]
                     for rows in zip(*mats)]
