"""Walk through the vector-space layer: exact scalars, paracomplex
structures, null bases, and the hyperboloid of compatible structures.

Run with:  python3 demos/01_structures_on_a_vector_space.py
"""

from fractions import Fraction

from paracomplex.assembled import validate_para
from paracomplex.linalg import mat_mul
from paracomplex.parse import parse_ratfunc
from paracomplex.poly import rat_str
from paracomplex.reference import (
    Bilinear,
    as_ints,
    basis_vec,
    fiber_tangent_dim,
    hyperboloid_coords,
    hyperboloid_structure,
    induced_orientation,
    j_triple,
    mat_eq,
    mat_identity,
    null_basis,
    standard_para_structure,
)

# Everything is exact: a rational function has integer coefficients over a
# positive integer constant and primitive factors, a point is an integer pair
# (D, X) for the coordinates X / D, and a value is such a pair too.
f = parse_ratfunc("x1^2/(1+x2)", ["x1", "x2"])
den, (value,) = f.jet_at((1, (3, 1)))
print("x1^2/(1+x2) at (3, 1):", rat_str(den, value))

# The standard neutral metric and the standard paracomplex structure on R^4.
g = Bilinear.diag([1, 1, -1, -1])
k = standard_para_structure(2)
# validate_para reads g and K on integers, as pairs (D, D g) over a common denominator
print("\nstandard K valid:", all(validate_para(as_ints(g.mat), as_ints(k.mat)).values()))

# The null eigenbasis: K a_i = a_i, K a_{n+i} = -a_{n+i}, g(a_i, a_{n+j}) = delta.
a = null_basis(g, k)
print("null basis:")
for v in a:
    print("   ", [str(c) for c in v])
print("pairing g(a1, a3):", g.apply(a[0], a[2]))

# Compatible structures in dim 4 live on a one-sheeted hyperboloid
# -y1^2 + y2^2 + y3^2 = 1 inside the self-dual 2-vectors.
onb = [basis_vec(i, 4) for i in range(4)]
j1, j2, j3 = j_triple(g, onb)
print("\nJ1^2 = -Id:", mat_eq(mat_mul(j1.mat, j1.mat),
                              [[-c for c in row] for row in mat_identity(4)]))
point = (Fraction(3, 4), Fraction(5, 4), Fraction(0))
kp = hyperboloid_structure(g, onb, *point)
print("K at hyperboloid point (3/4, 5/4, 0) valid:",
      all(validate_para(as_ints(g.mat), as_ints(kp.mat)).values()))
print("orientation:", "+" if induced_orientation(g, kp) > 0 else "-")
print("coordinates read back:", tuple(str(c) for c in hyperboloid_coords(g, onb, kp)))

# The fiber of all compatible structures has dimension n^2 - n.
print("\nfiber dimension (n=2):", fiber_tangent_dim(g, k))
g6 = Bilinear.diag([1, 1, 1, -1, -1, -1])
print("fiber dimension (n=3):", fiber_tangent_dim(g6, standard_para_structure(3)))
