"""The double space T + T*: generalized paracomplex structures, B-transforms,
generalized metrics, and the assembly/extraction correspondence.

Run with:  python3 demos/02_generalized_structures.py
"""

import random
from fractions import Fraction

from paracomplex.reference import (
    Bilinear,
    Endo,
    TwoVector,
    as_ints,
    assemble_endo,
    b_conjugate,
    basis_vec,
    check_pi_conditions,
    classify_component,
    extract_pair,
    frac_mat,
    gen_metric,
    is_compatible_endo,
    pi_structure,
    product_structure,
    random_compatible_structure,
    standard_para_structure,
    trivial_structure,
    validate_structure,
)

g = Bilinear.diag([1, 1, -1, -1])
k_std = standard_para_structure(2)
onb = [basis_vec(i, 4) for i in range(4)]

# The four example constructors all produce pairing-skew involutions.
for kind, k in [("trivial", trivial_structure(4)), ("product", product_structure(k_std)),
                ("pi", pi_structure(TwoVector.basis(0, 1, 4)))]:
    print(f"{kind:8s} valid: {all(validate_structure(k).values())}")

# The trivial structure is never compatible with a generalized metric,
# the product structure is compatible with the graph of g.
e = gen_metric(g, Bilinear([[Fraction(0)] * 4 for _ in range(4)]))
print("\ntrivial compatible with E:", is_compatible_endo(trivial_structure(4), e))
print("K_P compatible with E:", is_compatible_endo(product_structure(k_std), e))

# Assembly from (g, Theta, K1, K2) and extraction back - an exact bijection.
rng = random.Random(7)
theta = Bilinear([[Fraction(0), Fraction(2), Fraction(0), Fraction(0)],
                  [Fraction(-2), Fraction(0), Fraction(0), Fraction(0)],
                  [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
                  [Fraction(0), Fraction(0), Fraction(-1), Fraction(0)]])
# The commands work on integer pairs (D, M) standing for M / D:
# random_compatible_structure reads g and the frame as (D, D g) and gives K_s as
# such a pair.  gpx.assemble builds K of (g, K1, K2) from g, g^-1 and the pairs,
# and assemble_endo conjugates it by e^Theta.
k1 = random_compatible_structure(as_ints(g.mat), as_ints(onb), rng, +1)
k2 = random_compatible_structure(as_ints(g.mat), as_ints(onb), rng, -1)
k = assemble_endo(g, theta, Endo(frac_mat(*k1)), Endo(frac_mat(*k2)))
e_theta = gen_metric(g, theta)
print("\nassembled K compatible with E:", is_compatible_endo(k, e_theta))
r1, r2 = extract_pair(k, e_theta)
print("round trip recovers K1, K2:", r1.mat == frac_mat(*k1) and r2.mat == frac_mat(*k2))
print("component of (K1, K2):", classify_component(k, e_theta))

# B-transforms shift the generalized metric the structure is compatible with.
b = Bilinear([[Fraction(0), Fraction(0), Fraction(1), Fraction(0)],
              [Fraction(0), Fraction(0), Fraction(0), Fraction(0)],
              [Fraction(-1), Fraction(0), Fraction(0), Fraction(0)],
              [Fraction(0), Fraction(0), Fraction(0), Fraction(0)]])
shifted = Bilinear([[x + y for x, y in zip(r1_, r2_)]
                    for r1_, r2_ in zip(theta.mat, b.mat)])
print("B-conjugate compatible with shifted metric:",
      is_compatible_endo(b_conjugate(b, k), gen_metric(g, shifted)))

# The bivector compatibility conditions in the null frame (note the
# quadratic constraint 2 Theta(f1,f2) = 1 - Theta(e1,f1) Theta(e2,f2)).
null_g = Bilinear([[Fraction(v) for v in row] for row in
                   [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]])
nb = [basis_vec(i, 4) for i in range(4)]
good = [[Fraction(0)] * 4 for _ in range(4)]
for (i, j, v) in [(0, 1, -2), (0, 2, 1), (1, 3, 1), (2, 3, 0)]:
    good[i][j] = Fraction(v)
    good[j][i] = -Fraction(v)
print("\npi conditions hold for the adapted Theta:",
      check_pi_conditions(null_g, nb, Bilinear(good)))
