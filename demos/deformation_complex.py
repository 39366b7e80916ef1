"""
The three-term complex at a stable instance
===========================================

Every zero-residual instance carries a complex in degrees -1, 0, 1:
symmetries, arrow deformations, relation values.  Its hypercohomology
is computed by exact rank arithmetic on its minimal model H0 + H1[-1],
and at a stable instance the dimensions pair up symmetrically.
"""

from quiverbundles import build_complex, euler_char_rr, hypercoh_dims, stable_bundles
from quiverbundles.polynomials import poly_mat_is_zero, poly_matmul

# take the first stable instance from the seeded rotation
e = next(stable_bundles(1, seed=23))
print("vertex bundles:", {v: b.multidegree for v, b in e.bundles.items()})

k = build_complex(e)
print("term ranks (-1, 0, 1):", (k.term_minus1.rank, k.term_zero.rank, k.term_one.rank))

# the differentials compose to zero exactly because the residual is zero
assert poly_mat_is_zero(poly_matmul(k.d_mu, k.d_kappa))

# hypercohomology from the minimal model of the Cech complex (complexes
# module docstring); the window is only echoed, no dimension depends on it
report = hypercoh_dims(k)
print("hypercohomology dims:", dict(report.h))
print("window:", report.window, "stabilized:", report.stabilized)

# the signature of a symmetric obstruction theory: outer dims vanish,
# the middle pair matches, and both euler counts are zero
assert report.dim(-1) == 0 and report.dim(2) == 0
assert report.dim(0) == report.dim(1)
print("euler:", report.euler, "| split-data count:", euler_char_rr(e))
assert report.euler == 0 == euler_char_rr(e)
