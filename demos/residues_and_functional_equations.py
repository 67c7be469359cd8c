"""Residues and functional equations of the zeta families.

The pole data is where the geometry lives: the residue of zeta_L(q_Q, s) at
s = n/2 is (n/2) pi^(n/2) / Gamma(n/2 + 1) / (|L| sqrt(det Q)).  Every
closed-form residue is checked here against a contour integral of the
continued evaluator, and the three functional equations are evaluated at
points where both sides are defined.
"""

import math

import numpy as np

from zetasolve import (
    Lattice,
    funceq_residual_lattice,
    funceq_residual_vector,
    funceq_residual_weighted,
    lattice_weighted_zeta,
    lattice_zeta,
    residue_epstein,
    residue_numeric,
    residue_vector,
    residue_weighted,
    vector_zeta,
)

I2 = np.eye(2)

# ---------------------------------------------------------------------------
# Analytic vs contour residues
# ---------------------------------------------------------------------------
print("plain residue at s = 1 (n = 2):")
lat = Lattice(np.diag([2.0, 3.0]))
analytic = complex(residue_epstein(lat, I2).residue).real
contour = residue_numeric(lambda s: lattice_zeta(lat, I2, s), 1.0).residue
print(f"  closed form  {analytic:.15f}   (pi/6 = {math.pi / 6:.15f})")
print(f"  contour      {contour.real:.15f}   |diff| = {abs(contour - analytic):.2e}")

print("\nweighted residue at s = 2:")
b = np.array([[1.0, 0.5], [0.5, 0.25]])
analytic = complex(residue_weighted(Lattice(I2), I2, b).residue).real
contour = residue_numeric(lambda s: lattice_weighted_zeta(Lattice(I2), I2, b, s), 2.0).residue
print(f"  closed form  {analytic:.15f}")
print(f"  contour      {contour.real:.15f}   |diff| = {abs(contour - analytic):.2e}")

print("\nvector residue at s = 2 (carries A^-1 b):")
a = np.array([[2.0, 1.0], [1.0, 3.0]])
bvec = np.array([5.0, 10.0])
analytic = np.asarray(residue_vector(a, bvec).residue)
contour = residue_numeric(lambda s: vector_zeta(a, bvec, s), 2.0).residue.real
print(f"  closed form  {analytic}")
print(f"  contour      {contour}")
print(f"  note: analytic residue is proportional to (A^T)^-1 b")

# ---------------------------------------------------------------------------
# Functional equations
# ---------------------------------------------------------------------------
print("\nfunctional-equation residuals |lhs - rhs| (all should be ~1e-14):")
for s in (0.5, 0.7 + 0.3j, 0.85):
    r = funceq_residual_lattice(Lattice(I2), I2, s)
    print(f"  plain    s = {s}:  {r.residual:.3e}")
for s in (0.6, 0.4 + 0.2j):
    r = funceq_residual_weighted(Lattice(I2), I2, b, s)
    print(f"  weighted s = {s}:  {r.residual:.3e}")
for s in (0.6, 0.7 + 0.2j):
    r = funceq_residual_vector(a, [1.0, 0.0], [0.0, 1.0], s)
    print(f"  vector   s = {s}:  {r.residual:.3e}")
