"""Quadrature on the unit sphere: the three rules and their guarantees.

The Cimmino integrands are smooth even functions on S^(n-1), so a trapezoid
rule on the circle, a Gauss-Legendre product rule in spherical coordinates,
and Monte Carlo cover every dimension this package cares about.
"""

import math

import numpy as np

from zetasolve import QuadratureSpec, sample_directions, sphere_integrate, sphere_surface_measure

# ---------------------------------------------------------------------------
# Total measures and moments
# ---------------------------------------------------------------------------
print("surface measures |S^(n-1)|:")
for n in (1, 2, 3, 4, 5):
    print(f"  n = {n}:  {sphere_surface_measure(n):.15f}")

print("\nsecond moments: integral of u_1^2 equals |S^(n-1)| / n")
cases = [
    (2, QuadratureSpec("circle_trapezoid", 64)),
    (3, QuadratureSpec("product_gauss", 24)),
    (4, QuadratureSpec("product_gauss", 24)),
    (5, QuadratureSpec("monte_carlo", 400000, seed=12)),
]
for n, spec in cases:
    r = sphere_integrate(lambda u: u[:, 0] ** 2, n, spec)
    exact = sphere_surface_measure(n) / n
    print(f"  n = {n} [{spec.method:16s}]  {r.value:.10f}"
          f"  (exact {exact:.10f}, error estimate {r.error_estimate:.2e})")

# ---------------------------------------------------------------------------
# The identity behind the solver
# ---------------------------------------------------------------------------
# integral of |A^T u|^-n over S^(n-1) = n pi^(n/2) / Gamma(n/2 + 1) / |det A|
print("\nanisotropic norm integral vs closed form:")
for n, a, spec in (
    (2, np.diag([2.0, 3.0]), QuadratureSpec("circle_trapezoid", 512)),
    (3, np.diag([1.0, 2.0, 0.5]), QuadratureSpec("product_gauss", 48)),
    (4, np.eye(4) * 1.5, QuadratureSpec("monte_carlo", 500000, seed=9)),
):
    r = sphere_integrate(
        lambda u, a=a, n=n: np.power(np.einsum("ij,ij->i", u @ a, u @ a), -n / 2.0),
        n, spec)
    exact = (n * math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
             / abs(np.linalg.det(a)))
    print(f"  n = {n}: value {r.value:.10f}  exact {exact:.10f}"
          f"  (error estimate {r.error_estimate:.2e})")

# ---------------------------------------------------------------------------
# Reproducible randomness
# ---------------------------------------------------------------------------
u = sample_directions(3, 5, seed=2024)
print("\nfirst five seeded directions (seed 2024):")
for row in u:
    print("  ", np.array2string(row, precision=6), " |u| =", f"{np.linalg.norm(row):.12f}")
print("identical runs produce bit-identical samples and integrals.")
