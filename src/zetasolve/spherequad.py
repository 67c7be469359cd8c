"""Surface integration over the unit sphere S^(n-1).

Three rules, selected by :class:`QuadratureSpec`:

* ``circle_trapezoid`` (n = 2): equispaced trapezoid on the circle, exact
  for trigonometric polynomials of degree below the node count;
* ``product_gauss`` (3 <= n <= 5): spherical-coordinate product rule with
  Gauss-Legendre nodes in each polar angle (``nodes`` per axis) and a
  ``2 * nodes``-point trapezoid in the azimuth;
* ``monte_carlo`` (n >= 2): directions from normalized standard Gaussian
  vectors, each evaluated once (no antithetic ``(u, -u)`` pairs: the paper's
  integrands are even, so a pair only doubles the work); 3-sigma error bars.

``n = 1`` is the two-point counting measure on {-1, +1} regardless of method.

All integrals use the *unnormalized* surface measure (total mass
``2 pi^(n/2) / Gamma(n/2)``).

Monte Carlo randomness is a fixed, documented counter-based stream
(Philox4x64-10, Salmon et al., SC'11, with numpy's ziggurat normals).  Rows
are drawn in fixed blocks of 65536 directions; block ``b`` holds the first
``m`` rows of

    np.random.Generator(np.random.Philox(key=(seed mod 2^64) + (b << 64)))
        .standard_normal((m, n))

each normalized by its left-to-right sum of squares.  Blocks are keyed by
their index, so the rows do not depend on any internal split, and the first
``k`` rows of ``sample_directions(n, K, seed)`` are
``sample_directions(n, k, seed)`` for every ``k < K``.  The stream is
reproducible bit for bit for one numpy version: ``Generator.standard_normal``
is not covered by numpy's stream-compatibility promise (NEP 19), so a numpy
release that changes it changes the documented stream.

Integrand contract: ``f`` maps an ``(m, n)`` array of unit rows to ``(m,)``
values, or to ``(m, k)`` for k integrals over the same directions; ``value``
and ``error_estimate`` are then floats or ``(k,)`` arrays, and ``covariance``
(of the Monte Carlo estimate, zero for n = 1, ``None`` for the deterministic
rules) a float or ``(k, k)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateQuadrature, NonFiniteIntegrand, ValidationError

_BLOCK = 65536

_METHODS = ("circle_trapezoid", "product_gauss", "monte_carlo")


@dataclass(frozen=True)
class QuadratureSpec:
    """Rule selector: method name, node/sample count, MC seed."""

    method: str
    nodes: int
    seed: int = 0

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValidationError(f"unknown quadrature method {self.method!r}")
        if not isinstance(self.nodes, int) or isinstance(self.nodes, bool) or self.nodes < 1:
            raise ValidationError(f"nodes must be a positive integer, got {self.nodes!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValidationError(f"seed must be an integer, got {self.seed!r}")


@dataclass(frozen=True)
class SphereIntegralResult:
    """Integral value and an error estimate (3 sigma for MC, last-refinement
    delta for the deterministic rules); ``covariance`` of the MC estimate."""

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    covariance: float | np.ndarray | None = None


def sphere_surface_measure(n: int) -> float:
    """Total measure of S^(n-1); n = 1 gives the two-point measure 2."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValidationError(f"dimension must be a positive integer, got {n!r}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


# ---------------------------------------------------------------------------
# counter-based Philox stream
# ---------------------------------------------------------------------------

def sample_directions(n: int, count: int, seed: int) -> np.ndarray:
    """``count`` unit rows of the documented stream (see the module docstring)."""
    key = seed & 0xFFFFFFFFFFFFFFFF
    out = np.empty((count, n), dtype=float)
    for done in range(0, count, _BLOCK):
        g = out[done:done + _BLOCK]
        rng = np.random.Generator(np.random.Philox(key=key + ((done // _BLOCK) << 64)))
        rng.standard_normal(out=g)
        ss = g[:, 0] * g[:, 0]  # a fixed left-to-right sum of squares
        for k in range(1, n):
            ss += g[:, k] * g[:, k]
        norms = np.sqrt(ss)
        if not np.all(norms > 0.0):  # pragma: no cover - probability ~0
            raise DegenerateQuadrature("zero-norm Gaussian direction")
        g /= norms[:, None]
    return out


# ---------------------------------------------------------------------------
# deterministic node sets
# ---------------------------------------------------------------------------

def sphere_quadrature_nodes(n: int, spec: QuadratureSpec):
    """Nodes and weights ``(U, w)`` for the deterministic rules.

    Raises for ``monte_carlo`` (which has no fixed node set).
    """
    if spec.method == "circle_trapezoid":
        if n != 2:
            raise ValidationError("circle_trapezoid is only defined for n = 2")
        m = spec.nodes
        theta = 2.0 * math.pi * np.arange(m) / m
        u = np.column_stack([np.cos(theta), np.sin(theta)])
        w = np.full(m, 2.0 * math.pi / m)
        return u, w
    if spec.method == "product_gauss":
        if not 3 <= n <= 5:
            raise ValidationError("product_gauss is only defined for 3 <= n <= 5")
        order = spec.nodes
        x, wx = np.polynomial.legendre.leggauss(order)
        theta = 0.5 * math.pi * (x + 1.0)
        wtheta = 0.5 * math.pi * wx
        m_az = 2 * order
        phi = 2.0 * math.pi * np.arange(m_az) / m_az
        wphi = np.full(m_az, 2.0 * math.pi / m_az)
        angles = [theta] * (n - 2) + [phi]
        weights = [wtheta] * (n - 2) + [wphi]
        grids = np.meshgrid(*angles, indexing="ij")
        wgrids = np.meshgrid(*weights, indexing="ij")
        w = np.ones_like(grids[0])
        for k in range(n - 2):
            w = w * wgrids[k] * np.sin(grids[k]) ** (n - 2 - k)
        w = w * wgrids[n - 2]
        u = np.empty(grids[0].shape + (n,))
        sin_prod = np.ones_like(grids[0])
        for k in range(n - 2):
            u[..., k] = sin_prod * np.cos(grids[k])
            sin_prod = sin_prod * np.sin(grids[k])
        u[..., n - 2] = sin_prod * np.cos(grids[n - 2])
        u[..., n - 1] = sin_prod * np.sin(grids[n - 2])
        return u.reshape(-1, n), w.reshape(-1)
    raise ValidationError("monte_carlo has no deterministic node set")


def _evaluate(f, u: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(u), dtype=float)
    m = u.shape[0]
    if vals.ndim not in (1, 2) or vals.shape[0] != m or 0 in vals.shape:
        raise ValidationError(
            f"integrand must map ({m}, {u.shape[1]}) to ({m},) or ({m}, k), "
            f"got shape {vals.shape}"
        )
    if not np.all(np.isfinite(vals)):
        raise NonFiniteIntegrand("integrand returned a non-finite value")
    return vals


def _monte_carlo(cols: np.ndarray, n: int):
    """Surface measure times the column means, and the covariance of that
    estimate.  Per block of ``_BLOCK`` rows it takes the column sums, then the
    Gram matrix of the deviations from the mean; each is reduced with ``fsum``
    in block order."""
    m, k = cols.shape
    blocks = [cols[i:i + _BLOCK] for i in range(0, m, _BLOCK)]
    mean = np.array([math.fsum(np.sum(b[:, j]) for b in blocks) for j in range(k)]) / m
    surface = sphere_surface_measure(n)
    if m == 1:
        return surface * mean, np.full((k, k), math.inf)
    grams = np.array([d.T @ d for d in (b - mean for b in blocks)])
    m2 = np.array([[math.fsum(grams[:, r, c]) for c in range(k)] for r in range(k)])
    return surface * mean, (surface * surface) * (m2 / (m - 1)) / m


def _deterministic_value(f, n: int, spec: QuadratureSpec) -> np.ndarray:
    u, w = sphere_quadrature_nodes(n, spec)
    return w @ _evaluate(f, u)


def sphere_integrate(f, n: int, spec: QuadratureSpec) -> SphereIntegralResult:
    """Approximate ``integral over S^(n-1) of f(u) du`` (unnormalized measure)
    for ``(m,)`` or ``(m, k)`` integrands (see the module docstring).

    Deterministic given the spec (including the seed for Monte Carlo).
    """
    if not isinstance(spec, QuadratureSpec):
        raise ValidationError("spec must be a QuadratureSpec")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValidationError(f"dimension must be a positive integer, got {n!r}")
    if n > 1 and spec.method != "monte_carlo":
        value = _deterministic_value(f, n, spec)
        half = QuadratureSpec(spec.method, max(2, spec.nodes // 2), spec.seed)
        error = np.abs(value - _deterministic_value(f, n, half))
        if value.ndim == 0:
            return SphereIntegralResult(float(value), float(error))
        return SphereIntegralResult(value, error)

    u = np.array([[1.0], [-1.0]]) if n == 1 else sample_directions(n, spec.nodes, spec.seed)
    vals = _evaluate(f, u)
    cols = vals.reshape(len(u), -1)
    if n == 1:
        value, cov = cols.sum(axis=0), np.zeros((cols.shape[1],) * 2)
    else:
        value, cov = _monte_carlo(cols, n)
    error = 3.0 * np.sqrt(np.diagonal(cov))
    if vals.ndim == 1:
        return SphereIntegralResult(float(value[0]), float(error[0]), float(cov[0, 0]))
    return SphereIntegralResult(value, error, cov)
