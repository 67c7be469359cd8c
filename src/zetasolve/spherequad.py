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

Monte Carlo randomness is a fixed, documented 64-bit counter sequence so
results are reproducible bit for bit across runs and implementations:

    u64(i)     = mix(seed + (i + 1) * 0x9E3779B97F4A7C15)   (mod 2^64)
    mix(z)     : z ^= z >> 30; z *= 0xBF58476D1CE4E5B9;
                 z ^= z >> 27; z *= 0x94D049BB133111EB; z ^= z >> 31
    uniform(i) = (u64(i) + 0.5) * 2^-64                      in (0, 1)

Direction k consumes the ``2 * ceil(n/2)`` uniforms starting at index
``k * 2 * ceil(n/2)`` through the Box-Muller transform (pairs
``(sqrt(-2 ln u1) cos(2 pi u2), sqrt(-2 ln u1) sin(2 pi u2))``), keeping the
first n Gaussians.  Sampling is organized in fixed blocks of 65536
directions whose partial sums are reduced in block order, so the result is
independent of any internal parallel split.

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

from .errors import NonFiniteIntegrand, ValidationError

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_GAMMA64 = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
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
# counter-based splitmix64 stream
# ---------------------------------------------------------------------------

def _mix64_array(state: np.ndarray) -> np.ndarray:
    z = state.astype(np.uint64)
    z ^= z >> np.uint64(30)
    z = (z * np.uint64(_MIX1)) & _MASK64
    z ^= z >> np.uint64(27)
    z = (z * np.uint64(_MIX2)) & _MASK64
    z ^= z >> np.uint64(31)
    return z


def _uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """uniform(start) ... uniform(start+count-1) as float64 in (0, 1)."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    states = (np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * np.uint64(_GAMMA64)) & _MASK64
    return (_mix64_array(states).astype(np.float64) + 0.5) * 2.0 ** -64


class SplitMix64:
    """Scalar view of the documented counter stream (one uniform per call)."""

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.counter = 0

    def next_uniform(self) -> float:
        u = _uniforms(self.seed, self.counter, 1)[0]
        self.counter += 1
        return float(u)


def _gaussians_from_uniforms(u: np.ndarray) -> np.ndarray:
    """Box-Muller on consecutive pairs; u has even length along axis -1."""
    u1 = u[..., 0::2]
    u2 = u[..., 1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    out = np.empty_like(u)
    out[..., 0::2] = r * np.cos(2.0 * math.pi * u2)
    out[..., 1::2] = r * np.sin(2.0 * math.pi * u2)
    return out


def _normalize_rows(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row normalization with a fixed left-to-right sum of squares, so the
    scalar and the blocked samplers produce bit-identical results."""
    ss = g[:, 0] * g[:, 0]
    for k in range(1, g.shape[1]):
        ss = ss + g[:, k] * g[:, k]
    norms = np.sqrt(ss)
    return g / norms[:, None], norms


def gaussian_direction(state: SplitMix64, n: int) -> np.ndarray:
    """One uniformly distributed unit vector on S^(n-1) from the stream."""
    if n < 1:
        raise ValidationError("dimension must be >= 1")
    stride = 2 * ((n + 1) // 2)
    while True:
        u = _uniforms(state.seed, state.counter, stride)
        state.counter += stride
        g = _gaussians_from_uniforms(u)[:n]
        unit, norms = _normalize_rows(g.reshape(1, n))
        if norms[0] > 0.0 and math.isfinite(norms[0]):
            return unit[0]


def sample_directions(n: int, count: int, seed: int) -> np.ndarray:
    """``count`` unit rows, identical to ``count`` calls of
    :func:`gaussian_direction` on a fresh ``SplitMix64(seed)``."""
    stride = 2 * ((n + 1) // 2)
    out = np.empty((count, n), dtype=float)
    done = 0
    while done < count:
        m = min(_BLOCK, count - done)
        u = _uniforms(seed, done * stride, m * stride).reshape(m, stride)
        g = _gaussians_from_uniforms(u)[:, :n]
        unit, norms = _normalize_rows(g)
        bad = ~(np.isfinite(norms) & (norms > 0.0))
        if np.any(bad):  # pragma: no cover - probability ~0 resample path
            rng = SplitMix64(seed)
            for i in np.flatnonzero(bad):
                rng.counter = (done + int(i)) * stride
                unit[i] = gaussian_direction(rng, n)
        out[done:done + m] = unit
        done += m
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
