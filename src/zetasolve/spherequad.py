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
``sample_directions(n, k, seed)`` for every ``k < K``;
``sample_directions(n, k, seed, block=b)`` is rows ``b * 65536`` to
``b * 65536 + k`` of the same stream.  The stream is reproducible bit for bit
for one numpy version: ``Generator.standard_normal`` is not covered by
numpy's stream-compatibility promise (NEP 19), so a numpy release that
changes it changes the documented stream.

Integrand contract: ``f`` maps an ``(m, n)`` array of unit rows to ``(m,)``
values, or to ``(m, k)`` for k integrals over the same directions; ``value``
and ``error_estimate`` are then floats or ``(k,)`` arrays, and ``covariance``
(of the Monte Carlo estimate, zero for n = 1, ``None`` for the deterministic
rules) a float or ``(k, k)``.

Every rule is evaluated and reduced block by block, so memory does not grow
with the rule: ``f`` sees at most 65536 directions per call, or one outermost
polar node of product-Gauss (:func:`sphere_quadrature_blocks`).  A Monte Carlo
block keeps its column sums and the Gram matrix of its deviations from its
own mean, merged into the centred covariance by Chan, Golub and LeVeque
(Am. Stat. 37, 1983); a deterministic chunk keeps its weighted sums.  Each
merge is an ``fsum`` entry by entry in block order.

Monte Carlo blocks are shared by the calling thread and at most one helper
thread, started per call and joined before it returns.  Each thread takes the
next block index in turn, and each block's sums are stored under its index, so
the merge and every result are bitwise the same for any thread count.  ``f``
may therefore be called from two threads at once, on disjoint blocks, and in
any block order.  The helper count is
``min(1, usable CPUs // BLAS threads - 1, blocks - 1)``: BLAS threads come
from ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS``, and
unset means every CPU, so the helper only uses a CPU that BLAS leaves idle.
On a host where BLAS takes every CPU, Monte Carlo runs on the caller alone;
``OPENBLAS_NUM_THREADS=1`` lets it use a spare CPU.  The deterministic rules
run on the caller.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
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
        _check_int("nodes", self.nodes, 1)
        _check_int("seed", self.seed)


@dataclass(frozen=True)
class SphereIntegralResult:
    """Integral value and an error estimate (3 sigma for MC, last-refinement
    delta for the deterministic rules); ``covariance`` of the MC estimate."""

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    covariance: float | np.ndarray | None = None


def _check_int(name: str, value, least: int | None = None) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or (
            least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValidationError(f"{name} must be an integer{bound}, got {value!r}")


def sphere_surface_measure(n: int) -> float:
    """Total measure of S^(n-1); n = 1 gives the two-point measure 2."""
    _check_int("dimension", n, 1)
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _entrywise_fsum(parts) -> np.ndarray:
    """``fsum`` of equal-shape arrays, entry by entry, in the order given."""
    stacked = np.asarray(parts, dtype=float)
    flat = stacked.reshape(len(stacked), -1).T
    return np.array([math.fsum(col) for col in flat]).reshape(stacked.shape[1:])


# ---------------------------------------------------------------------------
# counter-based Philox stream
# ---------------------------------------------------------------------------

def sample_directions(n: int, count: int, seed: int, *, block: int = 0) -> np.ndarray:
    """``count`` unit rows of the documented stream (see the module docstring),
    starting at row ``block * 65536``."""
    _check_int("dimension", n, 1)
    _check_int("count", count, 0)
    _check_int("seed", seed)
    _check_int("block", block, 0)
    if block + -(-count // _BLOCK) > 2 ** 64:
        raise ValidationError("the stream has 2^64 blocks")
    key = seed & 0xFFFFFFFFFFFFFFFF
    out = np.empty((count, n), dtype=float)
    for done in range(0, count, _BLOCK):
        g = out[done:done + _BLOCK]
        b = block + done // _BLOCK
        rng = np.random.Generator(np.random.Philox(key=key + (b << 64)))
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

def sphere_quadrature_blocks(n: int, spec: QuadratureSpec):
    """Nodes and weights ``(U, w)`` of a deterministic rule (not ``monte_carlo``)
    in chunks of at most ``max(65536, rows of one outermost polar node)`` rows."""
    _check_int("dimension", n, 1)
    if not isinstance(spec, QuadratureSpec):
        raise ValidationError("spec must be a QuadratureSpec")
    if spec.method == "circle_trapezoid":
        if n != 2:
            raise ValidationError("circle_trapezoid is only defined for n = 2")
        m = spec.nodes
        for start in range(0, m, _BLOCK):
            theta = 2.0 * math.pi * np.arange(start, min(m, start + _BLOCK)) / m
            u = np.column_stack([np.cos(theta), np.sin(theta)])
            yield u, np.full(len(theta), 2.0 * math.pi / m)
        return
    if spec.method != "product_gauss":
        raise ValidationError("monte_carlo has no deterministic node set")
    if not 3 <= n <= 5:
        raise ValidationError("product_gauss is only defined for 3 <= n <= 5")
    order = spec.nodes
    x, wx = np.polynomial.legendre.leggauss(order)
    theta = 0.5 * math.pi * (x + 1.0)
    wtheta = 0.5 * math.pi * wx
    m_az = 2 * order
    phi = 2.0 * math.pi * np.arange(m_az) / m_az
    wphi = np.full(m_az, 2.0 * math.pi / m_az)
    step = max(1, _BLOCK // (order ** (n - 3) * m_az))  # outermost polar nodes per chunk
    for lo in range(0, order, step):
        angles = [theta[lo:lo + step]] + [theta] * (n - 3) + [phi]
        weights = [wtheta[lo:lo + step]] + [wtheta] * (n - 3) + [wphi]
        grids = np.meshgrid(*angles, indexing="ij", sparse=True)
        wgrids = np.meshgrid(*weights, indexing="ij", sparse=True)
        w = 1.0
        for k in range(n - 2):
            w = w * wgrids[k] * np.sin(grids[k]) ** (n - 2 - k)
        w = w * wgrids[n - 2]
        u = np.empty(w.shape + (n,))
        sin_prod = 1.0
        for k in range(n - 2):
            u[..., k] = sin_prod * np.cos(grids[k])
            sin_prod = sin_prod * np.sin(grids[k])
        u[..., n - 2] = sin_prod * np.cos(grids[n - 2])
        u[..., n - 1] = sin_prod * np.sin(grids[n - 2])
        yield u.reshape(-1, n), w.reshape(-1)


# ---------------------------------------------------------------------------
# Monte Carlo blocks on the caller and helper threads
# ---------------------------------------------------------------------------

_HELPERS = None  # helper threads per Monte Carlo call; None applies _helper_count's rule


def _helper_count(blocks: int) -> int:
    """min(1, usable CPUs // BLAS threads - 1, blocks - 1), at least 0: the
    helper only uses a CPU that BLAS leaves idle (unset BLAS variables mean
    every CPU).  One helper is the most measured so far, on 2 CPUs."""
    if _HELPERS is not None:
        return max(0, min(_HELPERS, blocks - 1))
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - not Linux
        cpus = os.cpu_count() or 1
    blas = cpus
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            blas = int(value)
            break
    return max(0, min(1, cpus // blas - 1, blocks - 1))


def _map_blocks(task, count: int, helpers: int) -> list:
    """``[task(b)[1] for b in range(count)]``, the blocks shared by the caller
    and ``helpers`` threads, each taking the next index in turn.

    ``task(b)`` returns ``(keep, result)``.  Each thread holds its last
    ``keep`` while it runs its next task, as a serial loop holds its loop
    variable, so malloc reuses those pages: freeing a whole Monte Carlo block
    at once handed them back to the OS, and the next block faulted them in
    again (23000-38000 minor faults per serial n = 8 solve at 10^6 samples,
    against about 2000).

    Helpers run in copies of the caller's ``contextvars`` context (numpy's
    ``errstate`` lives there) and are joined before returning.  On failure the
    exception of the lowest failed block is raised, as the serial loop would.
    """
    results, failed, lock = [None] * count, {}, threading.Lock()
    pending = iter(range(count))

    def work():
        keep = None
        while True:
            with lock:
                b = None if failed else next(pending, None)
            if b is None:
                return
            try:
                keep, results[b] = task(b)
            except BaseException as exc:  # re-raised in the caller
                with lock:
                    failed[b] = exc

    threads = []
    try:
        for _ in range(helpers):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(work,))
            thread.start()
            threads.append(thread)
    except RuntimeError:  # no thread to be had: the caller carries on alone
        pass
    try:
        work()
    finally:
        with lock:
            for _ in pending:  # hand out no more blocks
                pass
        for thread in threads:
            thread.join()
    if failed:
        raise failed[min(failed)]
    return results


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


def _deterministic_value(f, n: int, spec: QuadratureSpec) -> np.ndarray:
    return _entrywise_fsum([w @ _evaluate(f, u) for u, w in sphere_quadrature_blocks(n, spec)])


def sphere_integrate(f, n: int, spec: QuadratureSpec) -> SphereIntegralResult:
    """Approximate ``integral over S^(n-1) of f(u) du`` (unnormalized measure)
    for ``(m,)`` or ``(m, k)`` integrands (see the module docstring).

    Deterministic given the spec (including the seed for Monte Carlo), and the
    same with or without the helper thread.  ``f`` must be safe to call from
    two threads at once on disjoint blocks, in any block order.
    """
    if not isinstance(spec, QuadratureSpec):
        raise ValidationError("spec must be a QuadratureSpec")
    _check_int("dimension", n, 1)
    if n > 1 and spec.method != "monte_carlo":
        value = _deterministic_value(f, n, spec)
        half = QuadratureSpec(spec.method, max(2, spec.nodes // 2), spec.seed)
        error = np.abs(value - _deterministic_value(f, n, half))
        if value.ndim == 0:
            return SphereIntegralResult(float(value), float(error))
        return SphereIntegralResult(value, error)

    if n == 1:
        vals = _evaluate(f, np.array([[1.0], [-1.0]]))
        ndim, cols = vals.ndim, vals.reshape(2, -1)
        value, cov = cols.sum(axis=0), np.zeros((cols.shape[1],) * 2)
    else:
        m = spec.nodes
        count = -(-m // _BLOCK)

        def block(b):  # vals, (ndim, m_b, column sums, Gram of deviations from the block mean)
            u = sample_directions(n, min(_BLOCK, m - b * _BLOCK), spec.seed, block=b)
            vals, m_b = _evaluate(f, u), len(u)
            del u  # not needed past f: the block's peak stays at f
            cols = vals.reshape(m_b, -1)
            sums = np.array([np.sum(cols[:, j]) for j in range(cols.shape[1])])
            d = cols - sums / m_b
            return vals, (vals.ndim, m_b, sums, d.T @ d)

        blocks = _map_blocks(block, count, _helper_count(count))
        ndim = blocks[-1][0]
        # M2 = sum_b G_b + m_b d_b d_b^T, d_b = block mean - mean (Chan et al.)
        mean = _entrywise_fsum([s for _, _, s, _ in blocks]) / m
        surface = sphere_surface_measure(n)
        value, cov = surface * mean, np.full((len(mean),) * 2, math.inf)
        if m > 1:
            m2 = _entrywise_fsum([t for _, mb, s, gram in blocks for t in (
                gram, mb * np.outer(s / mb - mean, s / mb - mean))])
            cov = (surface * surface) * (m2 / (m - 1)) / m
    error = 3.0 * np.sqrt(np.diagonal(cov))
    if ndim == 1:
        return SphereIntegralResult(float(value[0]), float(error[0]), float(cov[0, 0]))
    return SphereIntegralResult(value, error, cov)
