"""Lattice point enumeration and theta series of Gaussian type.

For an SPD form ``Q`` and scale ``t > 0`` the (zero-omitted) theta series is

    theta*(Q, t)        = sum_{w in Z^n, w != 0} exp(-pi t q_Q(w))
    theta*(Q, B, t)     = sum' t q_B(w) exp(-pi t q_Q(w))

i.e. the quadratic scaling ``f(t^(1/2) w)`` of the Gaussian family
``exp(-pi q_Q)`` and its polynomially weighted variant ``q_B exp(-pi q_Q)``.
(The analogous series with a general scaling power ``d`` reduces to this one
by the substitution ``xi_d(f, s) = d xi_1(f, d s)``; only the quadratic case
is implemented.)

Truncation radii come from rigorous Gaussian tail bounds: with
``lam = min eig(Q)``,

    sum_{q(w) > R} e^(-pi t q(w)) <= e^(-pi t R / 2) (1 + sqrt(2/(t lam)))^n

by peeling half the exponent and bounding the full sum by a product of
one-dimensional integral comparisons; the weighted variant peels 3/4 of the
exponent and carries the factor ``(|B|/lam) max(tR, 1)``.

Sums are accumulated with exact (compensated) summation in ascending-``q``
order, so results are reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGrid, TooManyPoints, ValidationError
from .quadforms import SPDForm, as_symmetric, cholesky, qeval_many
from .tolerances import POINT_CAP


def _unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@dataclass(frozen=True)
class EllipsoidPoints:
    """All nonzero integer points with ``q_form(w) <= radius``.

    ``points`` has shape ``(m, n)`` (int64) sorted by ascending ``q``, ties
    broken lexicographically; ``qvals`` holds the matching form values.
    The set is closed under ``w -> -w``.
    """

    form: SPDForm
    radius: float
    points: np.ndarray
    qvals: np.ndarray

    def __len__(self) -> int:
        return self.points.shape[0]


def enumerate_ellipsoid(Q, R: float, cap: int = POINT_CAP) -> EllipsoidPoints:
    """Complete nonzero lattice points of the ellipsoid ``q_Q(w) <= R``.

    Cholesky-based branch-and-bound; raises :class:`TooManyPoints` when the
    number of points would exceed ``cap``.  The form keeps one enumeration,
    at the largest radius asked for so far; a smaller radius is read off as
    its prefix, since ascending ``q`` order lists every smaller ellipsoid
    first.
    """
    Qf = cholesky(Q)
    R = float(R)
    if not (R > 0.0) or not math.isfinite(R):
        raise ValidationError(f"radius must be positive and finite, got {R}")
    n = Qf.n

    est = _unit_ball_volume(n) * R ** (n / 2.0) / Qf.sqrt_det
    if est > 2.0 * cap:
        raise TooManyPoints(f"~{est:.3g} points expected, cap is {cap}")

    held = Qf._enumeration
    if held is not None and R <= held.radius:
        if R == held.radius:
            return held
        k = int(np.searchsorted(held.qvals, R, "right"))
        return EllipsoidPoints(form=Qf, radius=R, points=held.points[:k],
                               qvals=held.qvals[:k])

    U = Qf.chol.T  # upper triangular, positive diagonal
    slack = R * (1.0 + 1e-9) + 1e-9
    coords = np.zeros(n, dtype=np.int64)
    chunks: list[np.ndarray] = []
    count = 0

    def descend(i: int, rem: float) -> None:
        nonlocal count
        ci = float(U[i, i + 1:] @ coords[i + 1:]) / U[i, i] if i + 1 < n else 0.0
        half = math.sqrt(max(rem, 0.0)) / U[i, i]
        lo = math.ceil(-half - ci)
        hi = math.floor(half - ci)
        if lo > hi:
            return
        if i == 0:
            w = np.arange(lo, hi + 1, dtype=np.int64)
            rows = np.empty((w.size, n), dtype=np.int64)
            rows[:, 0] = w
            rows[:, 1:] = coords[1:]
            count += w.size
            if count > cap:
                raise TooManyPoints(f"more than {cap} lattice points requested")
            chunks.append(rows)
            return
        for wi in range(lo, hi + 1):
            coords[i] = wi
            used = (U[i, i] * (wi + ci)) ** 2
            descend(i - 1, rem - used)
        coords[i] = 0

    descend(n - 1, slack)

    pts = np.concatenate(chunks, axis=0) if chunks else np.empty((0, n), np.int64)
    nonzero = np.any(pts != 0, axis=1)
    pts = pts[nonzero]
    q = qeval_many(Qf, pts)
    keep = q <= R
    pts, q = pts[keep], q[keep]
    order = np.lexsort(tuple(pts[:, j] for j in range(n - 1, -1, -1)) + (q,))
    pts, q = pts[order], q[order]
    pts.setflags(write=False)
    q.setflags(write=False)
    Qf._enumeration = EllipsoidPoints(form=Qf, radius=R, points=pts, qvals=q)
    return Qf._enumeration


def _tail_radius_gaussian(Qf: SPDForm, t: float, tol: float, b_norm: float = 0.0) -> float:
    """Radius R making the Gaussian tail bound smaller than tol/10."""
    lam = Qf.min_eigenvalue
    n = Qf.n
    target = math.log(tol / 10.0)
    if b_norm == 0.0:
        log_cover = n * math.log1p(math.sqrt(2.0 / (t * lam)))
        R = max(1.0, 2.0 / (math.pi * t))
        while -0.5 * math.pi * t * R + log_cover >= target:
            R *= 2.0
    else:
        log_cover = n * math.log1p(2.0 / math.sqrt(t * lam))
        R = max(1.0, 4.0 / (3.0 * math.pi * t))
        while (math.log(b_norm / lam) + math.log(max(t * R, 1.0))
               - 0.75 * math.pi * t * R + log_cover) >= target:
            R *= 2.0
    return R


def _fsum(values: np.ndarray) -> float:
    return math.fsum(values.tolist())


def theta_star_gaussian(Q, t: float, tol: float) -> float:
    """theta*(Q, t) = sum' exp(-pi t q_Q(w)) with absolute error < tol."""
    Qf = cholesky(Q)
    t, tol = float(t), float(tol)
    if not (t > 0.0):
        raise ValidationError(f"t must be positive, got {t}")
    if not (tol > 0.0):
        raise ValidationError(f"tol must be positive, got {tol}")
    R = _tail_radius_gaussian(Qf, t, tol)
    ep = enumerate_ellipsoid(Qf, R)
    return _fsum(np.exp(-math.pi * t * ep.qvals))


def theta_star_weighted(Q, B, t: float, tol: float) -> float:
    """theta*(Q, B, t) = sum' t q_B(w) exp(-pi t q_Q(w)) within tol."""
    Qf = cholesky(Q)
    Bm = as_symmetric(B, Qf.n)
    t, tol = float(t), float(tol)
    if not (t > 0.0):
        raise ValidationError(f"t must be positive, got {t}")
    if not (tol > 0.0):
        raise ValidationError(f"tol must be positive, got {tol}")
    b_norm = float(np.linalg.norm(Bm, 2))
    if b_norm == 0.0:
        return 0.0
    R = _tail_radius_gaussian(Qf, t, tol, b_norm=b_norm)
    ep = enumerate_ellipsoid(Qf, R)
    weights = qeval_many(Bm, ep.points)
    return _fsum(t * weights * np.exp(-math.pi * t * ep.qvals))


def theta_transform_residual(Q, t: float) -> float:
    """Defect of the theta transformation law at scale ``t``.

    Returns |theta(Q, t) - t^(-n/2) (det Q)^(-1/2) theta(Q^-1, 1/t)| with
    theta = theta* + 1; analytically zero, so the result measures the
    truncation and rounding of both evaluations (contract: below
    1e-12 * max(1, theta)).
    """
    Qf = cholesky(Q)
    t = float(t)
    if not (0.01 <= t <= 100.0):
        raise ValidationError(f"t must lie in [0.01, 100], got {t}")
    n = Qf.n
    factor = t ** (-n / 2.0) / Qf.sqrt_det
    scale = 1.0 + factor
    lhs = theta_star_gaussian(Qf, t, tol=1e-14 * scale) + 1.0
    dual_tol = 1e-14 * scale / max(factor, 1e-300)
    rhs = factor * (theta_star_gaussian(Qf.inverse_form(), 1.0 / t, tol=dual_tol) + 1.0)
    return abs(lhs - rhs)


def theta_asymptotic_fit(Q, t_grid) -> tuple[float, float]:
    """Least-squares fit of the small-t blow-up of the theta series.

    theta*(Q, t) behaves like R t^(-alpha) - 1 as t -> 0+ with alpha = n/2
    and R = (det Q)^(-1/2); fitting log(theta* + 1) against log t pins the
    known O(1) term at its exact value, so the fit recovers (alpha, R) to
    far better than the grid would allow with the constant left free.

    Returns ``(alpha_hat, R_hat)``.
    """
    Qf = cholesky(Q)
    ts = [float(t) for t in t_grid]
    if any(not (0.0 < t <= 0.2) for t in ts):
        raise ValidationError("t_grid must lie in (0, 0.2]")
    if any(b >= a for a, b in zip(ts, ts[1:])):
        raise ValidationError("t_grid must be strictly decreasing")
    n = Qf.n
    xs, ys = [], []
    for t in ts:
        scale = 1.0 + t ** (-n / 2.0) / Qf.sqrt_det
        theta = theta_star_gaussian(Qf, t, tol=1e-13 * scale) + 1.0
        if theta <= 0.0:
            continue
        xs.append(math.log(t))
        ys.append(math.log(theta))
    if len(xs) < 4:
        raise DegenerateGrid(f"only {len(xs)} usable grid points, need >= 4")
    slope, intercept = np.polyfit(np.asarray(xs), np.asarray(ys), 1)
    return float(-slope), float(math.exp(intercept))
