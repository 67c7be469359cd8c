"""Epstein, weighted, lattice, and vector zeta functions.

Direct route (inside the convergence half-plane): truncated Dirichlet sums

    zeta(Q, s)    = sum_{w != 0} q_Q(w)^(-s),          Re s > n/2,
    zeta(Q, B, s) = sum_{w != 0} q_B(w) q_Q(w)^(-s),   Re s > n/2 + 1,

with rigorous integral-comparison tail bounds.

Continued route (everywhere except the single pole): every family goes
through one Mellin split of its theta series at t = 1.  Each side is a
lattice sum ``S = sum' weight(w) (pi q)^-a Gamma(a, pi q)`` over one form,
and the t < 1 part of the transformed theta series leaves one pole term:

    zeta = pi^s / Gamma(s) * [sum_sides coef S + coef_last / (s - pole)].

Epstein: sides (Q, a = s, 1, coef 1) and (Q^-1, n/2 - s, 1, det(Q)^(-1/2)),
pole n/2.  Its theta series has the w = 0 term; its -1/s is folded in as
-pi^s / Gamma(s+1), so the value is regular at s = 0 (exactly -1) and at
the negative integers (trivial zeros).  Weighted (no w = 0 term): sides
(Q, s, q_B, 1), (Q^-1, n/2 + 2 - s, q_C, -det(Q)^(-1/2)) with
C = Q^-1 B Q^-1, and (Q^-1, n/2 + 1 - s, 1, Tr(Q^-1 B) det(Q)^(-1/2) / 2pi),
pole n/2 + 1.  The lattice and vector families reduce to these two.

The split is balanced by homogeneity: with c = det(Q)^(1/n),

    zeta(Q, s) = c^-s zeta(Q/c, s),   zeta(Q, B, s) = c^-s zeta(Q/c, B, s),

and Q/c has determinant 1, so its ellipsoids and those of its inverse hold
about as many points at equal radius.  This is the same as splitting the
Mellin integral of theta*(Q, t) at t = 1/c instead of t = 1 (Ewald's choice
of splitting parameter).  The det-1 form is cached on the ``SPDForm``, so every
evaluation on one form shares it and its enumerations.

The continued evaluators take a scalar ``s`` or a 1-D array of points, and
return values of the same shape (a scalar is a batch of one).  A batch
enumerates each side of the split once, at the largest radius any point
needs; every point gets its own tail bound at that radius and its own
compensated sum, so a result does not depend on the rest of its batch
beyond the extra (bounded) terms summed.  The incomplete gammas of a batch
are one :func:`~zetasolve.specfun.upper_incomplete_gamma_many` call per
side and window of ``_KERNEL_PAIRS`` (point, shell) pairs, so memory does
not grow with the batch.  Values that overflow the double range raise
:class:`~zetasolve.errors.EvaluationFailure`.  The ``funceq_residual_*`` take
points the same way, with one evaluator call per zeta term for the batch.

The vector-valued zeta of an invertible matrix A and vector b,

    zeta(A, b, s) = sum' |A w|^(-2s) <b, w> A w,

is evaluated componentwise through the identity
``<zeta(A, b, s), e_j> = zeta(A^T A, sym_outer(b, A^T e_j), s)``.

Lattice variants reduce through the congruence transform of the generator.
Truncation of the split sums follows the term-magnitude rule in
:mod:`zetasolve.tolerances`.  Matrices become forms through
:func:`~zetasolve.quadforms.cholesky`, so repeated evaluations on one matrix
share its form, and each form keeps one enumeration from which every
smaller radius is read as a prefix.  Radii are rounded up to integers.  A
sum runs over exactly the points with q <= R, whether they come from a fresh
enumeration or a prefix, so the rounding fixes which points are summed and
with them the last bits of every value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EvaluationFailure,
    OutsideConvergence,
    TooCloseToPole,
    ZetaSolveError,
)
from .quadforms import (
    Lattice,
    SPDForm,
    as_square,
    as_symmetric,
    as_vector,
    checked_det,
    cholesky,
    dual_lattice,
    gram_transform,
    qeval_many,
    sym_outer,
    trace_product,
)
from .specfun import gamma_complex, reciprocal_gamma, upper_incomplete_gamma_many
from .theta import enumerate_ellipsoid
from .tolerances import (
    POLE_EXCLUSION,
    RESIDUE_NODES,
    RESIDUE_RHO,
    SPLIT_TAIL_TARGET,
)

_LOG_PI = math.log(math.pi)
_DIRECT_CAP = 40_000_000
# (point, shell) pairs per incomplete-gamma call; its work arrays take about
# 250 bytes a pair, so a window peaks near 65 MB
_KERNEL_PAIRS = 2 ** 18


@dataclass(frozen=True)
class ZetaValue:
    """A zeta evaluation together with a rigorous truncation bound.

    For an array of points both fields are arrays of the same shape.
    """

    value: complex | np.ndarray
    abs_error: float | np.ndarray


@dataclass(frozen=True)
class PoleReport:
    """A simple pole: location, residue (scalar or vector), provenance."""

    location: float
    residue: complex | np.ndarray
    source: str


@dataclass(frozen=True)
class FuncEqResidual:
    """Two sides of a functional equation and ``|lhs - rhs|``.

    For an array of points every field is an array of the same shape; a
    single number gives ``complex`` sides and a ``float`` residual.
    """

    s: complex | np.ndarray
    lhs: complex | np.ndarray
    rhs: complex | np.ndarray
    residual: float | np.ndarray


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _as_lattice(L) -> Lattice:
    return L if isinstance(L, Lattice) else Lattice(L)


def _csum(values: np.ndarray) -> complex:
    return complex(math.fsum(values.real.tolist()), math.fsum(values.imag.tolist()))


def _each(fn, s: np.ndarray) -> np.ndarray:
    """``fn`` of every point of ``s``, as a complex array."""
    return np.array([fn(z) for z in s.tolist()], dtype=complex)


def _pi_pow(s: complex) -> complex:
    try:
        return cmath.exp(s * _LOG_PI)
    except OverflowError:
        raise EvaluationFailure(f"pi^s overflows the double range at s={s}") from None


def _split_tail_bound(form: SPDForm, sigma: float, R: float, coef: float) -> float:
    """Upper bound on the dropped part of a split-Mellin sum beyond radius R.

    Terms are bounded by ``coef-weight * (pi q)^-sigma Gamma(sigma, pi q)``;
    with |Gamma(sigma, x)| <= C x^(sigma-1) e^-x this telescopes to
    ``C * e^(-pi R / 2) * cover / (pi R)`` for unit weights and to
    ``C * coef / pi * e^(-pi R / 2) * cover`` for weights below ``coef * q``.
    """
    x = math.pi * R
    corr = 1.0 / (1.0 - (sigma - 1.0) / x) if sigma > 1.0 else 1.0
    log_cover = form.n * math.log1p(math.sqrt(2.0 / form.min_eigenvalue))
    if coef == 0.0:
        log_base = -math.log(x)
    else:
        log_base = math.log(coef / math.pi)
    log_b = math.log(corr) + log_base - 0.5 * x + log_cover
    return math.exp(log_b) if log_b < 700.0 else math.inf


def _split_radius(form: SPDForm, sigma: float, coef: float) -> float:
    """Integer radius making the split-sum tail bound < SPLIT_TAIL_TARGET."""
    R = max(2.0, 2.0 * (sigma - 1.0) / math.pi + 1.0)
    while _split_tail_bound(form, sigma, R, coef) >= SPLIT_TAIL_TARGET:
        R *= 2.0
    return float(math.ceil(R))


def _gamma_terms(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Values of ``x^-a Gamma(a, x)`` per point of ``a`` (rows) and ``x``."""
    gam = upper_incomplete_gamma_many(a, x)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(-a[:, None] * np.log(x)) * gam


def _half_sum(form: SPDForm, a: np.ndarray, weights: list[np.ndarray] | None = None):
    """One side of a split-Mellin sum at every point of ``a``.

    Returns ``(sums, tails)``: ``sums`` has shape ``(m,)`` without weights
    and ``(m, k)`` for ``k`` weight matrices, not all zero; ``tails`` has
    shape ``(m,)``.
    """
    coef = 0.0
    if weights is not None:
        coef = max(float(np.linalg.norm(W, 2)) for W in weights) / form.min_eigenvalue
    sigmas = a.real.tolist()
    R = max(_split_radius(form, sigma, coef) for sigma in sigmas)
    ep = enumerate_ellipsoid(form, R)
    tails = np.array([_split_tail_bound(form, sigma, R, coef) for sigma in sigmas])
    sums = np.zeros((a.size, 1 if weights is None else len(weights)), dtype=complex)
    if len(ep) > 0:
        uq, inv_idx = np.unique(ep.qvals, return_inverse=True)
        if weights is None:
            mult = [np.bincount(inv_idx, minlength=uq.size).astype(float)]
        else:
            mult = [np.bincount(inv_idx, weights=qeval_many(W, ep.points),
                                minlength=uq.size) for W in weights]
        window = max(1, _KERNEL_PAIRS // uq.size)
        for lo in range(0, a.size, window):
            for i, row in enumerate(_gamma_terms(math.pi * uq, a[lo:lo + window]), lo):
                for j, w in enumerate(mult):
                    sums[i, j] = _csum(w * row)
    return (sums[:, 0] if weights is None else sums), tails


def _points(s) -> tuple[np.ndarray, bool]:
    """``s`` as a 1-D complex array, and whether it was a single number."""
    arr = np.asarray(s, dtype=complex)
    if arr.ndim > 1 or arr.size == 0:
        raise DimensionMismatch(f"s must be a number or a 1-D array, got shape {arr.shape}")
    return arr.reshape(-1), arr.ndim == 0


def _exclude_pole(s: np.ndarray, pole: float, name: str) -> None:
    near = np.abs(s - pole) <= POLE_EXCLUSION
    if near.any():
        raise TooCloseToPole(
            f"s={complex(s[near][0])} is within {POLE_EXCLUSION} of the pole {name}")


def _rescaled(Qf: SPDForm, s: np.ndarray, value: np.ndarray, err: np.ndarray):
    """Undo the det-1 rescaling: multiply by ``c^-s``, c = det(Q)^(1/n).

    The error bar scales with it and gains the rounding of ``c^-s`` itself,
    whose exponent is exact only to ``eps |s log c|``.  A non-finite value
    or bound raises, so no overflowed number is returned.
    """
    log_c = math.log(Qf.det) / Qf.n
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.exp(-s * log_c)
        rel = 1e-15 * abs(log_c) * np.abs(s)
        if value.ndim == 2:
            scale, rel = scale[:, None], rel[:, None]
        value = scale * value
        err = np.abs(scale) * err + rel * np.abs(value)
    bad = ~(np.isfinite(value) & np.isfinite(err))
    if bad.any():
        where = complex(s[np.nonzero(bad)[0][0]])
        raise EvaluationFailure(f"zeta value at s={where} overflows the double range")
    return value, err


def _zeta_value(value, err, single: bool) -> ZetaValue:
    if single:
        return ZetaValue(complex(value[0]), float(err[0]))
    return ZetaValue(value, err)


# ---------------------------------------------------------------------------
# direct Dirichlet sums
# ---------------------------------------------------------------------------

def _direct_tail_bound(form: SPDForm, sigma: float, R: float) -> float:
    """Covering bound on ``sum_{q(w) > R} q(w)^-sigma`` (sigma > n/2)."""
    n = form.n
    lam_max = float(np.linalg.eigvalsh(form.matrix)[-1])
    h = 0.5 * math.sqrt(lam_max * n)
    root = math.sqrt(R)
    if root <= 2.0 * h + 1.0:
        return math.inf
    kappa = 1.0 + h / (root - 2.0 * h)
    surface = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    return (surface / form.sqrt_det * kappa ** (n - 1)
            * (root - 2.0 * h) ** (n - 2.0 * sigma) / (2.0 * sigma - n))


def _direct_radius(form: SPDForm, sigma: float, tol: float) -> float:
    R = 16.0
    while _direct_tail_bound(form, sigma, R) > tol:
        R *= 2.0
        est = (math.pi ** (form.n / 2.0) / math.gamma(form.n / 2.0 + 1.0)
               * R ** (form.n / 2.0) / form.sqrt_det)
        if est > _DIRECT_CAP:
            raise OutsideConvergence(
                f"tolerance {tol:.2e} at Re(s)={sigma + 0:.3g} needs ~{est:.2g} "
                f"lattice points; move s deeper into the convergence region"
            )
    return float(math.ceil(R))


def epstein_direct(Q, s, tol: float) -> ZetaValue:
    """Truncated sum ``sum' q_Q(w)^-s`` with tail bound below ``tol``.

    Requires Re(s) >= n/2 + 0.5.
    """
    Qf = cholesky(Q)
    s = complex(s)
    tol = float(tol)
    if s.real < Qf.n / 2.0 + 0.5:
        raise OutsideConvergence(f"need Re(s) >= {Qf.n / 2 + 0.5}, got {s.real}")
    R = _direct_radius(Qf, s.real, tol)
    ep = enumerate_ellipsoid(Qf, R, cap=_DIRECT_CAP)
    value = complex(np.sum(np.power(ep.qvals, -s)))
    return ZetaValue(value, _direct_tail_bound(Qf, s.real, R))


def weighted_direct(Q, B, s, tol: float) -> ZetaValue:
    """Truncated sum ``sum' q_B(w) q_Q(w)^-s``; needs Re(s) >= n/2 + 1.5."""
    Qf = cholesky(Q)
    Bm = as_symmetric(B, Qf.n)
    s = complex(s)
    tol = float(tol)
    if s.real < Qf.n / 2.0 + 1.5:
        raise OutsideConvergence(f"need Re(s) >= {Qf.n / 2 + 1.5}, got {s.real}")
    b_norm = float(np.linalg.norm(Bm, 2))
    if b_norm == 0.0:
        return ZetaValue(0.0 + 0.0j, 0.0)
    coef = b_norm / Qf.min_eigenvalue
    R = _direct_radius(Qf, s.real - 1.0, tol / coef)
    ep = enumerate_ellipsoid(Qf, R, cap=_DIRECT_CAP)
    w = qeval_many(Bm, ep.points)
    value = complex(np.sum(w * np.power(ep.qvals, -s)))
    return ZetaValue(value, coef * _direct_tail_bound(Qf, s.real - 1.0, R))


# ---------------------------------------------------------------------------
# analytic continuation
# ---------------------------------------------------------------------------

def _dual_weight(Qf: SPDForm, B: np.ndarray) -> np.ndarray:
    """The symmetrised weight ``C = Q^-1 B Q^-1`` of the dual side."""
    c = Qf.inv @ B @ Qf.inv
    return (c + c.T) / 2.0


def _continued(Qf: SPDForm, s: np.ndarray, single: bool, mats=None):
    """The Mellin split (module docstring) of the Epstein family, or of the
    weighted family once per weight of ``mats``; also assembles the bar
    ``|pi^s| |1/Gamma(s)| sum |coef| tail``, its rounding floor and the
    det-1 rescaling.  Returns one ZetaValue, or a list of one per weight."""
    n = Qf.n
    epstein = mats is None
    pole = n / 2.0 if epstein else n / 2.0 + 1.0
    _exclude_pole(s, pole, "n/2" if epstein else "n/2+1")
    if not epstein and all(not B.any() for B in mats):
        zero = np.zeros(s.size, dtype=complex)
        return [_zeta_value(zero, zero.real, single) for _ in mats]
    unit = Qf.unit_form()
    inv_f = unit.inverse_form()
    droot = 1.0 / unit.sqrt_det
    if epstein:
        sides = [(unit, s, None, 1.0), (inv_f, n / 2.0 - s, None, droot)]
    else:
        sig = s - 1.0
        tr = np.array([trace_product(unit, B) for B in mats]) / (2.0 * math.pi)
        sides = [(unit, s, mats, 1.0),
                 (inv_f, n / 2.0 - sig + 1.0, [_dual_weight(unit, B) for B in mats], -droot),
                 (inv_f, n / 2.0 - sig, None, tr * droot)]
    bracket = bar = 0.0
    for form, a, weights, coef in sides:
        S, tail = _half_sum(form, a, weights)
        bracket = bracket + coef * (S if weights else S[:, None])
        bar = bar + np.abs(coef) * tail[:, None]
    pis = _each(_pi_pow, s)[:, None]
    rg = _each(reciprocal_gamma, s)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # _rescaled checks the result
        bracket = bracket + sides[-1][3] / (s - pole)[:, None]
        value = rg * bracket
        if epstein:
            value = value - _each(reciprocal_gamma, s + 1.0)[:, None]
        value = pis * value
        err = np.abs(pis) * np.abs(rg) * bar
        err += 1e-15 * (1.0 + np.abs(value))
    value, err = _rescaled(Qf, s, value, err)
    values = [_zeta_value(value[:, j], err[:, j], single) for j in range(value.shape[1])]
    return values[0] if epstein else values


def epstein_continued(Q, s) -> ZetaValue:
    """``zeta(q_Q, s)`` everywhere except the pole at s = n/2.

    ``s`` is a number or a 1-D array of points (then both fields of the
    result are arrays).  At s = 0 the folded prefactor gives the exact
    special value -1; at the negative integers it produces the trivial zeros.
    """
    s, single = _points(s)
    return _continued(cholesky(Q), s, single)


def weighted_continued(Q, B, s) -> ZetaValue:
    """``zeta(q_Q, q_B, s)`` everywhere except the pole at s = n/2 + 1."""
    Qf = cholesky(Q)
    Bm = as_symmetric(B, Qf.n)
    return _continued(Qf, *_points(s), [Bm])[0]


def lattice_zeta(L, Q, s) -> ZetaValue:
    """``zeta_L(q_Q, s)`` via the congruence reduction to the standard lattice."""
    Lat = _as_lattice(L)
    Qf = cholesky(Q)
    return epstein_continued(cholesky(gram_transform(Qf, Lat.gen)), s)


def lattice_weighted_zeta(L, Q, B, s) -> ZetaValue:
    """``zeta_L(q_Q, q_B, s)`` via the congruence reduction."""
    Lat = _as_lattice(L)
    Qf = cholesky(Q)
    Bm = as_symmetric(B, Qf.n)
    return weighted_continued(
        cholesky(gram_transform(Qf, Lat.gen)),
        gram_transform(Bm, Lat.gen),
        s,
    )


def vector_zeta(A, b, s) -> list[ZetaValue]:
    """Vector zeta ``sum' |A w|^(-2s) <b, w> A w``, one ZetaValue per component.

    Component j reduces to a weighted zeta of the Gram form A^T A with the
    rank-two weight ``sym_outer(b, A^T e_j)``.  ``s`` is a number or a 1-D
    array of points, as for :func:`weighted_continued`.
    """
    Am = as_square(A)
    n = Am.shape[0]
    bv = as_vector(b, n)
    checked_det(Am, "vector zeta needs an invertible matrix")
    gram = cholesky(gram_transform(np.eye(n), Am))
    mats = [sym_outer(bv, Am[j, :]) for j in range(n)]
    return _continued(gram, *_points(s), mats)


# ---------------------------------------------------------------------------
# residues
# ---------------------------------------------------------------------------

def residue_epstein(L, Q) -> PoleReport:
    """Residue of ``zeta_L(q_Q, s)`` at its pole s = n/2 (closed form)."""
    Lat = _as_lattice(L)
    Qf = cholesky(Q)
    n = Qf.n
    res = (n / 2.0) * math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    res /= Lat.volume * Qf.sqrt_det
    return PoleReport(location=n / 2.0, residue=complex(res), source="analytic")


def residue_weighted(L, Q, B) -> PoleReport:
    """Residue of ``zeta_L(q_Q, q_B, s)`` at s = n/2 + 1 (closed form)."""
    Lat = _as_lattice(L)
    Qf = cholesky(Q)
    Bm = as_symmetric(B, Qf.n)
    n = Qf.n
    res = 0.5 * math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    res *= trace_product(Qf, Bm) / (Lat.volume * Qf.sqrt_det)
    return PoleReport(location=n / 2.0 + 1.0, residue=complex(res), source="analytic")


def residue_vector(A, b) -> PoleReport:
    """Vector residue of ``zeta(A, b, s)`` at s = n/2 + 1 (closed form)."""
    Am = as_square(A)
    n = Am.shape[0]
    bv = as_vector(b, n)
    det = checked_det(Am, "vector residue needs an invertible matrix")
    dual_b = np.linalg.solve(Am.T, bv)
    res = 0.5 * math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) / abs(det) * dual_b
    return PoleReport(location=n / 2.0 + 1.0, residue=res, source="analytic")


def _node_values(val, m: int) -> np.ndarray:
    """An evaluator's result as a complex array with the node axis first."""
    if isinstance(val, list):
        val = np.stack([np.asarray(getattr(v, "value", v)) for v in val], axis=-1)
    val = np.asarray(getattr(val, "value", val))
    if val.ndim not in (1, 2) or val.shape[0] != m:
        raise DimensionMismatch(
            f"evaluator returned shape {val.shape} for {m} nodes; "
            f"expected ({m},) or ({m}, k)")
    return val.astype(complex)


def residue_numeric(evaluator, s0: float, rho: float = RESIDUE_RHO,
                    m: int = RESIDUE_NODES) -> PoleReport:
    """Cauchy-integral residue on a circle around ``s0`` (trapezoid rule).

    ``residue ~ (rho/m) sum_k f(s0 + rho e^(i theta_k)) e^(i theta_k)`` with
    equispaced nodes; exponentially accurate in ``m`` for a simple pole.

    ``evaluator`` is called once, with the 1-D complex array of the ``m``
    nodes, and returns values with the node axis first: an array of shape
    ``(m,)`` or ``(m, k)``, a :class:`ZetaValue` holding such an array, or a
    list of ``k`` of those (as :func:`vector_zeta` returns for an array of
    points).  Every continued evaluator of this module qualifies.  ``(m,)``
    results give a complex residue, the others an ``ndarray`` of ``k``
    residues; the sum runs in node order.  A :class:`ZetaSolveError` of the
    evaluator propagates unchanged; any other exception is raised as
    :class:`EvaluationFailure`.
    """
    nodes = [cmath.exp(1j * (2.0 * math.pi * k / m)) for k in range(m)]
    z = s0 + rho * np.array(nodes)
    try:
        val = evaluator(z)
    except ZetaSolveError:
        raise
    except Exception as exc:  # noqa: BLE001 - reported as EvaluationFailure
        raise EvaluationFailure(
            f"evaluator failed on the contour |s - {s0}| = {rho}: {exc}") from exc
    vals = _node_values(val, m)
    total = 0.0 + 0.0j
    for row, e in zip(vals, nodes):
        total = total + row * e
    residue = total * rho / m
    if vals.ndim == 1:
        residue = complex(residue)
    return PoleReport(location=float(s0), residue=residue, source="numeric")


# ---------------------------------------------------------------------------
# functional equations
# ---------------------------------------------------------------------------

def _funceq(s: np.ndarray, single: bool, lhs: np.ndarray, rhs: np.ndarray) -> FuncEqResidual:
    residual = np.abs(lhs - rhs)
    if single:
        return FuncEqResidual(complex(s[0]), complex(lhs[0]), complex(rhs[0]), float(residual[0]))
    return FuncEqResidual(s, lhs, rhs, residual)


def funceq_residual_lattice(L, Q, s) -> FuncEqResidual:
    """Defect of the lattice functional equation at ``s``, a number or 1-D array.

    lhs = pi^-(n/2-s) Gamma(n/2-s) zeta_L(q_Q, n/2-s),
    rhs = pi^-s Gamma(s) zeta_L'(q_{Q^-1}, s) / (|L| sqrt(det Q)).
    """
    Lat = _as_lattice(L)
    Qf = cholesky(Q)
    s, single = _points(s)
    t = Qf.n / 2.0 - s
    lhs = _each(_pi_pow, -t) * _each(gamma_complex, t) * lattice_zeta(Lat, Qf, t).value
    rhs = (_each(_pi_pow, -s) * _each(gamma_complex, s)
           * lattice_zeta(dual_lattice(Lat), Qf.inverse_form(), s).value
           / (Lat.volume * Qf.sqrt_det))
    return _funceq(s, single, lhs, rhs)


def funceq_residual_weighted(L, Q, B, s) -> FuncEqResidual:
    """Defect of the weighted functional equation at ``s``, a number or 1-D array.

    lhs = pi^-(n/2-s) Gamma(n/2+1-s) zeta_L(q_Q, q_B, n/2+1-s)
          + pi^-s Gamma(s+1) zeta_L'(q_{Q^-1}, q_C, s+1) / (|L| sqrt(det Q)),
    rhs = Tr(Q^-1 B) pi^-s Gamma(s) zeta_L'(q_{Q^-1}, s) / (2 |L| sqrt(det Q)),
    with C = Q^-1 B Q^-1.
    """
    Lat = _as_lattice(L)
    Qf = cholesky(Q)
    Bm = as_symmetric(B, Qf.n)
    s, single = _points(s)
    dual = dual_lattice(Lat)
    inv_f = Qf.inverse_form()
    norm = Lat.volume * Qf.sqrt_det
    t = Qf.n / 2.0 + 1.0 - s
    pis = _each(_pi_pow, -s)
    lhs = (_each(_pi_pow, -(Qf.n / 2.0 - s)) * _each(gamma_complex, t)
           * lattice_weighted_zeta(Lat, Qf, Bm, t).value)
    lhs = lhs + (pis * _each(gamma_complex, s + 1.0)
                 * lattice_weighted_zeta(dual, inv_f, _dual_weight(Qf, Bm), s + 1.0).value
                 / norm)
    rhs = (trace_product(Qf, Bm) / (2.0 * norm) * pis * _each(gamma_complex, s)
           * lattice_zeta(dual, inv_f, s).value)
    return _funceq(s, single, lhs, rhs)


def funceq_residual_vector(A, b, c, s) -> FuncEqResidual:
    """Defect of the vector functional equation at ``s``, a number or 1-D array.

    lhs = pi^-(n/2-s) Gamma(n/2+1-s) <zeta(A, b, n/2+1-s), A c>
          + pi^-s Gamma(s+1) <A'b, zeta(A', c, s+1)> / |det A|,
    rhs = <b, c> pi^-s Gamma(s) zeta(A', s) / (2 |det A|),
    where A' is the inverse transpose.  It is the weighted equation on A Z^n
    with Q = I and B = sym_outer(A'b, A c), for which C = B and Tr B = <b, c>.
    """
    lat = Lattice(A)
    bv = as_vector(b, lat.n)
    cv = as_vector(c, lat.n)
    return funceq_residual_weighted(
        lat, np.eye(lat.n), sym_outer(lat.dual_gen @ bv, lat.gen @ cv), s)
