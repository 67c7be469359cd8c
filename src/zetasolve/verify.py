"""Built-in verification suite: one row per identity check.

Each check returns ``(name, measured, bound)`` where ``measured < bound``
means pass.  The suite covers the theta transformation law, direct/continued
overlap, analytic vs contour residues, all three functional-equation
families, the sphere-integral representation of the residues, solver route
agreement, and the special-function recurrences.  An explicit ``override``
bound replaces every per-check bound (useful to demonstrate failures).
"""

from __future__ import annotations

import math

import numpy as np

from .quadforms import Lattice, sym_outer
from .solver import (
    numeric_residue_solve,
    solve_via_integrals,
    solve_via_residues,
)
from .specfun import gamma_complex, upper_incomplete_gamma
from .spherequad import QuadratureSpec, sphere_integrate
from .theta import theta_transform_residual
from .zeta import (
    epstein_continued,
    epstein_direct,
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
    weighted_continued,
    weighted_direct,
)

Row = tuple[str, float, float]

_FORMS = (
    np.eye(2),
    np.diag([1.0, 4.0]),
    np.array([[2.0, 1.0], [1.0, 3.0]]),
)


def _theta_transform() -> float:
    worst = 0.0
    for q in _FORMS:
        for t in (0.5, 1.0, 2.0):
            worst = max(worst, theta_transform_residual(q, t))
    return worst


def _special_value() -> float:
    return max(abs(epstein_continued(q, 0.0).value + 1.0) for q in _FORMS)


def _epstein_overlap() -> float:
    worst = 0.0
    for q in _FORMS:
        s = q.shape[0] / 2.0 + 2.0
        direct = epstein_direct(q, s, 1e-13)
        cont = epstein_continued(q, s)
        worst = max(worst, abs(direct.value - cont.value) / abs(direct.value))
    return worst


def _weighted_overlap() -> float:
    worst = 0.0
    for q in _FORMS:
        s = q.shape[0] / 2.0 + 3.0
        direct = weighted_direct(q, q, s, 1e-13)
        cont = weighted_continued(q, q, s)
        worst = max(worst, abs(direct.value - cont.value) / abs(direct.value))
    return worst


def _residue_epstein_numeric() -> float:
    cases = [
        (Lattice(np.eye(2)), np.eye(2)),
        (Lattice(np.diag([2.0, 3.0])), np.eye(2)),
        (Lattice(np.eye(1)), np.eye(1)),
    ]
    worst = 0.0
    for lat, q in cases:
        analytic = complex(residue_epstein(lat, q).residue)
        numeric = residue_numeric(
            lambda s, lat=lat, q=q: lattice_zeta(lat, q, s), q.shape[0] / 2.0
        ).residue
        worst = max(worst, abs(numeric - analytic))
    return worst


def _residue_weighted_numeric() -> float:
    cases = [
        (Lattice(np.eye(2)), np.eye(2), np.eye(2)),
        (Lattice(np.eye(2)), np.eye(2), np.diag([1.0, 0.0])),
    ]
    worst = 0.0
    for lat, q, b in cases:
        analytic = complex(residue_weighted(lat, q, b).residue)
        numeric = residue_numeric(
            lambda s, lat=lat, q=q, b=b: lattice_weighted_zeta(lat, q, b, s),
            q.shape[0] / 2.0 + 1.0,
        ).residue
        worst = max(worst, abs(numeric - analytic))
    return worst


def _residue_vector_numeric() -> float:
    a = np.diag([2.0, 3.0])
    b = np.array([2.0, 3.0])
    analytic = np.asarray(residue_vector(a, b).residue)
    numeric = residue_numeric(lambda s: vector_zeta(a, b, s), 2.0).residue
    return float(np.max(np.abs(numeric - analytic)))


def _funceq_lattice() -> float:
    grid = np.array([0.5, 0.7 + 0.3j, 0.8, 0.4 - 0.2j, 0.63 + 0.11j])
    worst = max(funceq_residual_lattice(Lattice(np.eye(q.shape[0])), q, grid).residual.max()
                for q in _FORMS)
    return max(worst, funceq_residual_lattice(
        Lattice(np.diag([2.0, 3.0])), np.eye(2), 0.8).residual)


def _funceq_weighted() -> float:
    grid = np.array([0.6, 0.75, 0.4 + 0.2j, 0.9 - 0.15j, 0.55 + 0.05j])
    worst = max(funceq_residual_weighted(Lattice(np.eye(q.shape[0])), q, q, grid).residual.max()
                for q in _FORMS)
    return max(worst, funceq_residual_weighted(
        Lattice(np.eye(2)), np.eye(2), np.array([[1.0, 1.0], [1.0, 1.0]]), 0.75
    ).residual)


def _funceq_vector() -> float:
    cases = [
        (np.eye(2), [1.0, 0.0], [1.0, 0.0]),
        (np.array([[2.0, 1.0], [1.0, 3.0]]), [1.0, 0.0], [0.0, 1.0]),
        (np.diag([2.0, 3.0]), [2.0, 3.0], [1.0, 1.0]),
    ]
    grid = np.array([0.6, 0.7 + 0.2j, 0.85])
    return max(funceq_residual_vector(a, b, c, grid).residual.max() for a, b, c in cases)


def _integral_identity_n2() -> float:
    spec = QuadratureSpec("circle_trapezoid", 512)
    worst = 0.0
    for gen, q in [
        (np.eye(2), np.eye(2)),
        (np.diag([2.0, 3.0]), np.eye(2)),
        (np.array([[1.0, 1.0], [0.0, 1.0]]), np.diag([1.0, 2.0])),
    ]:
        lat = Lattice(gen)
        target = 2.0 * complex(residue_epstein(lat, q).residue).real
        value = sphere_integrate(
            lambda u, gen=gen, q=q: np.power(
                np.einsum("ij,jk,ik->i", u @ gen, q, u @ gen), -q.shape[0] / 2.0
            ),
            2, spec,
        ).value
        worst = max(worst, abs(value - target) / abs(target))
    return worst


def _integral_identity_n3() -> float:
    spec = QuadratureSpec("product_gauss", 64)
    gen = np.diag([1.0, 2.0, 0.5])
    q = np.eye(3)
    b = sym_outer([1.0, 1.0, 0.0], [0.0, 1.0, 1.0])
    lat = Lattice(gen)
    t_plain = 2.0 * complex(residue_epstein(lat, q).residue).real
    v_plain = sphere_integrate(
        lambda u: np.power(np.einsum("ij,ij->i", u @ gen, u @ gen), -1.5), 3, spec
    ).value
    t_weighted = 2.0 * complex(residue_weighted(lat, q, b).residue).real
    v_weighted = sphere_integrate(
        lambda u: (np.einsum("ij,jk,ik->i", u @ gen, b, u @ gen)
                   * np.power(np.einsum("ij,ij->i", u @ gen, u @ gen), -2.5)),
        3, spec,
    ).value
    return max(abs(v_plain - t_plain) / abs(t_plain),
               abs(v_weighted - t_weighted) / abs(t_weighted))


def _solver_routes() -> float:
    a2 = np.array([[2.0, 1.0], [1.0, 3.0]])
    b2 = np.array([5.0, 10.0])
    worst = solve_via_residues(a2, b2).max_rel_err
    worst = max(worst, solve_via_integrals(
        a2, b2, QuadratureSpec("circle_trapezoid", 1024)).max_rel_err)
    worst = max(worst, numeric_residue_solve(a2, b2).max_rel_err)
    a3 = np.array([[3.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 5.0]])
    b3 = np.array([1.0, 2.0, 3.0])
    worst = max(worst, solve_via_residues(a3, b3).max_rel_err)
    worst = max(worst, solve_via_integrals(
        a3, b3, QuadratureSpec("product_gauss", 48)).max_rel_err)
    return worst


def _gamma_recurrence() -> float:
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        r = rng.uniform(0.2, 20.0)
        th = rng.uniform(0.0, 2.0 * math.pi)
        s = complex(r * math.cos(th), r * math.sin(th))
        if s.real < 0.5 and abs(s - round(s.real)) < 1e-3:
            continue
        lhs = gamma_complex(s + 1.0)
        rhs = s * gamma_complex(s)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    return worst


def _igamma_recurrence() -> float:
    rng = np.random.default_rng(4096)
    worst = 0.0
    for _ in range(200):
        a = complex(rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0))
        x = float(rng.uniform(0.1, 50.0))
        lhs = upper_incomplete_gamma(a + 1.0, x)
        rhs = a * upper_incomplete_gamma(a, x) + math.exp(-x) * x ** a
        scale = max(abs(lhs), abs(rhs))
        if scale > 0:
            worst = max(worst, abs(lhs - rhs) / scale)
    return worst


_DEFAULT_CHECKS = (
    ("theta_transform_residual", _theta_transform, 1e-12),
    ("epstein_special_value_at_0", _special_value, 1e-10),
    ("epstein_overlap_direct_vs_continued", _epstein_overlap, 1e-11),
    ("weighted_overlap_direct_vs_continued", _weighted_overlap, 1e-11),
    ("residue_epstein_numeric_vs_analytic", _residue_epstein_numeric, 1e-8),
    ("residue_weighted_numeric_vs_analytic", _residue_weighted_numeric, 1e-8),
    ("residue_vector_numeric_vs_analytic", _residue_vector_numeric, 1e-8),
    ("funceq_lattice_residual", _funceq_lattice, 1e-8),
    ("funceq_weighted_residual", _funceq_weighted, 1e-8),
    ("funceq_vector_residual", _funceq_vector, 1e-8),
    ("sphere_integral_vs_residue_n2", _integral_identity_n2, 1e-10),
    ("sphere_integral_vs_residue_n3", _integral_identity_n3, 1e-8),
    ("solver_route_agreement", _solver_routes, 1e-8),
    ("gamma_recurrence", _gamma_recurrence, 1e-12),
    ("incomplete_gamma_recurrence", _igamma_recurrence, 1e-12),
)


def run_default_suite(override: float | None = None) -> list[Row]:
    """Run every built-in check; ``override`` replaces all bounds if given."""
    rows: list[Row] = []
    for name, fn, bound in _DEFAULT_CHECKS:
        measured = float(fn())
        rows.append((name, measured, float(override) if override is not None else bound))
    return rows

