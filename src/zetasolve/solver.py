"""Solving A x = b through residues of zeta functions and sphere integrals.

Three routes, each cross-checked against an LU direct solve:

* ``solve_via_residues``: closed-form residues.  With L = A^T Z^n,

      R   = 2 Res_{s=n/2} zeta_L(q_I, s)            (= n pi^(n/2) / (Gamma(n/2+1) |det A|))
      R_i = 2 n <Res_{s=n/2+1} zeta(A^T, b, s), e_i>

  and ``x_i = R_i / R`` (the factor 2 is the Jacobian of evaluating the
  residues in the variable s/2, validated against the direct solve).

* ``solve_via_integrals``: the same quantities as sphere integrals

      R   = int_{S^(n-1)} |A^T u|^-n du
      R_i = n int_{S^(n-1)} |A^T u|^(-n-2) <b, u> <A^T u, e_i> du

  evaluated on *shared* quadrature nodes so that correlated errors cancel
  in the ratio.  Monte Carlo runs report delta-method 3-sigma error bars
  per solution component.

* ``numeric_residue_solve``: contour residues of the *continued* zeta
  evaluators (an end-to-end check of the continuation machinery, n <= 5).
  Each residue is one evaluator call on all contour nodes at once.

Every report carries the reference solution, per-component errors relative
to ``max |x_ref|``, and a 1-norm condition estimate (a warning is emitted
above 1e6, where the integrand dynamic range makes quadrature hopeless).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateQuadrature,
    EvaluationFailure,
    SingularMatrix,
    ValidationError,
)
from .quadforms import (
    Lattice,
    as_square,
    as_vector,
    checked_det,
    gram_transform,
    vector_to_json,
)
from .spherequad import (
    QuadratureSpec,
    _entrywise_fsum,
    sphere_integrate,
    sphere_quadrature_blocks,
)
from .tolerances import (
    CONDITION_WARN,
    CRAMER_CHECK_REL,
    RESIDUE_NODES,
    RESIDUE_RHO,
)
from .zeta import (
    epstein_continued,
    residue_epstein,
    residue_numeric,
    residue_vector,
    vector_zeta,
)


@dataclass(frozen=True)
class LinearSystem:
    """A square nonsingular system A x = b."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = as_square(self.A)
        v = as_vector(self.b, a.shape[0])
        checked_det(a, "matrix is singular to working precision")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "b", v)

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class SolveReport:
    """Solution of one route plus the data needed to judge it."""

    x: np.ndarray
    x_reference: np.ndarray
    R: float
    Ri: np.ndarray
    per_component_rel_err: np.ndarray
    method: dict
    condition_estimate: float
    x_error3sigma: np.ndarray | None = field(default=None)

    @property
    def max_rel_err(self) -> float:
        return float(np.max(self.per_component_rel_err))

    def to_json(self) -> dict:
        out = {
            "x": vector_to_json(self.x),
            "x_reference": vector_to_json(self.x_reference),
            "R": float(self.R),
            "Ri": vector_to_json(self.Ri),
            "per_component_rel_err": vector_to_json(self.per_component_rel_err),
            "method": self.method,
            "condition_estimate": float(self.condition_estimate),
            "x_error3sigma": (None if self.x_error3sigma is None
                              else vector_to_json(self.x_error3sigma)),
        }
        return out


def _cramer_dets(a: np.ndarray) -> float:
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    if n == 2:
        return float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    return float(
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )


def solve_direct(A, b) -> np.ndarray:
    """LU (partial pivoting) solve; for n <= 3 cross-checked against Cramer."""
    system = LinearSystem(A, b)
    try:
        x = np.linalg.solve(system.A, system.b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    if system.n <= 3:
        d = _cramer_dets(system.A)
        scale = max(float(np.max(np.abs(x))), 1e-300)
        for i in range(system.n):
            ai = np.array(system.A)
            ai[:, i] = system.b
            xi = _cramer_dets(ai) / d
            if abs(xi - x[i]) > CRAMER_CHECK_REL * max(scale, abs(xi)):
                raise EvaluationFailure(
                    f"LU and Cramer disagree at component {i}: {x[i]} vs {xi}"
                )
    return x


def _condition_1norm(a: np.ndarray) -> float:
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    return float(np.linalg.norm(a, 1) * np.linalg.norm(inv, 1))


def _rel_err(x: np.ndarray, ref: np.ndarray) -> np.ndarray:
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    return np.abs(x - ref) / scale


def _cimmino_terms(u: np.ndarray, a: np.ndarray, bv: np.ndarray):
    """``(p, g, v)`` at unit rows ``u``: ``v = A^T u``, the R integrand
    ``p = |v|^-n`` and ``g = n |v|^(-n-2) <b, u>``; ``g * v[:, i]`` is R_i's."""
    n = a.shape[0]
    v = u @ a
    q = np.einsum("ij,ij->i", v, v)
    g = n * (np.power(q, -(n + 2) / 2.0) * (u @ bv))
    return np.power(q, -n / 2.0), g, v


def cimmino_R_integral(A, spec: QuadratureSpec) -> float:
    """Sphere integral of ``|A^T u|^-n`` (the solution denominator)."""
    a = as_square(A)
    n = a.shape[0]
    bv = np.zeros(n)
    LinearSystem(a, bv)  # singularity validation
    return sphere_integrate(lambda u: _cimmino_terms(u, a, bv)[0], n, spec).value


def solve_via_integrals(A, b, spec: QuadratureSpec) -> SolveReport:
    """Cimmino solve: x_i = R_i / R with R and all R_i sharing the same nodes."""
    system = LinearSystem(A, b)
    a, bv, n = system.A, system.b, system.n
    x_ref = solve_direct(a, bv)
    cond = _condition_1norm(a)
    if cond > CONDITION_WARN:
        warnings.warn(
            f"condition estimate {cond:.3g} above {CONDITION_WARN:.0e}; "
            f"quadrature accuracy is unreliable", stacklevel=2
        )

    method = {"route": "integrals", "quadrature": spec.method,
              "nodes": spec.nodes, "seed": spec.seed}
    if spec.method == "monte_carlo":
        if spec.nodes < 2:
            raise ValidationError("monte_carlo needs at least 2 samples for an error bar")

        def columns(u):  # the R, R_1 .. R_n integrands, written once, by column
            p, g, v = _cimmino_terms(u, a, bv)
            out = np.empty((len(u), n + 1), order="F")
            out[:, 0] = p
            np.multiply(g[:, None], v, out=out[:, 1:])
            return out

        result = sphere_integrate(columns, n, spec)
        total = result.value
    else:
        parts = []
        for nodes, w in sphere_quadrature_blocks(n, spec):
            p, g, v = _cimmino_terms(nodes, a, bv)
            parts.append(np.append(w @ p, (w * g) @ v))
        total = _entrywise_fsum(parts)
    r_value, ri_value = total[0], total[1:]
    if r_value <= 0.0:
        raise DegenerateQuadrature("nonpositive denominator estimate")
    x = ri_value / r_value

    err3 = None
    if spec.method == "monte_carlo":
        # delta method: Var(R_i / R) = (C_ii - 2 x_i C_i0 + x_i^2 C_00) / R^2
        c = result.covariance
        var_x = (np.diagonal(c)[1:] - 2.0 * x * c[1:, 0] + x * x * c[0, 0]) / r_value ** 2
        err3 = 3.0 * np.sqrt(np.maximum(var_x, 0.0))

    return SolveReport(
        x=x,
        x_reference=x_ref,
        R=float(r_value),
        Ri=np.asarray(ri_value, dtype=float),
        per_component_rel_err=_rel_err(x, x_ref),
        method=method,
        condition_estimate=cond,
        x_error3sigma=err3,
    )


def solve_via_residues(A, b) -> SolveReport:
    """Cimmino solve through the closed-form residues (fully analytic)."""
    system = LinearSystem(A, b)
    a, bv, n = system.A, system.b, system.n
    x_ref = solve_direct(a, bv)
    r_value = 2.0 * complex(residue_epstein(Lattice(a.T), np.eye(n)).residue).real
    ri_value = 2.0 * n * np.asarray(residue_vector(a.T, bv).residue, dtype=float)
    x = ri_value / r_value
    return SolveReport(
        x=x,
        x_reference=x_ref,
        R=r_value,
        Ri=ri_value,
        per_component_rel_err=_rel_err(x, x_ref),
        method={"route": "residues"},
        condition_estimate=_condition_1norm(a),
    )


def numeric_residue_solve(A, b, rho: float = RESIDUE_RHO,
                          m: int = RESIDUE_NODES) -> SolveReport:
    """Cimmino solve with residues extracted numerically from the continued
    zeta evaluators (contour trapezoid); limited to n <= 5 for cost."""
    system = LinearSystem(A, b)
    a, bv, n = system.A, system.b, system.n
    if n > 5:
        raise ValidationError(f"numeric residue solve supports n <= 5, got n={n}")
    x_ref = solve_direct(a, bv)

    gram = gram_transform(np.eye(n), a.T)
    r_hat = residue_numeric(
        lambda s: epstein_continued(gram, s / 2.0), float(n), rho, m
    ).residue.real
    if r_hat <= 0.0:
        raise DegenerateQuadrature("nonpositive residue estimate")

    ri_hat = residue_numeric(
        lambda s: vector_zeta(a.T, bv, s / 2.0), float(n + 2), rho, m
    ).residue.real
    r_value = 2.0 * r_hat
    ri_value = 2.0 * n * ri_hat
    x = ri_value / r_value
    return SolveReport(
        x=x,
        x_reference=x_ref,
        R=r_value,
        Ri=ri_value,
        per_component_rel_err=_rel_err(x, x_ref),
        method={"route": "numeric_residue", "rho": rho, "contour_nodes": m},
        condition_estimate=_condition_1norm(a),
    )

