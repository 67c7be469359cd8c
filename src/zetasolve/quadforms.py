"""Dense symmetric linear algebra: quadratic forms, Cholesky data, lattices.

Conventions used throughout the package:

* a *symmetric matrix* is a square ``numpy`` array accepted by
  :func:`as_symmetric` (asymmetry beyond the tolerance is rejected, then the
  array is symmetrized exactly);
* the quadratic form of a matrix ``M`` is ``q_M(x) = <M x, x>``;
* a *lattice* is ``A . Z^n`` for an invertible generator ``A``; its volume is
  ``|det A|`` and its dual is generated by ``(A^T)^{-1}``.

Forms are memoized here and nowhere else: :func:`cholesky` returns the
same ``SPDForm`` for equal symmetrized matrices, from a least-recently-used
memo of the last 64 forms built.  Indefinite input is never memoized, so it
raises on every call.

Arrays are read-only after construction and the functions here are pure,
but the package is not thread-safe: an ``SPDForm`` fills ``_min_eig``,
``_inverse_form``, its det-1 rescaling ``_unit_form`` and its single
enumeration slot ``_enumeration`` (the ellipsoid at the largest radius asked
for so far, see :func:`zetasolve.theta.enumerate_ellipsoid`) lazily on first
use.  The slots are not locked, and the form memo hands one form to every
caller, so share forms between threads only behind a lock of the caller's
own.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    NotSymmetric,
    SingularMatrix,
    ValidationError,
)
from .tolerances import CHOLESKY_PIVOT_REL, SINGULAR_DET_MIN, SYMMETRY_TOL


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


def as_vector(x, n: int | None = None) -> np.ndarray:
    """Validate a 1-D real vector, optionally against an expected dimension."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError("vector has non-finite entries")
    if n is not None and v.size != n:
        raise DimensionMismatch(f"expected dimension {n}, got {v.size}")
    return _freeze(v)


def as_square(m, n: int | None = None) -> np.ndarray:
    """Validate a square real matrix, optionally against an expected size."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix has non-finite entries")
    if n is not None and a.shape[0] != n:
        raise DimensionMismatch(f"expected order {n}, got {a.shape[0]}")
    return a


def as_symmetric(m, n: int | None = None) -> np.ndarray:
    """Accept a symmetric matrix: reject real asymmetry, symmetrize the rest.

    Inputs whose asymmetry exceeds ``SYMMETRY_TOL`` (relative to
    ``max(1, |entries|)``) are rejected rather than silently repaired.
    """
    a = as_square(m, n)
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.T))) > SYMMETRY_TOL * scale:
        raise NotSymmetric("matrix is asymmetric beyond tolerance")
    return _freeze((a + a.T) / 2.0)


def qeval_many(Q, points: np.ndarray) -> np.ndarray:
    """Quadratic form along the rows of ``points`` (shape ``(m, n)``)."""
    Qm = Q.matrix if isinstance(Q, SPDForm) else as_symmetric(Q)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != Qm.shape[0]:
        raise DimensionMismatch(f"points shape {pts.shape} vs order {Qm.shape[0]}")
    return np.einsum("ij,jk,ik->i", pts, Qm, pts)


def _lower_cholesky(a: np.ndarray) -> np.ndarray:
    """Cholesky factor with an explicit pivot threshold (a is symmetric)."""
    n = a.shape[0]
    floor = n * CHOLESKY_PIVOT_REL * max(float(np.max(np.abs(a))), 1e-300)
    low = np.zeros_like(a)
    for i in range(n):
        for j in range(i + 1):
            acc = a[i, j] - low[i, :j] @ low[j, :j]
            if i == j:
                if acc <= floor:
                    raise NotPositiveDefinite(
                        f"pivot {acc:.3e} at index {i} below threshold {floor:.3e}"
                    )
                low[i, i] = math.sqrt(acc)
            else:
                low[i, j] = acc / low[j, j]
    return low


class SPDForm:
    """A symmetric positive-definite form with cached factorization data.

    Attributes: ``matrix`` (the symmetrized input), ``chol`` (lower-triangular
    factor with ``chol @ chol.T == matrix``), ``det`` (> 0), ``inv``
    (symmetric inverse), ``n``.
    """

    __slots__ = ("matrix", "chol", "det", "inv", "n", "_inverse_form",
                 "_unit_form", "_min_eig", "_enumeration")

    def __init__(self, matrix):
        m = as_symmetric(matrix)
        self.matrix = m
        self.n = m.shape[0]
        self.chol = _freeze(_lower_cholesky(np.array(m)))
        self.det = float(np.prod(np.diag(self.chol)) ** 2)
        inv = np.linalg.inv(m)
        self.inv = _freeze((inv + inv.T) / 2.0)
        self._inverse_form = None
        self._unit_form = None
        self._min_eig = None
        self._enumeration = None

    @property
    def sqrt_det(self) -> float:
        return math.sqrt(self.det)

    @property
    def min_eigenvalue(self) -> float:
        if self._min_eig is None:
            self._min_eig = float(np.linalg.eigvalsh(self.matrix)[0])
        return self._min_eig

    def inverse_form(self) -> "SPDForm":
        """The SPD form of the inverse matrix (cached)."""
        if self._inverse_form is None:
            self._inverse_form = SPDForm(self.inv)
        return self._inverse_form

    def unit_form(self) -> "SPDForm":
        """The form divided by ``det^(1/n)``, so of determinant 1 (cached;
        the form itself when its determinant is already 1)."""
        if self.det == 1.0:
            return self
        if self._unit_form is None:
            self._unit_form = SPDForm(self.matrix * math.exp(-math.log(self.det) / self.n))
        return self._unit_form

    def __repr__(self):  # pragma: no cover
        return f"SPDForm(n={self.n}, det={self.det:.6g})"


def cholesky(Q) -> SPDForm:
    """The SPD form of a symmetric matrix; rejects indefinite input.

    Equal symmetrized matrices give the same (memoized) form, so every
    caller shares its factorization data and its enumeration.
    """
    if isinstance(Q, SPDForm):
        return Q
    m = as_symmetric(Q)
    return _memo_form(m.tobytes(), m.shape[0])


@functools.lru_cache(maxsize=64)
def _memo_form(key: bytes, n: int) -> SPDForm:
    return SPDForm(np.frombuffer(key).reshape(n, n))


def checked_det(m, message: str) -> float:
    """Determinant of a square matrix; raises :class:`SingularMatrix` with
    ``message`` when it is not finite or at most ``SINGULAR_DET_MIN``."""
    det = float(np.linalg.det(as_square(m)))
    if not math.isfinite(det) or abs(det) <= SINGULAR_DET_MIN:
        raise SingularMatrix(message)
    return det


def gram_transform(Q, A) -> np.ndarray:
    """Congruence transform ``A^T Q A`` (exactly symmetric by construction)."""
    Qm = Q.matrix if isinstance(Q, SPDForm) else as_symmetric(Q)
    Am = as_square(A, Qm.shape[0])
    w = Am.T @ Qm @ Am
    return _freeze((w + w.T) / 2.0)


class Lattice:
    """The lattice ``gen . Z^n`` with its volume and dual generator."""

    __slots__ = ("gen", "n", "volume", "dual_gen")

    def __init__(self, gen):
        g = as_square(gen)
        det = checked_det(g, "lattice generator is singular")
        self.gen = _freeze(g)
        self.n = g.shape[0]
        self.volume = abs(det)
        self.dual_gen = _freeze(np.linalg.inv(g.T))

    def __repr__(self):  # pragma: no cover
        return f"Lattice(n={self.n}, volume={self.volume:.6g})"


def dual_lattice(L: Lattice) -> Lattice:
    """Dual lattice, generated by the inverse transpose of the generator."""
    return Lattice(L.dual_gen)


def trace_product(Q, B) -> float:
    """``Tr(Q^{-1} B)`` for SPD ``Q`` and symmetric ``B``."""
    Qf = cholesky(Q)
    Bm = as_symmetric(B, Qf.n)
    return float(np.trace(Qf.inv @ Bm))


def sym_outer(u, v) -> np.ndarray:
    """Symmetrized outer product ``(u v^T + v u^T) / 2``.

    Satisfies ``x^T sym_outer(u, v) x == <u, x> <v, x>`` and
    ``trace == <u, v>``.
    """
    uu = as_vector(u)
    vv = as_vector(v, uu.size)
    return _freeze((np.outer(uu, vv) + np.outer(vv, uu)) / 2.0)


# ---------------------------------------------------------------------------
# JSON wire formats: {"n": int, "rows": [[...], ...]} and {"v": [...]}
# ---------------------------------------------------------------------------

def _require_numbers(values, what: str) -> list[float]:
    out = []
    for x in values:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ValidationError(f"{what} must contain only numbers")
        out.append(float(x))
    return out


def matrix_from_json(obj) -> np.ndarray:
    """Parse ``{"n": int, "rows": [[...]]}`` (or bare nested lists)."""
    if isinstance(obj, dict):
        extra = set(obj) - {"n", "rows"}
        if extra:
            raise ValidationError(f"unknown matrix fields: {sorted(extra)}")
        if "rows" not in obj:
            raise ValidationError("matrix object needs a 'rows' field")
        rows = obj["rows"]
        n = obj.get("n", len(rows))
    elif isinstance(obj, list):
        rows, n = obj, len(obj)
    else:
        raise ValidationError("matrix must be an object or a list of rows")
    if not isinstance(rows, list) or not rows or not isinstance(n, int) or isinstance(n, bool):
        raise ValidationError("matrix rows must be a non-empty list")
    if len(rows) != n:
        raise ValidationError(f"declared order {n} but got {len(rows)} rows")
    parsed = []
    for row in rows:
        if not isinstance(row, list) or len(row) != n:
            raise ValidationError("matrix rows are ragged")
        parsed.append(_require_numbers(row, "matrix rows"))
    return as_square(parsed)


def vector_to_json(x) -> dict:
    return {"v": list(map(float, as_vector(x)))}


def vector_from_json(obj) -> np.ndarray:
    """Parse ``{"v": [...]}`` (or a bare list)."""
    if isinstance(obj, dict):
        extra = set(obj) - {"v"}
        if extra:
            raise ValidationError(f"unknown vector fields: {sorted(extra)}")
        if "v" not in obj:
            raise ValidationError("vector object needs a 'v' field")
        vals = obj["v"]
    elif isinstance(obj, list):
        vals = obj
    else:
        raise ValidationError("vector must be an object or a list")
    if not isinstance(vals, list) or not vals:
        raise ValidationError("vector must be a non-empty list")
    return as_vector(_require_numbers(vals, "vector"))
