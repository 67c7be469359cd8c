"""References the benchmark computes itself, independent of the program.

* Closed forms (mpmath) for the Epstein zeta of four base forms:
  ``[1]`` -> 2 zeta(2s), ``I2`` -> 4 zeta(s) L(s, chi_-4),
  hexagonal -> 6 zeta(s) L(s, chi_-3), ``I4`` -> 8 (1 - 4^(1-s)) zeta(s) zeta(s-1).
* Transport to new forms: zeta(c U^T Q U, s) = c^-s zeta(Q, s) for unimodular U.
* Weighted identity: zeta(Q, b Q, s) = b zeta(Q, s - 1).
* Vector identity: zeta(c U, b, s) = c^(1-2s) / n * zeta(I_n, s - 1) * U^-T b.
* Residue closed forms, with determinants and traces taken exactly.
* LU solves with partial pivoting: exact over Fractions for integer systems,
  float for real ones.

``self_check`` compares every closed form and identity with a brute-force
lattice sum where the Dirichlet series converges, so a wrong oracle shows up
as a benchmark error and not as a program failure.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

mpmath.mp.dps = 20   # references stay exact to far below double precision

HEX = np.array([[1.0, 0.5], [0.5, 1.0]])

BASES = {
    # name: (n, base matrix, closed form of zeta(base, s))
    "one": (1, np.eye(1), lambda s: 2 * mpmath.zeta(2 * s)),
    "I2": (2, np.eye(2),
           lambda s: 4 * mpmath.zeta(s) * mpmath.dirichlet(s, [0, 1, 0, -1])),
    "hex": (2, HEX, lambda s: 6 * mpmath.zeta(s) * mpmath.dirichlet(s, [0, 1, -1])),
    "I4": (4, np.eye(4), lambda s: 8 * (1 - mpmath.power(4, 1 - s))
           * mpmath.zeta(s) * mpmath.zeta(s - 1)),
}

# bases whose lattice Z^n is invariant under signed permutations, as the
# vector identity needs
CUBIC = ("one", "I2", "I4")


def transported_zeta(base: str, c: float, s: complex) -> complex:
    """zeta(c U^T Q_base U, s) for any unimodular U."""
    sm = mpmath.mpc(s)
    return complex(mpmath.power(c, -sm) * BASES[base][2](sm))


def vector_zeta_ref(base: str, c: float, u: np.ndarray, b: np.ndarray,
                    s: complex) -> np.ndarray:
    """zeta(c U, b, s) for a cubic base and unimodular U."""
    n = u.shape[0]
    sm = mpmath.mpc(s)
    scal = complex(mpmath.power(c, 1 - 2 * sm) * BASES[base][2](sm - 1) / n)
    return scal * float_solve(u.T, b)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def _lu_solve(a: list[list], b: list) -> list:
    """Gaussian elimination with partial pivoting on copies of a and b."""
    n = len(a)
    m = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(m[r][col]))
        if m[piv][col] == 0:
            raise ZeroDivisionError("singular system")
        m[col], m[piv] = m[piv], m[col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            if f:
                for k in range(col, n + 1):
                    m[r][k] -= f * m[col][k]
    x = [0] * n
    for r in range(n - 1, -1, -1):
        acc = m[r][n] - sum(m[r][k] * x[k] for k in range(r + 1, n))
        x[r] = acc / m[r][r]
    return x


def exact_solve(a, b) -> list[Fraction]:
    return _lu_solve([[Fraction(int(v)) for v in row] for row in a],
                     [Fraction(int(v)) for v in b])


def float_solve(a, b) -> np.ndarray:
    return np.array(_lu_solve([[float(v) for v in row] for row in a],
                              [float(v) for v in b]))


def exact_det(a) -> Fraction:
    """Determinant of an integer matrix by exact elimination."""
    m = [[Fraction(int(v)) for v in row] for row in a]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            for k in range(col, n):
                m[r][k] -= f * m[col][k]
    return det


def _trace_inv_product(q, bm) -> Fraction:
    """Tr(Q^-1 B) exactly, column by column."""
    n = len(q)
    total = Fraction(0)
    for j in range(n):
        col = _lu_solve([[Fraction(int(v)) for v in row] for row in q],
                        [Fraction(int(bm[i][j])) for i in range(n)])
        total += col[j]
    return total


def _ball_factor(n: int):
    """pi^(n/2) / Gamma(n/2 + 1), the volume of the unit ball."""
    return mpmath.power(mpmath.pi, mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2 + 1)


def epstein_residue_ref(q) -> float:
    """Res_{s=n/2} zeta(Q, s) = (n/2) V_n / sqrt(det Q) for integer Q."""
    n = len(q)
    det = exact_det(q)
    return float(mpmath.mpf(n) / 2 * _ball_factor(n)
                 / mpmath.sqrt(mpmath.mpf(det.numerator) / det.denominator))


def weighted_residue_ref(q, bm) -> float:
    """Res_{s=n/2+1} zeta(Q, B, s) = Tr(Q^-1 B) V_n / (2 sqrt(det Q))."""
    n = len(q)
    det = exact_det(q)
    tr = _trace_inv_product(q, bm)
    return float(_ball_factor(n) / 2 * (mpmath.mpf(tr.numerator) / tr.denominator)
                 / mpmath.sqrt(mpmath.mpf(det.numerator) / det.denominator))


def vector_residue_ref(a, b) -> np.ndarray:
    """Res_{s=n/2+1} zeta(A, b, s) = V_n / (2 |det A|) * A^-T b."""
    n = len(a)
    det = abs(exact_det(a))
    dual = exact_solve([[a[j][i] for j in range(n)] for i in range(n)], b)
    scale = _ball_factor(n) / 2 / (mpmath.mpf(det.numerator) / det.denominator)
    return np.array([float(scale * mpmath.mpf(v.numerator) / v.denominator)
                     for v in dual])


# ---------------------------------------------------------------------------
# self-check against brute-force lattice sums
# ---------------------------------------------------------------------------

def _brute_points(q: np.ndarray, radius: float) -> np.ndarray:
    """Nonzero integer points with q(w) <= radius, by a covering box."""
    n = q.shape[0]
    lam = float(np.linalg.eigvalsh(q)[0])
    half = int(math.floor(math.sqrt(radius / lam))) + 1
    grid = np.indices((2 * half + 1,) * n).reshape(n, -1).T - half
    pts = grid.astype(float)
    qv = np.einsum("ij,jk,ik->i", pts, q, pts)
    keep = (qv <= radius) & (qv > 0)
    return pts[keep]


def _brute_sum(q: np.ndarray, weights, s: complex, radius: float) -> np.ndarray:
    """Truncated sum' weights(w) q(w)^-s over q(w) <= radius."""
    pts = _brute_points(q, radius)
    qv = np.einsum("ij,jk,ik->i", pts, q, pts)
    return weights(pts).T @ np.power(qv, -s)


def self_check() -> list[str]:
    """Compare each oracle with a brute-force sum; returns failure messages.

    Points are chosen deep in the convergence half-plane so that the
    truncated tail is far below the 1e-7 relative tolerance used here.
    """
    problems = []
    rng = np.random.default_rng(20240501)
    unimodular = {1: np.array([[-1.0]]),
                  2: np.array([[1.0, 1.0], [1.0, 2.0]]),
                  4: np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                              dtype=float)}
    radius = {1: 4.0e6, 2: 3000.0, 4: 110.0}
    for name, (n, q0, _) in BASES.items():
        s = complex(n / 2.0 + (4.0 if n < 4 else 4.5), 0.7)
        c = float(rng.uniform(0.6, 1.7))
        u = unimodular[n]
        q = c * (u.T @ q0 @ u)
        got = complex(_brute_sum(q, lambda p: np.ones((p.shape[0], 1)), s,
                                 radius[n] * c)[0])
        want = transported_zeta(name, c, s)
        if abs(got - want) > 1e-7 * abs(want):
            problems.append(f"oracle {name}: brute {got} vs closed form {want}")
        # weighted identity, B = beta Q, one unit further right
        sw = s + 1.0
        beta = 1.3
        got_w = complex(_brute_sum(
            q, lambda p: beta * np.einsum("ij,jk,ik->i", p, q, p)[:, None], sw,
            radius[n] * c)[0])
        want_w = beta * transported_zeta(name, c, sw - 1.0)
        if abs(got_w - want_w) > 1e-7 * abs(want_w):
            problems.append(f"weighted identity {name}: {got_w} vs {want_w}")
        if name in CUBIC:
            b = rng.standard_normal(n)
            a = c * u
            gram = a.T @ a
            # sum' |A w|^(-2s) <b, w> A w, as a weighted sum over the Gram form
            got_v = _brute_sum(gram, lambda p: (p @ b)[:, None] * (p @ a.T), sw,
                               radius[n] * c * c)
            want_v = vector_zeta_ref(name, c, u, b, sw)
            if np.max(np.abs(got_v - want_v)) > 1e-7 * np.max(np.abs(want_v)):
                problems.append(f"vector identity {name}: {got_v} vs {want_v}")
    # residue closed forms against the exact ratio they must satisfy
    q = [[2, 1], [1, 3]]
    want_res = math.pi / math.sqrt(5.0)
    if abs(epstein_residue_ref(q) - want_res) > 1e-14:
        problems.append("epstein residue closed form")
    x = exact_solve([[2, 1], [1, 3]], [1, 2])
    if x != [Fraction(1, 5), Fraction(3, 5)]:
        problems.append(f"exact solve gave {x}")
    return problems
