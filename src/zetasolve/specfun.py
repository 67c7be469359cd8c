"""Complex gamma and the upper incomplete gamma function.

``gamma_complex`` uses a Lanczos rational approximation (g = 607/128, 15
coefficients) with reflection for Re(s) < 1/2.

``upper_incomplete_gamma(a, x)`` evaluates Gamma(a, x) = int_x^inf e^-t
t^(a-1) dt for complex ``a`` and real ``x > 0``.  Unlike Gamma(a) it is
entire in ``a``, so the evaluation must survive ``a`` at and near the
non-positive integers.  Region layout:

* ``x >= max(1, Re(a) + 1)``: modified-Lentz continued fraction (the only
  branch that keeps relative accuracy when the result is exponentially
  smaller than Gamma(a));
* otherwise, ``a`` at least 0.4 away from every non-positive integer:
  power series for the lower incomplete gamma, subtracted from Gamma(a);
* otherwise (``a = -k + z`` with ``|z| <= 0.4``): the same series with the
  ``1/(a+k)`` factor pulled out of every affected term and cancelled
  against the gamma-function pole analytically, evaluated either directly
  or, for ``|z| <= 1e-2``, through order-8 Taylor coefficients in ``z``.

``upper_incomplete_gamma_many(a, x)`` is the same function at every pair of
two 1-D numpy arrays.  Its continued-fraction points iterate together, and
the set still iterating is compacted as points converge; once fewer than
``_CF_SCALAR_FINISH`` remain, each survivor finishes on the scalar
recurrence from its current state (one numpy step costs about as much as
25-35 scalar steps, measured on a 2-vCPU x86 host).  The few points outside
the continued-fraction region take the scalar series branches.

Where the Lanczos product leaves the double range the gamma function is
evaluated in the log domain: ``1/Gamma`` underflows to 0 and a result
beyond the double range raises :class:`~zetasolve.errors.EvaluationFailure`.

All tolerances are fixed in :mod:`zetasolve.tolerances`.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from .errors import EvaluationFailure, NonPositiveX, PoleOfGamma
from .tolerances import (
    GAMMA_POLE_TOL,
    IGAMMA_NEAR_POLE,
    IGAMMA_TAYLOR_WINDOW,
    IGAMMA_UNDERFLOW_LOG,
)

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_MIN_NORMAL = sys.float_info.min
_EULER_GAMMA = 0.5772156649015328606065120900824024
_ZETA = {
    2: math.pi ** 2 / 6.0,
    3: 1.2020569031595942853997381615114500,
    4: math.pi ** 4 / 90.0,
    5: 1.0369277551433699263313654864570342,
    6: math.pi ** 6 / 945.0,
    7: 1.0083492773819228268397975498497968,
    8: math.pi ** 8 / 9450.0,
}

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEF = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_SERIES_MAX_TERMS = 5000
_CF_MAX_ITER = 200000
_CF_TINY = 1e-300
_CF_SCALAR_FINISH = 24
_TAYLOR_ORDER = 8


def _sinpi(z: complex) -> complex:
    """sin(pi z) with exact integer range reduction (accurate near zeros)."""
    m = round(z.real)
    r = z - m
    s = cmath.sin(math.pi * r)
    return -s if m % 2 else s


def _exp(w: complex, name: str, *args) -> complex:
    """exp(w) = name(*args), raising EvaluationFailure where it overflows."""
    try:
        return cmath.exp(w)
    except OverflowError:
        arg = ", ".join(map(str, args))
        raise EvaluationFailure(f"{name}({arg}) overflows the double range") from None


def _lanczos_sum(z: complex) -> tuple[complex, complex]:
    """The Lanczos series and the shifted argument t for Re(z) >= 0.5."""
    acc = _LANCZOS_COEF[0]
    for i in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[i] / (z - 1.0 + i)
    return acc, z + _LANCZOS_G - 0.5


def _lanczos_direct(z: complex) -> complex | None:
    """Lanczos Gamma(z) for Re(z) >= 0.5 as a direct product, or None where
    the product leaves the normal double range (its factors overflow from
    z ~ 143 on, before Gamma does)."""
    acc, t = _lanczos_sum(z)
    try:
        g = _SQRT_TWO_PI * t ** (z - 0.5) * cmath.exp(-t) * acc
    except OverflowError:
        return None
    return g if _MIN_NORMAL <= abs(g) < math.inf else None


def _lanczos_log(z: complex) -> complex:
    """Lanczos log Gamma(z) for Re(z) >= 0.5 (any branch of the log)."""
    acc, t = _lanczos_sum(z)
    return _HALF_LOG_TWO_PI + (z - 0.5) * cmath.log(t) - t + cmath.log(acc)


def _lanczos_right(z: complex) -> complex:
    """Lanczos Gamma(z) for Re(z) >= 0.5 (the direct product is accurate to
    a few ulps for real z; the log form covers the rest of the range)."""
    g = _lanczos_direct(z)
    return g if g is not None else _exp(_lanczos_log(z), "Gamma", z)


def _rgamma_right(z: complex) -> complex:
    """1/Gamma(z) for Re(z) >= 0.5; underflows to 0 where Gamma overflows."""
    g = _lanczos_direct(z)
    return 1.0 / g if g is not None else _exp(-_lanczos_log(z), "1/Gamma", z)


def _gamma_nopole(s: complex) -> complex:
    """Gamma(s); caller guarantees s is not at a pole."""
    if s.real >= 0.5:
        return _lanczos_right(s)
    return math.pi / _sinpi(s) * _rgamma_right(1.0 - s)


def gamma_complex(s) -> complex:
    """Euler gamma function for complex argument.

    Raises :class:`PoleOfGamma` if ``s`` is within 1e-12 of a non-positive
    integer.  Relative error below ~1e-12 for |s| <= 50.
    """
    s = complex(s)
    if s.real < 0.5:
        nearest = round(s.real)
        if nearest <= 0 and abs(s - nearest) <= GAMMA_POLE_TOL:
            raise PoleOfGamma(f"gamma pole at {nearest}; got s={s}")
    return _gamma_nopole(s)


def reciprocal_gamma(s) -> complex:
    """Entire function 1/Gamma(s); exactly 0 at non-positive integers."""
    s = complex(s)
    if s.real >= 0.5:
        return _rgamma_right(s)
    sp = _sinpi(s)
    if sp == 0.0:
        return 0j
    return sp * _lanczos_right(1.0 - s) / math.pi


# ---------------------------------------------------------------------------
# Upper incomplete gamma
# ---------------------------------------------------------------------------

def _cf_run(a: complex, x: float, i: int, b: complex, c: complex, d: complex,
            h: complex) -> complex:
    """Modified-Lentz continued fraction for Gamma(a, x) from step ``i`` on.

    Returns the converged fraction ``h``; Gamma(a, x) = x^a e^-x h.
    """
    tiny = _CF_TINY
    for i in range(i, _CF_MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = complex(tiny)
        c = b + an / c
        if abs(c) < tiny:
            c = complex(tiny)
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= 1e-16:
            return h
    raise EvaluationFailure(
        f"incomplete-gamma continued fraction stalled at a={a}, x={x}"
    )


def _igamma_cf(a: complex, x: float) -> complex:
    """Continued fraction, good for x >= max(1, Re a + 1), where
    Re(x + 1 - a) >= 2 keeps the first denominator away from 0."""
    b = x + 1.0 - a
    h = _cf_run(a, x, 1, b, complex(1.0 / _CF_TINY), 1.0 / b, 1.0 / b)
    return _exp(a * math.log(x) - x, "Gamma", a, x) * h


def _igamma_cf_many(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``_igamma_cf`` over 1-D arrays: the same recurrence, one numpy step for
    all points still iterating; the last few finish in ``_cf_run``."""
    tiny = _CF_TINY
    h_out = np.empty(a.size, dtype=complex)
    idx = np.arange(a.size)
    aa, b = a, x + 1.0 - a
    c = np.full(a.size, 1.0 / tiny, dtype=complex)
    d = 1.0 / b
    h = d.copy()
    i = 0
    while idx.size >= _CF_SCALAR_FINISH:
        i += 1
        if i > _CF_MAX_ITER:
            raise EvaluationFailure(
                f"incomplete-gamma continued fraction stalled at a={aa[0]}"
            )
        an = -i * (i - aa)
        b = b + 2.0
        d = an * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + an / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) <= 1e-16
        if done.any():
            h_out[idx[done]] = h[done]
            live = ~done
            idx, aa, b, c, d, h = idx[live], aa[live], b[live], c[live], d[live], h[live]
    survivors = zip(idx.tolist(), aa.tolist(), b.tolist(), c.tolist(), d.tolist(),
                    h.tolist())
    for k, aj, bj, cj, dj, hj in survivors:
        h_out[k] = _cf_run(aj, x[k], i + 1, bj, cj, dj, hj)
    return np.exp(a * np.log(x) - x) * h_out


def _lower_series_sum(a: complex, x: float) -> complex:
    """sum_{m>=0} x^m / (a (a+1) ... (a+m)); lower gamma = x^a e^-x * sum."""
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(_SERIES_MAX_TERMS):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-17:
            return total
    raise EvaluationFailure(f"incomplete-gamma series stalled at a={a}, x={x}")


def _igamma_series_plain(a: complex, x: float) -> complex:
    xa_emx = _exp(a * math.log(x) - x, "Gamma", a, x)
    return _gamma_nopole(a) - xa_emx * _lower_series_sum(a, x)


def _harmonic_numbers(k: int, pmax: int) -> list[float]:
    """[H_k^(1), ..., H_k^(pmax)] with H_k^(p) = sum_{j<=k} j^-p."""
    out = [0.0] * pmax
    for j in range(1, k + 1):
        r = 1.0 / j
        acc = 1.0
        for p in range(pmax):
            acc *= r
            out[p] += acc
    return out


def _polygamma_int(m: int, k: int) -> float:
    """psi^(m)(k + 1) for integer k >= 0 and 0 <= m <= 7."""
    h = _harmonic_numbers(k, m + 1)
    if m == 0:
        return -_EULER_GAMMA + h[0]
    sign = 1.0 if m % 2 else -1.0
    return sign * math.factorial(m) * (_ZETA[m + 1] - h[m])


def _exp_series(g: list[float]) -> list[float]:
    """Taylor coefficients of exp(G) for G = sum g[m] z^m, g[0] == 0."""
    order = len(g) - 1
    f = [0.0] * (order + 1)
    f[0] = 1.0
    for m in range(1, order + 1):
        acc = 0.0
        for j in range(1, m + 1):
            acc += j * g[j] * f[m - j]
        f[m] = acc / m
    return f


def _mul_series(u: list[float], v: list[float]) -> list[float]:
    order = len(u) - 1
    out = [0.0] * (order + 1)
    for i in range(order + 1):
        ui = u[i]
        if ui == 0.0:
            continue
        for j in range(order + 1 - i):
            out[i + j] += ui * v[j]
    return out


def _pole_series_taylor(k: int, x: float) -> list[float]:
    """Taylor coefficients (orders 1..6) of N(z)/z / A0 near a = -k.

    With a = -k + z, the singular parts of Gamma(a) and of the lower series
    combine into N(z)/z where N = A0 (f_A(z) - f_B(z)), A0 = (-1)^k / k!.
    Returns the coefficients Delta_m = [z^m] (f_A - f_B) for m = 1..order.
    """
    order = _TAYLOR_ORDER
    # f_A = (pi z / sin(pi z)) * Gamma(1+k) / Gamma(1+k-z) = exp(g_A)
    g_a = [0.0] * (order + 1)
    for m in range(1, order + 1):
        sign = 1.0 if (m - 1) % 2 == 0 else -1.0
        g_a[m] = sign * _polygamma_int(m - 1, k) / math.factorial(m)
    for p in (2, 4, 6, 8):
        if p <= order:
            g_a[p] += _ZETA[p] / (p // 2)
    f_a = _exp_series(g_a)

    # f_B = exp(z L + sum_p H_k^(p) z^p / p) * S(z)/S(0),
    # S(z) = sum_m (x^m / m!) exp(sum_p (-1)^p H_m^(p) z^p / p)
    hk = _harmonic_numbers(k, order)
    g_b = [0.0] * (order + 1)
    g_b[1] = math.log(x) + hk[0]
    for p in range(2, order + 1):
        g_b[p] = hk[p - 1] / p
    expfac = _exp_series(g_b)

    s_ser = [0.0] * (order + 1)
    hm = [0.0] * order
    w = 1.0
    m = 0
    while True:
        e_m = [0.0] * (order + 1)
        for p in range(1, order + 1):
            sign = 1.0 if p % 2 == 0 else -1.0
            e_m[p] = sign * hm[p - 1] / p
        em = _exp_series(e_m)
        for q in range(order + 1):
            s_ser[q] += w * em[q]
        m += 1
        if m > x + 8 and w < 1e-19 * abs(s_ser[0]):
            break
        if m > _SERIES_MAX_TERMS:
            raise EvaluationFailure(f"pole-series Taylor stalled at k={k}, x={x}")
        w *= x / m
        r = 1.0 / m
        acc = 1.0
        for p in range(order):
            acc *= r
            hm[p] += acc

    s0 = s_ser[0]
    s_norm = [c / s0 for c in s_ser]
    f_b = _mul_series(expfac, s_norm)
    return [f_a[m] - f_b[m] for m in range(1, order + 1)]


def _igamma_series_pole(a: complex, k: int, x: float) -> complex:
    """Gamma(a, x) for a = -k + z with |z| <= IGAMMA_NEAR_POLE, small x."""
    z = a + k
    xa_emx = _exp(a * math.log(x) - x, "Gamma", a, x)

    # P = sum_{n<k} x^n / prod_{j<=n} (a+j): the terms without the 1/(a+k) pole
    p_sum = 0.0 + 0.0j
    if k > 0:
        t = 1.0 / a
        p_sum = t
        for n in range(1, k):
            t *= x / (a + n)
            p_sum += t

    # (-1)^k / k!, which underflows to 0 past k = 170
    a0 = (-1.0 if k % 2 else 1.0) / math.factorial(k) if k <= 170 else 0.0
    if abs(z) <= IGAMMA_TAYLOR_WINDOW:
        deltas = _pole_series_taylor(k, x)
        poly = 0.0 + 0.0j
        for coef in reversed(deltas):
            poly = poly * z + coef
        n_over_z = a0 * poly
    else:
        # A(z) = Gamma(a) z, via reflection with exact range reduction
        sign = -1.0 if k % 2 else 1.0
        a_val = sign * math.pi * z / _sinpi(z) * _rgamma_right(1.0 + k - z)
        # B(z) = x^a e^-x * sum_{m>=0} x^(k+m) / (D_k(z) E_m(z))
        d = 1.0 + 0.0j
        for i in range(1, k + 1):
            d *= z - i
        t = x ** k / d
        q_sum = t
        m = 0
        while True:
            m += 1
            t *= x / (z + m)
            q_sum += t
            if abs(t) < abs(q_sum) * 1e-18 and m > x:
                break
            if m > _SERIES_MAX_TERMS:
                raise EvaluationFailure(
                    f"pole-series direct branch stalled at a={a}, x={x}"
                )
        n_over_z = (a_val - xa_emx * q_sum) / z
    return n_over_z - xa_emx * p_sum


def _igamma(a: complex, x: float) -> complex:
    """Gamma(a, x): region choice and evaluation at one point."""
    if not (x > 0.0):
        raise NonPositiveX(f"x must be > 0, got {x}")
    if x > 700.0 and (a.real - 1.0) * math.log(x) - x < IGAMMA_UNDERFLOW_LOG:
        return 0.0 + 0.0j
    if x >= max(1.0, a.real + 1.0):
        return _igamma_cf(a, x)
    k = round(-a.real)
    if k >= 0 and abs(a + k) <= IGAMMA_NEAR_POLE:
        return _igamma_series_pole(a, k, x)
    return _igamma_series_plain(a, x)


def upper_incomplete_gamma(a, x: float) -> complex:
    """Upper incomplete gamma Gamma(a, x) for complex a and real x > 0.

    Entire in ``a`` (non-positive integers included).  Relative error below
    ~1e-12 for |a| <= 30 and 1e-4 <= x <= 700; results whose magnitude falls
    below the smallest normal double are flushed to exact 0.
    """
    return _igamma(complex(a), float(x))


def upper_incomplete_gamma_many(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """:func:`upper_incomplete_gamma` at every pair of the 1-D complex array
    ``a`` and the 1-D real array ``x``: the ``(a.size, x.size)`` array of
    Gamma(a_i, x_j), with the same regions, flush and accuracy.
    """
    shape = (a.size, x.size)
    a = np.repeat(a.astype(complex), x.size)
    x = np.tile(x.astype(float), shape[0])
    if not (x > 0.0).all():
        raise NonPositiveX(f"x must be > 0, got {x[~(x > 0.0)][0]}")
    out = np.zeros(a.size, dtype=complex)
    cf = x >= np.maximum(1.0, a.real + 1.0)
    flush = x > 700.0
    if flush.any():
        flush &= (a.real - 1.0) * np.log(x) - x < IGAMMA_UNDERFLOW_LOG
        cf &= ~flush
    if cf.any():
        with np.errstate(over="ignore", invalid="ignore"):
            vals = _igamma_cf_many(a[cf], x[cf])
        if not np.isfinite(vals).all():
            raise EvaluationFailure("incomplete gamma overflows the double range")
        out[cf] = vals
    for k in np.flatnonzero(~(cf | flush)).tolist():
        out[k] = _igamma(complex(a[k]), float(x[k]))
    return out.reshape(shape)
