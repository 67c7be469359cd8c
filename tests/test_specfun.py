import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from zetasolve.errors import EvaluationFailure, NonPositiveX, PoleOfGamma
from zetasolve.specfun import (
    _CF_SCALAR_FINISH,
    gamma_complex,
    reciprocal_gamma,
    upper_incomplete_gamma,
    upper_incomplete_gamma_many,
)

mp.mp.dps = 40


def mp_igamma(a, x):
    return complex(mp.gammainc(mp.mpc(a), x, mp.inf))


def test_gamma_trivial_values():
    assert gamma_complex(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma_complex(0.5).real == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma_complex(5.0).real == pytest.approx(24.0, rel=1e-14)


def test_gamma_pole_errors():
    for s in (0.0, -1.0, -7.0, -3.0 + 1e-13):
        with pytest.raises(PoleOfGamma):
            gamma_complex(s)
    # just outside the pole tolerance is allowed
    gamma_complex(-3.0 + 1e-9)


def test_gamma_recurrence_random():
    rng = np.random.default_rng(101)
    count = 0
    while count < 200:
        r = rng.uniform(0.2, 20.0)
        th = rng.uniform(0.0, 2.0 * math.pi)
        s = complex(r * math.cos(th), r * math.sin(th))
        if s.real < 0.5 and abs(s - round(s.real)) < 1e-3:
            continue
        lhs = gamma_complex(s + 1.0)
        rhs = s * gamma_complex(s)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
        count += 1


def test_gamma_against_mpmath():
    rng = np.random.default_rng(555)
    for _ in range(120):
        r = rng.uniform(0.1, 50.0)
        th = rng.uniform(0.0, 2.0 * math.pi)
        s = complex(r * math.cos(th), r * math.sin(th))
        if s.real < 0.5 and abs(s - round(s.real)) < 1e-6:
            continue
        ref = complex(mp.gamma(mp.mpc(s)))
        if not (1e-280 < abs(ref) < 1e280):
            continue
        assert abs(gamma_complex(s) - ref) <= 1e-12 * abs(ref)


def test_reciprocal_gamma_zeros():
    for k in range(0, 25):
        assert reciprocal_gamma(-float(k)) == 0.0
    assert abs(reciprocal_gamma(1.0) - 1.0) < 1e-14


def test_igamma_trivial_values():
    assert upper_incomplete_gamma(1.0, 1.0).real == pytest.approx(math.exp(-1.0), rel=1e-13)
    assert upper_incomplete_gamma(2.0, 1.0).real == pytest.approx(2.0 * math.exp(-1.0), rel=1e-13)


def test_igamma_half_against_quadrature():
    # independent oracle: adaptive quadrature of the defining integral,
    # split at a finite point so the error estimate stays tight
    head, err1 = integrate.quad(lambda t: math.exp(-t) / math.sqrt(t), 1.0, 40.0,
                                epsabs=1e-12, epsrel=1e-12)
    tail, err2 = integrate.quad(lambda t: math.exp(-t) / math.sqrt(t), 40.0, np.inf,
                                epsabs=1e-12, epsrel=1e-12)
    oracle = head + tail
    assert err1 + err2 < 1e-10
    assert upper_incomplete_gamma(0.5, 1.0).real == pytest.approx(oracle, abs=1e-10)
    # frozen value for the record
    assert upper_incomplete_gamma(0.5, 1.0).real == pytest.approx(0.27880558528066198, rel=1e-12)


def test_igamma_recurrence_random():
    rng = np.random.default_rng(202)
    for _ in range(200):
        a = complex(rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0))
        x = float(rng.uniform(0.1, 50.0))
        lhs = upper_incomplete_gamma(a + 1.0, x)
        rhs = a * upper_incomplete_gamma(a, x) + math.exp(-x) * x ** a
        scale = max(abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_igamma_limit_to_gamma():
    for a in (1.0, 1.5, 3.0, 7.0, 2.0 + 1.0j):
        full = gamma_complex(a)
        near = upper_incomplete_gamma(a, 0.001)
        assert abs(near - full) / abs(full) < 1e-2


def test_igamma_monotone_decreasing_in_x():
    for a in (-2.5, -0.5, 0.5, 2.0, 6.0):
        xs = np.linspace(0.05, 20.0, 120)
        vals = [upper_incomplete_gamma(a, x).real for x in xs]
        diffs = np.diff(vals)
        assert np.all(diffs <= 1e-12 * np.maximum(1.0, np.abs(vals[:-1])))


@pytest.mark.parametrize("k", [0, 1, 2, 5, 17, 29])
def test_igamma_near_nonpositive_integers(k):
    offsets = (0.0, 1e-15, -1e-15, 1e-9, 5e-3, 2e-2, -2e-2, 0.3, -0.3)
    xs = (1e-4, 0.05, 0.7, 1.0, 2.0, 10.0, 100.0)
    for off in offsets:
        a = -k + off
        for x in xs:
            val = upper_incomplete_gamma(a, x)
            ref = mp_igamma(a, x)
            scale = max(abs(ref), 1e-300)
            assert abs(val - ref) <= 1e-11 * scale, (a, x)


def test_igamma_complex_near_poles():
    rng = np.random.default_rng(303)
    for _ in range(80):
        k = int(rng.integers(0, 20))
        rad = 10.0 ** rng.uniform(-9, -0.5)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        a = complex(-k + rad * math.cos(ang), rad * math.sin(ang))
        x = float(10.0 ** rng.uniform(-4, 1.5))
        val = upper_incomplete_gamma(a, x)
        ref = mp_igamma(a, x)
        assert abs(val - ref) <= 1e-11 * max(abs(ref), 1e-300)


def test_igamma_random_complex_wide():
    rng = np.random.default_rng(404)
    for _ in range(200):
        r = rng.uniform(0.0, 30.0)
        th = rng.uniform(0.0, 2.0 * math.pi)
        a = complex(r * math.cos(th), r * math.sin(th))
        x = float(10.0 ** rng.uniform(-4, math.log10(700.0)))
        val = upper_incomplete_gamma(a, x)
        ref = mp_igamma(a, x)
        assert abs(val - ref) <= 1e-11 * max(abs(ref), 1e-300)


def test_igamma_entire_at_integers():
    # Gamma(0, x) = E_1(x) and friends: exact non-positive integer a
    for k in (0, 1, 4):
        for x in (0.25, 0.9, 3.0):
            val = upper_incomplete_gamma(-k, x)
            ref = mp_igamma(-k, x)
            assert abs(val - ref) <= 1e-12 * abs(ref)


def test_igamma_errors_and_underflow():
    with pytest.raises(NonPositiveX):
        upper_incomplete_gamma(1.0, 0.0)
    with pytest.raises(NonPositiveX):
        upper_incomplete_gamma(1.0, -3.0)
    assert upper_incomplete_gamma(1.0, 800.0) == 0.0
    # large positive a keeps x=800 well above underflow
    assert abs(upper_incomplete_gamma(30.0, 701.0)) > 0.0


def _igamma_grid():
    """The a values over Re a in [-6, 6], |Im a| <= 12, with points near the
    non-positive integers (Taylor and pole-series windows), and for each a
    the x values on both sides of max(1, Re a + 1), down to 1e-3 and past
    the x > 700 flush."""
    rng = np.random.default_rng(505)
    a_vals = list(rng.uniform(-6.0, 6.0, 24) + 1j * rng.uniform(-12.0, 12.0, 24))
    a_vals += [3.0, 0.5, -2.5 + 11.0j, 6.0 - 12.0j]
    for k in range(0, 7):
        a_vals += [-k + 4e-3, -k - 6e-3j, -k + 0.25, -k - 0.3 + 0.2j]
    grid = []
    for a in a_vals:
        edge = max(1.0, a.real + 1.0)
        grid.append((complex(a), [1e-3, 0.3, 0.97 * edge, edge, 1.03 * edge,
                                  40.0, 699.0, 701.0, 750.0]))
    return grid


def _check_many(a, x):
    got = upper_incomplete_gamma_many(a, x)
    ref = np.array([[upper_incomplete_gamma(ai, xj) for xj in x] for ai in a])
    assert got.shape == ref.shape == (a.size, x.size)
    assert np.all((got == 0.0) == (ref == 0.0))
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))
    return ref


def test_igamma_many_matches_scalar():
    grid = _igamma_grid()
    # one pair, and one a with its 9 x values: below the cut-off from the start
    for a, xs in grid:
        assert len(xs) < _CF_SCALAR_FINISH
        _check_many(np.array([a]), np.array(xs))
        for x in xs:
            _check_many(np.array([a]), np.array([x]))
    a = np.array([a for a, _ in grid])
    # every a against every x: compaction, then the scalar finish
    x = np.unique(np.concatenate([xs for _, xs in grid]))
    ref = _check_many(a, x)
    assert (ref == 0.0).any() and (ref != 0.0).any()  # the flush is on the grid


def test_igamma_many_shape_and_validation():
    a = np.array([0.5, 2.0 + 1.0j, -1.0])
    x = np.array([0.1, 1.5, 9.0, 30.0])
    _check_many(a, x)
    assert upper_incomplete_gamma_many(a, x[:0]).shape == (3, 0)
    with pytest.raises(NonPositiveX):
        upper_incomplete_gamma_many(a, np.array([1.0, 0.0, 2.0]))


def test_gamma_overflow_is_a_package_error():
    # 1/Gamma underflows to 0; Gamma and Gamma(a, x) beyond the double range raise
    assert reciprocal_gamma(200.5) == 0.0
    assert reciprocal_gamma(-200.0) == 0.0
    assert 0.0 < abs(reciprocal_gamma(172.0)) < 1e-300
    assert gamma_complex(170.0).real == pytest.approx(math.gamma(170.0), rel=1e-12)
    # near a = -600 the pole series' 1/k! underflows to 0 instead of raising
    ref = mp_igamma(-600.004, 0.7)
    assert abs(upper_incomplete_gamma(-600.004, 0.7) - ref) <= 1e-12 * abs(ref)
    for call in (lambda: gamma_complex(200.5), lambda: reciprocal_gamma(-200.5),
                 lambda: upper_incomplete_gamma(200.5, 3.0),
                 lambda: upper_incomplete_gamma(200.0, 250.0),
                 lambda: upper_incomplete_gamma_many(np.array([200.0]), np.array([250.0]))):
        with pytest.raises(EvaluationFailure):
            call()
