import itertools
import math

import numpy as np
import pytest

from zetasolve.errors import DegenerateGrid, TooManyPoints, ValidationError
from zetasolve.quadforms import SPDForm, cholesky
from zetasolve.theta import (
    enumerate_ellipsoid,
    theta_asymptotic_fit,
    theta_star_gaussian,
    theta_star_weighted,
    theta_transform_residual,
)

I1 = np.eye(1)
I2 = np.eye(2)
FORMS = (I2, np.diag([1.0, 4.0]), np.array([[2.0, 1.0], [1.0, 3.0]]))


def brute_force_points(Q, R):
    """Box enumeration oracle: every nonzero w with q_Q(w) <= R."""
    Q = np.asarray(Q, float)
    n = Q.shape[0]
    lam_min = np.linalg.eigvalsh(Q)[0]
    box = int(math.floor(math.sqrt(R / lam_min))) + 1
    out = set()
    for w in itertools.product(range(-box, box + 1), repeat=n):
        if any(w) and w @ Q @ w <= R:
            out.add(w)
    return out


def test_enumeration_examples():
    ep = enumerate_ellipsoid(I2, 1.0)
    assert sorted(map(tuple, ep.points)) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    assert len(enumerate_ellipsoid(I2, 2.0)) == 8
    ep = enumerate_ellipsoid(np.diag([1.0, 4.0]), 4.0)
    assert sorted(map(tuple, ep.points)) == [(-2, 0), (-1, 0), (0, -1), (0, 1), (1, 0), (2, 0)]


def test_enumeration_completeness_brute_force():
    rng = np.random.default_rng(31)
    cases = [(I2, 30.0), (np.diag([1.0, 4.0]), 25.0),
             (np.array([[2.0, 1.0], [1.0, 3.0]]), 30.0), (I1, 17.0)]
    for _ in range(3):
        m = rng.standard_normal((3, 3))
        cases.append((m @ m.T + 1.5 * np.eye(3), float(rng.uniform(5.0, 20.0))))
    for q, radius in cases:
        ep = enumerate_ellipsoid(q, radius)
        assert set(map(tuple, ep.points)) == brute_force_points(q, radius)


def test_enumeration_sorted_and_symmetric():
    ep = enumerate_ellipsoid(np.array([[2.0, 1.0], [1.0, 3.0]]), 40.0)
    q = ep.qvals
    assert np.all(np.diff(q) >= 0)
    for i in range(len(ep) - 1):
        if q[i] == q[i + 1]:
            assert tuple(ep.points[i]) < tuple(ep.points[i + 1])
    pts = set(map(tuple, ep.points))
    assert all(tuple(-np.array(p)) in pts for p in pts)
    assert np.all(q <= 40.0)


def test_smaller_radius_is_a_prefix_of_the_held_enumeration():
    rng = np.random.default_rng(37)
    for n in range(1, 6):
        for _ in range(3):
            m = rng.standard_normal((n, n))
            q = m @ m.T + 0.5 * n * np.eye(n)
            qf = cholesky(q)
            big = enumerate_ellipsoid(qf, 30.0)
            small = enumerate_ellipsoid(qf, 7.0)
            fresh = enumerate_ellipsoid(SPDForm(q), 7.0)
            assert small.radius == 7.0
            assert np.array_equal(small.points, fresh.points)
            assert np.array_equal(small.qvals.view(np.uint64), fresh.qvals.view(np.uint64))
            # the form holds one enumeration, at the largest radius asked for
            assert qf._enumeration is big and big.radius == 30.0
            assert enumerate_ellipsoid(qf, 30.0) is big


def test_enumeration_point_cap():
    with pytest.raises(TooManyPoints):
        enumerate_ellipsoid(I2, 1e6, cap=1000)


def test_theta_values_against_direct_sums():
    # one-dimensional: 2 sum_{m>=1} exp(-pi m^2)
    oracle = 2.0 * sum(math.exp(-math.pi * m * m) for m in range(1, 12))
    assert theta_star_gaussian(I1, 1.0, 1e-15) == pytest.approx(oracle, abs=1e-14)
    assert theta_star_gaussian(I1, 1.0, 1e-15) == pytest.approx(0.08643481121330801, abs=1e-14)
    # two dimensions from the one-dimensional value
    v1 = theta_star_gaussian(I1, 1.0, 1e-15)
    assert theta_star_gaussian(I2, 1.0, 1e-15) == pytest.approx((1 + v1) ** 2 - 1, abs=1e-13)
    # dominant shell at large t
    lead = 4.0 * math.exp(-50.0 * math.pi)
    assert theta_star_gaussian(I2, 50.0, 1e-80) == pytest.approx(lead, rel=1e-10)


def test_theta_weighted_values():
    assert theta_star_weighted(I2, np.zeros((2, 2)), 1.0, 1e-12) == 0.0
    oracle = 2.0 * sum(m * m * math.exp(-math.pi * m * m) for m in range(1, 12))
    assert theta_star_weighted(I1, I1, 1.0, 1e-15) == pytest.approx(oracle, abs=1e-14)
    # matches -(1/pi) d/dt theta*(I2, t) at t = 1
    h = 1e-5
    deriv = (theta_star_gaussian(I2, 1 + h, 1e-16)
             - theta_star_gaussian(I2, 1 - h, 1e-16)) / (2 * h)
    assert theta_star_weighted(I2, I2, 1.0, 1e-15) == pytest.approx(-deriv / math.pi, abs=1e-6)


def test_theta_scaling_identity():
    for q in FORMS:
        for t in (0.5, 1.0, 3.0):
            a = theta_star_gaussian(q, t, 1e-14)
            b = theta_star_gaussian(t * np.asarray(q), 1.0, 1e-14)
            assert abs(a - b) < 1e-12 * max(1.0, a)


def test_theta_monotone_in_t():
    grid = np.linspace(0.2, 5.0, 25)
    for q in FORMS:
        vals = [theta_star_gaussian(q, t, 1e-13) for t in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_theta_permutation_invariance():
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    q = np.diag([1.0, 4.0])
    qp = p.T @ q @ p
    for t in (0.3, 1.0):
        assert theta_star_gaussian(q, t, 1e-14) == pytest.approx(
            theta_star_gaussian(qp, t, 1e-14), abs=1e-13)
        assert theta_star_weighted(q, q, t, 1e-14) == pytest.approx(
            theta_star_weighted(qp, qp, t, 1e-14), abs=1e-13)


def test_transform_residual_grid():
    for q in FORMS:
        qf = cholesky(q)
        for t in (0.5, 1.0, 2.0):
            theta_scale = max(1.0, t ** (-qf.n / 2) / qf.sqrt_det)
            assert theta_transform_residual(q, t) < 1e-12 * theta_scale
    assert theta_transform_residual(I1, 1.0) < 1e-12


def test_transform_residual_range_check():
    with pytest.raises(ValidationError):
        theta_transform_residual(I2, 0.001)


def test_asymptotic_fit_examples():
    grid = [0.1, 0.05, 0.02, 0.01]
    alpha, coeff = theta_asymptotic_fit(I2, grid)
    assert alpha == pytest.approx(1.0, abs=1e-3)
    assert coeff == pytest.approx(1.0, abs=1e-3)
    alpha, coeff = theta_asymptotic_fit(np.diag([4.0, 4.0]), grid)
    assert alpha == pytest.approx(1.0, abs=1e-3)
    assert coeff == pytest.approx(0.25, abs=1e-3)
    alpha, coeff = theta_asymptotic_fit(I1, grid)
    assert alpha == pytest.approx(0.5, abs=1e-3)
    assert coeff == pytest.approx(1.0, abs=1e-3)


def test_asymptotic_fit_validation():
    with pytest.raises(DegenerateGrid):
        theta_asymptotic_fit(I2, [0.1, 0.05, 0.02])
    with pytest.raises(ValidationError):
        theta_asymptotic_fit(I2, [0.3, 0.2, 0.1, 0.05])
    with pytest.raises(ValidationError):
        theta_asymptotic_fit(I2, [0.05, 0.1, 0.02, 0.01])
