import math
import tracemalloc

import numpy as np
import pytest

import zetasolve.spherequad as spherequad
from zetasolve.errors import SingularMatrix, ValidationError
from zetasolve.solver import (
    LinearSystem,
    cimmino_R_integral,
    numeric_residue_solve,
    solve_direct,
    solve_via_integrals,
    solve_via_residues,
)
from zetasolve.spherequad import QuadratureSpec

A22 = np.array([[2.0, 1.0], [1.0, 3.0]])
B22 = np.array([5.0, 10.0])


def random_system(rng, n, max_cond):
    """Well-conditioned random system with condition number below max_cond."""
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    cond = rng.uniform(1.0, max_cond)
    sing = np.geomspace(1.0, 1.0 / cond, n) * rng.uniform(0.5, 2.0)
    a = u @ np.diag(sing) @ v.T
    return a, rng.standard_normal(n)


def test_solve_direct_examples():
    assert np.allclose(solve_direct(np.eye(3), [1.0, 2.0, 3.0]), [1, 2, 3])
    assert np.allclose(solve_direct(np.diag([2.0, 3.0]), [2.0, 3.0]), [1, 1])
    assert np.allclose(solve_direct(A22, B22), [1.0, 3.0], atol=1e-12)


def test_solve_direct_singular():
    with pytest.raises(SingularMatrix):
        solve_direct([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])
    with pytest.raises(SingularMatrix):
        LinearSystem(np.zeros((2, 2)), np.ones(2))


def test_cimmino_r_integral_values():
    spec = QuadratureSpec("circle_trapezoid", 256)
    assert cimmino_R_integral(np.eye(2), spec) == pytest.approx(2 * math.pi, rel=1e-13)
    assert cimmino_R_integral(np.diag([2.0, 3.0]), spec) == pytest.approx(math.pi / 3, rel=1e-12)
    g3 = QuadratureSpec("product_gauss", 24)
    assert cimmino_R_integral(np.eye(3), g3) == pytest.approx(4 * math.pi, rel=1e-13)


def test_cimmino_ri_integral_values():
    spec = QuadratureSpec("circle_trapezoid", 256)
    ri = solve_via_integrals(np.eye(2), [1.0, 0.0], spec).Ri
    assert ri[0] == pytest.approx(2 * math.pi, rel=1e-13)
    assert abs(ri[1]) < 1e-14
    got = solve_via_integrals(np.diag([2.0, 3.0]), [2.0, 3.0],
                              QuadratureSpec("circle_trapezoid", 1024)).Ri[0]
    assert got == pytest.approx(math.pi / 3, rel=1e-11)


def test_solve_via_integrals_deterministic():
    spec = QuadratureSpec("circle_trapezoid", 256)
    r = solve_via_integrals(np.eye(2), [3.0, -4.0], spec)
    assert r.max_rel_err < 1e-12
    assert np.array_equal(r.x, r.Ri / r.R)
    r = solve_via_integrals(A22, B22, QuadratureSpec("circle_trapezoid", 1024))
    assert np.allclose(r.x, [1.0, 3.0], atol=1e-8)
    a3 = np.array([[3.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 5.0]])
    r = solve_via_integrals(a3, np.array([1.0, 2.0, 3.0]),
                            QuadratureSpec("product_gauss", 48))
    assert r.max_rel_err < 1e-10


def test_solve_via_integrals_monte_carlo():
    rng = np.random.default_rng(11)
    a = np.eye(4) + 0.2 * rng.standard_normal((4, 4))
    b = rng.standard_normal(4)
    r = solve_via_integrals(a, b, QuadratureSpec("monte_carlo", 10 ** 6, seed=42))
    assert r.max_rel_err < 1e-2
    assert r.x_error3sigma is not None
    assert np.all(np.abs(r.x - r.x_reference) <= r.x_error3sigma)
    assert r.method["seed"] == 42
    assert np.array_equal(r.x, r.Ri / r.R)
    # n = 1 uses the exact two-point rule whatever the sample count
    r = solve_via_integrals([[2.0]], [3.0], QuadratureSpec("monte_carlo", 10 ** 6))
    assert np.array_equal(r.x, [1.5])
    assert np.array_equal(r.x_error3sigma, [0.0])


def test_monte_carlo_solve_needs_two_samples():
    with pytest.raises(ValidationError, match="at least 2 samples"):
        solve_via_integrals(A22, B22, QuadratureSpec("monte_carlo", 1))
    r = solve_via_integrals(A22, B22, QuadratureSpec("monte_carlo", 2))
    assert np.all(np.isfinite(r.x_error3sigma))
    r.to_json()


def test_solve_via_residues_examples():
    r = solve_via_residues(np.diag([2.0, 3.0]), [2.0, 3.0])
    assert np.allclose(r.x, [1.0, 1.0], atol=1e-14)
    assert r.R == pytest.approx(math.pi / 3, rel=1e-13)
    assert np.allclose(r.Ri, [math.pi / 3, math.pi / 3], rtol=1e-13)
    r = solve_via_residues(np.eye(2), [7.0, -4.0])
    assert np.allclose(r.x, [7.0, -4.0], atol=1e-13)
    r = solve_via_residues(A22, B22)
    assert np.allclose(r.x, [1.0, 3.0], atol=1e-12)


def test_numeric_residue_solve_examples():
    r = numeric_residue_solve(np.eye(2), [1.0, 0.0])
    assert np.allclose(r.x, [1.0, 0.0], atol=1e-8)
    r = numeric_residue_solve(np.diag([2.0, 3.0]), [2.0, 3.0])
    assert np.allclose(r.x, [1.0, 1.0], atol=1e-8)
    r = numeric_residue_solve(A22, B22)
    assert np.allclose(r.x, [1.0, 3.0], atol=1e-7)
    with pytest.raises(ValidationError):
        numeric_residue_solve(np.eye(6), np.ones(6))


@pytest.mark.parametrize("a, b", [
    ([[2, 1, 0, 0], [0, 3, 1, 0], [1, 0, 2, -1], [0, 1, 0, 2]], [1, -2, 3, 1]),
    ([[3, 1, 0, 0, 1], [0, 2, 1, 0, 0], [1, 0, 3, -1, 0], [0, 1, 0, 2, 1],
      [-1, 0, 1, 0, 3]], [2, 0, -1, 1, 3]),
])
def test_numeric_residue_solve_n4_n5(a, b):
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    r = numeric_residue_solve(a, b)
    assert r.method["route"] == "numeric_residue"
    assert np.max(np.abs(r.x - solve_direct(a, b))) <= 1e-7 * np.max(np.abs(r.x_reference))


def test_route_agreement_random_suite():
    rng = np.random.default_rng(500)
    for n in (2, 3, 4, 5, 6):
        a, b = random_system(rng, n, max_cond=100.0)
        res = solve_via_residues(a, b)
        assert res.max_rel_err < 1e-12
    for n in (2, 3):
        a, b = random_system(rng, n, max_cond=20.0)
        spec = (QuadratureSpec("circle_trapezoid", 4096) if n == 2
                else QuadratureSpec("product_gauss", 96))
        r = solve_via_integrals(a, b, spec)
        assert r.max_rel_err < 1e-8
        r = numeric_residue_solve(a, b)
        assert r.max_rel_err < 1e-7


def test_scale_equivariance():
    rng = np.random.default_rng(42)
    a, b = random_system(rng, 3, max_cond=10.0)
    base = solve_via_residues(a, b).x
    for c in (0.5, 3.0):
        scaled = solve_via_residues(c * a, c * b).x
        assert np.max(np.abs(scaled - base)) < 1e-10 * max(1.0, np.max(np.abs(base)))


def test_permutation_equivariance():
    rng = np.random.default_rng(43)
    a, b = random_system(rng, 4, max_cond=10.0)
    perm = np.eye(4)[[2, 0, 3, 1]]
    base = solve_via_residues(a, b).x
    permuted = solve_via_residues(perm @ a, perm @ b).x
    assert np.max(np.abs(permuted - base)) < 1e-10


def test_monte_carlo_error_honesty_small():
    rng = np.random.default_rng(77)
    a = np.eye(4) + 0.15 * rng.standard_normal((4, 4))
    b = rng.standard_normal(4)
    covered = 0
    for seed in range(10):
        r = solve_via_integrals(a, b, QuadratureSpec("monte_carlo", 40000, seed=seed))
        if np.all(np.abs(r.x - r.x_reference) <= r.x_error3sigma):
            covered += 1
    assert covered >= 9


def test_condition_warning():
    a = np.diag([1.0, 1e-7])
    with pytest.warns(UserWarning):
        solve_via_integrals(a, [1.0, 1.0], QuadratureSpec("circle_trapezoid", 64))


def test_report_json_round_trip():
    import json
    r = solve_via_residues(A22, B22)
    blob = json.dumps(r.to_json(), sort_keys=True)
    back = json.loads(blob)
    assert back["x"]["v"] == [1.0, 3.0]
    assert back["method"]["route"] == "residues"


@pytest.mark.parametrize("n, spec", [(8, QuadratureSpec("monte_carlo", 10 ** 6, seed=1)),
                                     (5, QuadratureSpec("product_gauss", 32))])
def test_sphere_solve_memory_is_bounded(n, spec):
    # every rule is evaluated block by block: one array over the whole rule
    # would be 10^6 x 9 or 2 * 32^4 x 5 doubles, 72 or 84 MB
    rng = np.random.default_rng(n)
    a, b = np.eye(n) + 0.2 * rng.standard_normal((n, n)), rng.standard_normal(n)
    tracemalloc.start()
    try:
        r = solve_via_integrals(a, b, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(r.x))
    assert peak < 48 * 2 ** 20


def test_sphere_solve_memory_is_bounded_with_helper(monkeypatch):
    # two Monte Carlo blocks in flight at once stay under the same bound
    monkeypatch.setattr(spherequad, "_HELPERS", 1)
    test_sphere_solve_memory_is_bounded(8, QuadratureSpec("monte_carlo", 10 ** 6, seed=1))


def test_monte_carlo_solve_is_bitwise_serial(monkeypatch):
    rng = np.random.default_rng(4)
    a, b = np.eye(4) + 0.2 * rng.standard_normal((4, 4)), rng.standard_normal(4)
    spec = QuadratureSpec("monte_carlo", 3 * 65536 + 1234, seed=9)
    monkeypatch.setattr(spherequad, "_HELPERS", 0)
    serial = solve_via_integrals(a, b, spec)
    monkeypatch.setattr(spherequad, "_HELPERS", 1)
    r = solve_via_integrals(a, b, spec)
    assert r.R == serial.R
    for name in ("Ri", "x", "x_error3sigma"):
        assert np.array_equal(getattr(r, name), getattr(serial, name))
