import hashlib
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zetasolve.spherequad as spherequad
from zetasolve.errors import NonFiniteIntegrand, ValidationError
from zetasolve.spherequad import (
    QuadratureSpec,
    sample_directions,
    sphere_integrate,
    sphere_quadrature_blocks,
    sphere_surface_measure,
)


def ones(u):
    return np.ones(len(u))


def concatenated_blocks(n, spec):
    us, ws = zip(*sphere_quadrature_blocks(n, spec))
    return np.concatenate(us), np.concatenate(ws)


def test_surface_measures():
    assert sphere_surface_measure(1) == pytest.approx(2.0)
    assert sphere_surface_measure(2) == pytest.approx(2.0 * math.pi)
    assert sphere_surface_measure(3) == pytest.approx(4.0 * math.pi)
    assert sphere_surface_measure(4) == pytest.approx(2.0 * math.pi ** 2)


def test_spec_validation():
    with pytest.raises(ValidationError):
        QuadratureSpec("nonsense", 10)
    with pytest.raises(ValidationError):
        QuadratureSpec("monte_carlo", 0)
    with pytest.raises(ValidationError):
        sphere_integrate(ones, 3, QuadratureSpec("circle_trapezoid", 16))
    with pytest.raises(ValidationError):
        sphere_integrate(ones, 2, QuadratureSpec("product_gauss", 16))
    with pytest.raises(ValidationError):
        sphere_integrate(ones, 6, QuadratureSpec("product_gauss", 16))


def test_trapezoid_exact_trig():
    nodes = 64
    spec = QuadratureSpec("circle_trapezoid", nodes)
    for k in range(1, nodes):
        for trig in (np.cos, np.sin):
            val = sphere_integrate(
                lambda u, k=k, trig=trig: trig(k * np.arctan2(u[:, 1], u[:, 0])),
                2, spec).value
            assert abs(val) < 1e-13
    assert sphere_integrate(ones, 2, spec).value == pytest.approx(2 * math.pi, rel=1e-15)


def test_moment_identities():
    for n, spec in ((2, QuadratureSpec("circle_trapezoid", 64)),
                    (3, QuadratureSpec("product_gauss", 24)),
                    (4, QuadratureSpec("product_gauss", 24))):
        total = sphere_surface_measure(n)
        for i in range(n):
            for j in range(n):
                val = sphere_integrate(
                    lambda u, i=i, j=j: u[:, i] * u[:, j], n, spec).value
                target = total / n if i == j else 0.0
                assert abs(val - target) < 1e-12


def test_product_gauss_measures():
    for n in (3, 4, 5):
        spec = QuadratureSpec("product_gauss", 24)
        r = sphere_integrate(ones, n, spec)
        assert r.value == pytest.approx(sphere_surface_measure(n), rel=1e-13)
        assert r.error_estimate >= 0.0


def test_anisotropic_norm_integral():
    # integral of |A^T u|^-2 over the circle equals 2 pi / |det A|
    a = np.diag([2.0, 3.0])
    spec = QuadratureSpec("circle_trapezoid", 512)
    val = sphere_integrate(
        lambda u: 1.0 / np.einsum("ij,ij->i", u @ a, u @ a), 2, spec).value
    assert val == pytest.approx(math.pi / 3.0, abs=1e-10)


def test_monte_carlo_moments_and_bars():
    spec = QuadratureSpec("monte_carlo", 200000, seed=42)
    r = sphere_integrate(ones, 3, spec)
    assert r.value == pytest.approx(4 * math.pi, rel=1e-12)
    assert r.error_estimate == 0.0  # constant integrand has zero variance
    r = sphere_integrate(lambda u: u[:, 0] ** 2, 3, spec)
    assert abs(r.value - 4 * math.pi / 3) < r.error_estimate
    assert r.error_estimate < 0.05


def test_monte_carlo_mean_clt():
    u = sample_directions(4, 10 ** 6, seed=3)
    bound = 3.5 / math.sqrt(10 ** 6) / 2.0  # component std is 1/sqrt(n) = 1/2
    assert np.max(np.abs(u.mean(axis=0))) < bound
    cov = np.einsum("ki,kj->ij", u, u) / len(u)
    assert np.max(np.abs(cov - np.eye(4) / 4.0)) < 5e-3


def test_determinism_run_to_run():
    spec = QuadratureSpec("monte_carlo", 50000, seed=99)
    r1 = sphere_integrate(lambda u: np.exp(-u[:, 0] ** 2), 3, spec)
    r2 = sphere_integrate(lambda u: np.exp(-u[:, 0] ** 2), 3, spec)
    assert r1.value == r2.value and r1.error_estimate == r2.error_estimate
    u = sample_directions(3, 70000, seed=7)
    assert np.array_equal(u, sample_directions(3, 70000, seed=7))
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-14)


def test_stream_pinned():
    # The documented stream rests on numpy's Generator.standard_normal, which
    # NEP 19 leaves free to change: a numpy release that changes it changes
    # the stream, and this digest with it.
    digest = hashlib.sha256(sample_directions(3, 1000, 7).tobytes()).hexdigest()
    assert digest == "7ef68e146ed0d5f450047eba08df71564d2333a70c58b8b296939e8837548db2"


@settings(derandomize=True, max_examples=12, deadline=None)
@given(n=st.integers(2, 8),
       count=st.integers(65537, 3 * 65536),
       cut=st.integers(1, 3 * 65536),
       seed=st.one_of(st.integers(-2 ** 70, 2 ** 70), st.integers(-5, 5)))
def test_stream_prefix_norms_and_seed_wrap(n, count, cut, seed):
    cut = min(cut, count - 1)
    u = sample_directions(n, count, seed)
    assert u.shape == (count, n)
    assert np.array_equal(sample_directions(n, cut, seed), u[:cut])
    assert np.max(np.abs(np.einsum("ij,ij->i", u, u) - 1.0)) < 1e-14
    assert np.array_equal(sample_directions(n, count, seed + 2 ** 64), u)


def test_rotation_invariance_in_distribution():
    theta = 0.7
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    f = lambda u: 1.0 / (2.0 + u[:, 0])
    r1 = sphere_integrate(f, 2, QuadratureSpec("monte_carlo", 100000, seed=5))
    r2 = sphere_integrate(lambda u: f(u @ rot.T), 2,
                          QuadratureSpec("monte_carlo", 100000, seed=6))
    gap = abs(r1.value - r2.value)
    assert gap <= r1.error_estimate + r2.error_estimate


def test_nonfinite_integrand_rejected():
    spec = QuadratureSpec("monte_carlo", 100, seed=1)
    with pytest.raises(NonFiniteIntegrand):
        sphere_integrate(lambda u: np.where(u[:, 0] > -2, np.inf, 1.0), 3, spec)


def test_monte_carlo_single_sample():
    r = sphere_integrate(ones, 3, QuadratureSpec("monte_carlo", 1, seed=4))
    assert r.value == pytest.approx(4 * math.pi, rel=1e-15)
    assert r.error_estimate == math.inf


def test_n1_two_point_measure():
    spec = QuadratureSpec("monte_carlo", 10, seed=0)
    r = sphere_integrate(ones, 1, spec)
    assert r.value == 2.0 and r.error_estimate == 0.0
    r = sphere_integrate(lambda u: u[:, 0] ** 2, 1, spec)
    assert r.value == 2.0


def test_deterministic_error_estimates():
    spec = QuadratureSpec("circle_trapezoid", 128)
    r = sphere_integrate(lambda u: np.exp(u[:, 0]), 2, spec)
    oracle = 2 * math.pi * 1.2660658777520084  # 2 pi I_0(1)
    assert abs(r.value - oracle) < 1e-12
    assert r.error_estimate < 1e-10


def test_nodes_shapes():
    u, w = concatenated_blocks(2, QuadratureSpec("circle_trapezoid", 32))
    assert u.shape == (32, 2) and w.shape == (32,)
    u, w = concatenated_blocks(4, QuadratureSpec("product_gauss", 8))
    assert u.shape == (8 * 8 * 16, 4)
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0)
    with pytest.raises(ValidationError):
        list(sphere_quadrature_blocks(3, QuadratureSpec("monte_carlo", 100)))


def moments(u):
    return np.column_stack([np.ones(len(u)), u[:, 0] ** 2, u[:, 0] * u[:, 1]])


def test_monte_carlo_vector_integrand():
    spec = QuadratureSpec("monte_carlo", 100000, seed=8)
    r = sphere_integrate(moments, 3, spec)
    assert r.value.shape == (3,) and r.covariance.shape == (3, 3)
    for j in range(3):
        scalar = sphere_integrate(lambda u, j=j: moments(u)[:, j], 3, spec)
        if j == 2:
            assert abs(r.value[j] - scalar.value) <= 1e-14
        else:
            assert r.value[j] == pytest.approx(scalar.value, rel=1e-14, abs=0.0)
        assert r.error_estimate[j] == pytest.approx(scalar.error_estimate, rel=1e-14)
        assert r.covariance[j, j] == pytest.approx(scalar.covariance, rel=1e-14)
    cov = r.covariance
    assert np.array_equal(cov, cov.T)
    assert np.min(np.linalg.eigvalsh(cov)) >= -1e-15 * np.max(np.diag(cov))
    assert np.all(cov[0] == 0.0) and np.all(cov[:, 0] == 0.0)
    assert np.array_equal(r.error_estimate, 3.0 * np.sqrt(np.diag(cov)))


def test_deterministic_vector_integrand():
    spec = QuadratureSpec("product_gauss", 16)
    r = sphere_integrate(moments, 3, spec)
    assert r.covariance is None
    for j in range(3):
        scalar = sphere_integrate(lambda u, j=j: moments(u)[:, j], 3, spec)
        scale = max(abs(scalar.value), 1.0)
        assert abs(r.value[j] - scalar.value) <= 1e-14 * scale
        # a difference of two rules: both sides are round-off at this order
        assert abs(r.error_estimate[j] - scalar.error_estimate) <= 1e-13 * scale


def test_integrand_shape_rejected():
    for spec in (QuadratureSpec("monte_carlo", 100, seed=1),
                 QuadratureSpec("product_gauss", 4)):
        with pytest.raises(ValidationError):
            sphere_integrate(lambda u: np.ones((len(u), 2, 2)), 3, spec)
        with pytest.raises(ValidationError):
            sphere_integrate(lambda u: np.ones(len(u) + 1), 3, spec)
        with pytest.raises(ValidationError):
            sphere_integrate(lambda u: np.ones((len(u) - 1, 2)), 3, spec)


@pytest.mark.parametrize("call", [
    lambda: sample_directions(3, -1, 0),
    lambda: sample_directions(3, 5.0, 0),
    lambda: sample_directions(0, 5, 1),
    lambda: sample_directions(3.0, 5, 1),
    lambda: sample_directions(True, 5, 1),
    lambda: sample_directions(3, 5, 1.5),
    lambda: sample_directions(3, 5, True),
    lambda: sample_directions(3, 5, 1, block=-1),
    lambda: sample_directions(3, 5, 1, block=1.0),
    lambda: sample_directions(3, 5, 1, block=2 ** 64),
    lambda: list(sphere_quadrature_blocks(3, "x")),
    lambda: list(sphere_quadrature_blocks(0, QuadratureSpec("product_gauss", 4))),
    lambda: list(sphere_quadrature_blocks(True, QuadratureSpec("circle_trapezoid", 4))),
    lambda: sphere_integrate(ones, 3, "x"),
], ids=["count<0", "count-float", "n<1", "n-float", "n-bool", "seed-float", "seed-bool",
        "block<0", "block-float", "block-past-stream", "blocks-spec-str", "blocks-n<1",
        "blocks-n-bool", "integrate-spec-str"])
def test_bad_arguments_raise_validation_error(call):
    with pytest.raises(ValidationError):
        call()


@settings(derandomize=True, max_examples=8, deadline=None)
@given(n=st.integers(2, 6),
       block=st.integers(0, 2),
       count=st.integers(0, 2 * 65536 + 7),
       seed=st.one_of(st.integers(-2 ** 70, 2 ** 70), st.integers(-5, 5)))
def test_block_is_a_window_of_the_stream(n, block, count, seed):
    start = block * 65536
    u = sample_directions(n, start + count, seed)
    assert np.array_equal(sample_directions(n, count, seed, block=block), u[start:])


@pytest.mark.parametrize("f", [lambda u: np.exp(u[:, 0]) / (1.5 + u[:, 1]), moments])
def test_monte_carlo_matches_two_pass_reference(f):
    # the streamed value is the whole-array block sums' fsum, bit for bit; the
    # merged covariance agrees with one centred pass over all samples
    n, m = 3, 3 * 65536 + 1234
    spec = QuadratureSpec("monte_carlo", m, seed=21)
    cols = np.asarray(f(sample_directions(n, m, spec.seed))).reshape(m, -1)
    blocks = [cols[i:i + 65536] for i in range(0, m, 65536)]
    mean = np.array([math.fsum(np.sum(b[:, j]) for b in blocks)
                     for j in range(cols.shape[1])]) / m
    d = cols - mean
    surface = sphere_surface_measure(n)
    cov = surface ** 2 * (d.T @ d) / (m - 1) / m
    r = sphere_integrate(f, n, spec)
    assert np.array_equal(np.atleast_1d(r.value), surface * mean)
    scale = np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    assert np.all(np.abs(np.atleast_2d(r.covariance) - cov) <= 1e-13 * scale)


def _product_gauss_reference(n, order):
    """The product rule built from one full meshgrid of every angle."""
    x, wx = np.polynomial.legendre.leggauss(order)
    theta, wtheta = 0.5 * math.pi * (x + 1.0), 0.5 * math.pi * wx
    phi = 2.0 * math.pi * np.arange(2 * order) / (2 * order)
    grids = np.meshgrid(*([theta] * (n - 2) + [phi]), indexing="ij")
    wgrids = np.meshgrid(*([wtheta] * (n - 2) + [np.full(2 * order, math.pi / order)]),
                         indexing="ij")
    w = np.ones_like(grids[0])
    for k in range(n - 2):
        w = w * wgrids[k] * np.sin(grids[k]) ** (n - 2 - k)
    w = w * wgrids[n - 2]
    u = np.empty(grids[0].shape + (n,))
    sin_prod = np.ones_like(grids[0])
    for k in range(n - 2):
        u[..., k] = sin_prod * np.cos(grids[k])
        sin_prod = sin_prod * np.sin(grids[k])
    u[..., n - 2] = sin_prod * np.cos(grids[n - 2])
    u[..., n - 1] = sin_prod * np.sin(grids[n - 2])
    return u.reshape(-1, n), w.reshape(-1)


@pytest.mark.parametrize("n, order", [(3, 48), (4, 44), (5, 20)])
def test_nodes_are_the_concatenated_blocks(n, order):
    spec = QuadratureSpec("product_gauss", order)
    chunks = list(sphere_quadrature_blocks(n, spec))
    assert len(chunks) == (1 if n == 3 else 3 if n == 4 else 5)
    u, w = concatenated_blocks(n, spec)
    ref_u, ref_w = _product_gauss_reference(n, order)
    assert np.array_equal(u, ref_u) and np.array_equal(w, ref_w)
    assert all(len(cu) == len(cw) <= 65536 for cu, cw in chunks)


def test_block_row_bounds():
    m = 70000
    chunks = list(sphere_quadrature_blocks(2, QuadratureSpec("circle_trapezoid", m)))
    assert [len(u) for u, _ in chunks] == [65536, m - 65536]
    u, w = concatenated_blocks(2, QuadratureSpec("circle_trapezoid", m))
    theta = 2.0 * math.pi * np.arange(m) / m
    assert np.array_equal(u, np.column_stack([np.cos(theta), np.sin(theta)]))
    # one outermost polar node of n = 5 at order 33 is 2 * 33^3 > 65536 rows
    rows = [len(u) for u, _ in sphere_quadrature_blocks(5, QuadratureSpec("product_gauss", 33))]
    assert rows == [2 * 33 ** 3] * 33


# Monte Carlo blocks run on the caller and spherequad._HELPERS helper threads
# (the library's rule allows at most one).
M_THREADED = 3 * 65536 + 1234


@pytest.mark.parametrize("f", [lambda u: np.exp(u[:, 0]) / (1.5 + u[:, 1]), moments])
def test_helper_thread_is_bitwise_serial(monkeypatch, f):
    spec = QuadratureSpec("monte_carlo", M_THREADED, seed=21)
    monkeypatch.setattr(spherequad, "_HELPERS", 0)
    serial = sphere_integrate(f, 3, spec)
    monkeypatch.setattr(spherequad, "_HELPERS", 1)
    r = sphere_integrate(f, 3, spec)
    assert type(r.value) is type(serial.value)
    for got, want in ((r.value, serial.value), (r.error_estimate, serial.error_estimate),
                      (r.covariance, serial.covariance)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("helpers", [0, 1])
def test_helper_failure_raises_the_lowest_block_and_joins(monkeypatch, helpers):
    # block 2 returns inf, block 3 the wrong shape: the serial loop raises at block 2
    monkeypatch.setattr(spherequad, "_HELPERS", helpers)
    first = {b: sample_directions(3, 1, 5, block=b)[0].tobytes() for b in (2, 3)}

    def f(u):
        if u[0].tobytes() == first[2]:
            return np.full(len(u), np.inf)
        return np.ones(len(u) + (u[0].tobytes() == first[3]))

    before = threading.active_count()
    with pytest.raises(NonFiniteIntegrand):
        sphere_integrate(f, 3, QuadratureSpec("monte_carlo", M_THREADED, seed=5))
    assert threading.active_count() == before


def test_helper_runs_in_the_callers_errstate(monkeypatch):
    monkeypatch.setattr(spherequad, "_HELPERS", 1)
    caller, helper_ran = threading.get_ident(), threading.Event()

    def f(u):  # overflows on the helper only; the caller waits for it
        if threading.get_ident() == caller:
            helper_ran.wait(10.0)
            return np.ones(len(u))
        helper_ran.set()
        return np.exp(np.full(len(u), 710.0))

    spec = QuadratureSpec("monte_carlo", M_THREADED, seed=2)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        sphere_integrate(f, 3, spec)
    helper_ran.clear()
    with np.errstate(over="ignore"), pytest.raises(NonFiniteIntegrand):
        sphere_integrate(f, 3, spec)


def test_integrand_is_called_from_two_threads_once_per_block(monkeypatch):
    # the contract a stateful integrand must meet: calls may come from the
    # caller and the helper at once, each block exactly once, in any order
    monkeypatch.setattr(spherequad, "_HELPERS", 1)
    caller, lock, calls = threading.get_ident(), threading.Lock(), []
    ran = {True: threading.Event(), False: threading.Event()}  # by "on the caller"

    def f(u):  # each thread's first call waits for the other's
        on_caller = threading.get_ident() == caller
        ran[on_caller].set()
        ran[not on_caller].wait(10.0)
        with lock:
            calls.append((on_caller, u[0].tobytes()))
        return np.ones(len(u))

    r = sphere_integrate(f, 3, QuadratureSpec("monte_carlo", M_THREADED, seed=8))
    assert r.value == pytest.approx(sphere_surface_measure(3))
    firsts = [sample_directions(3, 1, 8, block=b)[0].tobytes() for b in range(4)]
    assert sorted(row for _, row in calls) == sorted(firsts)
    assert {on_caller for on_caller, _ in calls} == {True, False}


def test_map_blocks_hands_out_each_block_once():
    # a short switch interval: a block handed out twice or lost would show as
    # a duplicate or a gap
    calls = []

    def task(b):
        calls.append(b)
        return None, b

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = spherequad._map_blocks(task, 2000, 1)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(calls) == list(range(2000))
    assert results == list(range(2000))
