import math

import mpmath as mp
import numpy as np
import pytest

from zetasolve.errors import (
    DimensionMismatch,
    EvaluationFailure,
    OutsideConvergence,
    TooCloseToPole,
    TooManyPoints,
)
from zetasolve.quadforms import Lattice, cholesky, sym_outer
from zetasolve.theta import enumerate_ellipsoid
from zetasolve.zeta import (
    FuncEqResidual,
    ZetaValue,
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

I1 = np.eye(1)
I2 = np.eye(2)
FORMS = (I2, np.diag([1.0, 4.0]), np.array([[2.0, 1.0], [1.0, 3.0]]))

ZETA3 = 1.2020569031595942854
BETA3 = math.pi ** 3 / 32.0
ZETA4 = math.pi ** 4 / 90.0


def lattice_sum_oracle(gen, Q, s, radius):
    """Independent direct sum over lattice points gen*w with q_Q <= radius."""
    gen = np.asarray(gen, float)
    ep = enumerate_ellipsoid(gen.T @ np.asarray(Q, float) @ gen, radius)
    return complex(np.sum(np.power(ep.qvals, -s)))


def vector_sum_oracle(A, b, s, radius):
    """Independent direct sum for the vector zeta (componentwise)."""
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    ep = enumerate_ellipsoid(A.T @ A, radius)
    v = ep.points @ A.T          # rows A w
    nrm = ep.qvals               # |A w|^2
    w = np.power(nrm, -s) * (ep.points @ b)
    return (w[:, None] * v).sum(axis=0)


# ---------------------------------------------------------------------------
# direct sums
# ---------------------------------------------------------------------------

def test_epstein_direct_classical_values():
    zv = epstein_direct(I2, 3.0, 1e-12)
    assert isinstance(zv, ZetaValue)
    assert zv.abs_error < 1e-12
    assert zv.value.real == pytest.approx(4.0 * ZETA3 * BETA3, abs=2e-12)
    zv = epstein_direct(I1, 2.0, 1e-12)
    assert zv.value.real == pytest.approx(2.0 * ZETA4, abs=2e-12)


def test_epstein_direct_homogeneity():
    a = epstein_direct(np.diag([4.0, 4.0]), 3.0, 1e-12).value
    b = epstein_direct(I2, 3.0, 1e-12).value
    assert a == pytest.approx(4.0 ** -3 * b, rel=1e-11)


def test_epstein_direct_outside_convergence():
    with pytest.raises(OutsideConvergence):
        epstein_direct(I2, 1.2, 1e-8)


def test_weighted_direct_identities():
    # B = Q collapses to the plain zeta at s - 1
    a = weighted_direct(I2, I2, 4.0, 1e-12).value
    b = epstein_direct(I2, 3.0, 1e-12).value
    assert a == pytest.approx(b, rel=1e-11)
    # coordinate symmetry halves the sum
    a = weighted_direct(I2, np.diag([1.0, 0.0]), 4.0, 1e-12).value
    assert a == pytest.approx(0.5 * b, rel=1e-11)
    # zero weight
    assert weighted_direct(I2, np.zeros((2, 2)), 4.0, 1e-12).value == 0.0
    with pytest.raises(OutsideConvergence):
        weighted_direct(I2, I2, 2.2, 1e-8)


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------

def test_continued_special_value_minus_one():
    for q in FORMS + (np.diag([0.3, 7.0]), I1):
        zv = epstein_continued(q, 0.0)
        assert abs(zv.value + 1.0) < 1e-10


def test_continued_trivial_zeros():
    for s in (-1.0, -2.0, -3.0):
        assert abs(epstein_continued(I2, s).value) < 1e-13
        assert abs(weighted_continued(I2, I2, s).value) < 1e-13


def test_continued_pole_guard():
    with pytest.raises(TooCloseToPole):
        epstein_continued(I2, 1.0)
    with pytest.raises(TooCloseToPole):
        epstein_continued(I2, 1.0 + 5e-7)
    with pytest.raises(TooCloseToPole):
        weighted_continued(I2, I2, 2.0)
    with pytest.raises(TooCloseToPole):
        vector_zeta(I2, [1.0, 0.0], 2.0)


def test_continued_matches_direct_on_overlap():
    rng = np.random.default_rng(71)
    for q in FORMS:
        n = q.shape[0]
        rough = abs(epstein_continued(q, n / 2.0 + 2.0).value)
        tol = max(1e-13, 0.2e-11 * rough)
        for _ in range(7):
            s = complex(n / 2.0 + 2.0, rng.uniform(-2.0, 2.0))
            direct = epstein_direct(q, s, tol)
            cont = epstein_continued(q, s)
            assert abs(direct.value - cont.value) <= 1e-11 * abs(direct.value)


def test_weighted_continued_matches_direct_on_overlap():
    rng = np.random.default_rng(73)
    for q in FORMS:
        n = q.shape[0]
        for bmat in (q, np.eye(n), sym_outer([1.0, 2.0][:n] if n > 1 else [1.0],
                                              [0.5, -1.0][:n] if n > 1 else [2.0])):
            s0 = n / 2.0 + 3.0
            rough = abs(weighted_continued(q, bmat, s0).value)
            tol = max(1e-13, 0.2e-11 * max(rough, 0.05))
            s = complex(s0, rng.uniform(-1.5, 1.5))
            direct = weighted_direct(q, bmat, s, tol)
            cont = weighted_continued(q, bmat, s)
            scale = max(abs(direct.value), 0.05)
            assert abs(direct.value - cont.value) <= 1e-11 * scale


def test_weighted_shift_identity():
    for q in FORMS:
        for s in (3.5, 0.4 + 0.2j, -0.7, 2.3 - 1.1j):
            a = weighted_continued(q, q, s).value
            b = epstein_continued(q, complex(s) - 1.0).value
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


def test_continued_homogeneity():
    for c in (2.0, 5.0):
        for s in (3.0, 0.25, -0.8):
            a = epstein_continued(c * I2, s).value
            b = c ** (-complex(s)) * epstein_continued(I2, s).value
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


HEX = np.array([[1.0, 0.5], [0.5, 1.0]])
I4 = np.eye(4)


def _oracle(name, s):
    """Closed forms: I2 -> 4 zeta(s) L(s, chi_-4), hexagonal -> 6 zeta(s)
    L(s, chi_-3), I4 -> 8 (1 - 4^(1-s)) zeta(s) zeta(s-1)."""
    z = mp.mpc(s)
    with mp.workdps(30):
        if name == "I2":
            return complex(4 * mp.zeta(z) * mp.dirichlet(z, [0, 1, 0, -1]))
        if name == "hex":
            return complex(6 * mp.zeta(z) * mp.dirichlet(z, [0, 1, -1]))
        return complex(8 * (1 - mp.power(4, 1 - z)) * mp.zeta(z) * mp.zeta(z - 1))


@pytest.mark.parametrize("name, q", [("I2", I2), ("hex", HEX), ("I4", I4)])
def test_continued_homogeneity_against_oracles(name, q):
    # zeta(cQ, s) = c^-s zeta(Q, s), checked against c^-s times the closed
    # form within the claimed error bar; |Im s| stays below 2, where the
    # bars hold (above it they are known to be too small)
    for c in (0.05, 30.0):
        for s in (3.5, 0.3 + 0.5j, -1.5 + 0.25j, 2.6 - 1.2j):
            got = epstein_continued(c * q, s)
            want = c ** (-complex(s)) * _oracle(name, s)
            assert abs(got.value - want) <= got.abs_error, (c, s)


def test_continued_batch_matches_single_points():
    # a batch enumerates once at the largest radius its points need, so it
    # agrees with one-point calls within the error bars, not bitwise
    s = np.array([2.5 + 0.3j, 0.3 + 1.0j, -1.5, 3.0 - 2.0j])
    q = np.array([[2.0, 1.0], [1.0, 3.0]])
    batch = epstein_continued(q, s)
    assert batch.value.shape == batch.abs_error.shape == (4,)
    for k, sk in enumerate(s):
        one = epstein_continued(q, sk)
        assert isinstance(one.value, complex) and isinstance(one.abs_error, float)
        assert abs(batch.value[k] - one.value) <= batch.abs_error[k] + one.abs_error
    a = np.array([[2.0, 1.0], [0.0, 3.0]])
    vec = vector_zeta(a, [1.0, -2.0], s + 1.0)
    for k, sk in enumerate(s):
        for j, one in enumerate(vector_zeta(a, [1.0, -2.0], sk + 1.0)):
            assert abs(vec[j].value[k] - one.value) <= vec[j].abs_error[k] + one.abs_error
    b = np.array([[1.0, 0.5], [0.5, -2.0]])
    wb = weighted_continued(q, b, s + 1.0)
    assert wb.value.shape == wb.abs_error.shape == (4,)
    for k, sk in enumerate(s):
        one = weighted_continued(q, b, sk + 1.0)
        assert abs(wb.value[k] - one.value) <= wb.abs_error[k] + one.abs_error


def test_continued_rejects_bad_point_shapes():
    with pytest.raises(DimensionMismatch):
        epstein_continued(I2, np.ones((2, 2)))
    with pytest.raises(DimensionMismatch):
        weighted_continued(I2, I2, np.array([]))
    with pytest.raises(TooCloseToPole):
        epstein_continued(I2, np.array([3.0, 1.0 + 1e-7]))


def test_weighted_zero_matrix():
    for s in (4.0, 0.3, -1.7):
        assert weighted_continued(I2, np.zeros((2, 2)), s).value == 0.0
    zero = weighted_continued(I2, np.zeros((2, 2)), np.array([4.0, 0.3, -1.7]))
    assert zero.value.shape == zero.abs_error.shape == (3,)
    assert not zero.value.any() and not zero.abs_error.any()


# ---------------------------------------------------------------------------
# lattice and vector variants
# ---------------------------------------------------------------------------

def test_lattice_zeta_reductions():
    # standard lattice: identical to the plain evaluator
    a = lattice_zeta(Lattice(I2), I2, 3.0).value
    assert a == pytest.approx(epstein_continued(I2, 3.0).value, abs=1e-13)
    # scaled lattice: homogeneity
    a = lattice_zeta(Lattice(np.diag([2.0, 2.0])), I2, 3.0).value
    assert a == pytest.approx(4.0 ** -3 * epstein_continued(I2, 3.0).value, rel=1e-12)
    # shear: equals the Gram form
    gen = np.array([[1.0, 1.0], [0.0, 1.0]])
    a = lattice_zeta(Lattice(gen), I2, 3.0).value
    b = epstein_continued(np.array([[1.0, 1.0], [1.0, 2.0]]), 3.0).value
    assert a == pytest.approx(b, abs=1e-13)
    # cross-check against a raw sum over transformed points
    oracle = lattice_sum_oracle(gen, I2, 3.0, 8000.0)
    assert abs(a - oracle) < 1e-7


def test_lattice_weighted_zeta_reduction():
    gen = np.array([[1.0, 1.0], [0.0, 1.0]])
    b = np.array([[1.0, 0.0], [0.0, 2.0]])
    a = lattice_weighted_zeta(Lattice(gen), I2, b, 4.0).value
    direct = weighted_direct(gen.T @ gen, gen.T @ b @ gen, 4.0, 1e-12).value
    assert a == pytest.approx(direct, rel=1e-10)


def test_vector_zeta_symmetry():
    vals = vector_zeta(I2, [1.0, 0.0], 4.0)
    assert vals[1].value == 0.0 or abs(vals[1].value) < 1e-14
    half = 0.5 * epstein_continued(I2, 3.0).value
    assert vals[0].value == pytest.approx(half, rel=1e-12)


def test_vector_zeta_zero_vector():
    vals = vector_zeta(np.diag([2.0, 3.0]), [0.0, 0.0], 4.0)
    assert all(v.value == 0.0 for v in vals)


def test_vector_zeta_against_oracle():
    a = np.diag([2.0, 3.0])
    b = np.array([2.0, 3.0])
    vals = vector_zeta(a, b, 4.0)
    # tail bound for the oracle: |terms| <= |b| q^(1/2)/sqrt(lam) * q^-4, so
    # the dropped part is below |b|/sqrt(lam) * (pi/sqrt(det G)) * R^-2 / 2;
    # R = 1e5 pushes it under 4e-11
    radius = 1e5
    tail = np.linalg.norm(b) / 2.0 * (math.pi / 6.0) * radius ** -2 / 2.0
    assert tail < 5e-11
    oracle = vector_sum_oracle(a, b, 4.0, radius)
    for v, o in zip(vals, oracle):
        assert abs(v.value - o) < 1e-10 * max(1.0, abs(o))
    # non-diagonal matrix (oracle tail bound analogous, at a larger radius)
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, -2.0])
    vals = vector_zeta(a, b, 4.0)
    oracle = vector_sum_oracle(a, b, 4.0, 3e5)
    for v, o in zip(vals, oracle):
        assert abs(v.value - o) < 1e-10 * max(1.0, abs(o))


# ---------------------------------------------------------------------------
# residues
# ---------------------------------------------------------------------------

def test_residue_epstein_values():
    assert complex(residue_epstein(Lattice(I2), I2).residue).real == pytest.approx(math.pi, rel=1e-14)
    assert complex(residue_epstein(Lattice(I1), I1).residue).real == pytest.approx(1.0, rel=1e-14)
    got = complex(residue_epstein(Lattice(np.diag([2.0, 3.0])), I2).residue).real
    assert got == pytest.approx(math.pi / 6.0, rel=1e-14)


def test_residue_weighted_values():
    assert complex(residue_weighted(Lattice(I2), I2, I2).residue).real == pytest.approx(math.pi, rel=1e-14)
    assert complex(residue_weighted(Lattice(I2), I2, np.zeros((2, 2))).residue) == 0.0
    got = complex(residue_weighted(Lattice(I2), I2, np.diag([1.0, 0.0])).residue).real
    assert got == pytest.approx(math.pi / 2.0, rel=1e-14)


def test_residue_vector_values():
    got = np.asarray(residue_vector(I2, [1.0, 0.0]).residue)
    assert np.allclose(got, [math.pi / 2.0, 0.0])
    got = np.asarray(residue_vector(np.diag([2.0, 3.0]), [2.0, 3.0]).residue)
    assert np.allclose(got, [math.pi / 12.0, math.pi / 12.0])
    got = np.asarray(residue_vector(I2, [0.0, 0.0]).residue)
    assert np.allclose(got, 0.0)


def test_residue_numeric_rational_function():
    rep = residue_numeric(lambda s: 1.0 / (s - 2.0), 2.0)
    assert abs(rep.residue - 1.0) < 1e-12
    assert rep.source == "numeric"
    rep = residue_numeric(lambda s: np.array([1.0, -3.0]) / (s[:, None] - 2.0), 2.0)
    assert isinstance(rep.residue, np.ndarray)
    assert np.max(np.abs(rep.residue - [1.0, -3.0])) < 1e-12


def test_residue_numeric_matches_analytic():
    num = residue_numeric(lambda s: epstein_continued(I2, s), 1.0).residue
    assert abs(num - math.pi) < 1e-8
    num = residue_numeric(lambda s: weighted_continued(I2, I2, s), 2.0).residue
    assert abs(num - math.pi) < 1e-8
    lat = Lattice(np.diag([2.0, 3.0]))
    num = residue_numeric(lambda s: lattice_zeta(lat, I2, s), 1.0).residue
    assert abs(num - math.pi / 6.0) < 1e-8


def test_residue_numeric_calls_evaluator_once():
    calls = []

    def evaluator(s):
        calls.append(s.shape)
        return epstein_continued(I2, s)

    rep = residue_numeric(evaluator, 1.0)
    assert calls == [(16,)]
    assert abs(rep.residue - math.pi) < 1e-8
    rep = residue_numeric(lambda s: vector_zeta(I2, [1.0, 0.0], s), 2.0, m=12)
    assert rep.residue.shape == (2,)
    assert np.max(np.abs(rep.residue - [math.pi / 2.0, 0.0])) < 1e-8
    with pytest.raises(DimensionMismatch):
        residue_numeric(lambda s: np.ones(3), 1.0)


def test_residue_numeric_keeps_package_errors():
    def too_many(s):
        raise TooManyPoints("enumeration over the cap")

    def broken(s):
        raise ValueError("not a package error")

    with pytest.raises(TooManyPoints):
        residue_numeric(too_many, 1.0)
    with pytest.raises(EvaluationFailure):
        residue_numeric(broken, 1.0)


@pytest.mark.parametrize("a, b", [
    (np.array([[2.0, 1.0], [1.0, 3.0]]), [5.0, 10.0]),
    (np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [1.0, 0.0, 2.0]]), [1.0, 0.0, -1.0]),
])
def test_residue_numeric_vector_evaluator(a, b):
    # one contour over all components; agrees with per-component contours up
    # to rounding (the residues are below 1 in size, so 1e-15 is a few ulps)
    n = a.shape[0]
    rep = residue_numeric(lambda s: vector_zeta(a, b, s), n / 2.0 + 1.0)
    assert isinstance(rep.residue, np.ndarray) and rep.residue.shape == (n,)
    for j in range(n):
        scalar = residue_numeric(lambda s: vector_zeta(a, b, s)[j].value,
                                 n / 2.0 + 1.0).residue
        assert isinstance(scalar, complex)
        assert abs(rep.residue[j] - scalar) <= 1e-15
    analytic = np.asarray(residue_vector(a, b).residue)
    assert np.max(np.abs(rep.residue - analytic)) < 1e-8


# ---------------------------------------------------------------------------
# functional equations
# ---------------------------------------------------------------------------

def test_funceq_lattice():
    r = funceq_residual_lattice(Lattice(I2), I2, 0.5)
    assert isinstance(r, FuncEqResidual)
    assert r.residual < 1e-10
    assert funceq_residual_lattice(Lattice(I2), I2, 0.7 + 0.3j).residual < 1e-8
    assert funceq_residual_lattice(Lattice(np.diag([2.0, 3.0])), I2, 0.8).residual < 1e-8


def test_funceq_weighted():
    assert funceq_residual_weighted(Lattice(I2), I2, I2, 0.6).residual < 1e-8
    psd = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert funceq_residual_weighted(Lattice(I2), I2, psd, 0.75).residual < 1e-8
    r = funceq_residual_weighted(Lattice(I2), I2, np.zeros((2, 2)), 0.6)
    assert r.lhs == 0.0 and r.rhs == 0.0


def test_funceq_vector():
    r = funceq_residual_vector(I2, [1.0, 0.0], [0.0, 1.0], 0.6)
    assert r.residual < 1e-12 and abs(r.lhs) < 1e-12 and abs(r.rhs) < 1e-12
    assert funceq_residual_vector(I2, [1.0, 0.0], [1.0, 0.0], 0.6).residual < 1e-8
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert funceq_residual_vector(a, [1.0, 0.0], [0.0, 1.0], 0.7).residual < 1e-8


def test_funceq_grid_all_families():
    grid = (0.55, 0.7 + 0.25j, 0.85 - 0.15j, 0.4 + 0.1j, 0.6)
    for q in FORMS:
        lat = Lattice(np.eye(q.shape[0]))
        for s in grid:
            assert funceq_residual_lattice(lat, q, s).residual < 1e-8
            assert funceq_residual_weighted(lat, q, q, s).residual < 1e-8


def test_funceq_residual_batch_matches_single_points():
    # one batch enumerates at the largest radius its points need, so its
    # sides agree with one-point calls to rounding, not bitwise
    s = np.array([0.6, 0.7 + 0.25j, 0.4 - 0.1j, 0.55 + 2.0j])
    q = np.array([[2.0, 1.0], [1.0, 3.0]])
    lat = Lattice(np.diag([2.0, 3.0]))
    families = [
        lambda x: funceq_residual_lattice(lat, q, x),
        lambda x: funceq_residual_weighted(lat, q, np.array([[1.0, 0.5], [0.5, -2.0]]), x),
        lambda x: funceq_residual_vector(q, [1.0, -2.0], [0.5, 1.0], x),
    ]
    for residual in families:
        batch = residual(s)
        for field in (batch.s, batch.lhs, batch.rhs, batch.residual):
            assert np.shape(field) == (4,)
        for k, sk in enumerate(s):
            one = residual(sk)
            assert isinstance(one.lhs, complex) and isinstance(one.rhs, complex)
            assert isinstance(one.residual, float)
            assert abs(batch.lhs[k] - one.lhs) <= 1e-12 * abs(one.lhs)
            assert abs(batch.rhs[k] - one.rhs) <= 1e-12 * abs(one.rhs)


# ---------------------------------------------------------------------------
# gamma-factor bookkeeping
# ---------------------------------------------------------------------------

def test_gamma_factor_consistency_with_residues():
    # with G(s) = pi^-s Gamma(s): G(n/2) * residue == det^(-1/2), and
    # zeta(0) * Res_0 G == -1, where Res_0 G = pi^0 Gamma(1)
    for q in FORMS:
        qf = cholesky(q)
        n = qf.n
        res = complex(residue_epstein(Lattice(np.eye(n)), qf).residue).real
        g = math.pi ** (-n / 2.0) * math.gamma(n / 2.0)
        assert g * res == pytest.approx(1.0 / qf.sqrt_det, rel=1e-10)
        z0 = epstein_continued(qf, 0.0).value.real
        assert z0 * math.pi ** -0.0 * math.gamma(1.0) == pytest.approx(-1.0, abs=1e-10)
