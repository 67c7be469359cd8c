import numpy as np
import pytest

from zetasolve.errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    NotSymmetric,
    SingularMatrix,
    ValidationError,
)
from zetasolve.quadforms import (
    Lattice,
    SPDForm,
    as_symmetric,
    cholesky,
    dual_lattice,
    gram_transform,
    matrix_from_json,
    qeval_many,
    sym_outer,
    trace_product,
    vector_from_json,
    vector_to_json,
)

I2 = np.eye(2)


def random_spd(rng, n, spread=2.0):
    m = rng.standard_normal((n, n))
    return m @ m.T + spread * np.eye(n)


def qeval(Q, x) -> float:
    """Scalar oracle ``<Q x, x>``, written out as a double sum."""
    return sum(Q[i][j] * x[i] * x[j] for i in range(len(x)) for j in range(len(x)))


def test_qeval_examples():
    assert qeval_many(I2, [[3.0, 4.0]])[0] == 25.0
    assert qeval_many(np.diag([2.0, 3.0]), [[1.0, 1.0]])[0] == 5.0
    # hand expansion: 2*1 + 2*(1*1*2) + 3*4 = 18
    q = [[2.0, 1.0], [1.0, 3.0]]
    assert qeval_many(q, [[1.0, 2.0]])[0] == pytest.approx(18.0, abs=1e-12)


def test_qeval_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        qeval_many(I2, [[1.0, 2.0, 3.0]])
    with pytest.raises(DimensionMismatch):
        qeval_many(I2, [1.0, 2.0])


def test_cholesky_examples():
    f = cholesky(I2)
    assert np.allclose(f.chol, I2)
    assert f.det == pytest.approx(1.0)
    f = cholesky(np.diag([4.0, 9.0]))
    assert np.allclose(f.chol, np.diag([2.0, 3.0]))
    assert f.det == pytest.approx(36.0)
    with pytest.raises(NotPositiveDefinite):
        cholesky([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1


def test_cholesky_memoizes_forms():
    m = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert cholesky(m) is cholesky(m.copy())
    assert cholesky(m) is cholesky(m.tolist())
    # a failed factorization is not memoized: it raises every time
    for _ in range(2):
        with pytest.raises(NotPositiveDefinite):
            cholesky([[1.0, 2.0], [2.0, 1.0]])


def test_spdform_invariants():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5):
        q = random_spd(rng, n)
        f = SPDForm(q)
        assert np.max(np.abs(f.chol @ f.chol.T - f.matrix)) < 1e-12 * np.max(np.abs(q))
        assert f.det > 0
        assert np.max(np.abs(f.matrix @ f.inv - np.eye(n))) < 1e-10


def test_asymmetric_rejected():
    with pytest.raises(NotSymmetric):
        as_symmetric([[1.0, 1e-6], [0.0, 1.0]])
    # tiny asymmetry is symmetrized, not rejected
    m = as_symmetric([[1.0, 1e-14], [0.0, 1.0]])
    assert m[0, 1] == m[1, 0]


def test_gram_transform_examples():
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.allclose(gram_transform(I2, a), [[1.0, 1.0], [1.0, 2.0]])
    assert np.allclose(gram_transform(I2, np.diag([2.0, 3.0])), np.diag([4.0, 9.0]))
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(gram_transform(np.diag([2.0, 1.0]), p), np.diag([1.0, 2.0]))


def test_gram_determinant_identity():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4, 6):
        q = random_spd(rng, n)
        a = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        lhs = np.linalg.det(gram_transform(q, a))
        rhs = np.linalg.det(a) ** 2 * np.linalg.det(q)
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_trace_conjugation_invariance():
    rng = np.random.default_rng(13)
    for n in (2, 3, 5):
        q = random_spd(rng, n)
        b = as_symmetric(random_spd(rng, n) - 2.0 * np.eye(n))
        a = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        lhs = trace_product(cholesky(gram_transform(q, a)), gram_transform(b, a))
        rhs = trace_product(cholesky(q), b)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_dual_lattice_examples():
    assert np.allclose(dual_lattice(Lattice(I2)).gen, I2)
    assert np.allclose(dual_lattice(Lattice(np.diag([2.0, 3.0]))).gen,
                       np.diag([0.5, 1.0 / 3.0]))
    L = Lattice(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert np.allclose(dual_lattice(L).gen, [[1.0, 0.0], [-1.0, 1.0]])


def test_dual_dual_identity():
    rng = np.random.default_rng(17)
    for n in (1, 2, 4):
        gen = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        L = Lattice(gen)
        assert np.max(np.abs(dual_lattice(dual_lattice(L)).gen - L.gen)) < 1e-12
        assert L.volume == pytest.approx(abs(np.linalg.det(gen)), rel=1e-12)


def test_singular_lattice_rejected():
    with pytest.raises(SingularMatrix):
        Lattice([[1.0, 1.0], [1.0, 1.0]])


def test_trace_product_examples():
    assert trace_product(cholesky(I2), [[5.0, 1.0], [1.0, 7.0]]) == pytest.approx(12.0)
    assert trace_product(cholesky(np.diag([2.0, 4.0])), np.diag([2.0, 4.0])) == pytest.approx(2.0)
    assert trace_product(cholesky(np.diag([2.0, 4.0])), I2) == pytest.approx(0.75)


def test_sym_outer_examples():
    assert np.allclose(sym_outer([1.0, 0.0], [1.0, 0.0]), [[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(sym_outer([1.0, 0.0], [0.0, 1.0]), [[0.0, 0.5], [0.5, 0.0]])
    m = sym_outer([1.0, 2.0], [3.0, 4.0])
    assert np.trace(m) == pytest.approx(11.0)


def test_sym_outer_quadratic_identity():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 5):
        u, v, x = rng.standard_normal((3, n))
        lhs = qeval(sym_outer(u, v), x)
        assert abs(lhs - (u @ x) * (v @ x)) < 1e-12 * max(1.0, abs(lhs))


def test_qeval_many_matches_scalar():
    rng = np.random.default_rng(29)
    q = random_spd(rng, 3)
    pts = rng.integers(-4, 5, size=(40, 3)).astype(float)
    vals = qeval_many(q, pts)
    for row, val in zip(pts, vals):
        assert val == pytest.approx(qeval(q, row), rel=1e-13)


def test_json_round_trip():
    v = np.array([1.0, -2.5, 3.0])
    assert np.array_equal(vector_from_json(vector_to_json(v)), v)


def test_json_rejects_bad_input():
    with pytest.raises(ValidationError):
        matrix_from_json({"n": 2, "rows": [[1.0, 2.0], [3.0]]})
    with pytest.raises(ValidationError):
        matrix_from_json({"n": 2, "rows": [[1.0, "x"], [3.0, 4.0]]})
    with pytest.raises(ValidationError):
        matrix_from_json({"n": 3, "rows": [[1.0, 2.0], [3.0, 4.0]]})
    with pytest.raises(ValidationError):
        vector_from_json({"v": [1.0, True]})
    with pytest.raises(ValidationError):
        vector_from_json({"v": []})
    with pytest.raises(ValidationError):
        matrix_from_json({"rows": [[1.0]], "extra": 1})


def test_scalar_matrices_supported():
    f = cholesky([[4.0]])
    assert f.det == pytest.approx(4.0)
    assert qeval_many([[4.0]], [[3.0]])[0] == pytest.approx(36.0)
    L = Lattice([[2.0]])
    assert dual_lattice(L).gen[0, 0] == pytest.approx(0.5)
