import numpy as np
import pytest

from quips.covariance import estimate_subspace_covariances, regularize
from quips.vecstore import DenseVectorSet, make_chunk_layout

from reference import make_set


def test_single_vector_outer_product():
    layout = make_chunk_layout(2, 1)
    cov = estimate_subspace_covariances(make_set([[1.0, 0.0]]), layout)
    np.testing.assert_array_equal(cov.matrices[0], [[1, 0], [0, 0]])


def test_average_of_outer_products():
    layout = make_chunk_layout(2, 1)
    cov = estimate_subspace_covariances(make_set([[1.0, 0.0], [0.0, 1.0]]), layout)
    np.testing.assert_allclose(cov.matrices[0], [[0.5, 0], [0, 0.5]])


def test_matches_double_loop_oracle():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((500, 8))
    layout = make_chunk_layout(8, 2)  # l = 4
    cov = estimate_subspace_covariances(make_set(data), layout)
    for k in range(2):
        expected = np.zeros((4, 4))
        for row in data:
            blk = row[k * 4 : (k + 1) * 4]
            for i in range(4):
                for j in range(4):
                    expected[i, j] += blk[i] * blk[j]
        expected /= len(data)
        np.testing.assert_allclose(cov.matrices[k], expected, atol=1e-10)


def test_no_mean_subtraction():
    # constant rows: non-centered second moment is vvT, not zero
    layout = make_chunk_layout(2, 1)
    cov = estimate_subspace_covariances(make_set([[2.0, 0.0]] * 5), layout)
    np.testing.assert_allclose(cov.matrices[0], [[4, 0], [0, 0]])


def test_row_order_invariance():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((50, 6))
    layout = make_chunk_layout(6, 3)
    a = estimate_subspace_covariances(make_set(data), layout)
    b = estimate_subspace_covariances(make_set(data[::-1].copy()), layout)
    np.testing.assert_allclose(a.matrices, b.matrices, atol=1e-12)


def test_psd_quadratic_form():
    rng = np.random.default_rng(2)
    data = rng.standard_normal((40, 8))
    layout = make_chunk_layout(8, 4)
    cov = estimate_subspace_covariances(make_set(data), layout)
    for k in range(4):
        for _ in range(20):
            b = rng.standard_normal(2)
            assert b @ cov.matrices[k] @ b >= -1e-9 * np.trace(cov.matrices[k])


def test_empty_set():
    layout = make_chunk_layout(4, 2)
    with pytest.raises(ValueError):
        estimate_subspace_covariances(
            DenseVectorSet(data=np.empty((0, 4)), ids=np.empty(0, dtype=np.int64)),
            layout)


class TestRegularize:
    def test_zero_ridge_unchanged(self):
        layout = make_chunk_layout(2, 1)
        cov = estimate_subspace_covariances(make_set([[1.0, 2.0]]), layout)
        out = regularize(cov, 0.0)
        np.testing.assert_array_equal(out.matrices, cov.matrices)

    def test_zero_matrix_stays_zero(self):
        layout = make_chunk_layout(2, 1)
        cov = estimate_subspace_covariances(make_set([[0.0, 0.0], [0.0, 0.0]]), layout)
        out = regularize(cov, 0.5)
        np.testing.assert_array_equal(out.matrices[0], np.zeros((2, 2)))

    def test_formula(self):
        layout = make_chunk_layout(2, 1)
        cov = estimate_subspace_covariances(make_set([[1.0, 0.0]]), layout)
        out = regularize(cov, 0.1)
        np.testing.assert_allclose(out.matrices[0], [[1.05, 0], [0, 0.05]])

    def test_negative_ridge(self):
        layout = make_chunk_layout(2, 1)
        cov = estimate_subspace_covariances(make_set([[1.0, 0.0]]), layout)
        with pytest.raises(ValueError):
            regularize(cov, -0.1)

    @pytest.mark.parametrize("ridge", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_ridge(self, ridge):
        layout = make_chunk_layout(2, 1)
        cov = estimate_subspace_covariances(make_set([[1.0, 0.0]]), layout)
        with pytest.raises(ValueError, match="finite ridge >= 0"):
            regularize(cov, ridge)

    def test_min_eigenvalue_lifted(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((3, 8))  # rank-deficient blocks
        layout = make_chunk_layout(8, 1)
        cov = regularize(estimate_subspace_covariances(make_set(data), layout), 1e-3)
        assert np.linalg.eigvalsh(cov.matrices[0]).min() > 0
