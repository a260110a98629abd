"""Sequential baseline algorithms: SSVD, SVD-Bidiag, Lanczos."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.baselines import bidiagonalize, lanczos_svd, stochastic_svd, svd_bidiag
from repro.baselines.svd_bidiag import _bidiagonal_svd
from repro.errors import ShapeError
from repro.metrics import subspace_angle_degrees


@pytest.fixture
def rng():
    return np.random.default_rng(41)


def lowrank(n, d_cols, rank, noise, rng):
    return rng.normal(size=(n, rank)) @ rng.normal(size=(rank, d_cols)) + noise * rng.normal(
        size=(n, d_cols)
    )


class TestStochasticSVD:
    def test_matches_exact_svd(self, rng):
        data = lowrank(200, 30, 5, 0.01, rng)
        u, s, vt = stochastic_svd(data, rank=5, power_iterations=2, seed=1)
        _, s_exact, vt_exact = np.linalg.svd(data, full_matrices=False)
        np.testing.assert_allclose(s, s_exact[:5], rtol=1e-3)
        assert subspace_angle_degrees(vt.T, vt_exact[:5].T) < 1.0

    def test_orthonormal_factors(self, rng):
        data = rng.normal(size=(100, 20))
        u, s, vt = stochastic_svd(data, rank=4, seed=2)
        np.testing.assert_allclose(u.T @ u, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(vt @ vt.T, np.eye(4), atol=1e-10)
        assert np.all(np.diff(s) <= 1e-12)

    def test_power_iterations_improve_accuracy(self, rng):
        # Slowly decaying spectrum: the regime where power iterations matter.
        data = rng.normal(size=(300, 100))
        _, _, vt_exact = np.linalg.svd(data, full_matrices=False)
        angle_q0 = subspace_angle_degrees(
            stochastic_svd(data, 5, oversampling=2, power_iterations=0, seed=3)[2].T,
            vt_exact[:5].T,
        )
        angle_q4 = subspace_angle_degrees(
            stochastic_svd(data, 5, oversampling=2, power_iterations=4, seed=3)[2].T,
            vt_exact[:5].T,
        )
        assert angle_q4 < angle_q0

    def test_mean_propagation_equals_explicit_centering(self, rng):
        matrix = sp.random(150, 40, density=0.2, random_state=7, format="csr")
        mean = np.asarray(matrix.mean(axis=0)).ravel()
        _, s_prop, vt_prop = stochastic_svd(
            matrix, 4, power_iterations=3, seed=4, mean=mean
        )
        centered = np.asarray(matrix.todense()) - mean
        _, s_exact, vt_exact = np.linalg.svd(centered, full_matrices=False)
        np.testing.assert_allclose(s_prop, s_exact[:4], rtol=1e-2)
        # Random sparse noise has almost no spectral gaps, so the largest
        # principal angle converges slowly; 15 degrees distinguishes a
        # correct randomized method from a wrong subspace (~90 degrees).
        assert subspace_angle_degrees(vt_prop.T, vt_exact[:4].T) < 15.0

    def test_validation(self, rng):
        data = rng.normal(size=(10, 5))
        with pytest.raises(ShapeError):
            stochastic_svd(data, rank=0)
        with pytest.raises(ShapeError):
            stochastic_svd(data, rank=6, oversampling=0)
        with pytest.raises(ShapeError):
            stochastic_svd(data, rank=2, mean=np.zeros(3))


class TestBidiagonalize:
    def test_reconstruction(self, rng):
        matrix = rng.normal(size=(12, 8))
        u, bidiag, v = bidiagonalize(matrix)
        np.testing.assert_allclose(u @ bidiag @ v.T, matrix, atol=1e-10)

    def test_factors_orthonormal(self, rng):
        matrix = rng.normal(size=(15, 6))
        u, _, v = bidiagonalize(matrix)
        np.testing.assert_allclose(u.T @ u, np.eye(6), atol=1e-10)
        np.testing.assert_allclose(v.T @ v, np.eye(6), atol=1e-10)

    def test_result_is_upper_bidiagonal(self, rng):
        matrix = rng.normal(size=(10, 10))
        _, bidiag, _ = bidiagonalize(matrix)
        mask = np.triu(np.tril(np.ones_like(bidiag), 1))
        np.testing.assert_allclose(bidiag * (1 - mask), 0.0, atol=1e-10)

    def test_wide_matrix_rejected(self, rng):
        with pytest.raises(ShapeError):
            bidiagonalize(rng.normal(size=(3, 5)))

    def test_rank_deficient(self, rng):
        column = rng.normal(size=(10, 1))
        matrix = column @ np.ones((1, 4))
        u, bidiag, v = bidiagonalize(matrix)
        np.testing.assert_allclose(u @ bidiag @ v.T, matrix, atol=1e-10)


class TestSVDBidiag:
    def test_matches_numpy_svd(self, rng):
        data = rng.normal(size=(40, 12))
        u, s, vt, _ = svd_bidiag(data)
        _, s_exact, vt_exact = np.linalg.svd(data, full_matrices=False)
        np.testing.assert_allclose(s, s_exact, atol=1e-8)
        np.testing.assert_allclose(u @ np.diag(s) @ vt, data, atol=1e-8)

    def test_truncation(self, rng):
        data = rng.normal(size=(30, 10))
        u, s, vt, _ = svd_bidiag(data, n_components=3)
        assert u.shape == (30, 3)
        assert s.shape == (3,)
        assert vt.shape == (3, 10)

    def test_sparse_input_densified(self, rng):
        matrix = sp.random(25, 8, density=0.4, random_state=2, format="csr")
        _, s, _, _ = svd_bidiag(matrix)
        s_exact = np.linalg.svd(np.asarray(matrix.todense()), compute_uv=False)
        np.testing.assert_allclose(s, s_exact, atol=1e-8)

    def test_wide_rejected(self, rng):
        with pytest.raises(ShapeError):
            svd_bidiag(rng.normal(size=(5, 9)))

    def test_rank_deficient_bidiagonal_gets_orthonormal_left_factor(self):
        # Rank 2 of 3: the zero singular value's left vector is a completion.
        bidiag = np.diag([1.0, 0.0, 2.0]) + np.diag([3.0, 0.0], 1)
        u, s, vt = _bidiagonal_svd(bidiag)
        np.testing.assert_allclose(u.T @ u, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(s, np.linalg.svd(bidiag, compute_uv=False), atol=1e-6)
        np.testing.assert_allclose(u @ np.diag(s) @ vt, bidiag, atol=1e-6)

    def test_rank_deficient_input_completes_every_null_column(self):
        # Rank 3 of 6 columns: the completion must supply all three null
        # columns, not just those a QR of the projector happens to keep.
        rng = np.random.default_rng(4)
        base = rng.normal(size=(40, 3))
        data = np.hstack([base, base @ rng.normal(size=(3, 3))])
        u, s, vt, _ = svd_bidiag(data)
        np.testing.assert_allclose(u.T @ u, np.eye(6), atol=1e-10)
        np.testing.assert_allclose(u @ np.diag(s) @ vt, data, atol=1e-6)

    def test_stats_reflect_table1_communication(self, rng):
        n, d_cols = 100, 20
        _, _, _, stats = svd_bidiag(rng.normal(size=(n, d_cols)))
        # QR intermediate dominates for tall matrices (the (N+D)d term).
        assert stats.qr_elements >= n * d_cols
        assert stats.max_elements == stats.qr_elements


class TestLanczos:
    def test_matches_exact_svd(self, rng):
        data = lowrank(120, 30, 6, 0.01, rng)
        _, s, vt = lanczos_svd(data, 4, seed=1)
        _, s_exact, vt_exact = np.linalg.svd(data, full_matrices=False)
        np.testing.assert_allclose(s, s_exact[:4], rtol=1e-4)
        assert subspace_angle_degrees(vt.T, vt_exact[:4].T) < 1.0

    def test_sparse_input(self, rng):
        matrix = sp.random(200, 50, density=0.1, random_state=9, format="csr")
        _, s, _ = lanczos_svd(matrix, 3, seed=2)
        s_exact = np.linalg.svd(np.asarray(matrix.todense()), compute_uv=False)
        np.testing.assert_allclose(s, s_exact[:3], rtol=1e-3)

    def test_centering_modes_agree(self, rng):
        matrix = sp.random(100, 25, density=0.25, random_state=4, format="csr")
        _, s_prop, vt_prop = lanczos_svd(matrix, 3, center="propagate", seed=3)
        _, s_dense, vt_dense = lanczos_svd(matrix, 3, center="densify", seed=3)
        np.testing.assert_allclose(s_prop, s_dense, rtol=1e-6)
        assert subspace_angle_degrees(vt_prop.T, vt_dense.T) < 0.5

    def test_centered_equals_svd_of_centered(self, rng):
        matrix = sp.random(80, 20, density=0.3, random_state=5, format="csr")
        _, s, _ = lanczos_svd(matrix, 3, center="propagate", seed=4)
        centered = np.asarray(matrix.todense())
        centered = centered - centered.mean(axis=0)
        s_exact = np.linalg.svd(centered, compute_uv=False)
        np.testing.assert_allclose(s, s_exact[:3], rtol=1e-4)

    def test_validation(self, rng):
        data = rng.normal(size=(10, 5))
        with pytest.raises(ShapeError):
            lanczos_svd(data, 0)
        with pytest.raises(ShapeError):
            lanczos_svd(data, 6)
        with pytest.raises(ShapeError):
            lanczos_svd(data, 2, center="bogus")
        with pytest.raises(ShapeError):
            lanczos_svd(data, 4, n_iterations=2)
