"""Edge cases and invariances of the core algorithms."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.backends import MapReduceBackend, SequentialBackend, SparkBackend
from repro.core import SPCA, SPCAConfig, fit_ppca
from repro.core.checkpoint import DirectoryCheckpointStore
from repro.errors import NonFiniteInputError, ShapeError
from repro.metrics import subspace_angle_degrees


class TestDegenerateInputs:
    def test_all_zero_matrix(self):
        model = fit_ppca(np.zeros((20, 6)), 2, max_iterations=10, seed=0)
        assert np.isfinite(model.components).all()
        assert model.noise_variance >= 0.0

    def test_constant_columns(self):
        data = np.ones((30, 5)) * np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        model = fit_ppca(data, 2, max_iterations=10, seed=1)
        # Centered data is exactly zero: reconstruction is the mean.
        np.testing.assert_allclose(model.reconstruct(data), data, atol=1e-6)

    def test_single_informative_direction(self):
        rng = np.random.default_rng(2)
        direction = rng.normal(size=8)
        data = np.outer(rng.normal(size=100), direction)
        model = fit_ppca(data, 1, max_iterations=100, tolerance=1e-12, seed=3)
        angle = subspace_angle_degrees(model.basis, direction.reshape(-1, 1))
        assert angle < 0.5

    def test_d_equals_min_dimension(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(6, 10))
        model = fit_ppca(data, 6, max_iterations=20, seed=5)
        assert model.components.shape == (10, 6)

    def test_more_columns_than_rows(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(15, 60))
        model, history = SPCA(
            SPCAConfig(n_components=3, max_iterations=10, seed=7)
        ).fit(data)
        assert model.components.shape == (60, 3)
        assert history.n_iterations >= 1

    def test_single_row_rejected_for_multi_component(self):
        with pytest.raises(ShapeError):
            fit_ppca(np.ones((1, 5)), 2)

    def test_spca_on_tiny_sparse(self):
        matrix = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 2.0]]))
        model, _ = SPCA(SPCAConfig(n_components=1, max_iterations=5, seed=8)).fit(matrix)
        assert model.components.shape == (2, 1)


class TestNonFiniteInput:
    CONFIG = SPCAConfig(n_components=2, max_iterations=3, seed=30)

    @staticmethod
    def poisoned(kind, value):
        data = np.random.default_rng(31).normal(size=(24, 6))
        if kind == "sparse":
            data[np.abs(data) < 0.5] = 0.0
        data[7, 3] = value
        return sp.csr_matrix(data) if kind == "sparse" else data

    @pytest.mark.parametrize("backend_name", ["sequential", "mapreduce", "spark"])
    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_fit_rejects_non_finite_cell(self, value, kind, backend_name):
        backend = {
            "sequential": SequentialBackend,
            "mapreduce": MapReduceBackend,
            "spark": SparkBackend,
        }[backend_name](self.CONFIG)
        with pytest.raises(NonFiniteInputError):
            SPCA(self.CONFIG, backend).fit(self.poisoned(kind, value))
        # Rejected before the data was distributed: no job ever ran.
        assert backend.intermediate_bytes == 0
        assert backend.simulated_seconds == 0.0

    def test_resume_rejects_non_finite_cell(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "ckpts")
        clean = self.poisoned("dense", 0.0)
        SPCA(self.CONFIG).fit(clean, checkpoint=store)
        with pytest.raises(NonFiniteInputError):
            SPCA(self.CONFIG).resume(self.poisoned("dense", np.nan), store)

    def test_is_a_value_error(self):
        with pytest.raises(ValueError):
            SPCA(self.CONFIG).fit(self.poisoned("sparse", np.inf))

    def test_sparse_without_stored_cells_passes_the_check(self):
        SPCA(self.CONFIG)._validate_input(sp.csr_matrix((24, 6)))


class TestInvariances:
    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(200, 4)) @ rng.normal(size=(4, 12))
        permutation = rng.permutation(12)
        config = SPCAConfig(n_components=3, max_iterations=50, tolerance=1e-10,
                            seed=10, compute_error_every_iteration=False)
        base, _ = SPCA(config).fit(data)
        permuted, _ = SPCA(config).fit(data[:, permutation])
        # The recovered subspaces relate by the same column permutation.
        angle = subspace_angle_degrees(base.basis[permutation], permuted.basis)
        assert angle < 1.0

    def test_row_shuffle_invariance(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(150, 4)) @ rng.normal(size=(4, 10))
        config = SPCAConfig(n_components=2, max_iterations=60, tolerance=1e-10,
                            seed=12, compute_error_every_iteration=False)
        base, _ = SPCA(config).fit(data)
        shuffled, _ = SPCA(config).fit(data[rng.permutation(150)])
        assert subspace_angle_degrees(base.basis, shuffled.basis) < 1.0

    def test_global_scaling_scales_components_subspace(self):
        rng = np.random.default_rng(13)
        data = rng.normal(size=(120, 4)) @ rng.normal(size=(4, 9))
        config = SPCAConfig(n_components=2, max_iterations=60, tolerance=1e-10,
                            seed=14, compute_error_every_iteration=False)
        base, _ = SPCA(config).fit(data)
        scaled, _ = SPCA(config).fit(7.5 * data)
        assert subspace_angle_degrees(base.basis, scaled.basis) < 1.0

    def test_block_count_does_not_change_result(self):
        matrix = sp.random(90, 14, density=0.3, random_state=15, format="csr")
        config = SPCAConfig(n_components=2, max_iterations=6, tolerance=0.0,
                            seed=16, compute_error_every_iteration=False)
        few, _ = SPCA(config, SequentialBackend(config, num_blocks=2)).fit(matrix)
        many, _ = SPCA(config, SequentialBackend(config, num_blocks=30)).fit(matrix)
        np.testing.assert_allclose(few.components, many.components, atol=1e-9)


class TestNumericalStability:
    def test_huge_value_scale(self):
        rng = np.random.default_rng(17)
        data = 1e8 * (rng.normal(size=(80, 3)) @ rng.normal(size=(3, 8)))
        model = fit_ppca(data, 2, max_iterations=50, seed=18)
        assert np.isfinite(model.components).all()
        assert np.isfinite(model.noise_variance)

    def test_tiny_value_scale(self):
        rng = np.random.default_rng(19)
        data = 1e-8 * (rng.normal(size=(80, 3)) @ rng.normal(size=(3, 8)))
        model = fit_ppca(data, 2, max_iterations=50, seed=20)
        assert np.isfinite(model.components).all()

    def test_noise_free_exact_lowrank(self):
        rng = np.random.default_rng(21)
        data = rng.normal(size=(100, 2)) @ rng.normal(size=(2, 10))
        model = fit_ppca(data, 2, max_iterations=200, tolerance=1e-14, seed=22)
        # Residual variance collapses towards zero without blowing up EM.
        assert model.noise_variance < 1e-6
        centered = data - data.mean(axis=0)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        assert subspace_angle_degrees(model.basis, vt[:2].T) < 0.5


class TestSparseFormatTolerance:
    def test_coo_and_csc_inputs_accepted(self):
        import scipy.sparse as sp

        from repro.core import SPCA, SPCAConfig

        base = sp.random(80, 12, density=0.3, random_state=23, format="coo")
        config = SPCAConfig(n_components=2, max_iterations=4, tolerance=0.0,
                            seed=24, compute_error_every_iteration=False)
        from_coo, _ = SPCA(config).fit(base.tocoo())
        from_csc, _ = SPCA(config).fit(base.tocsc())
        from_csr, _ = SPCA(config).fit(base.tocsr())
        import numpy as np

        np.testing.assert_allclose(from_coo.components, from_csr.components, atol=1e-9)
        np.testing.assert_allclose(from_csc.components, from_csr.components, atol=1e-9)
