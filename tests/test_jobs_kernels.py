"""Unit tests for the per-block kernels shared by all backends."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jobs import (
    block_error_parts,
    block_frobenius,
    block_latent,
    block_ss3,
    block_sums,
    block_ytx_xtx,
)
from repro.jobs.kernels import error_from_colsums


@pytest.fixture
def setting():
    rng = np.random.default_rng(51)
    block = sp.random(40, 25, density=0.2, random_state=2, format="csr")
    mean = np.asarray(block.mean(axis=0)).ravel() + 0.1
    projector = rng.normal(size=(25, 4))
    latent_mean = mean @ projector
    components = rng.normal(size=(25, 4))
    return block, mean, projector, latent_mean, components


def dense_centered(block, mean):
    return np.asarray(block.todense()) - mean


class TestBlockSums:
    def test_matches_numpy(self, setting):
        block, *_ = setting
        sums, count = block_sums(block)
        np.testing.assert_allclose(sums, np.asarray(block.sum(axis=0)).ravel())
        assert count == 40


class TestBlockLatent:
    def test_mean_propagation_equals_dense(self, setting):
        block, mean, projector, latent_mean, _ = setting
        propagated = block_latent(block, mean, projector, latent_mean, True)
        densified = block_latent(block, mean, projector, latent_mean, False)
        expected = dense_centered(block, mean) @ projector
        np.testing.assert_allclose(propagated, expected, atol=1e-10)
        np.testing.assert_allclose(densified, expected, atol=1e-10)


class TestBlockYtxXtx:
    def test_both_paths_equal_dense_reference(self, setting):
        block, mean, projector, latent_mean, _ = setting
        centered = dense_centered(block, mean)
        latent = centered @ projector
        expected_ytx = centered.T @ latent
        expected_xtx = latent.T @ latent
        for mean_prop in (True, False):
            ytx, xtx = block_ytx_xtx(block, mean, projector, latent_mean, mean_prop)
            np.testing.assert_allclose(ytx, expected_ytx, atol=1e-9)
            np.testing.assert_allclose(xtx, expected_xtx, atol=1e-9)

    def test_precomputed_latent_used(self, setting):
        block, mean, projector, latent_mean, _ = setting
        latent = block_latent(block, mean, projector, latent_mean, True)
        ytx_a, xtx_a = block_ytx_xtx(block, mean, projector, latent_mean, True)
        ytx_b, xtx_b = block_ytx_xtx(
            block, mean, projector, latent_mean, True, latent=latent
        )
        np.testing.assert_allclose(ytx_a, ytx_b)
        np.testing.assert_allclose(xtx_a, xtx_b)


class TestBlockSS3:
    def test_matches_dense_reference(self, setting):
        block, mean, projector, latent_mean, components = setting
        centered = dense_centered(block, mean)
        latent = centered @ projector
        expected = float(np.sum((centered @ components) * latent))
        for mean_prop in (True, False):
            result = block_ss3(
                block, mean, projector, latent_mean, components, mean_prop
            )
            assert result == pytest.approx(expected, abs=1e-9)


class TestBlockFrobenius:
    def test_algorithms_agree(self, setting):
        block, mean, *_ = setting
        fast = block_frobenius(block, mean, efficient=True)
        slow = block_frobenius(block, mean, efficient=False)
        assert fast == pytest.approx(slow)


class TestBlockErrorParts:
    def test_colsum_protocol(self, setting):
        block, mean, _, _, components = setting
        ls_projector = components @ np.linalg.inv(components.T @ components)
        residual, magnitude = block_error_parts(
            block, mean, components, ls_projector, True
        )
        assert residual.shape == (25,)
        assert magnitude.shape == (25,)
        np.testing.assert_allclose(
            magnitude, np.abs(np.asarray(block.todense())).sum(axis=0)
        )

    def test_mean_prop_matches_densified(self, setting):
        block, mean, _, _, components = setting
        ls_projector = components @ np.linalg.inv(components.T @ components)
        prop = block_error_parts(block, mean, components, ls_projector, True)
        dense = block_error_parts(block, mean, components, ls_projector, False)
        np.testing.assert_allclose(prop[0], dense[0], atol=1e-9)
        np.testing.assert_allclose(prop[1], dense[1], atol=1e-9)

    def test_error_from_colsums(self):
        residual = np.array([1.0, 8.0, 2.0])
        magnitude = np.array([10.0, 16.0, 1.0])
        assert error_from_colsums(residual, magnitude) == pytest.approx(0.5)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=15),
    d_cols=st.integers(min_value=2, max_value=12),
    k=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_blocks_additive(n, d_cols, k, seed):
    """Partial results from split blocks must sum to the whole-block result."""
    rng = np.random.default_rng(seed)
    block = sp.random(n, d_cols, density=0.5, random_state=seed % 2**31, format="csr")
    mean = rng.normal(size=d_cols)
    projector = rng.normal(size=(d_cols, k))
    latent_mean = mean @ projector
    half = n // 2
    top, bottom = block[:half], block[half:]
    whole_ytx, whole_xtx = block_ytx_xtx(block, mean, projector, latent_mean, True)
    parts = [
        block_ytx_xtx(part, mean, projector, latent_mean, True)
        for part in (top, bottom)
        if part.shape[0] > 0
    ]
    sum_ytx = sum(p[0] for p in parts)
    sum_xtx = sum(p[1] for p in parts)
    np.testing.assert_allclose(sum_ytx, whole_ytx, atol=1e-8)
    np.testing.assert_allclose(sum_xtx, whole_xtx, atol=1e-8)


@pytest.mark.parametrize("mean_propagation", [True, False])
@pytest.mark.parametrize("kind", ["sparse", "dense"])
def test_error_parts_match_the_reference_formula_bitwise(kind, mean_propagation):
    # The kernel builds |Yhat - Y| in one buffer and, for sparse blocks, sums
    # |Y| over the non-zeros only; both must equal the direct formula exactly.
    from repro.jobs.kernels import _densify
    from repro.linalg.centered import centered_times

    def reference(block):
        dense = _densify(block)
        if mean_propagation:
            latent = centered_times(block, mean, ls_projector)
        else:
            latent = (dense - mean) @ ls_projector
        reconstruction = latent @ components.T + mean
        return np.abs(dense - reconstruction).sum(0), np.abs(dense).sum(0)

    rng = np.random.default_rng(23)
    for case in range(120):
        rows = (1, 2, 5, 17, 40)[case % 5]
        cols = int(rng.integers(1, 30))
        d = int(rng.integers(1, cols + 1))
        values = rng.normal(scale=rng.choice([0.1, 1.0, 50.0]), size=(rows, cols))
        values[rng.random((rows, cols)) < rng.choice([0.0, 0.5, 0.9, 1.0])] = 0.0
        if case % 7 == 0:
            values[: max(1, rows // 2)] = 0.0  # rows with no non-zeros
        block = sp.csr_matrix(values) if kind == "sparse" else values
        mean = rng.normal(size=cols)
        components = rng.normal(size=(cols, d))
        ls_projector = rng.normal(size=(cols, d))
        got = block_error_parts(block, mean, components, ls_projector, mean_propagation)
        for got_part, want_part in zip(got, reference(block)):
            assert got_part.dtype == want_part.dtype
            assert np.array_equal(got_part, want_part), case


# -- the one kernel-ops object -------------------------------------------------

KERNEL_OP_NAMES = (
    "sums", "frobenius", "latent", "ytx_xtx", "ss3", "error_parts",
    "stack", "stack_latents",
)


def test_resolve_returns_the_one_kernel_ops_object():
    from repro.errors import ConfigError
    from repro.jobs.backends import KERNEL_OPS, resolve_kernel_backend

    assert resolve_kernel_backend() is KERNEL_OPS
    assert resolve_kernel_backend("numpy") is KERNEL_OPS
    with pytest.raises(ConfigError, match="numpy"):
        resolve_kernel_backend("fused")


@pytest.mark.parametrize("engine", ["sequential", "mapreduce", "spark"])
def test_every_engine_looks_ops_up_at_call_time(engine, monkeypatch):
    # Shadowing an op with an instance attribute (what a profiler does to
    # time kernel calls) must reach every mapper and partition closure.
    from repro.backends import MapReduceBackend, SequentialBackend, SparkBackend
    from repro.core import SPCA, SPCAConfig
    from repro.engine.cluster import ClusterSpec
    from repro.engine.mapreduce.runtime import MapReduceRuntime
    from repro.engine.spark.context import SparkContext
    from repro.jobs.backends import KERNEL_OPS

    calls = dict.fromkeys(KERNEL_OP_NAMES, 0)

    def counted(name):
        original = getattr(KERNEL_OPS, name)

        def op(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return op

    for name in KERNEL_OP_NAMES:
        monkeypatch.setattr(KERNEL_OPS, name, counted(name), raising=False)
    config = SPCAConfig(n_components=2, max_iterations=2, tolerance=0.0)
    cluster = ClusterSpec(num_nodes=1, cores_per_node=2)
    if engine == "sequential":
        backend = SequentialBackend(config)
    elif engine == "mapreduce":
        runtime = MapReduceRuntime(cluster=cluster)
        backend = MapReduceBackend(config, runtime=runtime, records_per_split=3)
    else:
        context = SparkContext(cluster=cluster)
        backend = SparkBackend(config, context=context, records_per_partition=3)
    data = np.random.default_rng(5).normal(size=(48, 6))
    SPCA(config, backend).fit(data)
    used = {"sums", "frobenius", "ss3", "error_parts"}
    if engine == "sequential":
        used |= {"ytx_xtx"}
    elif engine == "mapreduce":
        used |= {"latent", "stack"}
    else:
        # Spark reads each cached partition block whole and never stacks;
        # test_batched_spark_fit_never_stacks asserts that.
        used |= {"latent"}
    assert {name for name, count in calls.items() if count} >= used, calls


@pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
@pytest.mark.parametrize("recompute", [True, False], ids=["recompute-x", "materialize-x"])
def test_batched_spark_fit_never_stacks(sparse, recompute, monkeypatch):
    # The partition block laid out at load is what every batched job reads:
    # no job may rebuild it (or its X rows) from records.
    from repro.backends import SparkBackend
    from repro.core import SPCA, SPCAConfig
    from repro.engine.cluster import ClusterSpec
    from repro.engine.spark.context import SparkContext
    from repro.jobs.backends import KERNEL_OPS

    config = SPCAConfig(
        n_components=2, max_iterations=2, tolerance=0.0, use_x_recomputation=recompute
    )
    context = SparkContext(cluster=ClusterSpec(num_nodes=1, cores_per_node=2))
    backend = SparkBackend(config, context=context, records_per_partition=3)
    data = np.random.default_rng(5).normal(size=(48, 6))
    calls = {"stack": 0, "stack_latents": 0, "latent": 0}

    def counted(name):
        original = getattr(KERNEL_OPS, name)

        def op(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return op

    for name in calls:
        monkeypatch.setattr(KERNEL_OPS, name, counted(name), raising=False)
    SPCA(config, backend).fit(sp.csr_matrix(data) if sparse else data)
    assert calls["latent"] > 0, calls  # the hook is live
    assert calls["stack"] == calls["stack_latents"] == 0, calls
