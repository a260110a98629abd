"""Shared-memory lifetime on exception paths.

The leak contract: after any failure -- a worker dying mid-task, a task
raising, an attach to a vanished segment, a fill error during ``share_array``
-- executor shutdown leaves zero live segments and no orphaned ``/dev/shm``
files.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.engine.exec.processes import ProcessPoolTaskExecutor
from repro.engine.exec.shm import ShmBlockRegistry, _ATTACHED, _attach


def _shm_names() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def _die(_payload):
    os._exit(13)  # simulates a worker killed mid-task (no cleanup runs)


def _boom(_payload):
    raise RuntimeError("task failure")


def _ok(payload):
    return float(np.asarray(payload).sum())


class TestShareArrayExceptionPath:
    def test_fill_failure_unlinks_the_segment(self, monkeypatch):
        registry = ShmBlockRegistry()
        before = _shm_names()

        class ExplodingNdarray:
            def __call__(self, *args, **kwargs):
                raise MemoryError("simulated fill failure")

        monkeypatch.setattr(
            "repro.engine.exec.shm.np.ndarray", ExplodingNdarray()
        )
        with pytest.raises(MemoryError):
            registry.share_array(np.ones((64, 64)))
        assert registry.active_segments() == []
        assert _shm_names() - before == set()

    def test_attach_failure_leaves_worker_cache_clean(self):
        with pytest.raises(FileNotFoundError):
            _attach("repro_no_such_segment")
        assert "repro_no_such_segment" not in _ATTACHED


class TestExecutorFailureLeaks:
    def test_worker_death_mid_task_leaks_nothing(self):
        before = _shm_names()
        executor = ProcessPoolTaskExecutor(workers=2, shm_threshold=0)
        payloads = [np.ones((32, 32)) for _ in range(2)]
        try:
            with pytest.raises(BrokenProcessPool):
                executor.run_tasks(_die, payloads)
        finally:
            executor.shutdown()
        assert executor.registry.active_segments() == []
        assert _shm_names() - before == set()

    def test_raising_tasks_leak_nothing(self):
        before = _shm_names()
        executor = ProcessPoolTaskExecutor(workers=2, shm_threshold=0)
        payloads = [np.ones((16, 16)) for _ in range(4)]
        try:
            with pytest.raises(RuntimeError):
                executor.run_tasks(_boom, payloads)
        finally:
            executor.shutdown()
        assert executor.registry.active_segments() == []
        assert _shm_names() - before == set()

    def test_shutdown_with_segments_from_in_flight_batch(self):
        # The batch completed but its source arrays are still alive (their
        # segments too); shutdown must reclaim every one of them.
        before = _shm_names()
        executor = ProcessPoolTaskExecutor(workers=2, shm_threshold=0)
        payloads = [np.full((32, 32), float(i)) for i in range(3)]
        results = executor.run_tasks(_ok, payloads)
        assert results == [float(np.full((32, 32), float(i)).sum()) for i in range(3)]
        assert executor.registry.active_segments() != []
        executor.shutdown()
        assert executor.registry.active_segments() == []
        assert _shm_names() - before == set()


# -- resource tracker ----------------------------------------------------------

_RESIDENT_FIT = """
import numpy as np
from repro.backends.mapreduce import MapReduceBackend
from repro.core import SPCA, SPCAConfig
from repro.engine.cluster import ClusterSpec
from repro.engine.mapreduce import MapReduceRuntime

# 250 x 40 float64 rows per split (80 KB) ride shared memory.
data = np.random.default_rng(0).normal(size=(1000, 40))
config = SPCAConfig(n_components=3, max_iterations=1, tolerance=0.0, seed=1)
runtime = MapReduceRuntime(
    cluster=ClusterSpec(num_nodes=1, cores_per_node=4),
    executor="processes", workers=2,
)
backend = MapReduceBackend(config, runtime=runtime, worker_resident=True)
# The second fit pins its splits after the pool forked, so the workers
# attach the pinned segments instead of inheriting the pins.
for _ in range(2):
    SPCA(config, backend).fit(data)
backend._unpin_resident()
runtime.executor.shutdown()
"""


def test_resident_process_fit_leaves_tracker_quiet_and_shm_clean():
    # Forked workers share the driver's resource tracker: an attach that
    # unregistered there made the driver's later unlink print a
    # ``KeyError: '/psm_...'`` traceback per segment.
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    before = _shm_names()
    completed = subprocess.run(
        [sys.executable, "-c", _RESIDENT_FIT],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    assert "KeyError: '/psm_" not in completed.stderr, completed.stderr[-3000:]
    assert _shm_names() - before == set()


def test_partition_block_rows_travel_as_shm_refs():
    from repro.engine.exec.shm import ShmArrayRef, decode_payload, encode_payload
    from repro.linalg.blocks import partition_rows

    data = np.random.default_rng(1).normal(size=(64, 128))
    (block,) = partition_rows(data, 1, 4)
    registry = ShmBlockRegistry()
    try:
        encoded = encode_payload(block, registry)
        assert isinstance(encoded.data, ShmArrayRef)
        decoded = decode_payload(encoded)
        assert decoded.record_starts == block.record_starts
        assert np.array_equal(decoded.data, block.data)
        assert [start for start, _ in decoded] == [0, 16, 32, 48]
    finally:
        registry.unlink_all()
