"""Worker-resident payloads: pin once, ship a tiny ref, stay bitwise equal.

Covers the resident store (`repro.engine.exec.resident`), the executor pin
API (base + the process executor's shared-memory staging), the runtime's
``ResidentDataset`` plumbing, and the end-to-end claims: a worker-resident
fit is bitwise identical to a plain one, and after iteration 1 the bytes
crossing the process-pool pickle pipe shrink by well over the 5x target.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.backends.mapreduce import MapReduceBackend
from repro.core import SPCA, SPCAConfig
from repro.engine.cluster import ClusterSpec
from repro.engine.exec import (
    ProcessPoolTaskExecutor,
    ResidentPayloadRef,
    SerialExecutor,
    ThreadPoolTaskExecutor,
    clear_resident_store,
    resident_keys,
    resolve_payload,
)
from repro.engine.exec import resident
from repro.engine.mapreduce.runtime import MapReduceRuntime, ResidentDataset
from repro.errors import EngineError
from repro.obs.metrics import collecting

CLUSTER = ClusterSpec(num_nodes=1, cores_per_node=4)


@pytest.fixture(autouse=True)
def _clean_store():
    clear_resident_store()
    yield
    clear_resident_store()


def make_payload():
    rng = np.random.default_rng(3)
    return [("r0", rng.normal(size=(64, 8))), ("r1", rng.normal(size=(64, 8)))]


# -- the store ---------------------------------------------------------------


def test_resolve_passthrough_for_plain_objects():
    payload = make_payload()
    assert resolve_payload(payload) is payload
    assert resolve_payload(None) is None


def test_ref_is_picklable_and_small():
    ref = ResidentPayloadRef(key="k/0", generation=4, segment="seg", nbytes=9)
    blob = pickle.dumps(ref)
    assert pickle.loads(blob) == ref
    assert len(blob) < 200


def test_base_pin_resolves_to_identical_object():
    executor = ThreadPoolTaskExecutor(workers=2)
    try:
        payload = make_payload()
        ref = executor.pin_payload("split/0", payload)
        assert ref.segment is None
        assert resolve_payload(ref) is payload
        assert resident_keys() == ["split/0"]
    finally:
        executor.shutdown()
    assert resident_keys() == []


def test_repin_bumps_generation_and_invalidates_old_ref():
    executor = SerialExecutor()
    try:
        first = executor.pin_payload("split/0", make_payload())
        replacement = make_payload()
        second = executor.pin_payload("split/0", replacement)
        assert second.generation > first.generation
        assert resolve_payload(second) is replacement
        # The stale ref must not silently resolve against the new entry.
        with pytest.raises(EngineError, match="split/0"):
            resolve_payload(first)
    finally:
        executor.shutdown()


def test_unresolvable_ref_without_segment_raises_engine_error():
    ref = ResidentPayloadRef(key="ghost", generation=999)
    with pytest.raises(EngineError, match="ghost"):
        resolve_payload(ref)


# -- the process executor: shared-memory staging -----------------------------


def test_processes_pin_stages_one_segment_and_unpin_releases_it():
    executor = ProcessPoolTaskExecutor(workers=2)
    try:
        payload = make_payload()
        ref = executor.pin_payload("split/0", payload)
        assert ref.segment is not None
        assert ref.nbytes > 0
        assert executor.registry.pinned_segments() == [ref.segment]
        # Driver-side resolution returns the *original* object.
        assert resolve_payload(ref) is payload
        executor.unpin_payload("split/0")
        assert executor.registry.pinned_segments() == []
        assert resident_keys() == []
    finally:
        executor.shutdown()


def test_processes_ref_restores_from_segment_on_store_miss():
    # Simulate a worker forked before the pin: evict the inherited entry and
    # force resolution down the attach-and-unpickle path.
    executor = ProcessPoolTaskExecutor(workers=2)
    try:
        payload = make_payload()
        ref = executor.pin_payload("split/0", payload)
        resident.evict("split/0")
        restored = resolve_payload(ref)
        assert restored is not payload
        assert [key for key, _ in restored] == [key for key, _ in payload]
        for (_, got), (_, expected) in zip(restored, payload):
            assert (np.asarray(got) == expected).all()
        # The miss path caches: the next resolve is a store hit.
        assert resolve_payload(ref) is restored
    finally:
        executor.shutdown()


def test_shutdown_releases_pins_and_segments():
    executor = ProcessPoolTaskExecutor(workers=2)
    executor.pin_payload("split/0", make_payload())
    executor.pin_payload("split/1", make_payload())
    assert len(executor.registry.pinned_segments()) == 2
    executor.shutdown()
    assert executor.registry.pinned_segments() == []
    assert executor.registry.active_segments() == []
    assert resident_keys() == []


# -- the runtime dataset -----------------------------------------------------


def test_resident_dataset_exposes_real_splits():
    splits = [[("a", 1)], [("b", 2), ("c", 3)]]
    refs = [
        ResidentPayloadRef(key="s/0", generation=1),
        ResidentPayloadRef(key="s/1", generation=2),
    ]
    dataset = ResidentDataset(splits, refs)
    assert len(dataset) == 2
    assert list(dataset) == splits
    assert dataset[1] == splits[1]
    with pytest.raises(ValueError):
        ResidentDataset(splits, refs[:1])


# -- end to end --------------------------------------------------------------


FIT_DATA = np.random.default_rng(7).normal(size=(1024, 32))
FIT_CONFIG = SPCAConfig(
    n_components=3, max_iterations=3, tolerance=0.0, seed=11,
    compute_error_every_iteration=False,
)


def fit_mapreduce(executor, worker_resident, config=FIT_CONFIG, data=FIT_DATA):
    runtime = MapReduceRuntime(cluster=CLUSTER, executor=executor)
    backend = MapReduceBackend(
        config,
        runtime=runtime,
        records_per_split=128,
        worker_resident=worker_resident,
    )
    model, _ = SPCA(config, backend).fit(data)
    backend._unpin_resident()
    return model


@pytest.mark.parametrize(
    "executor_factory",
    [ThreadPoolTaskExecutor, ProcessPoolTaskExecutor],
    ids=["threads", "processes"],
)
def test_resident_fit_bitwise_equals_plain(executor_factory):
    with executor_factory(workers=2) as executor:
        plain = fit_mapreduce(executor, worker_resident=False)
        pinned = fit_mapreduce(executor, worker_resident=True)
        assert resident_keys() == []
        if isinstance(executor, ProcessPoolTaskExecutor):
            assert executor.registry.pinned_segments() == []
    assert (pinned.components == plain.components).all()
    assert (pinned.mean == plain.mean).all()
    assert pinned.noise_variance == plain.noise_variance


def payload_bytes_per_iteration(worker_resident, data=FIT_DATA):
    """Dispatch bytes attributable to one extra EM iteration."""
    totals = {}
    for iterations in (1, 3):
        config = FIT_CONFIG.with_options(max_iterations=iterations)
        with ProcessPoolTaskExecutor(workers=2) as executor:
            with collecting() as registry:
                fit_mapreduce(executor, worker_resident, config=config, data=data)
                totals[iterations] = registry.counter_total(
                    "spca_executor_payload_bytes_total"
                )
    return (totals[3] - totals[1]) / 2


def test_resident_iterations_ship_no_split_data():
    # Each split is one block whose rows ship as a shared-memory ref, pinned
    # or not, so neither mode's per-iteration driver bytes may grow with the
    # data: doubling the rows may only widen the pickled record offsets of a
    # plain split (measured 38,312 -> 38,440 bytes plain, 35,002 pinned).
    doubled = np.vstack([FIT_DATA, FIT_DATA])
    base = {}
    for worker_resident in (False, True):
        base[worker_resident] = payload_bytes_per_iteration(worker_resident)
        grown = payload_bytes_per_iteration(worker_resident, data=doubled)
        assert 0 < grown <= 1.01 * base[worker_resident], (worker_resident, grown)
    # A pin still ships no more than the plain split's refs.
    assert base[True] <= base[False]


def test_pin_bytes_are_metered():
    with ProcessPoolTaskExecutor(workers=2) as executor:
        with collecting() as registry:
            fit_mapreduce(executor, worker_resident=True)
            pinned = registry.counter_total("spca_executor_pin_bytes_total")
    assert pinned > 0
