"""Unit tests for repro.engine.exec: executors, shm transport, fault plans.

The equivalence *property* (serial == threads == processes through a full
engine run) lives in ``tests/test_executor_equivalence.py``; this module
tests the layer's own contracts -- index ordering, exception selection,
shared-memory round-trips and leak-freedom, and the
``plan_task`` RNG-stream fidelity the concurrent drivers rely on.
"""

import gc
import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.backends.spark import SparkBackend
from repro.core import SPCA, SPCAConfig
from repro.engine.exec import (
    EXECUTOR_NAMES,
    ProcessPoolTaskExecutor,
    SerialExecutor,
    ShmArrayRef,
    ShmBlockRegistry,
    ShmSparseRef,
    ThreadPoolTaskExecutor,
    decode_payload,
    encode_payload,
    make_executor,
    resolve_executor,
)
from repro.engine.mapreduce import MapReduceJob, MapReduceRuntime, Mapper, SumReducer
from repro.engine.spark.context import SparkContext
from repro.errors import InvalidPlanError
from repro.faults import FaultSite, PlannedFaults, RandomFaults
from repro.faults.plan import FaultPlan, KillTask, Straggler
from repro.obs import tracing


def _square(x):
    return x * x


def _jittered_square(x):
    # Sleep longer for earlier tasks so completion order inverts submission
    # order -- the executor must still return results by index.
    time.sleep((7 - x) * 0.002)
    return x * x


def _fail_on_odd(x):
    if x % 2:
        raise ValueError(f"task {x} failed")
    return x


def _payload_total(payload):
    dense, sparse, extras = payload
    return float(dense.sum()) + float(sparse.sum()) + sum(extras)


@pytest.fixture(params=EXECUTOR_NAMES)
def executor(request):
    with make_executor(request.param, workers=2) as ex:
        yield ex


class TestFactory:
    def test_make_executor_names(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        with make_executor("threads", 3) as ex:
            assert isinstance(ex, ThreadPoolTaskExecutor)
            assert ex.workers == 3
        with make_executor("processes", 2) as ex:
            assert isinstance(ex, ProcessPoolTaskExecutor)

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidPlanError):
            make_executor("gpu")

    def test_resolve_executor(self):
        assert resolve_executor(None).serial
        assert resolve_executor("serial").serial
        ex = SerialExecutor()
        assert resolve_executor(ex) is ex
        with pytest.raises(InvalidPlanError):
            resolve_executor(42)

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            ThreadPoolTaskExecutor(-1)


class TestContract:
    def test_results_in_index_order(self, executor):
        assert executor.run_tasks(_square, list(range(20))) == [
            x * x for x in range(20)
        ]

    def test_order_despite_inverted_completion(self, executor):
        assert executor.run_tasks(_jittered_square, list(range(8))) == [
            x * x for x in range(8)
        ]

    def test_empty_batch(self, executor):
        assert executor.run_tasks(_square, []) == []

    def test_lowest_index_failure_propagates(self, executor):
        # Index 1 (payload 3) is the first failing task a serial loop hits.
        with pytest.raises(ValueError, match="task 3 failed"):
            executor.run_tasks(_fail_on_odd, [0, 3, 1, 5])

    def test_serial_emits_no_events(self):
        with tracing() as tracer:
            SerialExecutor().run_tasks(_square, [1, 2, 3])
        assert tracer.events == []

    def test_concurrent_executors_emit_dispatch_and_join(self):
        with ThreadPoolTaskExecutor(2) as ex:
            with tracing() as tracer:
                ex.run_tasks(_square, [1, 2, 3], label="unit")
        kinds = [e.type for e in tracer.events]
        assert kinds == ["executor_dispatch", "executor_join"]
        dispatch, join = tracer.events
        assert dispatch.attrs["label"] == "unit"
        assert dispatch.attrs["n_tasks"] == 3
        assert dispatch.attrs["executor"] == "threads"
        assert len(join.attrs["task_wall_s"]) == 3

    def test_closure_executor(self):
        serial = SerialExecutor()
        assert serial.closure_executor() is serial
        with ThreadPoolTaskExecutor(2) as threads:
            assert threads.closure_executor() is threads
        with ProcessPoolTaskExecutor(2) as procs:
            sibling = procs.closure_executor()
            assert sibling is not procs
            assert sibling.workers == procs.workers
            # Closures run fine through the sibling, and its dispatch events
            # say where they fell back from.
            acc = []
            with tracing() as tracer:
                out = sibling.run_tasks(lambda x: acc.append(x) or x, [1, 2])
            assert out == [1, 2] and acc == [1, 2]
            assert tracer.events[0].attrs["fallback_from"] == "processes"

    def test_processes_unpicklable_task_runs_inline(self):
        captured = []
        with ProcessPoolTaskExecutor(2) as ex:
            out = ex.run_tasks(lambda x: captured.append(x) or x + 1, [5, 6])
        assert out == [6, 7]
        assert captured == [5, 6]  # ran in this process, in index order


class _CountingSerial(SerialExecutor):
    """A serial executor that records every batch it is handed."""

    def __init__(self):
        super().__init__()
        self.labels = []

    def run_tasks(self, fn, payloads, label="tasks"):
        self.labels.append(label)
        return super().run_tasks(fn, payloads, label)


class _KeyByParity(Mapper):
    def map(self, key, value, ctx):
        return [(key % 2, value)]


class TestSerialDispatch:
    """``serial`` runs every stage through ``run_tasks``, like the pools."""

    def test_mapreduce_phases_dispatch_once_each(self):
        executor = _CountingSerial()
        runtime = MapReduceRuntime(executor=executor)
        job = MapReduceJob(
            name="J", mapper=_KeyByParity(), combiner=SumReducer(),
            reducer=SumReducer(), num_reducers=2,
        )
        splits = [[(i, 1) for i in range(lo, lo + 5)] for lo in (0, 5, 10)]
        assert sorted(runtime.run(job, splits)) == [(0, 8), (1, 7)]
        assert executor.labels == ["J/map", "J/combine", "J/reduce"]

    def test_spark_fit_dispatches_once_per_stage(self):
        executor = _CountingSerial()
        context = SparkContext(executor=executor)
        config = SPCAConfig(n_components=2, max_iterations=2, seed=1)
        data = np.random.default_rng(4).normal(size=(40, 6))
        SPCA(config, SparkBackend(config, context=context)).fit(data)
        stages = [job.name for job in context.metrics.jobs if job.n_map_tasks]
        assert "YtXJob" in stages
        assert executor.labels == stages


class TestSharedMemory:
    def test_dense_round_trip_is_bitwise(self):
        registry = ShmBlockRegistry()
        try:
            arr = np.random.default_rng(0).standard_normal((64, 33))
            ref = encode_payload(arr, registry, threshold=0)
            assert isinstance(ref, ShmArrayRef)
            out = decode_payload(ref)
            assert out.dtype == arr.dtype and out.shape == arr.shape
            assert np.array_equal(out, arr)
        finally:
            registry.unlink_all()

    def test_non_contiguous_array_survives(self):
        registry = ShmBlockRegistry()
        try:
            base = np.arange(400, dtype=np.float64).reshape(20, 20)
            view = base[::2, 1::3]  # non-contiguous slice
            out = decode_payload(encode_payload(view, registry, threshold=0))
            assert np.array_equal(out, view)
        finally:
            registry.unlink_all()

    def test_sparse_round_trip(self):
        registry = ShmBlockRegistry()
        try:
            mat = sp.random(50, 40, density=0.3, random_state=1, format="csr")
            ref = encode_payload(mat, registry, threshold=0)
            assert isinstance(ref, ShmSparseRef)
            out = decode_payload(ref)
            assert out.format == "csr"
            assert (out != mat).nnz == 0
            assert np.array_equal(out.indptr, mat.indptr)
        finally:
            registry.unlink_all()

    def test_nested_containers_and_threshold(self):
        registry = ShmBlockRegistry()
        try:
            big = np.ones(10_000)
            small = np.ones(3)
            payload = {"a": [big, small], "b": (small, {"c": big}), "d": 7}
            encoded = encode_payload(payload, registry, threshold=1024)
            assert isinstance(encoded["a"][0], ShmArrayRef)
            assert encoded["a"][1] is small  # below threshold: passed as-is
            assert isinstance(encoded["b"][1]["c"], ShmArrayRef)
            decoded = decode_payload(encoded)
            assert np.array_equal(decoded["a"][0], big)
            assert decoded["a"][1] is small
            assert decoded["d"] == 7
        finally:
            registry.unlink_all()

    def test_repeat_shares_are_memoized(self):
        registry = ShmBlockRegistry()
        try:
            arr = np.ones(5000)
            ref1 = registry.share_array(arr)
            ref2 = registry.share_array(arr)
            assert ref1.name == ref2.name
            assert len(registry.active_segments()) == 1
        finally:
            registry.unlink_all()

    def test_segment_unlinked_when_array_collected(self):
        registry = ShmBlockRegistry()
        try:
            arr = np.ones(5000)
            registry.share_array(arr)
            assert len(registry.active_segments()) == 1
            del arr
            gc.collect()
            assert registry.active_segments() == []
        finally:
            registry.unlink_all()

    def test_unlink_all_is_idempotent(self):
        registry = ShmBlockRegistry()
        arrs = [np.ones(4000), np.zeros(4000)]
        for a in arrs:
            registry.share_array(a)
        assert len(registry.active_segments()) == 2
        registry.unlink_all()
        assert registry.active_segments() == []
        registry.unlink_all()  # second call is a no-op

    def test_process_executor_leaves_no_segments(self):
        # Acceptance criterion: after shutdown, every segment is unlinked.
        ex = ProcessPoolTaskExecutor(workers=2, shm_threshold=0)
        rng = np.random.default_rng(3)
        payloads = [
            (
                rng.standard_normal((40, 10)),
                sp.random(30, 8, density=0.4, random_state=i, format="csr"),
                [1.0, float(i)],
            )
            for i in range(6)
        ]
        expected = [_payload_total(p) for p in payloads]
        got = ex.run_tasks(_payload_total, payloads)
        assert got == pytest.approx(expected)
        assert ex.registry.active_segments() != []  # payloads still alive
        ex.shutdown()
        assert ex.registry.active_segments() == []


class TestPlanTask:
    def test_random_faults_plan_matches_serial_draws(self):
        """plan_task must consume the generator exactly like a retry loop."""
        planned = RandomFaults(rate=0.4, seed=123)
        looped = RandomFaults(rate=0.4, seed=123)
        sites = [
            FaultSite("mapreduce", "YtXJob", kind, task_id, 0)
            for kind in ("map", "reduce")
            for task_id in range(6)
        ]
        for site in sites:
            plan = planned.plan_task(site, max_attempts=4)
            manual = []
            for attempt in range(1, 5):
                s = FaultSite(site.engine, site.job, site.kind, site.task_id, attempt)
                factor = looped.time_factor(s)
                label = looped.fail(s)
                manual.append((factor, label))
                if label is None:
                    break
            assert plan == manual

    def test_planned_faults_kill_plan(self):
        plan = FaultPlan(events=(KillTask(job="J", task=0, attempts=2),))
        inj = PlannedFaults(plan)
        inj.begin_job("mapreduce", "J")
        decisions = inj.plan_task(FaultSite("mapreduce", "J", "map", 0, 0), 4)
        assert [label for _, label in decisions] == [
            "kill_task",
            "kill_task",
            None,
        ]
        untouched = inj.plan_task(FaultSite("mapreduce", "J", "map", 1, 0), 4)
        assert untouched == [(1.0, None)]

    def test_planned_faults_straggler_factor(self):
        plan = FaultPlan(events=(Straggler(job="J", task=2, factor=5.0),))
        inj = PlannedFaults(plan)
        inj.begin_job("mapreduce", "J")
        decisions = inj.plan_task(FaultSite("mapreduce", "J", "map", 2, 0), 4)
        assert decisions == [(5.0, None)]
