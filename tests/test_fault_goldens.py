"""Golden digests of faulted sPCA fits, identical on every executor.

Both engines run every stage through one planned path: fault decisions are
drawn up front per task (``FaultInjector.plan_task``), task bodies are pure,
and the driver commits their outcomes in task order.  These digests pin what
that path produces under injected faults -- retries, stragglers, executor
loss with lineage recomputation, a driver heap cap, and i.i.d. random
failures -- so a change to the retry or commit logic shows up as a digest
change rather than as a silent drift in fault accounting.

Each digest covers the fitted components and noise variance; per job the
name, every ``BYTE_FIELDS`` value, ``task_retries``, ``faults`` and
``counters``; and the multiset of trace data events.  Wall-derived fields
(``sim_seconds``, ``recovery_sim_seconds``) and the executors' own
bookkeeping events are left out.  The same digest must come out of the
``serial``, ``threads`` and ``processes`` executors.  Captured on x86-64
with numpy's bundled OpenBLAS.
"""

import hashlib

import numpy as np
import pytest

from repro.backends.mapreduce import MapReduceBackend
from repro.backends.spark import SparkBackend
from repro.core import SPCA, SPCAConfig
from repro.data.generators import bag_of_words
from repro.engine.cluster import ClusterSpec
from repro.engine.exec import make_executor
from repro.engine.mapreduce import MapReduceRuntime
from repro.engine.spark.context import SparkContext
from repro.faults import (
    DriverMemoryCap,
    ExecutorLoss,
    FaultPlan,
    FetchFailure,
    KillTask,
    PlannedFaults,
    RandomFaults,
    Straggler,
)
from repro.obs import tracing
from tests.test_batch_equivalence import BYTE_FIELDS

DATA = bag_of_words(600, 80)
CLUSTER = ClusterSpec(num_nodes=2, cores_per_node=2)
CONFIG = SPCAConfig(
    n_components=3, max_iterations=2, tolerance=0.0, seed=11,
    compute_error_every_iteration=False,
)
RECORDS = 3
EXCLUDED_EVENTS = ("executor_dispatch", "executor_join", "speculative_kill")

PLANS = {
    "spark": FaultPlan(events=(
        # Lost executor 1 as FnormJob starts: its cached input blocks are
        # recomputed from lineage inside that stage.
        ExecutorLoss(job="FnormJob", executor=1, occurrence=0),
        KillTask(job="YtXJob", task=2, attempts=2, occurrence=0),
        Straggler(job="ss3Job", task=3, factor=6.0, occurrence=None),
        # A cap the fit's collects fit under: counted, never fatal.
        DriverMemoryCap(job="ss3Job", limit_bytes=1 << 30, occurrence=0),
    )),
    "mapreduce": FaultPlan(events=(
        KillTask(job="meanJob", kind="map", task=2, attempts=2, occurrence=0),
        FetchFailure(job="YtXJob", task=0, attempts=1, occurrence=None),
        Straggler(job="ss3Job", kind="map", task=3, factor=6.0, occurrence=0),
    )),
}
EXPECTED_FAULTS = {
    ("spark", "plan"): {"executor_loss", "kill_task", "straggler", "driver_memory_cap"},
    ("mapreduce", "plan"): {"kill_task", "fetch_failure", "straggler"},
    ("spark", "random"): {"random"},
    ("mapreduce", "random"): {"random"},
}

#: "engine-faults" -> (fit digest, job-ledger digest, trace-event digest).
GOLDEN_DIGESTS = {
    "mapreduce-plan": ('dd65c58324e6d757', '2cafa6e938319f5c', 'c620f11e86c1b470'),
    "mapreduce-random": ('dd65c58324e6d757', '3cffceea54841b30', '38418381f6c6058f'),
    "spark-plan": ('dd65c58324e6d757', 'b81bb1b67575de57', 'ac1c95f2c7508a66'),
    "spark-random": ('dd65c58324e6d757', '6ec8957c24704034', '0c87c90138e09d5b'),
}


def run_fit(engine, faults, executor):
    injector = (
        PlannedFaults(PLANS[engine]) if faults == "plan" else RandomFaults(0.15, seed=3)
    )
    if engine == "spark":
        context = SparkContext(
            cluster=CLUSTER, faults=injector, executor=executor,
        )
        backend = SparkBackend(CONFIG, context=context, records_per_partition=RECORDS)
        metrics = context.metrics
    else:
        runtime = MapReduceRuntime(
            cluster=CLUSTER, faults=injector, executor=executor,
        )
        backend = MapReduceBackend(CONFIG, runtime=runtime, records_per_split=RECORDS)
        metrics = runtime.metrics
    with tracing() as tracer:
        model, _ = SPCA(CONFIG, backend).fit(DATA)
    return model, metrics, tracer


def fit_digests(engine, faults, executor):
    model, metrics, tracer = run_fit(engine, faults, executor)
    fired = set()
    for job in metrics.jobs:
        fired.update(job.faults)
    assert EXPECTED_FAULTS[(engine, faults)] <= fired, fired
    events = sorted(
        (event.type, sorted(event.attrs.items(), key=repr))
        for event in tracer.events
        if event.type not in EXCLUDED_EVENTS
    )
    if engine == "spark" and faults == "plan":
        assert any(kind == "lineage_recompute" for kind, _ in events)
    fit = hashlib.sha256(model.components.tobytes())
    fit.update(np.float64(model.noise_variance).tobytes())
    ledger = [
        (job.name, *(getattr(job, field) for field in BYTE_FIELDS),
         job.task_retries, sorted(job.faults.items()), sorted(job.counters.items()))
        for job in metrics.jobs
    ]
    return (
        fit.hexdigest()[:16],
        hashlib.sha256(repr(ledger).encode()).hexdigest()[:16],
        hashlib.sha256(repr(events).encode()).hexdigest()[:16],
    )


@pytest.fixture(scope="module", params=["serial", "threads", "processes"])
def executor(request):
    with make_executor(request.param, workers=2) as pool:
        yield pool


@pytest.mark.parametrize("faults", ["plan", "random"])
@pytest.mark.parametrize("engine", ["mapreduce", "spark"])
def test_faulted_fit_matches_golden_digest(engine, faults, executor):
    assert fit_digests(engine, faults, executor) == GOLDEN_DIGESTS[f"{engine}-{faults}"]
