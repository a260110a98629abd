"""Property: the batched pipeline is indistinguishable from per-record.

The batch protocol is an optimization, not a semantics change: for any job
and any split shape, running with ``enable_batch=True`` must produce the
same output records, the same JobStats byte fields, the same counters, and
the same trace events as the per-record baseline.  Byte accounting must be
*bit-identical* -- the obs reconciliation invariants depend on it.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.mapreduce import MapReduceBackend
from repro.backends.spark import SparkBackend
from repro.core import SPCA, SPCAConfig
from repro.engine.cluster import ClusterSpec
from repro.engine.mapreduce import MapReduceJob, MapReduceRuntime, Mapper, SumReducer
from repro.engine.spark.context import SparkContext
from repro.obs import tracing

BYTE_FIELDS = (
    "map_output_bytes",
    "shuffle_bytes",
    "output_bytes",
    "hdfs_read_bytes",
    "hdfs_write_bytes",
    "driver_result_bytes",
    "broadcast_bytes",
)

SMALL_CLUSTER = ClusterSpec(num_nodes=1, cores_per_node=4)


class EmitTwiceMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.increment("records")
        yield key, value
        yield (key, "sq"), value * value


class StatefulSumMapper(Mapper):
    def setup(self, ctx):
        self.total = 0

    def map(self, key, value, ctx):
        self.total += value
        return ()

    def cleanup(self, ctx):
        yield "sum", self.total


class VectorizedMapper(Mapper):
    """A genuine batch override whose semantics match the per-record hook."""

    def map(self, key, value, ctx):
        ctx.increment("records")
        yield key, value * 7

    def map_batch(self, records, ctx):
        ctx.increment("records", len(records))
        return [(key, value * 7) for key, value in records]


MAPPERS = {
    "identity": Mapper,
    "emit_twice": EmitTwiceMapper,
    "stateful": StatefulSumMapper,
    "vectorized": VectorizedMapper,
}


@st.composite
def job_inputs(draw):
    n_records = draw(st.integers(min_value=1, max_value=20))
    keys = draw(
        st.lists(
            st.sampled_from(["YtX", "XtX", "mean/sums", "k0", "k1"]),
            min_size=n_records,
            max_size=n_records,
        )
    )
    values = draw(
        st.lists(
            st.integers(min_value=-50, max_value=50),
            min_size=n_records,
            max_size=n_records,
        )
    )
    records = list(zip(keys, values))
    n_splits = draw(st.integers(min_value=1, max_value=4))
    boundaries = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=n_records),
                min_size=n_splits - 1,
                max_size=n_splits - 1,
            )
        )
    )
    edges = [0, *boundaries, n_records]
    splits = [records[lo:hi] for lo, hi in zip(edges[:-1], edges[1:])]
    splits = [split for split in splits if split] or [records]
    mapper = draw(st.sampled_from(sorted(MAPPERS)))
    use_reducer = draw(st.booleans())
    use_combiner = use_reducer and draw(st.booleans())
    num_reducers = draw(st.integers(min_value=1, max_value=3))
    return splits, mapper, use_reducer, use_combiner, num_reducers


def run_traced(enable_batch, splits, mapper, use_reducer, use_combiner, num_reducers):
    runtime = MapReduceRuntime(cluster=SMALL_CLUSTER, enable_batch=enable_batch)
    job = MapReduceJob(
        name="property",
        mapper=MAPPERS[mapper](),
        reducer=SumReducer() if use_reducer else None,
        combiner=SumReducer() if use_combiner else None,
        num_reducers=num_reducers,
    )
    with tracing() as tracer:
        output = runtime.run(job, splits)
    return output, runtime.metrics.jobs[0], tracer


@settings(max_examples=60, deadline=None)
@given(params=job_inputs())
def test_batch_equals_per_record(params):
    out_batch, stats_batch, trace_batch = run_traced(True, *params)
    out_plain, stats_plain, trace_plain = run_traced(False, *params)
    assert out_batch == out_plain
    for field in BYTE_FIELDS:
        assert getattr(stats_batch, field) == getattr(stats_plain, field), field
    assert stats_batch.counters == stats_plain.counters
    assert stats_batch.n_map_tasks == stats_plain.n_map_tasks
    assert stats_batch.n_reduce_tasks == stats_plain.n_reduce_tasks
    # Trace events agree in kind and in every byte attribute.  Timing-derived
    # events (speculative kills fire off measured wall time, which a GC pause
    # in the *simulating* process can perturb) are the only exclusion.
    def data_events(tracer):
        return [
            (e.type, e.attrs)
            for e in tracer.events
            if e.type != "speculative_kill"
        ]

    assert data_events(trace_batch) == data_events(trace_plain)
    batch_spans = [(s.kind, s.name) for s in trace_batch.spans]
    plain_spans = [(s.kind, s.name) for s in trace_plain.spans]
    assert batch_spans == plain_spans


# -- the real sPCA jobs, at fine record granularity -----------------------


DATA = sp.random(240, 30, density=0.2, random_state=5, format="csr")

CONFIG = SPCAConfig(
    n_components=3, max_iterations=4, tolerance=0.0, seed=11,
    compute_error_every_iteration=False,
)


def fit_mapreduce(enable_batch):
    runtime = MapReduceRuntime(cluster=SMALL_CLUSTER, enable_batch=enable_batch)
    backend = MapReduceBackend(CONFIG, runtime=runtime, records_per_split=6)
    model, _ = SPCA(CONFIG, backend).fit(DATA)
    return model, runtime.metrics


def fit_spark(enable_batch):
    context = SparkContext(cluster=SMALL_CLUSTER, enable_batch=enable_batch)
    backend = SparkBackend(CONFIG, context=context, records_per_partition=6)
    model, _ = SPCA(CONFIG, backend).fit(DATA)
    return model, context.metrics


def test_spca_mapreduce_batch_accounting_is_bit_identical():
    model_batch, metrics_batch = fit_mapreduce(True)
    model_plain, metrics_plain = fit_mapreduce(False)
    # Stacked kernels re-associate float sums, so results agree to close
    # tolerance rather than bitwise...
    np.testing.assert_allclose(
        model_batch.components, model_plain.components, rtol=1e-8, atol=1e-10
    )
    # ...but every byte of accounting must be bit-identical: the stateful
    # mappers emit once per split from cleanup either way, and stacking never
    # changes the shape, dtype, or sparsity pattern of what goes on the wire.
    jobs_batch = metrics_batch.jobs
    jobs_plain = metrics_plain.jobs
    assert [job.name for job in jobs_batch] == [job.name for job in jobs_plain]
    for job_b, job_p in zip(jobs_batch, jobs_plain):
        for field in BYTE_FIELDS:
            assert getattr(job_b, field) == getattr(job_p, field), (
                f"{job_b.name}: {field}"
            )


def test_spca_spark_batch_accounting_identical_except_accumulator_economy():
    model_batch, metrics_batch = fit_spark(True)
    model_plain, metrics_plain = fit_spark(False)
    np.testing.assert_allclose(
        model_batch.components, model_plain.components, rtol=1e-8, atol=1e-10
    )
    jobs_batch = metrics_batch.jobs
    jobs_plain = metrics_plain.jobs
    assert [job.name for job in jobs_batch] == [job.name for job in jobs_plain]
    for job_b, job_p in zip(jobs_batch, jobs_plain):
        for field in BYTE_FIELDS:
            if field == "driver_result_bytes":
                # The batch path sends one accumulator update per partition
                # instead of one per record -- genuinely less driver traffic
                # (the combiner economy of Section 4.2), never more.
                assert getattr(job_b, field) <= getattr(job_p, field), job_b.name
            else:
                assert getattr(job_b, field) == getattr(job_p, field), (
                    f"{job_b.name}: {field}"
                )


def test_spca_spark_default_layout_accounting_is_bit_identical():
    # At the historical one-record-per-partition layout the batch path is
    # never taken, so *every* field -- accumulator traffic included -- must
    # be bit-identical to the per-record baseline.
    def fit(enable_batch):
        context = SparkContext(cluster=SMALL_CLUSTER, enable_batch=enable_batch)
        backend = SparkBackend(CONFIG, context=context)
        SPCA(CONFIG, backend).fit(DATA)
        return context.metrics

    jobs_batch = fit(True).jobs
    jobs_plain = fit(False).jobs
    assert [job.name for job in jobs_batch] == [job.name for job in jobs_plain]
    for job_b, job_p in zip(jobs_batch, jobs_plain):
        for field in BYTE_FIELDS:
            assert getattr(job_b, field) == getattr(job_p, field), (
                f"{job_b.name}: {field}"
            )


def test_spca_batch_matches_per_record_across_backends():
    model_mr, _ = fit_mapreduce(True)
    model_spark, _ = fit_spark(True)
    np.testing.assert_allclose(
        model_mr.components, model_spark.components, rtol=1e-8, atol=1e-10
    )


# -- golden Spark fits across the partition layout ----------------------------
#
# Digests of Spark fits captured while each record was still its own cached
# element of a partition, before a partition became one contiguous block.
# The layout is an optimization: every case must still produce bitwise the
# same components, noise variance and per-iteration errors, and the same
# bytes in every EM job -- the materialized-X ``XJob`` charge included.  Only
# the ``take`` job behind ``rdd.first()`` is left out: it ships the first
# partition itself.  Captured on x86-64 with numpy's bundled OpenBLAS.

GOLDEN_INPUTS = {
    "sparse": sp.random(90, 40, density=0.3, random_state=3, format="csr"),
    "dense": np.random.default_rng(3).normal(size=(90, 40)),
}

#: "kind-records_per_partition-enable_batch-error_sample_fraction-
#: use_x_recomputation" -> (fit digest, byte-ledger digest).
GOLDEN_DIGESTS = {
    "sparse-1-True-1.0-True": ('4a05873672de7499', '73759fd3571820bf'),
    "sparse-1-True-1.0-False": ('4a05873672de7499', '8be09b946784da4e'),
    "sparse-1-True-0.5-True": ('9f84c5ce2218f88e', '73759fd3571820bf'),
    "sparse-1-True-0.5-False": ('9f84c5ce2218f88e', '8be09b946784da4e'),
    "sparse-1-False-1.0-True": ('4a05873672de7499', '73759fd3571820bf'),
    "sparse-1-False-1.0-False": ('4a05873672de7499', '8be09b946784da4e'),
    "sparse-1-False-0.5-True": ('9f84c5ce2218f88e', '73759fd3571820bf'),
    "sparse-1-False-0.5-False": ('9f84c5ce2218f88e', '8be09b946784da4e'),
    "sparse-6-True-1.0-True": ('4a05873672de7499', '73759fd3571820bf'),
    "sparse-6-True-1.0-False": ('4a05873672de7499', 'fb9116592dfad4b7'),
    "sparse-6-True-0.5-True": ('0c53636b8f30a5f1', 'a89a47d70d7285b0'),
    "sparse-6-True-0.5-False": ('0c53636b8f30a5f1', '6fcb56d7604c183e'),
    "sparse-6-False-1.0-True": ('5faf4f76211d8471', 'a9fba82d830376ed'),
    "sparse-6-False-1.0-False": ('5faf4f76211d8471', 'f970d8d16a01b89e'),
    "sparse-6-False-0.5-True": ('5a1a25d5334cb6ce', 'a9fba82d830376ed'),
    "sparse-6-False-0.5-False": ('5a1a25d5334cb6ce', 'f970d8d16a01b89e'),
    "dense-1-True-1.0-True": ('179a80241b2d42bc', '73759fd3571820bf'),
    "dense-1-True-1.0-False": ('179a80241b2d42bc', '8be09b946784da4e'),
    "dense-1-True-0.5-True": ('1be8e3fa2058e922', '73759fd3571820bf'),
    "dense-1-True-0.5-False": ('1be8e3fa2058e922', '8be09b946784da4e'),
    "dense-1-False-1.0-True": ('179a80241b2d42bc', '73759fd3571820bf'),
    "dense-1-False-1.0-False": ('179a80241b2d42bc', '8be09b946784da4e'),
    "dense-1-False-0.5-True": ('1be8e3fa2058e922', '73759fd3571820bf'),
    "dense-1-False-0.5-False": ('1be8e3fa2058e922', '8be09b946784da4e'),
    "dense-6-True-1.0-True": ('179a80241b2d42bc', '73759fd3571820bf'),
    "dense-6-True-1.0-False": ('d9162a5a3631ec6c', 'fb9116592dfad4b7'),
    "dense-6-True-0.5-True": ('889b8cebb28fe398', 'a89a47d70d7285b0'),
    "dense-6-True-0.5-False": ('a1abf2eb43c8aaed', '6fcb56d7604c183e'),
    "dense-6-False-1.0-True": ('bf0c5de517978dfa', 'a9fba82d830376ed'),
    "dense-6-False-1.0-False": ('bf0c5de517978dfa', 'f970d8d16a01b89e'),
    "dense-6-False-0.5-True": ('e15a8cf4902305ee', 'a9fba82d830376ed'),
    "dense-6-False-0.5-False": ('e15a8cf4902305ee', 'f970d8d16a01b89e'),
}


def golden_fit_digests(kind, records, enable_batch, sample, recompute):
    import hashlib

    config = SPCAConfig(
        n_components=3, max_iterations=3, tolerance=0.0, seed=7,
        error_sample_fraction=sample, use_x_recomputation=recompute,
    )
    context = SparkContext(cluster=SMALL_CLUSTER, enable_batch=enable_batch)
    backend = SparkBackend(config, context=context, records_per_partition=records)
    model, history = SPCA(config, backend).fit(GOLDEN_INPUTS[kind])
    fit = hashlib.sha256(model.components.tobytes())
    fit.update(np.float64(model.noise_variance).tobytes())
    fit.update(np.array([it.error for it in history.iterations]).tobytes())
    ledger = [
        (job.name, *(getattr(job, field) for field in BYTE_FIELDS))
        for job in context.metrics.jobs
        if job.name != "take"
    ]
    return (
        fit.hexdigest()[:16],
        hashlib.sha256(repr(ledger).encode()).hexdigest()[:16],
    )


GOLDEN_CASES = [
    (kind, records, enable_batch, sample, recompute)
    for kind in ("sparse", "dense")
    for records in (1, 6)
    for enable_batch in (True, False)
    for sample in (1.0, 0.5)
    for recompute in (True, False)
]


@pytest.mark.parametrize(
    "case", GOLDEN_CASES, ids=["-".join(map(str, case)) for case in GOLDEN_CASES]
)
def test_spark_fit_matches_golden_digests(case):
    assert golden_fit_digests(*case) == GOLDEN_DIGESTS["-".join(map(str, case))]
