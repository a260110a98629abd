"""The three benchmark workloads, built only from sPCA's public API.

Each workload is generated from ``--seed`` in the runner process; the
measured interpreter receives only the generated matrix.  Why each workload
exists, and which layers it is meant to move, is recorded in README.md.

``dense-procs``
    Low-rank dense rows on the MapReduce engine with 8 coarse splits, the
    ``processes`` executor (one worker per core) and worker-resident splits:
    the only workload with executor transport.
``sparse-fine``
    Tweets-like binary rows on the Spark engine at 16 records per
    partition, serial executor: container layout and per-record dispatch.
``tweets-stream``
    Tweets-like rows replayed for three epochs through ``StreamingPCA`` on
    the MapReduce window engine inside ``repro.obs.collecting()``: one short
    job per window.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.backends.mapreduce import MapReduceBackend
from repro.backends.sequential import SequentialBackend
from repro.backends.spark import SparkBackend
from repro.core import SPCA, SPCAConfig
from repro.data.generators import bag_of_words, lowrank_dense
from repro.engine.cluster import ClusterSpec
from repro.engine.mapreduce.runtime import MapReduceRuntime
from repro.engine.spark.context import SparkContext
from repro.extensions.incremental import IncrementalPPCA
from repro.obs import collecting
from repro.stream.runner import StreamConfig, StreamingPCA
from repro.stream.source import MatrixSource
from repro.stream.window import reference_windows

import oracle
from spans import SpanRecorder

N_COLS = 600
N_COMPONENTS = 10
ITERATIONS = 10
STREAM_EPOCHS = 3
WINDOW_ROWS = 512
#: Added to --seed when the stream picks its rows from its corpus.
STREAM_SEED_OFFSET = 1_000_003
#: Engine constructions timed per stream pass; one takes tens of
#: microseconds, so a single sample would be mostly timer noise.
STREAM_SETUP_REPEATS = 64


def nproc() -> int:
    """Cores this process may run on: the cap on worker processes."""
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "batch" or "stream"
    rows: int
    executor: str
    corpus_seed: int = 0

    def generate(self, seed: int, scale: float = 1.0):
        """The input matrix for *seed*; *scale* shrinks the row count.

        Tweets-like rows are drawn without replacement from a corpus twice
        the size, generated from a fixed topic model: the seed picks the
        documents, not the topics.  Topic draws move the density of the
        whole matrix by several percent, which would otherwise show up as
        seed-to-seed spread in the exact byte counts.
        """
        rows = max(64, int(self.rows * scale))
        if self.name == "dense-procs":
            return lowrank_dense(rows, N_COLS, rank=20, seed=seed)
        corpus = bag_of_words(
            2 * rows, N_COLS, words_per_doc=8, topic_rank=16, seed=self.corpus_seed
        )
        if self.kind == "stream":
            seed += STREAM_SEED_OFFSET
        picked = np.random.default_rng(seed).choice(2 * rows, size=rows, replace=False)
        return corpus[picked]

    # -- batch -----------------------------------------------------------

    def config(self, seed: int) -> SPCAConfig:
        return SPCAConfig(
            n_components=N_COMPONENTS,
            max_iterations=ITERATIONS,
            tolerance=0.0,
            seed=seed,
        )

    def backend(self, config: SPCAConfig, executor: str):
        """The workload's engine backend on *executor*."""
        if self.name == "dense-procs":
            runtime = MapReduceRuntime(
                cluster=ClusterSpec(num_nodes=2, cores_per_node=4),
                executor=executor,
                workers=nproc(),
            )
            return MapReduceBackend(config, runtime, worker_resident=True)
        context = SparkContext(executor=executor, workers=nproc())
        return SparkBackend(config, context, records_per_partition=16)

    # -- stream ----------------------------------------------------------

    def stream_config(self, seed: int) -> StreamConfig:
        return StreamConfig(
            n_components=N_COMPONENTS, window=WINDOW_ROWS, step=256, rows_per_task=64, seed=seed
        )


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("dense-procs", "batch", 12_000, "processes"),
        Workload("sparse-fine", "batch", 12_000, "serial", corpus_seed=0),
        Workload("tweets-stream", "stream", 16_000, "serial", corpus_seed=1),
    )
}


def engine_of(backend):
    """The MapReduce runtime or Spark context behind an engine backend."""
    return getattr(backend, "runtime", None) or getattr(backend, "context", None)


@dataclass
class Pass:
    """One measured fit (batch) or one pass over the stream."""

    setup_s: float
    fit_s: float
    window_s: list[float]
    intermediate_bytes: int
    sim_s: float
    model: object
    errors: list[float]
    metrics: object = None  # the engine's EngineMetrics, when there is one


def fit_batch(config: SPCAConfig, backend, data) -> Pass:
    """Time ``SPCA(config, backend).fit(data)``; set-up is *backend*'s load.

    Construction of the backend is timed by the caller, which adds it to
    ``setup_s``.  Per-iteration wall times run from the end of the
    pre-pass (meanJob + FnormJob) to each iteration's end.
    """
    marks = SpanRecorder()
    backend.load = marks.wrap("load", backend.load)
    backend.frobenius_centered = marks.wrap("fnorm", backend.frobenius_centered)
    engine = engine_of(backend)
    try:
        started = time.perf_counter()
        model, history = SPCA(config, backend).fit(data)
        wall = time.perf_counter() - started
    finally:
        if engine is not None:
            engine.executor.shutdown()
    load, fnorm = marks.spans
    ends = [fnorm.end - started] + [it.elapsed_seconds for it in history.iterations]
    return Pass(
        setup_s=load.seconds,
        fit_s=wall - load.seconds,
        window_s=list(np.diff(ends)),
        intermediate_bytes=backend.intermediate_bytes,
        sim_s=backend.simulated_seconds,
        model=model,
        errors=[it.error for it in history.iterations],
        metrics=engine.metrics if engine is not None else None,
    )


def run_batch(workload: Workload, config: SPCAConfig, data, executor: str) -> Pass:
    """Build the workload's backend on *executor* and fit; set-up included."""
    started = time.perf_counter()
    backend = workload.backend(config, executor)
    construct = time.perf_counter() - started
    result = fit_batch(config, backend, data)
    result.setup_s += construct
    return result


def run_sequential(config: SPCAConfig, data) -> Pass:
    return fit_batch(config, SequentialBackend(config), data)


def run_stream(workload: Workload, config: StreamConfig, data, engine: str) -> Pass:
    """One pass of ``StreamingPCA(config, engine).run(source)``.

    Set-up is the engine construction, timed STREAM_SETUP_REPEATS times.
    The caller chooses the observability context (the workload itself runs
    inside ``collecting()``).
    """
    setups = []
    for _ in range(STREAM_SETUP_REPEATS):
        started = time.perf_counter()
        pca = StreamingPCA(config, engine, executor=workload.executor)
        source = MatrixSource(data, epochs=STREAM_EPOCHS)
        setups.append(time.perf_counter() - started)
    started = time.perf_counter()
    result = pca.run(source)
    wall = time.perf_counter() - started
    metrics = pca.engine.metrics
    return Pass(
        setup_s=float(np.median(setups)),
        fit_s=wall,
        window_s=[record.wall_seconds for record in result.records],
        intermediate_bytes=(
            sum(job.intermediate_bytes for job in metrics.jobs) if metrics else 0
        ),
        sim_s=result.sim_seconds,
        model=result.model,
        errors=[],
        metrics=metrics,
    )


def run_workload(workload: Workload, seed: int, data) -> Pass:
    """The end-to-end configuration of *workload*, as a user runs it."""
    if workload.kind == "stream":
        with collecting():
            return run_stream(workload, workload.stream_config(seed), data, "mapreduce")
    return run_batch(workload, workload.config(seed), data, workload.executor)


# -- the floor ---------------------------------------------------------------


def stream_rows(data):
    """The rows the stream sees: *data* replayed for STREAM_EPOCHS epochs."""
    return sp.vstack([data] * STREAM_EPOCHS, format="csr")


def floor(workload: Workload, seed: int, data, replayed=None):
    """Time the plain floor; returns ``(seconds, oracle)``.

    Batch: :func:`oracle.floor_fit`, whose oracle is
    ``(components, noise_variance, errors)``.  Stream: sequential
    ``IncrementalPPCA.partial_fit_stream`` over ``reference_windows`` of the
    replayed rows (*replayed*, from :func:`stream_rows`), whose oracle is
    the model.
    """
    started = time.perf_counter()
    if workload.kind == "stream":
        config = workload.stream_config(seed)
        reference = IncrementalPPCA(
            n_components=config.n_components,
            batch_size=config.window,
            step_decay=config.step_decay,
            seed=config.seed,
        ).partial_fit_stream(
            (window.rows for window in reference_windows(replayed, config.spec())),
            n_cols=data.shape[1],
        )
    else:
        reference = oracle.floor_fit(data, N_COMPONENTS, ITERATIONS, seed)
    return time.perf_counter() - started, reference


def miss(workload: Workload, result: Pass, reference) -> str | None:
    """Why *result* fails the oracle, or None."""
    if workload.kind == "stream":
        return oracle.stream_miss(result.model, reference)
    return oracle.batch_miss(result.model, result.errors, reference)
