"""In-memory spans around the public entry points of each sPCA layer.

The recorder patches callables at run time -- class methods, module-level
functions at their import sites, and the resolved kernel-backend instance
-- so that no file under ``src/`` changes.  Spans carry a name, start and
end (``perf_counter`` seconds), the index of the enclosing span and the id
of the run they belong to; they stay in memory until :meth:`dump` writes
them out at the end of the benchmark.

Layer names are the part of a span name before the first dot, and are the
repository's module names: ``core``, ``backends``, ``linalg``, ``jobs``,
``engine``, ``serde``, ``exec`` and ``stream``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator

#: Backend methods and the name of the span each one records.
BACKEND_SPANS = {
    "load": "backends.load",
    "column_means": "backends.mean",
    "frobenius_centered": "backends.fnorm",
    "ytx_xtx": "backends.ytx_xtx",
    "ss3": "backends.ss3",
    "reconstruction_error": "backends.error",
}

_ABSENT = object()

#: Kernel-backend operations (the ``repro.jobs`` layer's public surface).
KERNEL_OPS = (
    "sums",
    "frobenius",
    "latent",
    "ytx_xtx",
    "ss3",
    "error_parts",
    "stack",
    "stack_latents",
)


@dataclass
class Span:
    """One timed call: ``parent`` is an index into the recorder's list."""

    name: str
    start: float
    end: float
    parent: int
    run: str
    #: a size the call handled: kernel rows, executor payloads, or rows
    #: left buffered in the windower
    count: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def rows_of(value: Any) -> int:
    """Rows of a matrix argument, or of a list of stacked blocks."""
    shape = getattr(value, "shape", None)
    if shape is not None:
        return int(shape[0])
    if isinstance(value, (list, tuple)):
        return sum(rows_of(item) for item in value)
    return 0


class SpanRecorder:
    """Collects nested spans on the calling thread.

    Only the measured process's spans are kept: a forked worker inherits
    the patched callables, but whatever it records stays in its memory.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run_id = ""

    @contextlib.contextmanager
    def run(self, run_id: str) -> Iterator[None]:
        """Tag every span opened inside the block with *run_id*."""
        previous, self.run_id = self.run_id, run_id
        try:
            yield
        finally:
            self.run_id = previous

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        count: Callable[[tuple], int] | None = None,
    ) -> Callable[..., Any]:
        """A drop-in replacement for *fn* that records one span per call.

        *count*, when given, maps the call's positional arguments to the
        span's ``count`` once the call has returned.
        """
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            span = Span(
                name=name,
                start=0.0,
                end=0.0,
                parent=stack[-1] if stack else -1,
                run=self.run_id,
            )
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if count is not None:
                    span.count = count(args)

        return spanned

    @contextlib.contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Patch every layer entry point for the duration of the block."""
        patches = list(self._patches())
        originals = [
            (owner, attr, vars(owner).get(attr, _ABSENT)) for owner, attr, _ in patches
        ]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                if original is _ABSENT:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    def _patches(self) -> Iterator[tuple[Any, str, Callable[..., Any]]]:
        from repro.backends import mapreduce as mr_backend
        from repro.backends import sequential as seq_backend
        from repro.backends import spark as spark_backend
        from repro.core.spca import SPCA
        from repro.engine.exec.base import TaskExecutor
        from repro.engine.exec.processes import ProcessPoolTaskExecutor
        from repro.engine.exec.serial import SerialExecutor
        from repro.engine.exec.threads import ThreadPoolTaskExecutor
        from repro.engine.mapreduce import hdfs as mr_hdfs
        from repro.engine.mapreduce import runtime as mr_runtime
        from repro.engine.spark import context as spark_context
        from repro.engine.spark import rdd as spark_rdd
        from repro.jobs.backends import resolve_kernel_backend
        from repro.stream import engines as stream_engines
        from repro.stream import window as stream_window
        from repro.stream.runner import StreamingPCA

        def method(cls: type, attr: str, name: str, count=None):
            return cls, attr, self.wrap(name, cls.__dict__[attr], count)

        def rows(args: tuple) -> int:
            return rows_of(args[0])

        yield method(SPCA, "fit", "core.fit")
        for cls in (
            seq_backend.SequentialBackend,
            mr_backend.MapReduceBackend,
            spark_backend.SparkBackend,
        ):
            for attr, name in BACKEND_SPANS.items():
                yield method(cls, attr, name)
        for module in (seq_backend, mr_backend, spark_backend):
            yield module, "partition_rows", self.wrap(
                "linalg.partition_rows", module.partition_rows
            )
        kernels = resolve_kernel_backend("numpy")
        for op in KERNEL_OPS:
            # An instance attribute shadows the class method, so the patch is
            # seen by every mapper and closure that resolves this backend.
            yield kernels, op, self.wrap(f"jobs.{op}", getattr(kernels, op), rows)
        yield stream_engines, "sem_batch_statistics", self.wrap(
            "jobs.sem_batch_statistics", stream_engines.sem_batch_statistics, rows
        )
        yield method(mr_runtime.MapReduceRuntime, "run", "engine.mapreduce_job")
        yield method(spark_context.SparkContext, "run_job", "engine.spark_job")
        for module, attr in (
            (spark_rdd, "sizeof"),
            (spark_context, "sizeof"),
            (spark_backend, "sizeof"),
            (mr_runtime, "sizeof_pairs"),
            (mr_hdfs, "sizeof_pairs"),
        ):
            yield module, attr, self.wrap("serde.sizeof", getattr(module, attr))
        for cls in (SerialExecutor, ThreadPoolTaskExecutor, ProcessPoolTaskExecutor):
            yield method(cls, "run_tasks", "exec.run_tasks", lambda args: len(args[2]))
        for cls in (TaskExecutor, ProcessPoolTaskExecutor):
            yield method(cls, "pin_payload", "exec.pin_payload")
        for attr in ("push", "flush"):
            yield method(
                stream_window.Windower,
                attr,
                "stream.windower",
                lambda args: args[0].buffered_rows,
            )
        for cls in (
            stream_engines.SequentialWindowEngine,
            stream_engines.MapReduceWindowEngine,
            stream_engines.SparkWindowEngine,
        ):
            yield method(cls, "window_statistics", "stream.engine")
        yield method(StreamingPCA, "run", "stream.run")

    # -- aggregation -----------------------------------------------------

    def of_run(self, run_id: str) -> list[Span]:
        return [span for span in self.spans if span.run == run_id]

    def self_seconds(self, run_id: str) -> dict[int, float]:
        """Span index -> its duration minus the time its children cover."""
        own = {
            index: span.seconds
            for index, span in enumerate(self.spans)
            if span.run == run_id
        }
        for span in self.spans:
            if span.run == run_id and span.parent in own:
                own[span.parent] -= span.seconds
        return own

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(span) for span in self.spans], handle)
