"""The measured interpreter: one fresh process per benchmark run.

``run.py`` starts this script with the generated input already on disk, so
pools, shared-memory segments and identity-keyed memos start cold the way a
user's first fit does, and ``peak_rss_mb`` belongs to this run alone.  The
last line of standard output is a JSON report for ``run.py``.

Without ``--trace`` the workload runs end to end, repeatedly, for
``--seconds``; every pass is followed by a run of the plain floor on the
same input, and every model is checked against it.  With ``--trace`` the
process runs rounds of the layer ladder -- floor, sequential, engine with
the serial executor, engine with the workload's executor (``dense-procs``
only), observability on -- plus traced runs whose spans give the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time

import numpy as np
import scipy.sparse as sp

from repro.obs import collecting, tracing

import workloads as wl
from oracle import captured_variance_pct, top_eigen_mass
from spans import SpanRecorder

#: Passes measured at least, however long they take.
MIN_PASSES = 2


def load_input(path: str):
    if path.endswith(".npz"):
        return sp.load_npz(path).tocsr()
    return np.load(path)


class Checker:
    """Counts operations and oracle misses across a run."""

    def __init__(self, workload: wl.Workload, reference) -> None:
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []

    def check(self, label: str, result: wl.Pass) -> None:
        # An operation is a fit, or a window of the stream.
        ops = len(result.window_s) if self.workload.kind == "stream" else 1
        self.attempted += ops
        why = wl.miss(self.workload, result, self.reference)
        if why is not None:
            self.failed += ops
            self.misses.append(f"{label}: {why}")


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its worker children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def quiesced(measure, *args):
    """Run ``measure(*args)`` after a full garbage collection.

    The collector otherwise starts each timed section with whatever the
    previous one left behind, which moved set-up times by up to 2x.
    """
    gc.collect()
    return measure(*args)


def end_to_end(workload: wl.Workload, seed: int, data, seconds: float) -> dict:
    """Measure passes for *seconds*; ``run.py`` takes the medians.

    Passes alternate with runs of the floor, so each pass sits between two
    floor runs; its ``floor_s`` is their mean, which follows the host's
    speed across the pass better than either neighbour alone.
    """
    replayed = wl.stream_rows(data) if workload.kind == "stream" else None
    # The first pass in a fresh interpreter also pays one-time imports and
    # lazy initialisation; it is checked but not measured.
    warmup = wl.run_workload(workload, seed, data)
    floor_s, reference = quiesced(wl.floor, workload, seed, data, replayed)
    checker = Checker(workload, reference)
    checker.check("warm-up", warmup)
    passes, floors = [], [floor_s]
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(quiesced(wl.run_workload, workload, seed, data))
        floors.append(quiesced(wl.floor, workload, seed, data, replayed)[0])
        checker.check(f"pass {len(passes)}", passes[-1])
        passes[-1].metrics = None  # job stats are only read by traced runs
    rss = peak_rss_mb()

    scatter, top_mass = top_eigen_mass(data, wl.N_COMPONENTS)
    paired_floors = [(before + after) / 2 for before, after in zip(floors, floors[1:])]
    # Every model update of the run over its pass's floor time per update,
    # pooled: a batch pass has only 10 updates, too few for its own p90.
    update_ratios = np.concatenate(
        [
            np.asarray(p.window_s) * len(p.window_s) / floor_s
            for p, floor_s in zip(passes, paired_floors)
        ]
    )
    return {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "misses": checker.misses,
        "peak_rss_mb": rss,
        "update_ratio": {
            q: float(np.percentile(update_ratios, int(q[1:]))) for q in ("p50", "p90")
        },
        "passes": [
            {
                "setup_s": p.setup_s,
                "fit_s": p.fit_s,
                "floor_s": floor_s,
                "window_ms_p50": 1e3 * float(np.percentile(p.window_s, 50)),
                "window_ms_p90": 1e3 * float(np.percentile(p.window_s, 90)),
                "intermediate_mb": p.intermediate_bytes / 1e6,
                "sim_s": p.sim_s,
                "captured_var_pct": captured_variance_pct(
                    scatter, top_mass, p.model.components
                ),
            }
            for p, floor_s in zip(passes, paired_floors)
        ],
    }


# -- the traced run -----------------------------------------------------------


def _sum(spans, prefix: str) -> float:
    return sum(span.seconds for span in spans if span.name.startswith(prefix))


def _count(spans, prefix: str) -> int:
    return sum(1 for span in spans if span.name.startswith(prefix))


def _self(recorder: SpanRecorder, run_id: str, prefix: str) -> float:
    own = recorder.self_seconds(run_id)
    return sum(
        seconds
        for index, seconds in own.items()
        if recorder.spans[index].name.startswith(prefix)
    )


def layer_metrics(recorder: SpanRecorder, run_id: str, kernel_run: str, result) -> dict:
    """Per-layer numbers of one traced run (kernels from *kernel_run*)."""
    spans = recorder.of_run(run_id)
    kernels = recorder.of_run(kernel_run)
    jobs = result.metrics.jobs if result.metrics is not None else []
    calls = _count(kernels, "jobs.")
    windower = [span for span in spans if span.name == "stream.windower"]
    return {
        "core.self_s": _self(recorder, run_id, "core."),
        "backends.load_s": _sum(spans, "backends.load"),
        "backends.prepass_s": _sum(spans, "backends.mean") + _sum(spans, "backends.fnorm"),
        "backends.ytx_xtx_s": _sum(spans, "backends.ytx_xtx"),
        "backends.ss3_s": _sum(spans, "backends.ss3"),
        "backends.error_s": _sum(spans, "backends.error"),
        "backends.self_s": _self(recorder, run_id, "backends."),
        "linalg.partition_s": _sum(spans, "linalg."),
        "jobs.kernel_s": _sum(kernels, "jobs."),
        "jobs.kernel_calls": calls,
        "jobs.rows_per_call": (
            sum(span.count for span in kernels if span.name.startswith("jobs.")) / calls
            if calls
            else 0.0
        ),
        "engine.jobs": _count(spans, "engine."),
        "engine.tasks": sum(job.n_map_tasks + job.n_reduce_tasks for job in jobs),
        "engine.self_s": _self(recorder, run_id, "engine."),
        "engine.shuffle_mb": sum(job.shuffle_bytes for job in jobs) / 1e6,
        "engine.hdfs_mb": sum(job.hdfs_read_bytes + job.hdfs_write_bytes for job in jobs)
        / 1e6,
        "serde.sizeof_s": _sum(spans, "serde."),
        "serde.sizeof_calls": _count(spans, "serde."),
        "exec.run_tasks_s": _sum(spans, "exec.run_tasks"),
        "exec.tasks": sum(span.count for span in spans if span.name == "exec.run_tasks"),
        "stream.windower_s": _sum(windower, "stream."),
        "stream.engine_s": _sum(spans, "stream.engine"),
        "stream.self_s": _self(recorder, run_id, "stream.run"),
        "stream.window_lag": max((span.count for span in windower), default=0)
        / wl.WINDOW_ROWS,
        "stream.windows": _count(spans, "stream.engine"),
    }


def traced(workload: wl.Workload, seed: int, data, seconds: float, trace_path: str) -> dict:
    stream = workload.kind == "stream"
    replayed = wl.stream_rows(data) if stream else None
    recorder = SpanRecorder()
    rungs: dict[str, list[float]] = {}
    rounds: list[dict] = []

    def timed(rung: str, result: wl.Pass) -> float:
        checker.check(rung, result)
        rungs.setdefault(rung, []).append(result.fit_s)
        return result.fit_s

    def sequential() -> wl.Pass:
        if stream:
            return wl.run_stream(workload, workload.stream_config(seed), data, "sequential")
        return wl.run_sequential(workload.config(seed), data)

    def engine(executor: str) -> wl.Pass:
        if stream:
            return wl.run_stream(workload, workload.stream_config(seed), data, "mapreduce")
        return wl.run_batch(workload, workload.config(seed), data, executor)

    warmup = wl.run_workload(workload, seed, data)
    _, reference = wl.floor(workload, seed, data, replayed)
    checker = Checker(workload, reference)
    checker.check("warm-up", warmup)
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        floor_s, _ = wl.floor(workload, seed, data, replayed)
        rungs.setdefault("floor", []).append(floor_s)
        timed("sequential", sequential())
        base = timed("engine_serial", engine("serial"))
        if workload.executor != "serial":
            base = timed("engine_exec", engine(workload.executor))
        with collecting():
            metrics_on = timed("metrics_on", engine(workload.executor))
        with tracing(), collecting() as registry:
            obs_on = timed("obs", engine(workload.executor))
            payload = registry.counter_total("spca_executor_payload_bytes_total")
            pins = registry.counter_total("spca_executor_pin_bytes_total")

        # The end-to-end configuration, untraced then traced; the stream's
        # runs inside collecting(), so its untraced twin is metrics_on.
        plain = metrics_on if stream else base
        run_id = f"round-{len(rounds) + 1}"
        with recorder.installed(), recorder.run(run_id):
            traced_result = wl.run_workload(workload, seed, data)
        checker.check("traced", traced_result)
        kernel_run = run_id
        if workload.executor != "serial":
            # Kernels run in the workers here; count them on the serial rung.
            kernel_run = f"{run_id}-serial"
            with recorder.installed(), recorder.run(kernel_run):
                checker.check("traced-serial", engine("serial"))
        rounds.append(
            {
                **layer_metrics(recorder, run_id, kernel_run, traced_result),
                "obs.metrics_overhead": metrics_on / base,
                "obs.trace_overhead": obs_on / base,
                "bench.trace_overhead": traced_result.fit_s / plain,
                "exec.payload_mb_per_iter": payload / 1e6 / wl.ITERATIONS,
                "exec.pin_mb": pins / 1e6,
            }
        )
    recorder.dump(trace_path)

    ladder = {rung: statistics.median(times) for rung, times in rungs.items()}
    metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    floor_s = ladder["floor"]
    exec_s = ladder.get("engine_exec")
    metrics.update(
        {
            "jobs.floor_gap": metrics["jobs.kernel_s"] / floor_s,
            "exec.overhead_s": exec_s - ladder["engine_serial"] if exec_s else 0.0,
            "exec.speedup_vs_serial": ladder["engine_serial"] / exec_s if exec_s else 1.0,
            "ladder.floor_s": floor_s,
            "ladder.sequential_s": ladder["sequential"],
            "ladder.engine_serial_s": ladder["engine_serial"],
            "ladder.engine_exec_s": exec_s or 0.0,
            "ladder.obs_s": ladder["obs"],
        }
    )
    return {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "misses": checker.misses,
        "metrics": metrics,
        "samples": {"rounds": len(rounds), "rungs": rungs, "rung_order": list(rungs)},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--input", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-out", help="write spans here and run the ladder")
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    data = load_input(args.input)
    if args.trace_out:
        report = traced(workload, args.seed, data, args.seconds, args.trace_out)
    else:
        report = end_to_end(workload, args.seed, data, args.seconds)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
