"""Command-line interface: generate data, fit sPCA, transform, evaluate.

Installed as ``repro-spca``; also runnable via ``python -m repro.cli``.

Examples::

    repro-spca generate tweets --rows 20000 --cols 600 --out tweets.npz
    repro-spca fit tweets.npz --components 10 --backend spark --out model.npz
    repro-spca fit tweets.npz --backend mapreduce --trace fit.trace.json
    repro-spca fit tweets.npz --backend mapreduce --faults plan.json \\
        --checkpoint ckpts/ --checkpoint-every 2
    repro-spca resume tweets.npz --checkpoint ckpts/ --backend mapreduce
    repro-spca fit tweets.npz --backend spark --live --metrics fit.metrics.json
    repro-spca report fit.trace.json
    repro-spca report fit.trace.json --html fit.html --metrics fit.metrics.json
    repro-spca diff baseline.trace.jsonl fit.trace.jsonl
    repro-spca trace fit.trace.json --to fit.jsonl
    repro-spca evaluate model.npz tweets.npz
    repro-spca transform model.npz tweets.npz --out latent.npz
    repro-spca info model.npz
    repro-spca registry publish models/ tweets model.npz --tag prod
    repro-spca registry list models/ tweets
    repro-spca serve tweets.npz --registry models/ --model tweets \\
        --op transform --out latent.npz --metrics serve.metrics.json
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core import SPCA, SPCAConfig
from repro.core.persistence import load_model, save_model
from repro.data import bag_of_words, nmr_spectra, sift_features
from repro.data.io import load_matrix, save_matrix
from repro.errors import ReproError
from repro.metrics import accuracy_from_error, reconstruction_error

_GENERATORS = {
    "tweets": lambda rows, cols, seed: bag_of_words(rows, cols, words_per_doc=8.0, seed=seed),
    "biotext": lambda rows, cols, seed: bag_of_words(rows, cols, words_per_doc=40.0, seed=seed),
    "diabetes": lambda rows, cols, seed: nmr_spectra(rows, cols, seed=seed),
    "images": lambda rows, cols, seed: sift_features(rows, cols, seed=seed),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-spca",
        description="sPCA (SIGMOD 2015) reproduction: scalable PCA tooling",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="create a synthetic dataset")
    generate.add_argument("dataset", choices=sorted(_GENERATORS))
    generate.add_argument("--rows", type=int, default=10_000)
    generate.add_argument("--cols", type=int, default=1_000)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True, help="output .npz path")

    fit = commands.add_parser("fit", help="fit sPCA to a matrix")
    fit.add_argument("input", help="matrix .npz (from 'generate' or save_matrix)")
    fit.add_argument("--components", "-d", type=int, default=10)
    fit.add_argument(
        "--backend", choices=("sequential", "mapreduce", "spark"),
        default="sequential",
    )
    fit.add_argument("--max-iterations", type=int, default=10)
    fit.add_argument("--tolerance", type=float, default=1e-3)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--smart-init", action="store_true",
                     help="warm start from a small row sample (sPCA-SG)")
    fit.add_argument("--out", help="where to save the fitted model (.npz)")
    fit.add_argument(
        "--trace", metavar="PATH",
        help="record an execution trace: .jsonl for an event log, anything "
             "else for Chrome trace-event JSON (open in ui.perfetto.dev)",
    )
    fit.add_argument(
        "--faults", metavar="PLAN.json",
        help="inject the deterministic fault plan into the simulated engine "
             "(see repro.faults.FaultPlan)",
    )
    fit.add_argument(
        "--checkpoint", metavar="DIR",
        help="snapshot EM state into DIR so a killed run can be resumed "
             "with the 'resume' subcommand",
    )
    fit.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="snapshot after every N-th iteration (default 1)",
    )

    resume = commands.add_parser(
        "resume", help="continue a checkpointed fit from its newest snapshot"
    )
    resume.add_argument("input", help="the same matrix the original fit ran on")
    resume.add_argument(
        "--checkpoint", required=True, metavar="DIR",
        help="checkpoint directory written by 'fit --checkpoint'",
    )
    resume.add_argument(
        "--backend", choices=("sequential", "mapreduce", "spark"),
        default="sequential",
    )
    resume.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="keep snapshotting every N iterations while resuming "
             "(default: no further snapshots)",
    )
    resume.add_argument("--faults", metavar="PLAN.json",
                        help="fault plan for the resumed run")
    resume.add_argument("--out", help="where to save the fitted model (.npz)")
    resume.add_argument("--trace", metavar="PATH",
                        help="record an execution trace of the resumed run")

    transform = commands.add_parser("transform", help="project a matrix to latent space")
    transform.add_argument("model")
    transform.add_argument("input")
    transform.add_argument("--out", required=True)

    evaluate = commands.add_parser("evaluate", help="reconstruction accuracy of a model")
    evaluate.add_argument("model")
    evaluate.add_argument("input")
    evaluate.add_argument("--sample-fraction", type=float, default=1.0)
    evaluate.add_argument("--seed", type=int, default=0)

    select = commands.add_parser(
        "select", help="choose the number of components by BIC"
    )
    select.add_argument("input")
    select.add_argument("--candidates", default="1,2,4,8,16",
                        help="comma-separated candidate d values")
    select.add_argument("--max-iterations", type=int, default=60)
    select.add_argument("--seed", type=int, default=0)

    bench = commands.add_parser(
        "bench", help="quick comparison of sPCA vs the baselines on one matrix"
    )
    bench.add_argument("input")
    bench.add_argument("--components", "-d", type=int, default=10)
    bench.add_argument("--seed", type=int, default=0)

    info = commands.add_parser("info", help="describe a model or matrix archive")
    info.add_argument("path")

    trace = commands.add_parser(
        "trace", help="inspect or convert a recorded execution trace"
    )
    trace.add_argument("input", help="trace file (.json Chrome format or .jsonl)")
    trace.add_argument(
        "--to", metavar="PATH",
        help="convert to PATH instead of printing a summary "
             "(.jsonl -> event log, else Chrome trace-event JSON)",
    )
    trace.add_argument(
        "--diff", metavar="BASELINE",
        help="compare against BASELINE instead (alias for the 'diff' "
             "subcommand with this trace as the current run)",
    )

    report = commands.add_parser(
        "report", help="per-job / per-phase / per-iteration trace breakdowns"
    )
    report.add_argument("input", help="trace file (.json Chrome format or .jsonl)")
    report.add_argument(
        "--section",
        choices=("all", "jobs", "phases", "iterations",
                 "critical-path", "stragglers"),
        default="all", help="which breakdown to print",
    )
    report.add_argument(
        "--html", metavar="PATH",
        help="write a self-contained HTML report to PATH instead of printing",
    )
    report.add_argument(
        "--metrics", metavar="SNAPSHOT.json",
        help="include this metrics snapshot (from 'fit --metrics') in the report",
    )

    diff = commands.add_parser(
        "diff", help="compare two traces: per-phase/per-job regressions"
    )
    diff.add_argument("baseline", help="baseline trace file")
    diff.add_argument("current", help="current trace file")
    diff.add_argument(
        "--threshold", type=float, default=0.10, metavar="FRACTION",
        help="flag quantities that moved more than this fraction (default 0.10)",
    )
    diff.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit 1 when any simulated time grew beyond the threshold",
    )

    lint = commands.add_parser(
        "lint", help="run the repro-lint dataflow static analysis"
    )
    lint.add_argument("paths", nargs="*", default=["src/repro"])
    lint.add_argument("--select", help="comma-separated rule codes to run")
    lint.add_argument("--list-rules", action="store_true")
    lint.add_argument(
        "--format", choices=("text", "json", "github"), default="text",
        help="report format (json for machines, github for CI annotations)",
    )
    lint.add_argument(
        "--racecheck", action="store_true",
        help="also run the dynamic race detector over a small sPCA fit",
    )
    lint.add_argument(
        "--racecheck-executor", choices=("threads", "processes"),
        default="threads",
    )
    lint.add_argument("-q", "--quiet", action="store_true")

    registry = commands.add_parser(
        "registry", help="manage the versioned model registry"
    )
    registry_cmds = registry.add_subparsers(dest="registry_command", required=True)

    reg_publish = registry_cmds.add_parser(
        "publish", help="publish a fitted model archive into the registry"
    )
    reg_publish.add_argument("root", help="registry directory")
    reg_publish.add_argument("name", help="model name")
    reg_publish.add_argument("model", help="model .npz (from 'fit --out')")
    reg_publish.add_argument(
        "--version", default=None,
        help="explicit MAJOR.MINOR.PATCH (default: bump newest minor)",
    )
    reg_publish.add_argument(
        "--tag", action="append", default=[], metavar="LABEL",
        help="also point this tag at the published version (repeatable)",
    )
    reg_publish.add_argument("--notes", default="", help="free-form manifest notes")
    reg_publish.add_argument(
        "--overwrite", action="store_true",
        help="allow republishing an existing version",
    )

    reg_list = registry_cmds.add_parser(
        "list", help="list models, or one model's versions and tags"
    )
    reg_list.add_argument("root")
    reg_list.add_argument("name", nargs="?", default=None)

    reg_show = registry_cmds.add_parser("show", help="print a version's manifest")
    reg_show.add_argument("root")
    reg_show.add_argument("name")
    reg_show.add_argument(
        "--version", default="latest",
        help="exact version, tag, or 'latest' (default)",
    )

    reg_tag = registry_cmds.add_parser(
        "tag", help="point a tag at a published version"
    )
    reg_tag.add_argument("root")
    reg_tag.add_argument("name")
    reg_tag.add_argument("version")
    reg_tag.add_argument("label")

    reg_verify = registry_cmds.add_parser(
        "verify", help="re-hash stored archives against their manifests"
    )
    reg_verify.add_argument("root")
    reg_verify.add_argument("name", nargs="?", default=None)

    serve = commands.add_parser(
        "serve",
        help="serve each input row as one concurrent request "
             "through the micro-batching front-end",
    )
    serve.add_argument("input", help="matrix .npz; each row becomes one request")
    serve.add_argument("--registry", required=True, metavar="DIR")
    serve.add_argument("--model", required=True, metavar="NAME")
    serve.add_argument(
        "--version", default="latest",
        help="exact version, tag, or 'latest' (default)",
    )
    serve.add_argument(
        "--op", choices=("transform", "project", "reconstruct", "score"),
        default="transform",
    )
    serve.add_argument("--out", help="save the stacked results (.npz)")
    serve.add_argument(
        "--unbatched", action="store_true",
        help="disable request coalescing (per-request dispatch baseline)",
    )
    serve.add_argument(
        "--max-batch-rows", type=int, default=256,
        help="flush a batch once this many rows are queued (default 256)",
    )
    serve.add_argument(
        "--max-delay-ms", type=float, default=2.0,
        help="longest a request waits for batch neighbours (default 2ms)",
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-request deadline; expired requests fail instead of compute",
    )
    serve.add_argument(
        "--executor", choices=("serial", "threads", "processes"),
        default="serial",
        help="executor for intra-batch chunk parallelism (default serial)",
    )
    serve.add_argument("--workers", type=int, default=None, metavar="N")
    serve.add_argument(
        "--trace", metavar="PATH",
        help="record serve-request/serve-batch spans and events",
    )
    serve.add_argument(
        "--metrics", metavar="PATH",
        help="write the spca_serve_*/spca_registry_* metrics snapshot",
    )

    stream = commands.add_parser(
        "stream",
        help="streaming PCA: windowed mini-batch EM over a row stream",
    )
    stream.add_argument(
        "input", nargs="?", default=None,
        help="matrix .npz to stream row-by-row (omit with --synthetic)",
    )
    stream.add_argument(
        "--synthetic", metavar="COLS,RANK",
        help="stream an unbounded synthetic low-rank source instead of a "
             "file (requires --max-windows or --max-rows)",
    )
    stream.add_argument(
        "--drift-at", type=int, metavar="ROW",
        help="plant a regime change at this row of the synthetic stream",
    )
    stream.add_argument("--drift-angle", type=float, default=45.0,
                        metavar="DEG", help="planted rotation (default 45)")
    stream.add_argument("--components", "-d", type=int, default=10)
    stream.add_argument(
        "--window", type=int, default=256,
        help="rows per model update (the sEM mini-batch size, default 256)",
    )
    stream.add_argument(
        "--step", type=int, default=None, metavar="ROWS",
        help="window advance for sliding windows (default: tumbling)",
    )
    stream.add_argument(
        "--backend", choices=("sequential", "mapreduce", "spark"),
        default="sequential",
        help="engine that reduces each window to sufficient statistics",
    )
    stream.add_argument("--chunk-rows", type=int, default=256,
                        help="arrival chunk size when streaming a file")
    stream.add_argument("--epochs", type=int, default=1,
                        help="replays of a file-backed stream (default 1)")
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--rows-per-task", type=int, default=256,
                        help="rows per engine task inside a window")
    stream.add_argument("--max-windows", type=int, metavar="N",
                        help="stop after N windows")
    stream.add_argument("--max-rows", type=int, metavar="N",
                        help="stop once N rows were folded in")
    stream.add_argument(
        "--drift-threshold", type=float, default=None, metavar="DEG",
        help="enable subspace drift detection at this angle",
    )
    stream.add_argument("--drift-lag", type=int, default=3)
    stream.add_argument("--drift-warmup", type=int, default=None)
    stream.add_argument("--drift-patience", type=int, default=1)
    stream.add_argument(
        "--checkpoint", metavar="DIR",
        help="snapshot stream state into DIR at window boundaries",
    )
    stream.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="snapshot after every N-th window (default 1)",
    )
    stream.add_argument(
        "--resume", action="store_true",
        help="continue from the newest snapshot in --checkpoint",
    )
    stream.add_argument("--faults", metavar="PLAN.json",
                        help="fault plan for the engine (chaos testing)")
    stream.add_argument("--out", help="where to save the final model (.npz)")
    stream.add_argument("--trace", metavar="PATH",
                        help="record an execution trace of the stream")

    for fitting in (fit, bench):
        fitting.add_argument(
            "--check-contracts", action="store_true",
            help="enforce runtime shape contracts on every kernel call",
        )

    for parallel in (fit, resume, stream):
        parallel.add_argument(
            "--executor", choices=("serial", "threads", "processes"),
            default="serial",
            help="task executor for the engine backends: serial (default, "
                 "bit-identical baseline), threads, or processes "
                 "(multi-core with shared-memory block transport)",
        )
        parallel.add_argument(
            "--workers", type=int, default=None, metavar="N",
            help="worker count for --executor threads/processes "
                 "(default: CPU count, capped at 8)",
        )
        parallel.add_argument(
            "--worker-resident", action="store_true",
            help="pin input splits in the executor's resident store so "
                 "iterations after the first ship only the small model "
                 "matrices to workers (mapreduce backend with a concurrent "
                 "--executor; a no-op elsewhere)",
        )
        parallel.add_argument(
            "--live", action="store_true",
            help="show a live in-terminal dashboard (iteration, convergence, "
                 "phase timings, occupancy) while the fit runs",
        )
        parallel.add_argument(
            "--metrics", metavar="PATH",
            help="write a metrics snapshot when the run finishes "
                 "(.prom for Prometheus text format, anything else for JSON)",
        )

    return parser


def _make_backend(
    name: str,
    config: SPCAConfig,
    faults_path: str | None = None,
    executor=None,
    worker_resident: bool = False,
):
    injector = None
    if faults_path is not None:
        from repro.faults import FaultPlan, PlannedFaults

        injector = PlannedFaults(FaultPlan.load(faults_path))
    if name == "sequential":
        from repro.backends import SequentialBackend

        if injector is not None:
            print(
                "warning: --faults has no effect on the sequential backend",
                file=sys.stderr,
            )
        if executor is not None and not executor.serial:
            print(
                "warning: --executor has no effect on the sequential backend",
                file=sys.stderr,
            )
        if worker_resident:
            print(
                "warning: --worker-resident has no effect on the "
                "sequential backend",
                file=sys.stderr,
            )
        return SequentialBackend(config)
    if name == "mapreduce":
        from repro.backends import MapReduceBackend
        from repro.engine.mapreduce.runtime import MapReduceRuntime

        return MapReduceBackend(
            config,
            runtime=MapReduceRuntime(faults=injector, executor=executor),
            worker_resident=worker_resident,
        )
    from repro.backends import SparkBackend
    from repro.engine.spark.context import SparkContext

    if worker_resident:
        print(
            "note: --worker-resident is a no-op on the spark backend "
            "(cached partitions already live with their workers)",
            file=sys.stderr,
        )
    return SparkBackend(
        config, context=SparkContext(faults=injector, executor=executor)
    )


def _make_executor(args):
    """Build the task executor requested by ``--executor``/``--workers``."""
    from repro.engine.exec import resolve_executor

    return resolve_executor(
        getattr(args, "executor", "serial"), getattr(args, "workers", None)
    )


def _cmd_generate(args) -> int:
    matrix = _GENERATORS[args.dataset](args.rows, args.cols, args.seed)
    path = save_matrix(matrix, args.out)
    density = ""
    if hasattr(matrix, "nnz"):
        density = f", density {matrix.nnz / (args.rows * args.cols):.4f}"
    print(f"wrote {args.dataset} matrix {matrix.shape}{density} to {path}")
    return 0


def _maybe_check_contracts(args) -> None:
    if getattr(args, "check_contracts", False):
        from repro.lint import contracts

        contracts.enable()


def _run_instrumented(args, run):
    """Run *run()* under the observability wiring the CLI flags request.

    ``--trace`` records a trace (a ``.jsonl`` path streams spans to disk as
    they close instead of buffering the run in memory), ``--live`` attaches
    the in-terminal dashboard, and ``--metrics`` collects a registry
    snapshot.  Returns ``(result, trace_path, metrics_snapshot)``.
    """
    from contextlib import ExitStack

    trace_arg = getattr(args, "trace", None)
    live = getattr(args, "live", False)
    metrics_arg = getattr(args, "metrics", None)
    streaming = trace_arg is not None and trace_arg.endswith(".jsonl")
    snapshot = None
    trace_path = None
    with ExitStack() as stack:
        registry = None
        if live or metrics_arg:
            from repro.obs import collecting

            registry = stack.enter_context(collecting())
        if trace_arg or live:
            from repro.obs import tracing

            # Streaming (and dashboard-only) runs keep the tracer's span
            # buffer empty: listeners see every span, memory stays O(1).
            tracer = stack.enter_context(
                tracing(retain=bool(trace_arg) and not streaming)
            )
            if streaming:
                from repro.obs import JsonlTraceWriter

                writer = JsonlTraceWriter(trace_arg)
                tracer.add_listener(writer)
                stack.callback(writer.close)
                trace_path = trace_arg
            if live:
                from repro.obs.live import LiveDashboard

                dashboard = LiveDashboard(registry=registry)
                tracer.add_listener(dashboard)
                stack.callback(dashboard.close)
            result = run()
            if trace_arg and not streaming:
                from repro.obs import write_trace

                trace_path = write_trace(tracer, trace_arg)
        else:
            result = run()
        if registry is not None:
            snapshot = registry.snapshot()
    if metrics_arg and snapshot is not None:
        from repro.obs import write_snapshot

        write_snapshot(snapshot, metrics_arg)
    return result, trace_path, snapshot


def _cmd_fit(args) -> int:
    _maybe_check_contracts(args)
    matrix = load_matrix(args.input)
    config = SPCAConfig(
        n_components=args.components,
        max_iterations=args.max_iterations,
        tolerance=args.tolerance,
        seed=args.seed,
        smart_init=args.smart_init,
    )
    executor = _make_executor(args)
    backend = _make_backend(
        args.backend, config, faults_path=args.faults, executor=executor,
        worker_resident=args.worker_resident,
    )
    checkpoint = None
    if args.checkpoint:
        from repro.core import CheckpointPolicy, DirectoryCheckpointStore

        checkpoint = CheckpointPolicy(
            DirectoryCheckpointStore(args.checkpoint), args.checkpoint_every
        )
    try:
        (model, history), trace_path, _snapshot = _run_instrumented(
            args, lambda: SPCA(config, backend).fit(matrix, checkpoint=checkpoint)
        )
    finally:
        executor.shutdown()
    print(
        f"fit {matrix.shape} with d={args.components} on {args.backend}: "
        f"{history.n_iterations} iterations, stop={history.stop_reason}"
    )
    if checkpoint is not None:
        stored = checkpoint.store.iterations()
        if stored:
            print(f"checkpoints in {args.checkpoint}: iterations {stored}")
    if history.final_accuracy is not None:
        print(f"final accuracy: {history.final_accuracy:.4f}")
    if backend.simulated_seconds:
        print(f"simulated cluster time: {backend.simulated_seconds:.2f}s, "
              f"intermediate data: {backend.intermediate_bytes:,} bytes")
    if trace_path is not None:
        print(f"trace written to {trace_path}")
    if args.metrics:
        print(f"metrics snapshot written to {args.metrics}")
    if args.out:
        path = save_model(model, args.out)
        print(f"model saved to {path}")
    return 0


def _cmd_resume(args) -> int:
    from repro.core import DirectoryCheckpointStore
    from repro.core.config import checkpointed_config

    matrix = load_matrix(args.input)
    store = DirectoryCheckpointStore(args.checkpoint)
    newest = store.load_latest()
    if newest is None:
        print(f"error: no checkpoints in {args.checkpoint}", file=sys.stderr)
        return 2
    config = SPCAConfig(**checkpointed_config(newest.config))
    executor = _make_executor(args)
    backend = _make_backend(
        args.backend, config, faults_path=args.faults, executor=executor,
        worker_resident=args.worker_resident,
    )
    spca = SPCA(config, backend)
    try:
        (model, history), trace_path, _snapshot = _run_instrumented(
            args,
            lambda: spca.resume(matrix, store, checkpoint_every=args.checkpoint_every),
        )
    finally:
        executor.shutdown()
    print(
        f"resumed {matrix.shape} from iteration {newest.iteration} on "
        f"{args.backend}: {history.n_iterations} iterations total, "
        f"stop={history.stop_reason}"
    )
    if history.final_accuracy is not None:
        print(f"final accuracy: {history.final_accuracy:.4f}")
    if trace_path is not None:
        print(f"trace written to {trace_path}")
    if args.metrics:
        print(f"metrics snapshot written to {args.metrics}")
    if args.out:
        path = save_model(model, args.out)
        print(f"model saved to {path}")
    return 0


def _cmd_transform(args) -> int:
    model = load_model(args.model)
    matrix = load_matrix(args.input)
    latent = model.transform(matrix)
    path = save_matrix(latent, args.out)
    print(f"projected {matrix.shape} -> {latent.shape}; saved to {path}")
    return 0


def _cmd_evaluate(args) -> int:
    model = load_model(args.model)
    matrix = load_matrix(args.input)
    rng = np.random.default_rng(args.seed)
    error = reconstruction_error(
        matrix, model.components, model.mean,
        sample_fraction=args.sample_fraction, rng=rng,
    )
    print(f"reconstruction error: {error:.6f}")
    print(f"accuracy: {accuracy_from_error(error):.6f}")
    return 0


def _cmd_select(args) -> int:
    from repro.core.selection import score_candidates

    matrix = load_matrix(args.input)
    try:
        candidates = [int(c) for c in args.candidates.split(",") if c.strip()]
    except ValueError:
        print(f"error: malformed candidate list {args.candidates!r}", file=sys.stderr)
        return 2
    scores = score_candidates(
        matrix, candidates, max_iterations=args.max_iterations, seed=args.seed
    )
    print(f"{'d':>4}{'log-likelihood':>18}{'BIC':>16}{'noise var':>12}")
    best = min(scores, key=lambda s: s.bic)
    for score in scores:
        marker = "  <-- best" if score is best else ""
        print(f"{score.n_components:>4}{score.log_likelihood:>18.1f}"
              f"{score.bic:>16.1f}{score.noise_variance:>12.5f}{marker}")
    print(f"chosen d = {best.n_components}")
    return 0


def _cmd_bench(args) -> int:
    """One-row Table 2: time the four implementations on *input*."""
    _maybe_check_contracts(args)
    from repro.backends import MapReduceBackend, SparkBackend
    from repro.baselines import CovariancePCA, SSVDPCAMapReduce
    from repro.engine.mapreduce.runtime import MapReduceRuntime
    from repro.engine.spark.context import SparkContext
    from repro.errors import DriverOutOfMemoryError

    matrix = load_matrix(args.input)
    config = SPCAConfig(
        n_components=args.components, max_iterations=10, seed=args.seed,
        compute_error_every_iteration=False,
    )
    rows = []

    backend = SparkBackend(config, SparkContext())
    SPCA(config, backend).fit(matrix)
    rows.append(("sPCA-Spark", backend.simulated_seconds, backend.intermediate_bytes))

    try:
        mllib = CovariancePCA(args.components, SparkContext()).fit(matrix)
        rows.append(("MLlib-PCA", mllib.simulated_seconds, mllib.intermediate_bytes))
    except DriverOutOfMemoryError:
        rows.append(("MLlib-PCA", None, 0))

    backend = MapReduceBackend(config, MapReduceRuntime())
    SPCA(config, backend).fit(matrix)
    rows.append(("sPCA-MapReduce", backend.simulated_seconds, backend.intermediate_bytes))

    mahout = SSVDPCAMapReduce(
        args.components, runtime=MapReduceRuntime(), seed=args.seed
    ).fit(matrix, compute_accuracy=False)
    rows.append(("Mahout-PCA", mahout.simulated_seconds, mahout.intermediate_bytes))

    print(f"{'algorithm':<16}{'sim time (s)':>14}{'intermediate (B)':>18}")
    for name, seconds, nbytes in rows:
        cell = "Fail" if seconds is None else f"{seconds:.1f}"
        print(f"{name:<16}{cell:>14}{nbytes:>18,}")
    return 0


def _cmd_trace(args) -> int:
    from collections import Counter

    from repro.obs import load_trace, write_trace

    if args.diff:
        return _diff_traces_cmd(args.diff, args.input, threshold=0.10)
    trace = load_trace(args.input)
    if args.to:
        path = write_trace(trace, args.to)
        print(f"converted {args.input} -> {path} "
              f"({len(trace.spans)} spans, {len(trace.events)} events)")
        return 0
    span_kinds = Counter(span.kind for span in trace.spans)
    event_types = Counter(event.type for event in trace.events)
    sim_end = max((span.t0 + span.dur for span in trace.spans), default=0.0)
    print(f"{args.input}: {len(trace.spans)} spans, {len(trace.events)} events, "
          f"simulated span {sim_end:.3f}s")
    for kind in ("run", "iteration", "job", "phase", "task"):
        if span_kinds.get(kind):
            print(f"  {kind:<12}{span_kinds[kind]:>8}")
    for event_type, count in sorted(event_types.items()):
        print(f"  event:{event_type:<18}{count:>8}")
    return 0


def _cmd_report(args) -> int:
    from repro.obs import load_trace_lenient
    from repro.obs.analyze import (
        critical_path,
        format_critical_path,
        format_stragglers,
        straggler_report,
    )
    from repro.obs.report import (
        format_iteration_table,
        format_job_table,
        format_phase_table,
        render_html,
        summarize,
    )

    # Lenient loading: a truncated or partially-written trace (a killed run,
    # a crashed streaming writer) degrades to warnings + a partial report
    # instead of a traceback.
    trace, warnings = load_trace_lenient(args.input)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)

    snapshot = None
    if args.metrics:
        from repro.obs import load_snapshot

        snapshot = load_snapshot(args.metrics)

    if args.html:
        from pathlib import Path

        html = render_html(
            trace, snapshot, title=f"repro-spca report: {args.input}",
            warnings=warnings,
        )
        Path(args.html).write_text(html)
        print(f"html report written to {args.html}")
        return 0

    summary = summarize(trace)
    sections = []
    if args.section in ("all", "jobs"):
        sections.append("== jobs ==\n" + format_job_table(summary))
    if args.section in ("all", "phases"):
        sections.append("== phases ==\n" + format_phase_table(summary))
    if args.section in ("all", "iterations"):
        sections.append("== iterations ==\n" + format_iteration_table(trace))
    if args.section in ("all", "critical-path"):
        sections.append(
            "== critical path ==\n" + format_critical_path(critical_path(trace))
        )
    if args.section in ("all", "stragglers"):
        sections.append(
            "== stragglers ==\n" + format_stragglers(straggler_report(trace))
        )
    print("\n\n".join(sections))
    return 0


def _diff_traces_cmd(
    baseline_path: str,
    current_path: str,
    threshold: float,
    fail_on_regression: bool = False,
) -> int:
    from repro.obs import load_trace_lenient
    from repro.obs.analyze import diff_traces, format_diff

    baseline, warnings_b = load_trace_lenient(baseline_path)
    current, warnings_c = load_trace_lenient(current_path)
    for warning in warnings_b + warnings_c:
        print(f"warning: {warning}", file=sys.stderr)
    diff = diff_traces(baseline, current)
    print(f"baseline: {baseline_path}\ncurrent:  {current_path}")
    print(format_diff(diff, threshold))
    if fail_on_regression and diff.regressions(threshold):
        return 1
    return 0


def _cmd_diff(args) -> int:
    return _diff_traces_cmd(
        args.baseline, args.current, args.threshold, args.fail_on_regression
    )


def _cmd_lint(args) -> int:
    from repro.lint import cli as lint_cli

    argv = list(args.paths)
    if args.select:
        argv += ["--select", args.select]
    if args.list_rules:
        argv.append("--list-rules")
    if args.format != "text":
        argv += ["--format", args.format]
    if args.racecheck:
        argv += ["--racecheck", "--racecheck-executor", args.racecheck_executor]
    if args.quiet:
        argv.append("--quiet")
    return lint_cli.main(argv)


def _cmd_info(args) -> int:
    with np.load(args.path, allow_pickle=False) as archive:
        fields = set(archive.files)
        if "components" in fields:
            model = load_model(args.path)
            print(f"PCA model: {model.n_features} features x {model.n_components} components")
            print(f"noise variance: {model.noise_variance:.6g}; "
                  f"trained on {model.n_samples} rows")
        elif "kind" in fields:
            matrix = load_matrix(args.path)
            kind = "sparse CSR" if hasattr(matrix, "nnz") else "dense"
            extra = f", nnz={matrix.nnz:,}" if hasattr(matrix, "nnz") else ""
            print(f"{kind} matrix {matrix.shape}{extra}")
        else:
            print(f"unrecognized archive with fields: {sorted(fields)}")
            return 1
    return 0


def _cmd_registry(args) -> int:
    from repro.serve import ModelRegistry

    registry = ModelRegistry(args.root)
    if args.registry_command == "publish":
        model = load_model(args.model)
        record = registry.publish(
            args.name,
            model,
            version=args.version,
            tags=tuple(args.tag),
            notes=args.notes,
            overwrite=args.overwrite,
        )
        tags = f", tags: {', '.join(args.tag)}" if args.tag else ""
        print(
            f"published {record.name}@{record.version} "
            f"({record.n_features}x{record.n_components}, "
            f"sha256 {record.sha256[:12]}...){tags}"
        )
        return 0
    if args.registry_command == "list":
        if args.name is None:
            names = registry.models()
            if not names:
                print(f"no models in {args.root}")
                return 0
            for name in names:
                versions = registry.versions(name)
                print(f"{name}: {', '.join(versions)}")
            return 0
        versions = registry.versions(args.name)
        tags = registry.tags(args.name)
        by_version: dict[str, list[str]] = {}
        for label, version in tags.items():
            by_version.setdefault(version, []).append(label)
        for version in versions:
            labels = sorted(by_version.get(version, []))
            if version == versions[-1]:
                labels.append("latest")
            suffix = f"  [{', '.join(labels)}]" if labels else ""
            print(f"{args.name}@{version}{suffix}")
        return 0
    if args.registry_command == "show":
        record = registry.record(args.name, args.version)
        print(f"{record.name}@{record.version}")
        print(f"  archive: {record.path}")
        print(f"  sha256: {record.sha256}")
        print(f"  shape: {record.n_features} features x "
              f"{record.n_components} components")
        print(f"  trained on: {record.n_samples} rows, "
              f"noise variance {record.noise_variance:.6g}")
        if record.notes:
            print(f"  notes: {record.notes}")
        return 0
    if args.registry_command == "tag":
        registry.tag(args.name, args.version, args.label)
        print(f"tag {args.label} -> {args.name}@{args.version}")
        return 0
    # verify
    problems = registry.verify(args.name)
    scope = args.name or "registry"
    if problems:
        for problem in problems:
            print(f"FAIL {problem}", file=sys.stderr)
        print(f"{scope}: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(f"{scope}: all archives verified")
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import time

    from repro.serve import BatchPolicy, MicroBatcher, ModelRegistry, PCAService
    from repro.serve.loadgen import percentile_ms

    matrix = load_matrix(args.input)
    registry = ModelRegistry(args.registry)
    resolved = registry.resolve(args.model, args.version)
    executor = _make_executor(args)
    service = PCAService(
        registry, executor=None if executor.serial else executor
    )
    policy = BatchPolicy(
        max_batch_rows=args.max_batch_rows,
        max_delay_s=args.max_delay_ms / 1e3,
        default_deadline_s=(
            None if args.deadline_ms is None else args.deadline_ms / 1e3
        ),
    )
    rows = [matrix[i] for i in range(matrix.shape[0])]

    async def drive():
        batcher = MicroBatcher(service, policy, batching=not args.unbatched)

        async def one(row):
            started = time.perf_counter()
            result = await batcher.submit(
                args.op, args.model, row, version=args.version
            )
            return time.perf_counter() - started, result

        started = time.perf_counter()
        pairs = await asyncio.gather(*(one(row) for row in rows))
        wall = time.perf_counter() - started
        # batches_dispatched settles once close() joins in-flight work.
        await batcher.close()
        return list(pairs), wall, batcher.batches_dispatched

    try:
        (pairs, wall, batches), trace_path, _snapshot = _run_instrumented(
            args, lambda: asyncio.run(drive())
        )
    finally:
        executor.shutdown()
    latencies = [latency for latency, _ in pairs]
    outputs = [np.atleast_2d(result) for _, result in pairs]
    stacked = np.vstack(outputs) if args.op != "score" else np.concatenate(
        [np.ravel(result) for _, result in pairs]
    )
    mode = "unbatched" if args.unbatched else "batched"
    print(
        f"served {len(rows)} {args.op} requests against "
        f"{args.model}@{resolved} ({mode}, {batches} batches)"
    )
    print(
        f"wall {wall:.3f}s, {len(rows) / max(wall, 1e-12):.0f} req/s, "
        f"latency p50 {percentile_ms(latencies, 50):.2f}ms "
        f"p99 {percentile_ms(latencies, 99):.2f}ms"
    )
    if trace_path is not None:
        print(f"trace written to {trace_path}")
    if args.metrics:
        print(f"metrics snapshot written to {args.metrics}")
    if args.out:
        path = save_matrix(np.asarray(stacked), args.out)
        print(f"results saved to {path}")
    return 0


def _cmd_stream(args) -> int:
    from repro.stream import (
        DriftSpec,
        MatrixSource,
        StreamConfig,
        StreamingPCA,
        SyntheticSource,
    )

    if args.synthetic:
        if args.input is not None:
            print("error: give a matrix or --synthetic, not both", file=sys.stderr)
            return 2
        if args.max_windows is None and args.max_rows is None:
            print(
                "error: --synthetic streams forever; bound the run with "
                "--max-windows or --max-rows",
                file=sys.stderr,
            )
            return 2
        try:
            cols, rank = (int(part) for part in args.synthetic.split(","))
        except ValueError:
            print(
                f"error: malformed --synthetic {args.synthetic!r} "
                "(expected COLS,RANK)",
                file=sys.stderr,
            )
            return 2
        drift = None
        if args.drift_at is not None:
            drift = DriftSpec(at_row=args.drift_at, angle_degrees=args.drift_angle)
        source = SyntheticSource(cols, rank, seed=args.seed, drift=drift)
        described = f"synthetic {cols}x{rank} stream"
    elif args.input is not None:
        matrix = load_matrix(args.input)
        source = MatrixSource(
            matrix, chunk_rows=args.chunk_rows, epochs=args.epochs
        )
        described = f"{matrix.shape}" + (
            f" x{args.epochs} epochs" if args.epochs > 1 else ""
        )
    else:
        print("error: give a matrix .npz or --synthetic", file=sys.stderr)
        return 2

    config = StreamConfig(
        n_components=args.components,
        window=args.window,
        step=args.step,
        seed=args.seed,
        rows_per_task=args.rows_per_task,
        drift_threshold_degrees=args.drift_threshold,
        drift_lag=args.drift_lag,
        drift_warmup=args.drift_warmup,
        drift_patience=args.drift_patience,
    )
    injector = None
    if args.faults is not None:
        from repro.faults import FaultPlan, PlannedFaults

        injector = PlannedFaults(FaultPlan.load(args.faults))
        if args.backend == "sequential":
            print(
                "warning: --faults has no effect on the sequential engine",
                file=sys.stderr,
            )
    executor = _make_executor(args)
    pca = StreamingPCA(
        config,
        args.backend,
        executor=None if executor.serial else executor,
        faults=injector,
    )
    policy = None
    if args.checkpoint:
        from repro.core import CheckpointPolicy, DirectoryCheckpointStore

        policy = CheckpointPolicy(
            DirectoryCheckpointStore(args.checkpoint), args.checkpoint_every
        )
    if args.resume and policy is None:
        print("error: --resume needs --checkpoint DIR", file=sys.stderr)
        return 2

    def drive():
        if args.resume:
            return pca.resume(
                source, policy,
                max_windows=args.max_windows, max_rows=args.max_rows,
            )
        return pca.run(
            source,
            max_windows=args.max_windows,
            max_rows=args.max_rows,
            checkpoint=policy,
        )

    try:
        result, trace_path, _snapshot = _run_instrumented(args, drive)
    finally:
        executor.shutdown()
    verb = "resumed" if args.resume else "streamed"
    print(
        f"{verb} {described} on {args.backend}: {result.windows} windows, "
        f"{result.rows} rows (stop: {result.stop_reason})"
    )
    print(
        f"model: d={args.components}, noise variance "
        f"{result.model.noise_variance:.6g}, {result.model.n_samples} rows seen"
    )
    if result.wall_seconds > 0:
        print(f"throughput: {result.rows / result.wall_seconds:,.0f} rows/s")
    for event in result.drift_events:
        print(
            f"drift detected at window {event.window_index} "
            f"(row {event.end_row}): {event.angle_degrees:.1f} degrees"
        )
    if result.sim_seconds:
        print(f"simulated cluster time: {result.sim_seconds:.2f}s")
    if policy is not None and result.checkpoints:
        stored = policy.store.iterations()
        print(f"checkpoints in {args.checkpoint}: windows {stored}")
    if trace_path is not None:
        print(f"trace written to {trace_path}")
    if args.metrics:
        print(f"metrics snapshot written to {args.metrics}")
    if args.out:
        path = save_model(result.model, args.out)
        print(f"model saved to {path}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "fit": _cmd_fit,
    "resume": _cmd_resume,
    "transform": _cmd_transform,
    "evaluate": _cmd_evaluate,
    "select": _cmd_select,
    "bench": _cmd_bench,
    "info": _cmd_info,
    "trace": _cmd_trace,
    "report": _cmd_report,
    "diff": _cmd_diff,
    "lint": _cmd_lint,
    "registry": _cmd_registry,
    "serve": _cmd_serve,
    "stream": _cmd_stream,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
