"""Self-test of the benchmark at tiny shapes.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads as wl  # noqa: E402
from child import Checker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCALE = "0.05"
LADDER = ["floor", "sequential", "engine_serial", "engine_exec", "metrics_on", "obs"]


def run_bench(tmp_path, workload: str, trace: int) -> tuple[dict, dict]:
    """Run the benchmark command; return (result line, full result file)."""
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "0.01",
            "--trace", str(trace),
            "--scale", SCALE,
        ],
        cwd=ROOT,
        env={**os.environ, "CARGO_TARGET_DIR": str(tmp_path)},
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    line = json.loads(completed.stdout.strip().splitlines()[-1])
    details = json.loads(
        (tmp_path / "perfbench" / f"result-{workload}-trace{trace}.json").read_text()
    )
    return line, details


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    line, _ = run_bench(tmp_path, workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        emitted = line["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        assert np.isfinite(emitted["value"])
    if not trace:
        assert all(line["metrics"][m["name"]]["value"] != 0 for m in wanted)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_ladder_rungs_are_ordered_and_positive(tmp_path, workload):
    _, details = run_bench(tmp_path, workload, 1)
    order = details["samples"]["rung_order"]
    expected = [r for r in LADDER if workload == "dense-procs" or r != "engine_exec"]
    assert order == expected
    assert all(t > 0 for times in details["samples"]["rungs"].values() for t in times)
    metrics = details["metrics"]
    for rung in ("floor", "sequential", "engine_serial", "obs"):
        assert metrics[f"ladder.{rung}_s"]["value"] > 0
    exec_s = metrics["ladder.engine_exec_s"]["value"]
    assert (exec_s > 0) == (workload == "dense-procs")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_perturbation_trips_the_oracle(workload):
    spec = wl.WORKLOADS[workload]
    seed = 5
    data = spec.generate(seed, float(SCALE))
    replayed = wl.stream_rows(data) if spec.kind == "stream" else None
    _, reference = wl.floor(spec, seed, data, replayed)
    result = wl.run_workload(spec, seed, data)

    checker = Checker(spec, reference)
    checker.check("clean", result)
    assert checker.failed == 0, checker.misses

    components = result.model.components
    # One ulp on one entry for the bitwise stream oracle; 1e-6 relative
    # (well past the 1e-9 tolerance) for the batch floor.
    if spec.kind == "stream":
        components[0, 0] = np.nextafter(components[0, 0], np.inf)
    else:
        components *= 1 + 1e-6
    checker.check("planted", result)
    assert 2 * checker.failed == checker.attempted
    assert len(checker.misses) == 1 and checker.misses[0].startswith("planted")
