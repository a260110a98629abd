"""repro.engine.exec -- pluggable task executors for both engine simulators.

Three interchangeable backends run the independent tasks of a stage:

``serial``
    A left-to-right loop on the calling thread, with no pool and no
    driver-worker pipe; the default.
``threads``
    A ``ThreadPoolExecutor``; zero-copy by construction, parallel wherever
    the numpy/scipy kernels release the GIL.
``processes``
    A ``ProcessPoolExecutor`` with shared-memory ndarray transport
    (:mod:`repro.engine.exec.shm`); real multi-core execution.

Both engines run every stage through one path whatever the executor: fault
plans are drawn for all tasks up front, the pure task bodies run on the
executor, and the driver commits their outcomes in task-index order.  Engine
outputs, counters, byte totals, and trace-event multisets are therefore
identical across executors (property-tested in
``tests/test_executor_equivalence.py``; faulted fits pinned in
``tests/test_fault_goldens.py``).
"""

from __future__ import annotations

from repro.engine.exec.base import TaskExecutor, default_worker_count
from repro.engine.exec.processes import ProcessPoolTaskExecutor
from repro.engine.exec.resident import (
    ResidentPayloadRef,
    clear_resident_store,
    resident_keys,
    resolve_payload,
)
from repro.engine.exec.serial import SerialExecutor
from repro.engine.exec.shm import (
    DEFAULT_SHM_THRESHOLD,
    ShmArrayRef,
    ShmBlockRegistry,
    ShmSparseRef,
    decode_payload,
    encode_payload,
)
from repro.engine.exec.threads import ThreadPoolTaskExecutor
from repro.errors import InvalidPlanError

EXECUTOR_NAMES = ("serial", "threads", "processes")


def make_executor(name: str, workers: int | None = None) -> TaskExecutor:
    """Build an executor by CLI name (``serial``/``threads``/``processes``)."""
    if name == "serial":
        return SerialExecutor()
    if name == "threads":
        return ThreadPoolTaskExecutor(workers)
    if name == "processes":
        return ProcessPoolTaskExecutor(workers)
    raise InvalidPlanError(
        f"unknown executor {name!r}; expected one of {', '.join(EXECUTOR_NAMES)}"
    )


def resolve_executor(
    executor: "TaskExecutor | str | None", workers: int | None = None
) -> TaskExecutor:
    """Normalize an engine's ``executor=`` argument to a TaskExecutor.

    Accepts an executor instance (used as-is), a name (built via
    :func:`make_executor`), or None (serial).
    """
    if executor is None:
        return SerialExecutor()
    if isinstance(executor, str):
        return make_executor(executor, workers)
    if isinstance(executor, TaskExecutor):
        return executor
    raise InvalidPlanError(
        f"executor must be a name or TaskExecutor, got {type(executor).__name__}"
    )


__all__ = [
    "DEFAULT_SHM_THRESHOLD",
    "EXECUTOR_NAMES",
    "ProcessPoolTaskExecutor",
    "ResidentPayloadRef",
    "SerialExecutor",
    "ShmArrayRef",
    "ShmBlockRegistry",
    "ShmSparseRef",
    "TaskExecutor",
    "ThreadPoolTaskExecutor",
    "clear_resident_store",
    "decode_payload",
    "default_worker_count",
    "encode_payload",
    "make_executor",
    "resident_keys",
    "resolve_executor",
    "resolve_payload",
]
