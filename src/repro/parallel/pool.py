"""A deterministic process pool for (task, seed) experiment workloads.

``TaskPool`` fans a list of tasks out across ``multiprocessing`` workers
and returns the results **in task order**, with three guarantees the
plain ``Pool.map`` does not give:

- **Determinism** — every task receives a seed derived from the pool's
  root seed and the task's position (:func:`~repro.parallel.seeding.derive_seed`),
  never from worker identity or scheduling, so results are bit-identical
  at any worker count, including the in-process serial path
  (``workers <= 1``), which runs the exact same entrypoint protocol
  without spawning anything.
- **One pickle per worker, not per task** — heavyweight shared state (a
  built testbed, an engine) is written to disk once and each worker
  unpickles it in its initializer; tasks then reference it through
  :func:`current_setup` and stay small.
- **Failure surfacing** — a task exception is re-raised in the parent as
  :class:`TaskFailureError` carrying the worker traceback and the task's
  index; a worker killed by the OS raises :class:`WorkerCrashError`
  instead of hanging; a task that exceeds ``task_timeout_s`` raises
  :class:`TaskTimeoutError`.

Worker entrypoints must be module-level functions (picklable by
reference) with the signature ``fn(task, seed)``; by repository
convention they are named ``*_task``, which the reprolint RPRL006 rule
uses to verify the explicit ``seed`` parameter is present.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import pickle
import traceback
from pathlib import Path
from typing import Any, Callable, Sequence

from .seeding import derive_seed

__all__ = [
    "TaskFailureError",
    "TaskPool",
    "TaskTimeoutError",
    "WorkerCrashError",
    "current_setup",
]

#: The per-process shared setup object, populated by the worker
#: initializer (pooled mode) or directly by the pool (serial mode), and
#: the artifact path it corresponds to (fork-inheritance handshake).
_WORKER_SETUP: Any = None
_WORKER_SETUP_TOKEN: str | None = None


def current_setup() -> Any:
    """The setup object this worker was initialized with (or None)."""
    return _WORKER_SETUP


def _initialize_worker(setup_path: str) -> None:
    """Worker initializer: adopt the fork-inherited setup when its token
    matches, otherwise unpickle the artifact exactly once."""
    global _WORKER_SETUP, _WORKER_SETUP_TOKEN
    if _WORKER_SETUP_TOKEN == setup_path:
        return  # inherited the parent's in-memory setup via fork
    with open(setup_path, "rb") as handle:
        _WORKER_SETUP = pickle.load(handle)
    _WORKER_SETUP_TOKEN = setup_path


class TaskFailureError(RuntimeError):
    """A task raised inside a worker; carries the remote traceback."""

    def __init__(self, task_index: int, remote_traceback: str):
        self.task_index = task_index
        self.remote_traceback = remote_traceback
        super().__init__(
            f"task {task_index} failed in worker:\n{remote_traceback}"
        )


class TaskTimeoutError(RuntimeError):
    """A task did not produce a result within ``task_timeout_s``."""

    def __init__(self, task_index: int, timeout_s: float):
        self.task_index = task_index
        self.timeout_s = timeout_s
        super().__init__(
            f"task {task_index} produced no result within {timeout_s:g}s"
        )


class WorkerCrashError(RuntimeError):
    """A worker process died (segfault, OOM-kill, os._exit) mid-run."""


def _run_packed_task(
    packed: tuple[int, Callable[[Any, int], Any], Any, int],
) -> tuple[int, bool, Any, str | None]:
    """The uniform remote entrypoint: run one task, never raise."""
    index, fn, task, seed = packed
    try:
        return index, True, fn(task, seed), None
    except Exception:
        return index, False, None, traceback.format_exc()


class TaskPool:
    """Deterministic ordered fan-out of tasks over worker processes."""

    def __init__(
        self,
        workers: int = 1,
        *,
        root_seed: int = 0,
        setup: Any = None,
        setup_path: str | Path | None = None,
        task_timeout_s: float | None = None,
        mp_context: multiprocessing.context.BaseContext | None = None,
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ValueError(
                f"task_timeout_s must be positive, got {task_timeout_s}"
            )
        self.workers = workers
        self.root_seed = root_seed
        self._setup = setup
        self._setup_path = None if setup_path is None else str(setup_path)
        self.task_timeout_s = task_timeout_s
        self._mp_context = mp_context

    # -- execution ---------------------------------------------------------

    def map(
        self, fn: Callable[[Any, int], Any], tasks: Sequence[Any]
    ) -> list[Any]:
        """Run ``fn(task, seed)`` for every task; results in task order."""
        tasks = list(tasks)
        if not tasks:
            return []
        packed = [
            (index, fn, task, derive_seed(self.root_seed, index))
            for index, task in enumerate(tasks)
        ]
        if self.workers <= 1:
            return self._map_serial(packed)
        return self._map_pooled(packed)

    def _map_serial(
        self,
        packed: list[tuple[int, Callable[[Any, int], Any], Any, int]],
    ) -> list[Any]:
        """In-process execution with identical entrypoint semantics."""
        global _WORKER_SETUP
        previous = _WORKER_SETUP
        _WORKER_SETUP = self._load_setup()
        try:
            results: list[Any] = []
            for item in packed:
                index, ok, value, remote_tb = _run_packed_task(item)
                if not ok:
                    assert remote_tb is not None
                    raise TaskFailureError(index, remote_tb)
                results.append(value)
            return results
        finally:
            _WORKER_SETUP = previous

    def _map_pooled(
        self,
        packed: list[tuple[int, Callable[[Any, int], Any], Any, int]],
    ) -> list[Any]:
        context = self._mp_context or _default_context()
        initializer = None
        initargs: tuple[str, ...] = ()
        if self._setup_path is not None:
            initializer = _initialize_worker
            initargs = (self._setup_path,)
        elif self._setup is not None:
            raise ValueError(
                "pooled execution with a shared setup requires setup_path "
                "(one pickle per worker); pass the spill path, not the object"
            )
        num_workers = min(self.workers, len(packed))
        global _WORKER_SETUP, _WORKER_SETUP_TOKEN
        previous = (_WORKER_SETUP, _WORKER_SETUP_TOKEN)
        if (
            self._setup is not None
            and self._setup_path is not None
            and context.get_start_method() == "fork"
        ):
            # Workers forked while these globals are set inherit the
            # parent's built setup directly — zero unpickles; the token
            # lets the initializer detect (and trust) the inheritance.
            # Workers started later (e.g. pool repair) miss the window
            # and fall back to loading the artifact from disk.
            _WORKER_SETUP, _WORKER_SETUP_TOKEN = self._setup, self._setup_path
        executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=num_workers,
            mp_context=context,
            initializer=initializer,
            initargs=initargs,
        )
        try:
            futures = [
                executor.submit(_run_packed_task, item) for item in packed
            ]
            results = []
            for index, future in enumerate(futures):
                try:
                    _, ok, value, remote_tb = future.result(
                        timeout=self.task_timeout_s
                    )
                except concurrent.futures.TimeoutError:
                    # The overdue task may be wedged forever; a graceful
                    # shutdown would join it, so kill the workers instead.
                    for pending in futures:
                        pending.cancel()
                    for process in list(
                        getattr(executor, "_processes", {}).values()
                    ):
                        process.terminate()
                    assert self.task_timeout_s is not None
                    raise TaskTimeoutError(
                        index, self.task_timeout_s
                    ) from None
                except concurrent.futures.process.BrokenProcessPool as exc:
                    raise WorkerCrashError(
                        f"a worker process died while task {index} was "
                        f"outstanding: {exc}"
                    ) from exc
                if not ok:
                    assert remote_tb is not None
                    raise TaskFailureError(index, remote_tb)
                results.append(value)
            return results
        finally:
            executor.shutdown(wait=True, cancel_futures=True)
            _WORKER_SETUP, _WORKER_SETUP_TOKEN = previous

    # -- helpers -----------------------------------------------------------

    def _load_setup(self) -> Any:
        if self._setup is not None:
            return self._setup
        if self._setup_path is not None:
            with open(self._setup_path, "rb") as handle:
                return pickle.load(handle)
        return None


def _default_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap worker start, shares the imported modules);
    fall back to spawn on platforms without it."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )
