"""The shared execution API every experiment harness runs on.

``ExperimentRunner`` bundles the two performance levers of the parallel
engine behind one object that harnesses thread through:

- a :class:`~repro.parallel.cache.SetupCache` so each distinct setup
  (corpus + indexes + synopses + directory) is built once per grid, and
- a :class:`~repro.parallel.pool.TaskPool` per fan-out, so (query,
  config) tasks spread across CPU cores with per-task derived seeds and
  ordered, bit-identical results.

The contract harnesses rely on::

    runner = ExperimentRunner(workers=8, cache_dir="~/.cache/repro")
    handle = runner.setup("fig3-testbed", parts, build)   # cached build
    results = runner.map(my_task, tasks, setup=handle)    # ordered

``runner.map`` with ``workers=1`` (the default) runs tasks serially in
process through the identical entrypoint protocol — experiments always
produce the same bytes at any worker count, so ``--workers`` is purely a
wall-clock knob.
"""

from __future__ import annotations

import multiprocessing
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from .cache import SetupCache
from .pool import TaskPool

__all__ = ["ExperimentRunner", "SetupHandle"]


class SetupHandle(NamedTuple):
    """A built setup plus the artifact path pool workers attach to."""

    value: Any
    path: Path | None


class ExperimentRunner:
    """Process-pool execution + setup caching behind one small API."""

    def __init__(
        self,
        *,
        workers: int = 1,
        cache_dir: str | Path | None = None,
        root_seed: int = 0,
        task_timeout_s: float | None = None,
        mp_context: multiprocessing.context.BaseContext | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.root_seed = root_seed
        self.task_timeout_s = task_timeout_s
        self._mp_context = mp_context
        self.cache = SetupCache(cache_dir)

    # -- setups ------------------------------------------------------------

    def setup(
        self,
        kind: str,
        parts: Mapping[str, Any],
        builder: Callable[[], Any],
    ) -> SetupHandle:
        """Build (or load) a content-addressed setup; see ``SetupCache``."""
        value, path = self.cache.get_or_build(kind, parts, builder)
        return SetupHandle(value=value, path=path)

    def attach(self, kind: str, value: Any) -> SetupHandle:
        """Wrap an already-built object so pooled workers can load it."""
        if self.workers <= 1:
            return SetupHandle(value=value, path=None)
        return SetupHandle(value=value, path=self.cache.spill(kind, value))

    # -- fan-out -----------------------------------------------------------

    def map(
        self,
        fn: Callable[[Any, int], Any],
        tasks: Sequence[Any],
        *,
        setup: SetupHandle | None = None,
    ) -> list[Any]:
        """Run ``fn(task, seed)`` over ``tasks``; results in task order.

        Results are value-identical at any worker count, and each result
        pickles to the same bytes.  Pooled results are independent
        unpickles, though: a task returning references *into the shared
        setup* (its peer-id strings, say) yields an aggregate whose
        cross-element object sharing differs from the serial run, so
        callers that serialize whole aggregates should intern such
        references first (see ``measure_load``).

        A pooled map over a setup without an artifact path (no cache
        directory) spills it once so workers can attach to it.
        """
        if self.workers > 1 and setup is not None and setup.path is None:
            setup = SetupHandle(
                value=setup.value,
                path=self.cache.spill("adhoc-setup", setup.value),
            )
        return TaskPool(
            self.workers,
            root_seed=self.root_seed,
            setup=None if setup is None else setup.value,
            setup_path=None if setup is None else setup.path,
            task_timeout_s=self.task_timeout_s,
            mp_context=self._mp_context,
        ).map(fn, tasks)

    def __repr__(self) -> str:
        return (
            f"ExperimentRunner(workers={self.workers}, "
            f"cache_dir={self.cache.persist_dir!r})"
        )
