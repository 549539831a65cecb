"""Tests for TaskPool: ordering, determinism, failure surfacing."""

from __future__ import annotations

import multiprocessing
import os
import pickle
import random
import time

import pytest

from repro.parallel import (
    TaskFailureError,
    TaskPool,
    TaskTimeoutError,
    WorkerCrashError,
    current_setup,
)


def echo_task(task, seed):
    return task


def seeded_draw_task(task, seed):
    """Result depends only on (task, derived seed) — the determinism
    contract every real worker entrypoint must satisfy."""
    rng = random.Random(seed)
    return (task, seed, rng.random())


def setup_reader_task(task, seed):
    return (current_setup()["name"], task)


def failing_task(task, seed):
    if task == 3:
        raise ValueError("task three is cursed")
    return task


def sleeping_task(task, seed):
    time.sleep(30)
    return task


def crashing_task(task, seed):
    os._exit(13)


class TestOrderingAndDeterminism:
    def test_results_in_task_order(self):
        tasks = list(range(20))
        assert TaskPool(2).map(echo_task, tasks) == tasks

    def test_empty_task_list(self):
        assert TaskPool(4).map(echo_task, []) == []

    def test_serial_and_pooled_results_are_bit_identical(self):
        tasks = [f"t{i}" for i in range(12)]
        serial = TaskPool(1, root_seed=9).map(seeded_draw_task, tasks)
        pooled = TaskPool(3, root_seed=9).map(seeded_draw_task, tasks)
        assert pickle.dumps(serial) == pickle.dumps(pooled)

    def test_identical_across_worker_counts(self):
        tasks = list(range(15))
        results = [
            TaskPool(workers, root_seed=5).map(seeded_draw_task, tasks)
            for workers in (1, 2, 4)
        ]
        assert results[0] == results[1] == results[2]

    def test_root_seed_changes_derived_seeds(self):
        first = TaskPool(1, root_seed=1).map(seeded_draw_task, ["a"])
        second = TaskPool(1, root_seed=2).map(seeded_draw_task, ["a"])
        assert first != second


class TestSetupAttachment:
    def test_serial_setup_object(self):
        pool = TaskPool(1, setup={"name": "direct"})
        assert pool.map(setup_reader_task, [0, 1]) == [
            ("direct", 0),
            ("direct", 1),
        ]

    def test_pooled_setup_via_artifact(self, tmp_path):
        path = tmp_path / "setup.pkl"
        path.write_bytes(pickle.dumps({"name": "artifact"}))
        pool = TaskPool(2, setup_path=path)
        assert pool.map(setup_reader_task, [0, 1]) == [
            ("artifact", 0),
            ("artifact", 1),
        ]

    def test_fork_inheritance_matches_artifact_load(self, tmp_path):
        path = tmp_path / "setup.pkl"
        setup = {"name": "inherited"}
        path.write_bytes(pickle.dumps(setup))
        # Passing both lets fork-start workers adopt the parent's object.
        pool = TaskPool(2, setup=setup, setup_path=path)
        assert pool.map(setup_reader_task, [7]) == [("inherited", 7)]

    def test_pooled_setup_object_without_path_is_rejected(self):
        # Spawn-started workers can only load the setup from an artifact.
        pool = TaskPool(
            2,
            setup={"name": "no-path"},
            mp_context=multiprocessing.get_context("spawn"),
        )
        with pytest.raises(ValueError, match="setup_path"):
            pool.map(setup_reader_task, [0])

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_fork_inherits_setup_without_path(self):
        pool = TaskPool(
            2,
            setup={"name": "forked"},
            mp_context=multiprocessing.get_context("fork"),
        )
        assert pool.map(setup_reader_task, [0, 1]) == [
            ("forked", 0),
            ("forked", 1),
        ]
        assert current_setup() is None

    def test_spawn_loads_setup_from_artifact(self, tmp_path):
        path = tmp_path / "setup.pkl"
        setup = {"name": "spawned"}
        path.write_bytes(pickle.dumps(setup))
        pool = TaskPool(
            2,
            setup=setup,
            setup_path=path,
            mp_context=multiprocessing.get_context("spawn"),
        )
        assert pool.map(setup_reader_task, [3]) == [("spawned", 3)]

    def test_serial_restores_previous_setup(self):
        TaskPool(1, setup={"name": "scoped"}).map(setup_reader_task, [0])
        assert current_setup() is None


class TestFailureSurfacing:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_task_exception_carries_traceback_and_index(self, workers):
        with pytest.raises(TaskFailureError) as excinfo:
            TaskPool(workers).map(failing_task, list(range(6)))
        assert excinfo.value.task_index == 3
        assert "task three is cursed" in excinfo.value.remote_traceback

    def test_timeout_is_surfaced(self):
        pool = TaskPool(2, task_timeout_s=0.5)
        with pytest.raises(TaskTimeoutError):
            pool.map(sleeping_task, [0])

    def test_worker_crash_is_surfaced(self):
        with pytest.raises(WorkerCrashError):
            TaskPool(2).map(crashing_task, [0, 1])

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            TaskPool(-1)
        with pytest.raises(ValueError):
            TaskPool(2, task_timeout_s=0.0)
