"""Tests for ExperimentRunner: serial and pooled maps agree bit for bit,
with or without a cache directory."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.parallel import ExperimentRunner, current_setup, derive_seed


def seed_echo_task(task, seed):
    return (task, seed)


def setup_seed_task(task, seed):
    return (current_setup()["name"], task, seed)


TASKS = [f"t{i}" for i in range(6)]
EXPECTED = [(task, derive_seed(0, i)) for i, task in enumerate(TASKS)]


class TestResultIdentity:
    """Every worker count produces the serial run's (task, seed) pairs."""

    def test_plain_pooled_matches_serial(self):
        runner = ExperimentRunner(workers=2)
        assert runner.map(seed_echo_task, TASKS) == EXPECTED

    def test_uncached_setup_pooled_matches_serial(self):
        results = []
        for workers in (1, 2):
            runner = ExperimentRunner(workers=workers)
            handle = runner.setup(
                "testbed", {"seed": 1}, lambda: {"name": "bed"}
            )
            assert handle.path is None
            results.append(runner.map(setup_seed_task, TASKS, setup=handle))
        serial, pooled = results
        assert pooled == serial
        assert serial == [("bed", task, seed) for task, seed in EXPECTED]


def spilled(cache_dir):
    return sorted(path.name for path in cache_dir.rglob("*") if path.is_file())


class TestSetupSpill:
    """Only spawn-started workers read a setup artifact, so only they
    get a spill pickle."""

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_fork_writes_no_spill(self, tmp_path):
        runner = ExperimentRunner(
            workers=2,
            cache_dir=tmp_path,
            mp_context=multiprocessing.get_context("fork"),
        )
        handle = runner.attach("bed", {"name": "bed"})
        assert handle.path is None
        assert runner.map(setup_seed_task, TASKS, setup=handle) == [
            ("bed", task, seed) for task, seed in EXPECTED
        ]
        assert spilled(tmp_path) == []

    def test_spawn_spills_once_and_matches_serial(self, tmp_path):
        runner = ExperimentRunner(
            workers=2,
            cache_dir=tmp_path,
            mp_context=multiprocessing.get_context("spawn"),
        )
        handle = runner.attach("bed", {"name": "bed"})
        assert handle.path is not None and handle.path.exists()
        assert runner.map(setup_seed_task, TASKS, setup=handle) == [
            ("bed", task, seed) for task, seed in EXPECTED
        ]
        assert spilled(tmp_path) == [handle.path.name]
