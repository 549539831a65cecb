"""Tests for seeded membership schedules.

The property that everything downstream leans on: a churn trace is a
pure function of ``(sorted peer ids, config, seed)`` — independent of
peer-list order, of other RNG activity in the process, and (pinned via
``ExperimentRunner.map`` below) of the worker count the surrounding
experiment fans out with.
"""

from __future__ import annotations

import random

import pytest

from repro.churn import ChurnSchedule, MembershipConfig, MembershipEvent
from repro.parallel import ExperimentRunner

PEERS = [f"p{i:02d}" for i in range(8)]
CONFIG = MembershipConfig.for_rate(2.0, horizon_ms=60_000.0)


def schedule_digest_task(task, seed):
    """Worker entrypoint: generate a schedule purely from the task.

    The pool-derived ``seed`` is deliberately unused — the schedule's
    seed travels inside the task, so the digest cannot depend on task
    position or worker count.
    """
    del seed
    config = MembershipConfig.for_rate(
        task["rate"], horizon_ms=task["horizon_ms"]
    )
    schedule = ChurnSchedule.generate(
        task["peer_ids"], config, seed=task["seed"]
    )
    return schedule.trace_digest()


class TestMembershipEvent:
    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="at_ms"):
            MembershipEvent(at_ms=-1.0, peer_id="p00", kind="crash")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            MembershipEvent(at_ms=0.0, peer_id="p00", kind="explode")

    def test_rejects_empty_peer(self):
        with pytest.raises(ValueError, match="peer_id"):
            MembershipEvent(at_ms=0.0, peer_id="", kind="leave")


class TestMembershipConfig:
    def test_for_rate_matches_departure_rate(self):
        config = MembershipConfig.for_rate(2.0, horizon_ms=60_000.0)
        assert config.mean_session_ms == pytest.approx(30_000.0)
        assert config.mean_downtime_ms == pytest.approx(7_500.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="churn rate"):
            MembershipConfig.for_rate(0.0)

    def test_rejects_nonpositive_sessions(self):
        with pytest.raises(ValueError, match="positive"):
            MembershipConfig(mean_session_ms=0.0)

    def test_rejects_crash_fraction_out_of_range(self):
        with pytest.raises(ValueError, match="crash_fraction"):
            MembershipConfig(crash_fraction=1.5)


class TestGenerate:
    def test_same_inputs_same_trace(self):
        first = ChurnSchedule.generate(PEERS, CONFIG, seed=7)
        second = ChurnSchedule.generate(PEERS, CONFIG, seed=7)
        assert first.events == second.events
        assert first.trace_digest() == second.trace_digest()

    def test_trace_independent_of_peer_order(self):
        shuffled = list(PEERS)
        random.Random(99).shuffle(shuffled)
        assert (
            ChurnSchedule.generate(PEERS, CONFIG, seed=7).trace_digest()
            == ChurnSchedule.generate(shuffled, CONFIG, seed=7).trace_digest()
        )

    def test_trace_varies_with_seed(self):
        assert (
            ChurnSchedule.generate(PEERS, CONFIG, seed=7).trace_digest()
            != ChurnSchedule.generate(PEERS, CONFIG, seed=8).trace_digest()
        )

    def test_events_alternate_departure_and_recovery_per_peer(self):
        schedule = ChurnSchedule.generate(PEERS, CONFIG, seed=7)
        assert len(schedule) > 0
        for peer_id in PEERS:
            kinds = [event.kind for event in schedule.events_for(peer_id)]
            for index, kind in enumerate(kinds):
                if index % 2 == 0:
                    assert kind in ("crash", "leave")
                else:
                    assert kind == "recover"

    def test_all_events_inside_horizon_and_time_ordered(self):
        schedule = ChurnSchedule.generate(PEERS, CONFIG, seed=7)
        times = [event.at_ms for event in schedule]
        assert times == sorted(times)
        assert all(0 <= t < CONFIG.horizon_ms for t in times)

    def test_rejects_event_past_horizon(self):
        event = MembershipEvent(at_ms=10.0, peer_id="p00", kind="crash")
        with pytest.raises(ValueError, match="past the horizon"):
            ChurnSchedule(
                [event], horizon_ms=5.0
            )


class TestWorkerCountInvariance:
    """Fixed seed -> bit-identical churn trace at any ``--workers``."""

    TASKS = [
        {"peer_ids": PEERS, "rate": rate, "horizon_ms": 45_000.0, "seed": 23}
        for rate in (0.5, 1.0, 2.0, 4.0)
    ]

    def test_digests_identical_at_any_worker_count(self):
        serial = ExperimentRunner(workers=1).map(
            schedule_digest_task, self.TASKS
        )
        pooled = ExperimentRunner(workers=2).map(
            schedule_digest_task, self.TASKS
        )
        assert serial == pooled

    def test_digest_depends_on_task_not_position(self):
        reversed_results = ExperimentRunner(workers=1).map(
            schedule_digest_task, list(reversed(self.TASKS))
        )
        forward_results = ExperimentRunner(workers=1).map(
            schedule_digest_task, self.TASKS
        )
        assert reversed_results == list(reversed(forward_results))
