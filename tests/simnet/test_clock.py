"""Tests for the discrete-event clock and coroutine primitives."""

import pytest

from repro.simnet.clock import SimClock, SimFuture, gather, spawn


class TestSimClock:
    def test_events_fire_in_time_order(self):
        clock = SimClock()
        fired = []
        clock.schedule(30.0, lambda: fired.append("c"))
        clock.schedule(10.0, lambda: fired.append("a"))
        clock.schedule(20.0, lambda: fired.append("b"))
        clock.run()
        assert fired == ["a", "b", "c"]
        assert clock.now == 30.0

    def test_ties_break_by_insertion_order(self):
        clock = SimClock()
        fired = []
        for label in "abcde":
            clock.schedule(5.0, lambda label=label: fired.append(label))
        clock.run()
        assert fired == list("abcde")

    def test_events_can_schedule_events(self):
        clock = SimClock()
        times = []

        def first():
            times.append(clock.now)
            clock.schedule(7.0, lambda: times.append(clock.now))

        clock.schedule(3.0, first)
        clock.run()
        assert times == [3.0, 10.0]

    def test_cancel(self):
        clock = SimClock()
        fired = []
        handle = clock.schedule(5.0, lambda: fired.append("cancelled"))
        clock.schedule(6.0, lambda: fired.append("kept"))
        clock.cancel(handle)
        clock.run()
        assert fired == ["kept"]

    def test_run_until(self):
        clock = SimClock()
        fired = []
        clock.schedule(10.0, lambda: fired.append(1))
        clock.schedule(100.0, lambda: fired.append(2))
        clock.run(until_ms=50.0)
        assert fired == [1]
        assert clock.now == 50.0
        clock.run()
        assert fired == [1, 2]

    def test_negative_delay_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.schedule(-1.0, lambda: None)

    def test_schedule_in_the_past_rejected(self):
        clock = SimClock()
        clock.schedule(10.0, lambda: None)
        clock.run()
        with pytest.raises(ValueError):
            clock.schedule_at(5.0, lambda: None)

    def test_runaway_guard(self):
        clock = SimClock()

        def forever():
            clock.schedule(1.0, forever)

        clock.schedule(0.0, forever)
        with pytest.raises(RuntimeError):
            clock.run(max_events=100)


class TestSimFuture:
    def test_resolve_once(self):
        future = SimFuture()
        assert not future.done
        future.resolve(42)
        assert future.done and future.value == 42
        with pytest.raises(RuntimeError):
            future.resolve(43)

    def test_value_before_resolve_raises(self):
        with pytest.raises(RuntimeError):
            SimFuture().value

    def test_callback_after_resolution_fires_immediately(self):
        future = SimFuture()
        future.resolve("x")
        seen = []
        future.add_done_callback(lambda f: seen.append(f.value))
        assert seen == ["x"]


class TestCoroutines:
    def test_spawn_returns_final_value(self):
        clock = SimClock()

        def sleep(delay):
            future = SimFuture()
            clock.schedule(delay, future.resolve)
            return future

        def flow():
            yield sleep(5.0)
            yield sleep(5.0)
            return clock.now

        result = spawn(flow())
        clock.run()
        assert result.value == 10.0

    def test_sleep_pauses_a_coroutine(self):
        clock = SimClock()

        def flow():
            yield clock.sleep(5.0)
            yield clock.sleep(0.0)
            return clock.now

        result = spawn(flow())
        assert not result.done
        clock.run()
        assert result.value == 5.0

    def test_gather_preserves_order(self):
        clock = SimClock()
        futures = [SimFuture() for _ in range(3)]
        # Resolve out of order.
        clock.schedule(3.0, lambda: futures[0].resolve("a"))
        clock.schedule(1.0, lambda: futures[1].resolve("b"))
        clock.schedule(2.0, lambda: futures[2].resolve("c"))
        everything = gather(futures)
        clock.run()
        assert everything.value == ["a", "b", "c"]

    def test_gather_empty_resolves_immediately(self):
        assert gather([]).value == []
