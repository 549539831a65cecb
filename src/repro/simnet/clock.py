"""Virtual time: the discrete-event core of the network simulator.

Everything in :mod:`repro.simnet` advances a single :class:`SimClock` —
a priority queue of ``(fire_time, insertion_order, callback)`` events.
Two properties make whole simulations exactly reproducible:

- events at the same virtual time fire in insertion order (the heap is
  tie-broken by a monotonically increasing sequence number), and
- the only randomness anywhere is drawn from seeded
  :class:`random.Random` instances whose draw order is itself fixed by
  the event order.

Concurrency is expressed with generator coroutines: a protocol step is
a generator that ``yield``\\ s :class:`SimFuture` objects (or a
:func:`gather` of several) and is driven by :func:`spawn`.  This keeps
multi-phase flows — DHT lookup, then routing, then a fan-out of query
forwards — readable as straight-line code while many of them interleave
in virtual time.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Callable, Generator, Iterable

__all__ = ["SimClock", "SimFuture", "spawn", "gather", "arrival_times"]


class SimClock:
    """A deterministic discrete-event scheduler with a millisecond clock.

    Time only moves inside :meth:`run`, and only forward, to the fire
    time of the next scheduled event.  Nothing here is wall-clock: a
    simulated hour of heavy traffic runs in however long the callbacks
    take to execute.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._cancelled: set[int] = set()

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events still scheduled (including cancelled ones)."""
        return len(self._heap)

    def schedule(self, delay_ms: float, fn: Callable[[], None]) -> int:
        """Run ``fn`` ``delay_ms`` virtual milliseconds from now.

        Returns a handle usable with :meth:`cancel`.
        """
        if delay_ms < 0:
            raise ValueError(f"delay_ms must be >= 0, got {delay_ms}")
        return self.schedule_at(self._now + delay_ms, fn)

    def schedule_at(self, time_ms: float, fn: Callable[[], None]) -> int:
        """Run ``fn`` at absolute virtual time ``time_ms``."""
        if time_ms < self._now:
            raise ValueError(
                f"cannot schedule at {time_ms} ms; clock is at {self._now} ms"
            )
        handle = next(self._seq)
        heapq.heappush(self._heap, (time_ms, handle, fn))
        return handle

    def sleep(self, delay_ms: float) -> SimFuture:
        """A future resolving ``delay_ms`` from now: a coroutine's pause."""
        future = SimFuture()
        self.schedule(delay_ms, future.resolve)
        return future

    def cancel(self, handle: int) -> None:
        """Cancel a scheduled event (a no-op if it already fired)."""
        self._cancelled.add(handle)

    def run(
        self, *, until_ms: float | None = None, max_events: int = 5_000_000
    ) -> int:
        """Fire events in order until the heap drains (or ``until_ms``).

        Returns the number of events fired.  ``max_events`` is a
        runaway-simulation guard (a retry loop that never converges);
        exceeding it raises ``RuntimeError``.
        """
        fired = 0
        while self._heap:
            time_ms, handle, fn = self._heap[0]
            if until_ms is not None and time_ms > until_ms:
                break
            heapq.heappop(self._heap)
            if handle in self._cancelled:
                self._cancelled.discard(handle)
                continue
            self._now = max(self._now, time_ms)
            fn()
            fired += 1
            if fired > max_events:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events; "
                    "likely a retry loop that never converges"
                )
        if until_ms is not None:
            self._now = max(self._now, until_ms)
        return fired

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.1f}ms, pending={self.pending})"


class SimFuture:
    """A write-once value that simulation coroutines can wait on."""

    __slots__ = ("_done", "_value", "_callbacks")

    def __init__(self) -> None:
        self._done = False
        self._value: Any = None
        self._callbacks: list[Callable[[SimFuture], None]] = []

    @property
    def done(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise RuntimeError("future is not resolved yet")
        return self._value

    def resolve(self, value: Any = None) -> None:
        """Set the value and fire callbacks (exactly once)."""
        if self._done:
            raise RuntimeError("future already resolved")
        self._done = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def add_done_callback(self, fn: Callable[[SimFuture], None]) -> None:
        """Call ``fn(self)`` when resolved (immediately if already done)."""
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def __repr__(self) -> str:
        state = f"value={self._value!r}" if self._done else "pending"
        return f"SimFuture({state})"


def spawn(coroutine: Generator[SimFuture, Any, Any]) -> SimFuture:
    """Drive a generator coroutine; resolve with its ``return`` value.

    The coroutine ``yield``\\ s :class:`SimFuture` objects; each yielded
    future's value is sent back into the generator when it resolves.
    """
    result = SimFuture()

    def step(resolved: SimFuture | None = None) -> None:
        try:
            waited = coroutine.send(None if resolved is None else resolved.value)
        except StopIteration as stop:
            result.resolve(stop.value)
            return
        waited.add_done_callback(step)

    step()
    return result


def gather(futures: Iterable[SimFuture]) -> SimFuture:
    """A future resolving to the list of all input futures' values.

    Resolution order does not matter; the result list preserves the
    input order.  An empty input resolves immediately to ``[]``.
    """
    pending = list(futures)
    result = SimFuture()
    if not pending:
        result.resolve([])
        return result
    remaining = {"count": len(pending)}

    def on_done(_: SimFuture) -> None:
        remaining["count"] -= 1
        if remaining["count"] == 0:
            result.resolve([future.value for future in pending])

    for future in pending:
        future.add_done_callback(on_done)
    return result


def arrival_times(
    count: int,
    *,
    interarrival_ms: float,
    arrivals: str,
    seed: int,
    start_ms: float = 0.0,
) -> list[float]:
    """Virtual submission times of ``count`` workload arrivals.

    ``interarrival_ms`` is the mean gap (the offered load); ``arrivals``
    is ``"poisson"`` (exponential gaps drawn from ``random.Random(seed)``)
    or ``"uniform"`` (fixed gaps).  The first arrival is at ``start_ms``.
    """
    if interarrival_ms <= 0:
        raise ValueError(f"interarrival_ms must be positive, got {interarrival_ms}")
    if arrivals not in ("poisson", "uniform"):
        raise ValueError(f"arrivals must be poisson or uniform, got {arrivals!r}")
    rng = random.Random(seed)
    times: list[float] = []
    at_ms = start_ms
    for _ in range(count):
        times.append(at_ms)
        at_ms += (
            rng.expovariate(1.0 / interarrival_ms)
            if arrivals == "poisson"
            else interarrival_ms
        )
    return times
