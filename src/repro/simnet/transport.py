"""Message delivery between peer endpoints with load-dependent latency.

The passive cost model (:mod:`repro.net.cost`) counts messages; this
transport *delivers* them in virtual time.  Each transmission pays

- a service time from the :class:`~repro.net.latency.LatencyProfile`
  (per-message overhead + payload transmission, scaled by the receiving
  peer's :class:`~repro.simnet.faults.FaultPlan` slowdown), and
- an M/M/1 queueing delay from
  :func:`~repro.net.latency.mm1_response_time`: the destination link's
  utilization is estimated from its recent arrival history, so
  concurrent queries visibly inflate each other's latency — the
  "response times are a highly superlinear function of load" effect of
  Section 8.2, now observable instead of asserted.

Faults are applied here: per-message loss (seeded RNG), crashed peers
swallowing traffic in both directions, and scheduled churn events
registered on the clock at construction time.
"""

from __future__ import annotations

import random
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..net.cost import CostModel, MessageKinds
from ..net.latency import LatencyProfile, mm1_response_time
from .clock import SimClock
from .faults import FaultPlan

__all__ = ["Message", "TransportStats", "Transport"]


@dataclass(frozen=True)
class Message:
    """One typed message as seen by a receiving endpoint."""

    kind: str
    src: str
    dst: str
    bits: int
    payload: Any
    sent_at_ms: float


@dataclass
class TransportStats:
    """Running totals of what the wire actually did."""

    sent: int = 0
    delivered: int = 0
    lost: int = 0
    dropped_crashed: int = 0
    dropped_unknown: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)

    @property
    def dropped(self) -> int:
        """Everything that left a sender and never arrived."""
        return self.lost + self.dropped_crashed + self.dropped_unknown


class Transport:
    """Delivers typed messages between registered peer endpoints.

    ``send`` dispatches to the destination's registered handler;
    ``send_via`` routes hop-by-hop through intermediate peers (the DHT
    lookup path), charging each hop's latency and link load.  Any leg
    can lose the message; senders learn nothing — reliability is the
    RPC layer's job (:mod:`repro.simnet.rpc`).
    """

    def __init__(
        self,
        clock: SimClock,
        *,
        profile: LatencyProfile | None = None,
        faults: FaultPlan | None = None,
        seed: int = 0,
        cost: CostModel | None = None,
        queue_window_ms: float = 1000.0,
        max_utilization: float = 0.95,
    ) -> None:
        if queue_window_ms <= 0:
            raise ValueError(
                f"queue_window_ms must be positive, got {queue_window_ms}"
            )
        if not 0.0 <= max_utilization < 1.0:
            raise ValueError(
                f"max_utilization must be in [0, 1), got {max_utilization}"
            )
        self.clock = clock
        self.profile = profile or LatencyProfile()
        #: Optional per-link profile override ``(src, dst) -> profile``;
        #: the executor installs its topology's ``latency_profile_of``
        #: here (returning None keeps the base profile for that link).
        #: Unset, every link uses :attr:`profile`.
        self.profile_of: Callable[[str, str], LatencyProfile | None] | None = None
        self.faults = faults or FaultPlan()
        self.rng = random.Random(seed)
        self.cost = cost or CostModel()
        self.queue_window_ms = queue_window_ms
        self.max_utilization = max_utilization
        self.stats = TransportStats()
        self._handlers: dict[str, Callable[[Message], None]] = {}
        self._down: set[str] = set()
        #: Per-destination-link arrival times within the sliding window,
        #: the basis of the M/M/1 utilization estimate.
        self._arrivals: dict[str, deque[float]] = defaultdict(deque)
        for event in self.faults.churn:
            action = self.crash if event.kind == "crash" else self.recover
            clock.schedule_at(
                event.at_ms, lambda a=action, p=event.peer_id: a(p)
            )

    # -- endpoints and peer state -------------------------------------------

    def register(self, peer_id: str, handler: Callable[[Message], None]) -> None:
        """Attach ``peer_id``'s message handler (one per peer)."""
        if peer_id in self._handlers:
            raise ValueError(f"endpoint {peer_id!r} already registered")
        self._handlers[peer_id] = handler

    def crash(self, peer_id: str) -> None:
        """Abruptly take ``peer_id`` off the network (drops in-flight traffic)."""
        self._down.add(peer_id)

    def recover(self, peer_id: str) -> None:
        """Bring a crashed peer back."""
        self._down.discard(peer_id)

    def is_down(self, peer_id: str) -> bool:
        return peer_id in self._down

    def slowdown(self, peer_id: str) -> float:
        """The fault plan's service-time multiplier for ``peer_id``."""
        return self.faults.slowdown(peer_id)

    # -- latency model -------------------------------------------------------

    def _profile_for(self, dst: str, src: str | None) -> LatencyProfile:
        if self.profile_of is not None and src is not None:
            override = self.profile_of(src, dst)
            if override is not None:
                return override
        return self.profile

    def service_time_ms(
        self, dst: str, bits: int, *, src: str | None = None
    ) -> float:
        """Wire service time for one message to ``dst`` (no queueing)."""
        profile = self._profile_for(dst, src)
        base = (
            profile.per_message_ms + bits / 1000.0 * profile.per_kilobit_ms
        )
        return base * self.faults.slowdown(dst)

    def link_delay_ms(
        self, dst: str, bits: int, *, src: str | None = None
    ) -> float:
        """Total one-way delay to ``dst`` now: service time x M/M/1 factor.

        The destination link's utilization is estimated as (arrivals in
        the last ``queue_window_ms``) x (this message's service time) /
        window, clamped to ``max_utilization`` so the queue stays
        stable; :func:`mm1_response_time` then turns service time into
        response time.  Recording the arrival *before* estimating means
        an otherwise idle link still pays a tiny queueing factor — and a
        busy one pays superlinearly.
        """
        service = self.service_time_ms(dst, bits, src=src)
        if service <= 0:
            return 0.0
        window = self._arrivals[dst]
        now = self.clock.now
        while window and window[0] <= now - self.queue_window_ms:
            window.popleft()
        window.append(now)
        utilization = min(
            self.max_utilization, len(window) * service / self.queue_window_ms
        )
        return mm1_response_time(service, utilization)

    def link_utilization(self, dst: str) -> float:
        """Fraction of the sliding window occupied by arrivals at ``dst``."""
        window = self._arrivals[dst]
        now = self.clock.now
        while window and window[0] <= now - self.queue_window_ms:
            window.popleft()
        service = self.service_time_ms(dst, 0)
        return min(
            self.max_utilization, len(window) * service / self.queue_window_ms
        )

    # -- transmission --------------------------------------------------------

    def _transmit(
        self,
        kind: str,
        src: str,
        dst: str,
        bits: int,
        on_deliver: Callable[[], bool],
    ) -> None:
        """One point-to-point transmission; ``on_deliver`` fires at arrival.

        The sender is charged (cost + stats) whether or not the message
        survives: bits leave the NIC before the network eats them.
        ``on_deliver`` returns whether an endpoint accepted the message;
        ``False`` means it arrived at a black hole (no such endpoint).
        """
        self.cost.record(kind, bits=bits)
        self.stats.sent += 1
        self.stats.by_kind[kind] = self.stats.by_kind.get(kind, 0) + 1
        if src in self._down:
            self.stats.dropped_crashed += 1
            return
        if self.faults.loss_rate and self.rng.random() < self.faults.loss_rate:
            self.stats.lost += 1
            return
        delay = self.link_delay_ms(dst, bits, src=src)

        def deliver() -> None:
            if dst in self._down:
                self.stats.dropped_crashed += 1
                return
            if on_deliver():
                self.stats.delivered += 1
            else:
                self.stats.dropped_unknown += 1

        self.clock.schedule(delay, deliver)

    def send(
        self,
        kind: str,
        src: str,
        dst: str,
        *,
        bits: int = 0,
        payload: Any = None,
    ) -> None:
        """Send one message to ``dst``'s registered handler.

        Fire-and-forget: the sender cannot observe loss.  A destination
        with no registered endpoint is a black hole (counted in
        ``stats.dropped_unknown``) — exactly what a stale directory Post
        pointing at a vanished peer looks like from the outside.
        """
        message = Message(
            kind=kind,
            src=src,
            dst=dst,
            bits=bits,
            payload=payload,
            sent_at_ms=self.clock.now,
        )

        def deliver() -> bool:
            handler = self._handlers.get(dst)
            if handler is None:
                return False
            handler(message)
            return True

        self._transmit(kind, src, dst, bits, deliver)

    def send_via(
        self,
        kind: str,
        src: str,
        dst: str,
        *,
        via: Sequence[str] = (),
        bits: int = 0,
        payload: Any = None,
        hop_kind: str = MessageKinds.DHT_HOP,
        on_deliver: Callable[[Message], None] | None = None,
    ) -> None:
        """Route a message hop-by-hop along ``src -> via... -> dst``.

        Intermediate legs are charged as ``hop_kind`` messages with no
        payload bits (matching the directory's hop accounting); the
        final leg carries the payload.  A lost leg or a crashed
        intermediate kills the whole route silently.  ``on_deliver``
        overrides the destination's registered handler (used by the RPC
        layer to attach per-request continuations).
        """
        path = [src, *via, dst]

        def hop(index: int) -> bool:
            leg(index)
            return True

        def leg(index: int) -> None:
            hop_src, hop_dst = path[index], path[index + 1]
            final = index + 1 == len(path) - 1
            if not final:
                self._transmit(
                    hop_kind, hop_src, hop_dst, 0, lambda: hop(index + 1)
                )
                return
            message = Message(
                kind=kind,
                src=src,
                dst=dst,
                bits=bits,
                payload=payload,
                sent_at_ms=self.clock.now,
            )

            def deliver() -> bool:
                if on_deliver is not None:
                    on_deliver(message)
                    return True
                handler = self._handlers.get(dst)
                if handler is None:
                    return False
                handler(message)
                return True

            self._transmit(kind, hop_src, hop_dst, bits, deliver)

        leg(0)

    def __repr__(self) -> str:
        return (
            f"Transport(endpoints={len(self._handlers)}, down={len(self._down)}, "
            f"sent={self.stats.sent}, delivered={self.stats.delivered})"
        )
