"""The directory as a live service: membership, maintenance, and queries
on one virtual clock.

:class:`ChurnService` binds a fully published
:class:`~repro.minerva.engine.MinervaEngine` to a
:class:`~repro.churn.membership.ChurnSchedule` and a
:class:`~repro.churn.maintenance.MaintenanceConfig`, pre-scheduling
every membership event and every maintenance tick on a
:class:`~repro.simnet.executor.SimNetExecutor`'s clock.  Queries
submitted through :meth:`run_workload` then genuinely race against
failures: a peer the directory routed to may be down by the time the
forward arrives, a directory node may crash holding its key range, and
the maintenance timers (repost, TTL sweep, stabilization) race to
repair the damage.

Failure semantics, per event kind:

- **crash** — the peer's transport goes silent immediately, but its
  ring node (with its directory partition) lingers until the next
  stabilization tick *detects* the crash and evicts it; until then the
  partition serves nothing and lookups that land there time out.
  Eviction loses the node's store; a re-replication pass restores keys
  from surviving replicas.  The peer's Posts stay in the directory,
  stale, until a TTL sweep expires them.
- **leave** — graceful: the peer hands its key range to its successor,
  withdraws its Posts, and goes silent.
- **recover** — the peer's transport comes back, its node rejoins the
  ring (taking back its key range), and it reposts everything fresh.

All timers are finite — ticks are pre-scheduled up to the schedule's
horizon — so :meth:`SimClock.run` always terminates.  Everything is
driven by the virtual clock and seeded RNG streams; reprolint RPRL003
keeps wall-clock calls out of this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence, TypeVar

from ..datasets.queries import Query
from ..minerva.engine import MinervaEngine, check_query_knobs
from ..net.latency import LatencyProfile
from ..parallel.seeding import derive_seed
from ..routing.base import PeerSelector
from ..simnet.clock import SimClock, arrival_times
from ..simnet.executor import NetworkedQueryOutcome, SimNetExecutor
from ..simnet.faults import FaultPlan
from ..simnet.rpc import RetryPolicy
from .maintenance import DirectoryMaintainer, MaintenanceConfig
from .membership import ChurnSchedule, MembershipEvent

__all__ = ["ChurnStats", "ChurnService", "DirectoryEvent"]

_T = TypeVar("_T")


@dataclass(frozen=True)
class DirectoryEvent:
    """One observable membership or directory-content change.

    Emitted synchronously (at the event's virtual time) to listeners
    registered via :meth:`ChurnService.subscribe` — the hook the serving
    layer's churn-aware caches key their invalidation off:

    - ``crash`` / ``leave`` — ``peer_id`` went silent (plans routing to
      it must be repaired or dropped);
    - ``recover`` — ``peer_id`` is back and reposted ``terms`` fresh
      (it is a candidate that cached plans never considered);
    - ``repost`` — a maintenance repost *changed* the stored statistics
      for ``terms`` (pure TTL refreshes are not reported);
    - ``expire`` — a TTL sweep dropped stale Posts for ``terms``;
    - ``evict`` — stabilization evicted ``peer_id``'s directory node
      and re-replicated its key range;
    - ``reelect`` — the super-peer tier re-elected a super-peer
      after its predecessor went down: ``peer_id`` is the *new* super,
      ``members`` the cluster's surviving peers, ``terms`` the terms
      whose merged cluster synopses were rebuilt.  Serving caches use
      ``members`` to invalidate exactly the affected cluster's plans.
    """

    kind: str
    at_ms: float
    peer_id: str = ""
    terms: tuple[str, ...] = ()
    members: tuple[str, ...] = ()


@dataclass
class ChurnStats:
    """What the service did while the simulation ran.

    Membership counters tally events actually applied (an event for an
    already-down peer is a no-op); maintenance counters tally repair
    work; ``maintenance_messages``/``maintenance_bits`` are the
    engine-cost delta charged by repost and rejoin publishes — the
    directory upkeep traffic that the churn experiments trade against
    staleness.
    """

    crashes: int = 0
    leaves: int = 0
    recoveries: int = 0
    reposts: int = 0
    posts_expired: int = 0
    nodes_evicted: int = 0
    keys_re_replicated: int = 0
    maintenance_messages: int = 0
    maintenance_bits: int = 0


class ChurnService:
    """Runs one engine's directory as a live service under churn.

    Construction pre-schedules the whole membership trace and every
    repost/stabilization tick up to ``schedule.horizon_ms`` on a fresh
    :class:`SimNetExecutor`; :meth:`run_workload` interleaves a query
    workload with them and drives the clock to completion.  With the
    same ``(engine setup, schedule, config, seed)`` two runs are
    bit-identical.
    """

    def __init__(
        self,
        engine: MinervaEngine,
        schedule: ChurnSchedule,
        *,
        maintenance: MaintenanceConfig | None = None,
        profile: LatencyProfile | None = None,
        faults: FaultPlan | None = None,
        policy: RetryPolicy | None = None,
        seed: int = 0,
    ) -> None:
        self.engine = engine
        self.schedule = schedule
        self.maintenance = maintenance or MaintenanceConfig()
        self.seed = seed
        self.executor = SimNetExecutor(
            engine, profile=profile, faults=faults, policy=policy, seed=seed
        )
        self.maintainer = DirectoryMaintainer(engine, self.maintenance)
        self.stats = ChurnStats()
        #: Crashed peers stabilization has not yet detected: their ring
        #: nodes still stand and the topology has not been told (super-
        #: peer re-election shares the crash *detection* latency).
        self._pending_eviction: list[str] = []
        self._listeners: list[Callable[[DirectoryEvent], None]] = []
        self._schedule_all()

    def subscribe(self, listener: Callable[[DirectoryEvent], None]) -> None:
        """Register a callback for every :class:`DirectoryEvent`.

        Listeners run synchronously inside the clock callback that
        caused the change, in subscription order — so a cache hears
        about a crash before any query submitted later in virtual time
        can hit a stale plan.
        """
        self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[DirectoryEvent], None]) -> None:
        """Remove a previously subscribed listener.

        Raises ``ValueError`` if the listener was never subscribed (or
        was already removed) — silently ignoring that hides double-
        unsubscribe bugs in cache wiring.
        """
        self._listeners.remove(listener)

    def _emit(
        self,
        kind: str,
        *,
        peer_id: str = "",
        terms: tuple[str, ...] = (),
        members: tuple[str, ...] = (),
    ) -> None:
        if not self._listeners:
            return
        event = DirectoryEvent(
            kind=kind,
            at_ms=self.clock.now,
            peer_id=peer_id,
            terms=terms,
            members=members,
        )
        # Snapshot: a listener may unsubscribe itself mid-dispatch.
        for listener in list(self._listeners):
            listener(event)

    @property
    def clock(self) -> SimClock:
        return self.executor.clock

    def live_peers(self) -> list[str]:
        """Peers currently up (transport answering), sorted."""
        return [
            peer_id
            for peer_id in sorted(self.engine.peers)
            if not self.executor.transport.is_down(peer_id)
        ]

    # -- timer wiring ------------------------------------------------------

    def _schedule_all(self) -> None:
        """Pre-schedule membership events and finite maintenance ticks.

        Everything lands on the clock before it runs, so the heap
        drains (and the simulation terminates) once the last event past
        the horizon has fired.  Same-time ordering is fixed by
        insertion order: membership events first, then repost ticks,
        then stabilization ticks.
        """
        clock = self.executor.clock
        for event in self.schedule:
            clock.schedule_at(
                event.at_ms, lambda e=event: self._apply_event(e)
            )
        horizon = self.schedule.horizon_ms
        at_ms = self.maintenance.repost_interval_ms
        while at_ms < horizon:
            clock.schedule_at(at_ms, self._repost_tick)
            at_ms += self.maintenance.repost_interval_ms
        at_ms = self.maintenance.stabilize_interval_ms
        while at_ms < horizon:
            clock.schedule_at(at_ms, self._stabilize_tick)
            at_ms += self.maintenance.stabilize_interval_ms

    def _charged(self, operation: Callable[[], _T]) -> _T:
        """Run a maintenance operation, crediting its engine-cost delta."""
        cost = self.engine.cost
        messages_before = cost.total_messages
        bits_before = cost.total_bits
        result = operation()
        self.stats.maintenance_messages += cost.total_messages - messages_before
        self.stats.maintenance_bits += cost.total_bits - bits_before
        return result

    # -- membership events -------------------------------------------------

    def _apply_event(self, event: MembershipEvent) -> None:
        if event.kind == "crash":
            self._crash(event.peer_id)
        elif event.kind == "leave":
            self._leave(event.peer_id)
        else:
            self._recover(event.peer_id)

    def _crash(self, peer_id: str) -> None:
        """Abrupt death: transport silent now, ring eviction only on
        the next stabilization tick (crash *detection* latency)."""
        if self.executor.transport.is_down(peer_id):
            return
        self.executor.transport.crash(peer_id)
        self._pending_eviction.append(peer_id)
        self.stats.crashes += 1
        self._emit("crash", peer_id=peer_id)

    def _leave(self, peer_id: str) -> None:
        """Graceful departure: key handoff, Posts withdrawn, then silent."""
        if self.executor.transport.is_down(peer_id):
            return
        node_of_peer = self.engine.directory._node_of_peer
        node_id = node_of_peer.get(peer_id)
        if node_id is not None and len(self.engine.ring) > 1:
            del node_of_peer[peer_id]
            self.engine.ring.remove_node(node_id)
            self.engine.ring.re_replicate(self.maintenance.replicas)
        self.engine.purge_posts_of(peer_id)
        self.maintainer.forget_peer(peer_id)
        self.executor.transport.crash(peer_id)
        self.stats.leaves += 1
        self._emit("leave", peer_id=peer_id)
        # Graceful departure is announced, so the topology reacts now
        # (a crash waits for stabilization to *detect* it).
        self._notify_topology_down(peer_id)

    def _recover(self, peer_id: str) -> None:
        """Return: transport up, ring rejoin (if evicted), fresh Posts."""
        if not self.executor.transport.is_down(peer_id):
            return
        self.executor.transport.recover(peer_id)
        if peer_id in self._pending_eviction:
            # Crashed and back before stabilization noticed: the node
            # (store intact) never left the ring and the topology never
            # saw the peer down; nothing to repair.
            self._pending_eviction.remove(peer_id)
        else:
            self.engine.topology.handle_peer_up(peer_id)
        self.stats.reposts += self._charged(
            lambda: self.maintainer.rejoin(peer_id, self.clock.now)
        )
        self.stats.recoveries += 1
        peer = self.engine.peers[peer_id]
        self._emit(
            "recover",
            peer_id=peer_id,
            terms=tuple(
                sorted(
                    term
                    for term in self.engine._published_terms
                    if term in peer.index
                )
            ),
        )

    def _notify_topology_down(self, peer_id: str) -> None:
        """Tell the topology a peer is gone; emit ``reelect`` if it acted."""
        reelection = self.engine.topology.handle_peer_down(peer_id)
        if reelection is not None:
            self._emit(
                "reelect",
                peer_id=reelection.new_super,
                terms=reelection.terms,
                members=reelection.members,
            )

    # -- maintenance ticks -------------------------------------------------

    def _repost_tick(self) -> None:
        """Every live ring member refreshes its Posts."""
        node_of_peer = self.engine.directory._node_of_peer
        for peer_id in self.live_peers():
            if peer_id not in node_of_peer:
                continue  # evicted and not yet recovered
            count, changed = self._charged(
                lambda p=peer_id: self.maintainer.repost_detailed(  # type: ignore[misc]
                    p, self.clock.now
                )
            )
            self.stats.reposts += count
            if changed:
                self._emit("repost", peer_id=peer_id, terms=changed)

    def _stabilize_tick(self) -> None:
        """Detect crashed nodes, repair the ring, expire stale Posts."""
        if self._pending_eviction:
            pending = sorted(self._pending_eviction)
            evicted, copied = self.maintainer.evict_crashed(
                self._pending_eviction
            )
            self._pending_eviction.clear()
            self.stats.nodes_evicted += evicted
            self.stats.keys_re_replicated += copied
            for peer_id in pending:
                self._emit("evict", peer_id=peer_id)
            # Detection fires here, so re-election shares the eviction
            # latency; sorted order keeps same-tick processing
            # deterministic regardless of crash insertion order.
            for peer_id in pending:
                self._notify_topology_down(peer_id)
        expired = self.maintainer.sweep_detailed(self.clock.now)
        self.stats.posts_expired += len(expired)
        if expired:
            self._emit(
                "expire",
                terms=tuple(sorted({term for term, _ in expired})),
            )

    # -- workloads ---------------------------------------------------------

    def pick_initiator(self, query: Query) -> str:
        """A deterministic live initiator (all peers if none are up)."""
        candidates = self.live_peers() or sorted(self.engine.peers)
        return candidates[query.query_id % len(candidates)]

    def run_workload(
        self,
        queries: Sequence[Query],
        selector: PeerSelector,
        *,
        interarrival_ms: float = 100.0,
        arrivals: str = "poisson",
        seed: int | None = None,
        start_ms: float = 0.0,
        max_peers: int = 10,
        k: int = 50,
        peer_k: int | None = None,
        conjunctive: bool = False,
        successor_fallback: bool = True,
        fallback_spares: int = 2,
    ) -> list[NetworkedQueryOutcome]:
        """Run a query workload that races against the scheduled churn.

        Arrival times are drawn up front from a seeded stream (so the
        offered load is independent of what churn does); each query's
        *initiator* is chosen only when its arrival fires — among the
        peers alive at that moment — and the query runs with the
        robustness knobs on by default (successor fallback for failed
        directory fetches, ``fallback_spares`` substitute candidates
        for selected peers that die mid-query).  Returns one
        :class:`NetworkedQueryOutcome` per query, in submission order.
        """
        check_query_knobs(
            max_peers=max_peers, k=k, peer_k=peer_k, fallback_spares=fallback_spares
        )
        times = arrival_times(
            len(queries),
            interarrival_ms=interarrival_ms,
            arrivals=arrivals,
            seed=derive_seed(self.seed if seed is None else seed, "churn-workload"),
            start_ms=start_ms,
        )
        futures: list[Any] = []
        for query, at_ms in zip(queries, times):
            def submit(q: Query = query) -> None:
                futures.append(
                    self.executor.submit(
                        q,
                        selector,
                        initiator_id=self.pick_initiator(q),
                        max_peers=max_peers,
                        k=k,
                        peer_k=peer_k,
                        conjunctive=conjunctive,
                        successor_fallback=successor_fallback,
                        fallback_spares=fallback_spares,
                    )
                )

            self.executor.clock.schedule_at(at_ms, submit)
        self.executor.run()
        return [future.value for future in futures]

    def __repr__(self) -> str:
        return (
            f"ChurnService(peers={len(self.engine.peers)}, "
            f"events={len(self.schedule)}, stats={self.stats})"
        )
