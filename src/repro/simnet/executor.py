"""Networked query execution: the MINERVA pipeline as simulated messages.

:class:`SimNetExecutor` wraps a :class:`~repro.minerva.engine.MinervaEngine`
and runs the engine's query pipeline (entry, seed, assemble, context,
plan, forward, measure — see :mod:`repro.minerva.engine`) over a
:class:`~repro.simnet.transport.Transport` in virtual time.  It supplies
the two stages that become messages:

- **assemble** (:meth:`SimNetExecutor.assemble`) — the networked driver
  of the topology's assembly (:meth:`RoutingTopology.assembly
  <repro.topology.base.RoutingTopology.assembly>`).  Each directory
  request the assembly yields is one RPC: a PeerList fetch travels the
  actual Chord lookup path (each hop a message adding latency and link
  load) to the owning peer; any other request goes straight to the peer
  the topology names (:meth:`~repro.topology.base.RoutingTopology.server_of`).
  One handler per peer answers them all through
  :meth:`~repro.topology.base.RoutingTopology.answer` and sends each
  reply in the request's ``detached`` form (a member fetch's row
  selections are copied there, before churn can move the stored rows),
  and a request that never gets a reply is sent back to the assembly
  as ``None``;
- **forward** — one RPC per selected peer, fanned out concurrently;
  each peer serves its local top-k after a service time, and a peer
  that never answers is replaced by the next-ranked spare.

Routing between the two is a local step at the initiator (a
configurable compute delay).  Every RPC rides the retry policy, so lost
messages and crashed peers cost timeouts and backoff instead of
raising: a query always completes, with empty contributions from peers
that never answered and a record of who they were.  Multiple submitted
queries interleave in virtual time — their messages share links, so the
M/M/1 queueing delay makes response time a superlinear function of
offered load (Section 8.2), which is the whole point of simulating the
network instead of costing it passively.

With an empty :class:`~repro.simnet.faults.FaultPlan` the selected peers,
merged document ids, recall curve and routing counters are identical to
:meth:`MinervaEngine.run_query` — the network changes *when*, not
*what*.  Accounting note: networked runs charge their messages to the
transport's cost model and to a per-query snapshot on the outcome; the
engine's own cost model is not touched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Sequence

from ..datasets.queries import Query
from ..ir.topk import ScoredDocument
from ..minerva.engine import (
    QUERY_HEADER_BITS,
    QUERY_TERM_BITS,
    RESULT_ENTRY_BITS,
    MinervaEngine,
    QueryOutcome,
    check_query_knobs,
)
from ..net.cost import CostModel, MessageKinds
from ..net.latency import LatencyProfile
from ..routing.base import LocalView, PeerSelector
from ..synopses.factory import SynopsisSpec
from ..topology.base import DirectoryRequest, ScopedLists
from .clock import SimClock, SimFuture, arrival_times, gather, spawn
from .faults import FaultPlan
from .rpc import RetryPolicy, RpcHandler, RpcLayer, RpcResult
from .transport import Transport

__all__ = ["NetworkedQueryOutcome", "SimNetExecutor"]


@dataclass(frozen=True)
class NetworkedQueryOutcome:
    """One query's result *and* its journey through the simulated network.

    ``outcome`` is the familiar :class:`~repro.minerva.engine.QueryOutcome`
    (recall curve, merged results, per-query cost snapshot); the fields
    around it say what the network did to get it: virtual start/finish
    times, which selected peers never answered (``timed_out_peers``),
    how many request attempts each forward took, and which query terms'
    directory lookups failed outright (``failed_terms`` — those terms
    contributed an empty PeerList to routing).
    """

    outcome: QueryOutcome
    started_ms: float
    finished_ms: float
    timed_out_peers: tuple[str, ...]
    attempts_by_peer: dict[str, int] = field(repr=False)
    failed_terms: tuple[str, ...] = ()
    directory_attempts: int = 0
    #: Selected peers that died mid-query: their forward timed out even
    #: though the directory still routed to them (stale-route detection).
    stale_routes: int = 0
    #: Spare peers successfully queried in place of dead selected peers.
    substituted_peers: tuple[str, ...] = ()
    #: Spare forwards attempted (successful or not).
    fallback_attempts: int = 0
    #: PeerList fetches retried at the owner's ring successor.
    directory_fallbacks: int = 0
    #: Messages answered by super-peers: the cluster-directory fetch plus
    #: one member fetch per winning cluster (hierarchical topology only).
    super_peer_fetches: int = 0
    #: Hierarchical fetches that fell back to degraded behavior: an
    #: unreachable super-peer (full flat re-fetch) or a winning cluster
    #: whose member fetch never answered (cluster skipped).
    topology_fallbacks: int = 0

    @property
    def latency_ms(self) -> float:
        """Virtual wall-clock from submission start to merged result."""
        return self.finished_ms - self.started_ms

    @property
    def query(self) -> Query:
        return self.outcome.query

    @property
    def selected(self) -> tuple[str, ...]:
        return self.outcome.selected

    @property
    def merged(self) -> tuple[ScoredDocument, ...]:
        return self.outcome.merged

    @property
    def recall_at(self) -> tuple[float, ...]:
        return self.outcome.recall_at

    @property
    def clusters_ranked(self) -> tuple[str, ...]:
        return self.outcome.clusters_ranked

    @property
    def final_recall(self) -> float:
        return self.outcome.final_recall

    @property
    def forward_retries(self) -> int:
        """Query forwards sent beyond the first attempt, summed over peers."""
        return sum(attempts - 1 for attempts in self.attempts_by_peer.values())

    @property
    def degraded(self) -> bool:
        """True when any peer, directory lookup or hierarchical fetch
        failed to answer in time."""
        return bool(
            self.timed_out_peers or self.failed_terms or self.topology_fallbacks
        )

    @property
    def fallback_successes(self) -> int:
        """Dead-peer forwards rescued by a spare peer's answer."""
        return len(self.substituted_peers)


class SimNetExecutor:
    """Runs engine queries as concurrent message flows in virtual time.

    Build it over a fully published engine (endpoint handlers are bound
    to the peers present at construction); then :meth:`submit` queries
    at chosen virtual times — or :meth:`run_workload` for an arrival
    process — and :meth:`run` to drive the clock until every query has
    completed.  Determinism: a fixed ``seed`` fixes message loss and
    workload arrivals, and event ordering is deterministic by
    construction, so two identical runs produce identical latencies.
    """

    def __init__(
        self,
        engine: MinervaEngine,
        *,
        profile: LatencyProfile | None = None,
        faults: FaultPlan | None = None,
        policy: RetryPolicy | None = None,
        seed: int = 0,
        peer_service_ms: float = 10.0,
        directory_service_ms: float = 2.0,
        routing_ms: float = 1.0,
        queue_window_ms: float = 1000.0,
    ) -> None:
        if min(peer_service_ms, directory_service_ms, routing_ms) < 0:
            raise ValueError("service times must be >= 0")
        self.engine = engine
        self.seed = seed
        self.clock = SimClock()
        self.transport = Transport(
            self.clock,
            profile=profile,
            faults=faults,
            seed=seed,
            queue_window_ms=queue_window_ms,
        )
        self.rpc = RpcLayer(self.transport, policy=policy)
        self.peer_service_ms = peer_service_ms
        self.directory_service_ms = directory_service_ms
        self.routing_ms = routing_ms
        self._peer_of_node = {
            node_id: peer_id
            for peer_id, node_id in engine.directory._node_of_peer.items()
        }
        self._jobs: list[SimFuture] = []
        for peer_id in engine.peers:
            directory_handler = self._serve_directory(peer_id)
            for kind in (
                MessageKinds.PEERLIST_FETCH,
                MessageKinds.CLUSTER_FETCH,
                MessageKinds.MEMBER_FETCH,
            ):
                self.rpc.serve(peer_id, kind, directory_handler)
            self.rpc.serve(
                peer_id, MessageKinds.QUERY_FORWARD, self._serve_query(peer_id)
            )
        self.transport.profile_of = engine.topology.latency_profile_of

    # -- server side -----------------------------------------------------------

    def _serve_directory(self, peer_id: str) -> RpcHandler:
        """Handler: answer a directory request from this peer's state."""

        def handler(request: DirectoryRequest) -> tuple[Any, int, float] | None:
            node_id = self.engine.directory._node_of_peer.get(peer_id)
            if node_id is None:
                return None  # departed since construction: no reply
            [(reply, bits)] = self.engine.topology.answer([request], node_id)
            # Sim time passes before the reply arrives: send it detached.
            return request.detached(reply), bits, self.directory_service_ms

        return handler

    def _serve_query(self, peer_id: str) -> RpcHandler:
        """Handler: answer a forwarded query with the local top-k."""

        def handler(
            payload: tuple[tuple[str, ...], int, bool]
        ) -> tuple[tuple[ScoredDocument, ...], int, float] | None:
            terms, k, conjunctive = payload
            peer = self.engine.peers.get(peer_id)
            if peer is None:
                return None  # departed since construction: no reply
            results = tuple(peer.answer_query(terms, k=k, conjunctive=conjunctive))
            return results, RESULT_ENTRY_BITS * len(results), self.peer_service_ms

        return handler

    # -- client side -----------------------------------------------------------

    def submit(
        self,
        query: Query,
        selector: PeerSelector,
        *,
        at_ms: float | None = None,
        initiator_id: str | None = None,
        max_peers: int = 10,
        k: int = 50,
        peer_k: int | None = None,
        conjunctive: bool = False,
        successor_fallback: bool = False,
        fallback_spares: int = 0,
    ) -> SimFuture:
        """Schedule one query at virtual time ``at_ms`` (default: now).

        Returns a future resolving to a :class:`NetworkedQueryOutcome`
        once :meth:`run` has driven the simulation past its completion.
        Parameters mirror :meth:`MinervaEngine.run_query`, plus the
        churn-robustness knobs: with ``successor_fallback`` a failed
        PeerList fetch is retried once at the owner's current ring
        successor (where the replica lives after repair), and
        ``fallback_spares`` ranks that many extra candidates so a
        selected peer that died mid-query can be substituted by the
        next-best one.  Both default off, which preserves the exact
        pre-churn behavior.
        """
        peer_k = check_query_knobs(
            max_peers=max_peers, k=k, peer_k=peer_k, fallback_spares=fallback_spares
        )
        initiator_id = self.engine.resolve_initiator(query, initiator_id)
        result = SimFuture()

        def start() -> None:
            job = spawn(
                self._query_job(
                    query,
                    selector,
                    initiator_id,
                    max_peers,
                    k,
                    peer_k,
                    conjunctive,
                    successor_fallback,
                    fallback_spares,
                )
            )
            job.add_done_callback(lambda done: result.resolve(done.value))

        self.clock.schedule_at(
            self.clock.now if at_ms is None else at_ms, start
        )
        self._jobs.append(result)
        return result

    def run_workload(
        self,
        queries: Sequence[Query],
        selector: PeerSelector,
        *,
        interarrival_ms: float = 100.0,
        arrivals: str = "poisson",
        seed: int | None = None,
        start_ms: float = 0.0,
        **query_kwargs: Any,
    ) -> list[NetworkedQueryOutcome]:
        """Submit a whole workload under an arrival process and run it.

        ``interarrival_ms`` sets the offered load (mean gap between
        query submissions); ``arrivals`` is ``"poisson"`` (exponential
        gaps, seeded) or ``"uniform"`` (fixed gaps).  Queries genuinely
        overlap in virtual time, so higher offered load inflates
        per-query latency through shared-link queueing.
        """
        times = arrival_times(
            len(queries),
            interarrival_ms=interarrival_ms,
            arrivals=arrivals,
            seed=self.seed + 1 if seed is None else seed,
            start_ms=start_ms,
        )
        futures = [
            self.submit(query, selector, at_ms=at_ms, **query_kwargs)
            for query, at_ms in zip(queries, times)
        ]
        self.run()
        return [future.value for future in futures]

    def run(self, *, until_ms: float | None = None) -> list[NetworkedQueryOutcome]:
        """Drive the clock until idle; return all completed outcomes.

        Outcomes are in submission order.  Without ``until_ms`` every
        submitted query is guaranteed to finish (timeouts bound every
        wait), so an unfinished job indicates a simulator bug.
        """
        self.clock.run(until_ms=until_ms)
        unfinished = sum(1 for job in self._jobs if not job.done)
        if unfinished and until_ms is None:
            raise RuntimeError(
                f"{unfinished} queries never completed; simulation stalled"
            )
        return [job.value for job in self._jobs if job.done]

    # -- the query coroutine ---------------------------------------------------

    def _query_job(
        self,
        query: Query,
        selector: PeerSelector,
        initiator_id: str,
        max_peers: int,
        k: int,
        peer_k: int,
        conjunctive: bool,
        successor_fallback: bool = False,
        fallback_spares: int = 0,
    ) -> Generator[SimFuture, Any, NetworkedQueryOutcome]:
        engine = self.engine
        started = self.clock.now
        cost = CostModel()
        local, view = engine.initiator_seed(
            query, initiator_id, k=peer_k, conjunctive=conjunctive
        )

        # Phase 1 — candidate assembly as directory messages.
        scoped = yield from self.assemble(
            query,
            initiator_id,
            cost,
            initiator=view,
            conjunctive=conjunctive,
            max_peers=max_peers,
            successor_fallback=successor_fallback,
        )

        # Phase 2 — routing, a local computation at the initiator; the
        # ranking runs past max_peers by the spares substitution may use.
        context = engine.topology.context_for(
            query, scoped, initiator=view, conjunctive=conjunctive
        )
        plan = engine.topology.plan(
            context, scoped, selector, max_peers + fallback_spares
        )
        selected = plan.selected[:max_peers]
        spares = list(plan.selected[max_peers:])
        if self.routing_ms:
            yield self.clock.sleep(self.routing_ms)

        # Phase 3 — forward to every selected peer concurrently; merge
        # whatever came back before the retries ran out.  A selected
        # peer that never answers is a stale route (the directory still
        # pointed at it); if spares were ranked, the next-best candidate
        # is queried in its place.
        query_bits = QUERY_HEADER_BITS + QUERY_TERM_BITS * len(query.terms)

        def forward(peer_id: str) -> SimFuture:
            return self.rpc.call(
                initiator_id,
                peer_id,
                MessageKinds.QUERY_FORWARD,
                payload=(query.terms, peer_k, conjunctive),
                request_bits=query_bits,
            )

        replies: list[RpcResult] = yield gather(
            [forward(peer_id) for peer_id in selected]
        )
        per_peer: dict[str, tuple[ScoredDocument, ...]] = {}
        timed_out: list[str] = []
        attempts: dict[str, int] = {}
        substituted: list[str] = []
        fallback_attempts = 0
        stale_routes = 0

        def account(peer_id: str, reply: RpcResult) -> bool:
            attempts[peer_id] = attempts.get(peer_id, 0) + reply.attempts
            cost.record(
                MessageKinds.QUERY_FORWARD,
                bits=query_bits * reply.attempts,
                count=reply.attempts,
            )
            if reply.ok:
                per_peer[peer_id] = reply.value
                cost.record(
                    MessageKinds.RESULT_RETURN,
                    bits=RESULT_ENTRY_BITS * len(reply.value),
                )
                return True
            per_peer[peer_id] = ()
            timed_out.append(peer_id)
            return False

        for peer_id, reply in zip(selected, replies):
            if account(peer_id, reply):
                continue
            stale_routes += 1
            while spares:
                candidate = spares.pop(0)
                fallback_attempts += 1
                substitute_reply: RpcResult = yield forward(candidate)
                if account(candidate, substitute_reply):
                    substituted.append(candidate)
                    break

        outcome = engine.measure(
            query,
            plan,
            initiator_id=initiator_id,
            local=local,
            queried=(*selected, *substituted),
            per_peer=per_peer,
            cost=cost.snapshot(),
            k=k,
            conjunctive=conjunctive,
        )
        return NetworkedQueryOutcome(
            outcome=outcome,
            started_ms=started,
            finished_ms=self.clock.now,
            timed_out_peers=tuple(timed_out),
            attempts_by_peer=attempts,
            failed_terms=scoped.failed_terms,
            directory_attempts=scoped.directory_attempts,
            stale_routes=stale_routes,
            substituted_peers=tuple(substituted),
            fallback_attempts=fallback_attempts,
            directory_fallbacks=scoped.directory_fallbacks,
            super_peer_fetches=scoped.super_fetches,
            topology_fallbacks=scoped.topology_fallbacks,
        )

    def assemble(
        self,
        query: Query,
        initiator_id: str,
        cost: CostModel,
        *,
        initiator: LocalView,
        conjunctive: bool,
        max_peers: int,
        successor_fallback: bool,
        spec: SynopsisSpec | None = None,
    ) -> Generator[SimFuture, Any, ScopedLists]:
        """Networked driver: the topology's assembly, one RPC per request.

        A batch of requests goes out concurrently.  With
        ``successor_fallback`` a failed PeerList fetch is retried once at
        the owner's current ring successor before the assembly hears
        ``None``; retries run one at a time, in request order.  Messages
        are charged to ``cost``.  The other keywords go to
        :meth:`~repro.topology.base.RoutingTopology.assembly`.
        """
        steps = self.engine.topology.assembly(
            query,
            initiator=initiator,
            conjunctive=conjunctive,
            max_peers=max_peers,
            spec=spec,
        )
        attempts = fallbacks = 0
        requests = next(steps)
        while True:
            calls = [self._send(request, initiator_id) for request in requests]
            results: list[RpcResult] = yield gather([call for call, _ in calls])
            replies: list[Any] = []
            for request, (_, hops), result in zip(requests, calls, results):
                attempts += result.attempts
                key = request.dht_key
                if key is not None:
                    cost.record(MessageKinds.DHT_HOP, count=hops * result.attempts)
                reply = self._charge(request, result, cost)
                target = (
                    self._fallback_directory_peer(key, result.peer_id)
                    if reply is None and key is not None and successor_fallback
                    else None
                )
                if target is not None:
                    # Stale route: retry once where the key lives now.
                    fallbacks += 1
                    retry: RpcResult = yield self.rpc.call(
                        initiator_id,
                        target,
                        request.kind,
                        payload=request,
                        request_bits=self._request_bits(request),
                    )
                    attempts += retry.attempts
                    reply = self._charge(request, retry, cost)
                replies.append(reply)
            try:
                requests = steps.send(replies)
            except StopIteration as done:
                scoped: ScopedLists = done.value
                break
        scoped.directory_attempts = attempts
        scoped.directory_fallbacks = fallbacks
        return scoped

    def _send(
        self, request: DirectoryRequest, initiator_id: str
    ) -> tuple[SimFuture, int]:
        """Send one directory request; the call and its DHT hops.

        A request with a DHT key travels the Chord lookup path from the
        initiator's ring node to the key's owner; any other goes
        straight to the peer the topology names.
        """
        key = request.dht_key
        via: list[str] = []
        hops = 0
        if key is None:
            server = self.engine.topology.server_of(request, initiator_id)
        else:
            lookup = self.engine.ring.lookup(
                key, start_node=self.engine.directory._node_of_peer.get(initiator_id)
            )
            server = self._peer_of_node[lookup.owner]
            via = [self._peer_of_node[node] for node in lookup.path[1:-1]]
            hops = lookup.hops
        call = self.rpc.call(
            initiator_id,
            server,
            request.kind,
            payload=request,
            request_bits=self._request_bits(request),
            via=via,
        )
        return call, hops

    @staticmethod
    def _request_bits(request: DirectoryRequest) -> int:
        return QUERY_HEADER_BITS + QUERY_TERM_BITS * len(request.terms)

    @staticmethod
    def _charge(request: DirectoryRequest, result: RpcResult, cost: CostModel) -> Any:
        """Charge one directory RPC; its reply, or None if it failed.

        A reply is charged its size on arrival, the state routing reads.
        """
        if not result.ok:
            cost.record(request.kind, count=result.attempts)
            return None
        bits = request.reply_bits(result.value)
        cost.record(request.kind, bits=bits, count=result.attempts)
        return result.value

    def _fallback_directory_peer(self, term: str, dead_peer: str) -> str | None:
        """Where to retry a PeerList fetch after ``dead_peer`` went silent.

        Re-resolves the term's owner on the *current* ring: if repair
        already evicted the dead node, that is the new owner holding the
        handed-off key range; if the crash is not yet detected, the
        owner's immediate successor holds the replica.  Returns None
        when no distinct live candidate exists.
        """
        ring = self.engine.ring
        position = ring.key_id(term)
        for candidate_id in (
            ring.successor_of(position),
            ring.successor_of(ring.successor_of(position) + 1),
        ):
            peer_id = self._peer_of_node.get(candidate_id)
            if (
                peer_id is not None
                and peer_id != dead_peer
                and not self.transport.is_down(peer_id)
            ):
                return peer_id
        return None

    def __repr__(self) -> str:
        return (
            f"SimNetExecutor(engine={self.engine!r}, "
            f"clock={self.clock!r}, jobs={len(self._jobs)})"
        )
