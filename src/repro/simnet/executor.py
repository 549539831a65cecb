"""Networked query execution: the MINERVA pipeline as simulated messages.

:class:`SimNetExecutor` wraps a :class:`~repro.minerva.engine.MinervaEngine`
and runs the paper's three query phases over a
:class:`~repro.simnet.transport.Transport` in virtual time:

1. **PeerList fetch** — one RPC per query term, routed along the actual
   Chord lookup path (each hop a message adding latency and link load),
   answered by the owning peer from its directory node's store;
2. **routing** — the selector ranks candidates locally at the initiator
   (a configurable compute delay);
3. **forward + merge** — one RPC per selected peer, fanned out
   concurrently; each peer serves its local top-k after a service time.

Every RPC rides the retry policy, so lost messages and crashed peers
cost timeouts and backoff instead of raising: a query always completes,
with empty contributions from peers that never answered and a record of
who they were.  Multiple submitted queries interleave in virtual time —
their messages share links, so the M/M/1 queueing delay makes response
time a superlinear function of offered load (Section 8.2), which is the
whole point of simulating the network instead of costing it passively.

With an empty :class:`~repro.simnet.faults.FaultPlan` the selected peers,
merged document ids, and recall curve are identical to
:meth:`MinervaEngine.run_query` — the network changes *when*, not
*what*.  Accounting note: networked runs charge their messages to the
transport's cost model and to a per-query snapshot on the outcome; the
engine's own cost model is not touched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Generator, Sequence

from ..datasets.queries import Query
from ..ir.merge import merge_results
from ..ir.metrics import relative_recall, result_ids
from ..ir.topk import ScoredDocument
from ..minerva.engine import (
    QUERY_HEADER_BITS,
    QUERY_TERM_BITS,
    RESULT_ENTRY_BITS,
    MinervaEngine,
    QueryOutcome,
)
from ..minerva.posts import PeerList
from ..net.cost import CostModel, MessageKinds
from ..net.latency import LatencyProfile
from ..routing.base import LocalView, PeerSelector, RoutingContext, SeedSynopses
from ..synopses.factory import SynopsisSpec
from ..topology.superpeer import SuperPeerTopology
from .clock import SimClock, SimFuture, gather, spawn
from .faults import FaultPlan
from .rpc import RetryPolicy, RpcHandler, RpcLayer, RpcResult
from .transport import Transport

__all__ = ["NetworkedQueryOutcome", "SimNetExecutor"]

#: Bits for a PeerList request: a 64-bit header plus one term token.
PEERLIST_REQUEST_BITS = 96


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
        """True when any peer or directory lookup failed to answer in time."""
        return bool(self.timed_out_peers or self.failed_terms)

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
            self.rpc.serve(
                peer_id, MessageKinds.PEERLIST_FETCH, self._serve_peerlist(peer_id)
            )
            self.rpc.serve(
                peer_id, MessageKinds.QUERY_FORWARD, self._serve_query(peer_id)
            )
        if engine.topology.hierarchical:
            for peer_id in engine.peers:
                self.rpc.serve(
                    peer_id, MessageKinds.CLUSTER_FETCH, self._serve_clusters(peer_id)
                )
                self.rpc.serve(
                    peer_id, MessageKinds.MEMBER_FETCH, self._serve_members(peer_id)
                )
            profile_of = getattr(engine.topology, "latency_profile_of", None)
            if profile_of is not None:
                # Intra- vs inter-cluster links get their own latency
                # profiles; flat topologies leave the transport untouched.
                self.transport.profile_of = profile_of

    # -- server side -----------------------------------------------------------

    def _serve_peerlist(self, peer_id: str) -> RpcHandler:
        """Handler: serve a term's PeerList from this peer's directory node."""

        def handler(term: str) -> tuple[PeerList, int, float] | None:
            node_id = self.engine.directory._node_of_peer.get(peer_id)
            if node_id is None:
                return None  # departed since construction: no reply
            stored = self.engine.ring.node(node_id).store.get(
                self.engine.ring.key_id(term)
            )
            if stored is None:
                stored = PeerList(
                    term=term, peer_table=self.engine.directory.peer_table
                )
            return stored, stored.size_in_bits, self.directory_service_ms

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

    def _serve_clusters(self, peer_id: str) -> RpcHandler:
        """Handler: a super-peer serving the per-term cluster directory."""

        def handler(terms: tuple[str, ...]) -> tuple[Any, int, float] | None:
            if peer_id not in self.engine.peers:
                return None  # departed since construction: no reply
            topology = self.engine.topology
            assert isinstance(topology, SuperPeerTopology)
            lists, bits = topology.cluster_peer_lists(tuple(terms))
            return lists, bits, self.directory_service_ms

        return handler

    def _serve_members(self, peer_id: str) -> RpcHandler:
        """Handler: a winning cluster's super-peer shipping member slices."""

        def handler(
            payload: tuple[str, tuple[str, ...]]
        ) -> tuple[Any, int, float] | None:
            label, terms = payload
            if peer_id not in self.engine.peers:
                return None  # departed since construction: no reply
            topology = self.engine.topology
            assert isinstance(topology, SuperPeerTopology)
            lists_by_term, bits = topology.member_posts(label, tuple(terms))
            return lists_by_term, bits, self.directory_service_ms

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
        self.engine._ensure_published(query)
        if peer_k is None:
            peer_k = k
        if peer_k <= 0:
            raise ValueError(f"peer_k must be positive, got {peer_k}")
        if fallback_spares < 0:
            raise ValueError(
                f"fallback_spares must be >= 0, got {fallback_spares}"
            )
        if initiator_id is None:
            peer_ids = sorted(self.engine.peers)
            initiator_id = peer_ids[query.query_id % len(peer_ids)]
        elif initiator_id not in self.engine.peers:
            raise KeyError(f"unknown peer {initiator_id!r}")
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
        if interarrival_ms <= 0:
            raise ValueError(
                f"interarrival_ms must be positive, got {interarrival_ms}"
            )
        if arrivals not in ("poisson", "uniform"):
            raise ValueError(f"arrivals must be poisson or uniform, got {arrivals!r}")
        rng = random.Random(self.seed + 1 if seed is None else seed)
        at_ms = start_ms
        futures = []
        for query in queries:
            futures.append(
                self.submit(query, selector, at_ms=at_ms, **query_kwargs)
            )
            gap = (
                rng.expovariate(1.0 / interarrival_ms)
                if arrivals == "poisson"
                else interarrival_ms
            )
            at_ms += gap
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

        clusters_ranked: tuple[str, ...] = ()
        super_fetches = 0
        topology_fallbacks = 0
        # Both routing phases seed their references from the initiator:
        # build each seed synopsis once for the query.
        seed_synopses: SeedSynopses = {}
        if engine.topology.hierarchical:
            # Phase 1 (hierarchical) — cluster directory from the
            # initiator's super-peer, cluster ranking locally, then one
            # member fetch per winning cluster.
            scoped = yield from self._fetch_scoped_lists(
                query,
                initiator_id,
                cost,
                peer_k=peer_k,
                conjunctive=conjunctive,
                max_peers=max_peers,
                successor_fallback=successor_fallback,
                seed_synopses=seed_synopses,
            )
            (
                peer_lists,
                failed_terms,
                directory_attempts,
                directory_fallbacks,
                clusters_ranked,
                super_fetches,
                topology_fallbacks,
            ) = scoped
        else:
            # Phase 1 — PeerList fetches, all terms in flight concurrently,
            # each routed along its real Chord lookup path.
            fetch = yield from self._fetch_peer_lists(
                query, initiator_id, cost, successor_fallback
            )
            peer_lists, failed_terms, directory_attempts, directory_fallbacks = fetch

        # Phase 2 — routing, a local computation at the initiator.
        context, local = self.make_routing_context(
            query,
            initiator_id,
            peer_lists,
            peer_k=peer_k,
            conjunctive=conjunctive,
            seed_synopses=seed_synopses,
        )
        ranked = tuple(selector.rank(context, max_peers + fallback_spares))
        selected = ranked[:max_peers]
        spares = list(ranked[max_peers:])
        if self.routing_ms:
            yield self._sleep(self.routing_ms)

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

        queried = (*selected, *substituted)
        reference = engine.reference_topk(query, k=k, conjunctive=conjunctive)
        covered = set(result_ids(local))
        recall_curve = [relative_recall(covered, reference)]
        for peer_id in queried:
            covered.update(result_ids(per_peer[peer_id]))
            recall_curve.append(relative_recall(covered, reference))
        merged = merge_results([local, *per_peer.values()], k=None)
        outcome = QueryOutcome(
            query=query,
            initiator_id=initiator_id,
            selected=queried,
            recall_at=tuple(recall_curve),
            merged=tuple(merged),
            reference_ids=reference,
            cost=cost.snapshot(),
            per_peer_results=per_peer,
            clusters_ranked=clusters_ranked,
            super_fetches=super_fetches,
        )
        return NetworkedQueryOutcome(
            outcome=outcome,
            started_ms=started,
            finished_ms=self.clock.now,
            timed_out_peers=tuple(timed_out),
            attempts_by_peer=attempts,
            failed_terms=tuple(failed_terms),
            directory_attempts=directory_attempts,
            stale_routes=stale_routes,
            substituted_peers=tuple(substituted),
            fallback_attempts=fallback_attempts,
            directory_fallbacks=directory_fallbacks,
            super_peer_fetches=super_fetches,
            topology_fallbacks=topology_fallbacks,
        )

    def _fetch_peer_lists(
        self,
        query: Query,
        initiator_id: str,
        cost: CostModel,
        successor_fallback: bool,
    ) -> Generator[
        SimFuture, Any, tuple[dict[str, PeerList], list[str], int, int]
    ]:
        """Phase 1 as a reusable sub-generator: fetch every term's PeerList.

        Issues one PEERLIST_FETCH per query term concurrently, each
        routed along the real Chord lookup path, charging DHT hops and
        payload bits to ``cost``.  Returns ``(peer_lists, failed_terms,
        directory_attempts, directory_fallbacks)``; a term whose
        directory stayed unreachable contributes an empty PeerList and
        lands in ``failed_terms``.  Shared by the one-shot query job and
        the serving front end (:mod:`repro.serving.frontend`), which
        must pay exactly this traffic on a routing-plan cache miss.
        """
        engine = self.engine
        start_node = engine.directory._node_of_peer.get(initiator_id)
        hops_by_term: dict[str, int] = {}
        calls = []
        for term in query.terms:
            lookup = engine.ring.lookup(term, start_node=start_node)
            hops_by_term[term] = lookup.hops
            calls.append(
                self.rpc.call(
                    initiator_id,
                    self._peer_of_node[lookup.owner],
                    MessageKinds.PEERLIST_FETCH,
                    payload=term,
                    request_bits=PEERLIST_REQUEST_BITS,
                    via=[self._peer_of_node[n] for n in lookup.path[1:-1]],
                )
            )
        responses: list[RpcResult] = yield gather(calls)
        peer_lists: dict[str, PeerList] = {}
        failed_terms: list[str] = []
        directory_attempts = 0
        directory_fallbacks = 0
        for term, response in zip(query.terms, responses):
            directory_attempts += response.attempts
            cost.record(
                MessageKinds.DHT_HOP,
                count=hops_by_term[term] * response.attempts,
            )
            if response.ok:
                peer_lists[term] = response.value
                cost.record(
                    MessageKinds.PEERLIST_FETCH,
                    bits=response.value.size_in_bits,
                    count=response.attempts,
                )
                continue
            cost.record(MessageKinds.PEERLIST_FETCH, count=response.attempts)
            if successor_fallback:
                # Stale route: the owner we looked up no longer answers.
                # Re-resolve on the (possibly repaired) ring and retry
                # once at the current owner — or, if that is still the
                # dead node, at its successor, where the replica lives.
                target = self._fallback_directory_peer(term, response.peer_id)
                if target is not None:
                    directory_fallbacks += 1
                    retry: RpcResult = yield self.rpc.call(
                        initiator_id,
                        target,
                        MessageKinds.PEERLIST_FETCH,
                        payload=term,
                        request_bits=PEERLIST_REQUEST_BITS,
                    )
                    directory_attempts += retry.attempts
                    if retry.ok:
                        peer_lists[term] = retry.value
                        cost.record(
                            MessageKinds.PEERLIST_FETCH,
                            bits=retry.value.size_in_bits,
                            count=retry.attempts,
                        )
                        continue
                    cost.record(
                        MessageKinds.PEERLIST_FETCH, count=retry.attempts
                    )
            # Directory unreachable for this term: route with what we
            # have rather than failing the query.
            peer_lists[term] = PeerList(
                term=term, peer_table=engine.directory.peer_table
            )
            failed_terms.append(term)
        return peer_lists, failed_terms, directory_attempts, directory_fallbacks

    def _fetch_scoped_lists(
        self,
        query: Query,
        initiator_id: str,
        cost: CostModel,
        *,
        peer_k: int,
        conjunctive: bool,
        max_peers: int,
        successor_fallback: bool,
        seed_synopses: SeedSynopses,
        spec: SynopsisSpec | None = None,
    ) -> Generator[
        SimFuture,
        Any,
        tuple[
            dict[str, PeerList],
            list[str],
            int,
            int,
            tuple[str, ...],
            int,
            int,
        ],
    ]:
        """Phase 1 over a super-peer tier: two-phase scoped assembly.

        The initiator asks its own super-peer for the per-term cluster
        directory (one ``cluster_fetch`` RPC — a direct link, no DHT
        hops), ranks clusters locally, then pulls each winning cluster's
        member slices from that cluster's super-peer (one ``member_fetch``
        RPC per winner).  An unreachable super-peer degrades to the full
        flat fetch (counted as a topology fallback); a winning cluster
        whose member fetch never answers is skipped (also counted).
        Cluster ranking builds its seed synopses with ``spec`` (the
        engine's by default) and collects them in ``seed_synopses``;
        pass the same dict and spec to :meth:`make_routing_context` so
        phase two reuses them.
        Returns ``(peer_lists, failed_terms, directory_attempts,
        directory_fallbacks, clusters_ranked, super_fetches,
        topology_fallbacks)``.
        """
        engine = self.engine
        topology = engine.topology
        assert isinstance(topology, SuperPeerTopology)
        unique_terms = tuple(dict.fromkeys(query.terms))
        request_bits = QUERY_HEADER_BITS + QUERY_TERM_BITS * len(unique_terms)
        super_id = topology.super_peer_of(initiator_id) or initiator_id
        reply: RpcResult = yield self.rpc.call(
            initiator_id,
            super_id,
            MessageKinds.CLUSTER_FETCH,
            payload=unique_terms,
            request_bits=request_bits,
        )
        directory_attempts = reply.attempts
        if not reply.ok:
            cost.record(MessageKinds.CLUSTER_FETCH, count=reply.attempts)
            flat = yield from self._fetch_peer_lists(
                query, initiator_id, cost, successor_fallback
            )
            peer_lists, failed_terms, flat_attempts, directory_fallbacks = flat
            return (
                peer_lists,
                failed_terms,
                directory_attempts + flat_attempts,
                directory_fallbacks,
                (),
                0,
                1,
            )
        cluster_lists: dict[str, PeerList] = reply.value
        cluster_bits = sum(pl.size_in_bits for pl in cluster_lists.values())
        cost.record(
            MessageKinds.CLUSTER_FETCH, bits=cluster_bits, count=reply.attempts
        )
        local_view = engine.local_view(
            query, initiator_id, k=peer_k, conjunctive=conjunctive
        )
        winners = topology.rank_clusters(
            query,
            initiator=local_view,
            conjunctive=conjunctive,
            budget=topology.resolve_cluster_budget(max_peers),
            seed_synopses=seed_synopses,
            spec=spec,
        )
        member_replies: list[RpcResult] = yield gather(
            [
                self.rpc.call(
                    initiator_id,
                    topology.super_of_cluster(label),
                    MessageKinds.MEMBER_FETCH,
                    payload=(label, unique_terms),
                    request_bits=request_bits,
                )
                for label in winners
            ]
        )
        super_fetches = 1
        topology_fallbacks = 0
        replies: list[dict[str, PeerList]] = []
        for member_reply in member_replies:
            directory_attempts += member_reply.attempts
            if not member_reply.ok:
                cost.record(
                    MessageKinds.MEMBER_FETCH, count=member_reply.attempts
                )
                topology_fallbacks += 1
                continue
            super_fetches += 1
            lists_by_term: dict[str, PeerList] = member_reply.value
            cost.record(
                MessageKinds.MEMBER_FETCH,
                bits=sum(pl.size_in_bits for pl in lists_by_term.values()),
                count=member_reply.attempts,
            )
            replies.append(lists_by_term)
        return (
            topology.merge_member_lists(unique_terms, replies),
            [],
            directory_attempts,
            0,
            tuple(winners),
            super_fetches,
            topology_fallbacks,
        )

    def make_routing_context(
        self,
        query: Query,
        initiator_id: str,
        peer_lists: dict[str, PeerList],
        *,
        peer_k: int,
        conjunctive: bool,
        spec: SynopsisSpec | None = None,
        seed_synopses: SeedSynopses,
    ) -> tuple[RoutingContext, tuple[ScoredDocument, ...]]:
        """Assemble the Phase-2 routing context from fetched PeerLists.

        Executes the query locally at the initiator (seeding IQN's
        reference synopsis) and returns ``(context, local_results)``.
        ``spec`` overrides the engine's synopsis spec — the serving
        layer passes a build-memoizing wrapper so reference synopses
        shared across queries are constructed once.  ``seed_synopses``
        is the query's seed dict, which a super-peer tier's cluster
        ranking has already filled.
        """
        engine = self.engine
        initiator = engine.peers[initiator_id]
        local = tuple(
            initiator.answer_query(query.terms, k=peer_k, conjunctive=conjunctive)
        )
        context = RoutingContext(
            query=query,
            peer_lists=peer_lists,
            num_peers=len(engine.peers),
            spec=engine.spec if spec is None else spec,
            initiator=LocalView(
                peer_id=initiator_id,
                result_doc_ids=result_ids(local),
                doc_ids_by_term={
                    term: initiator.local_doc_ids(term) for term in query.terms
                },
            ),
            conjunctive=conjunctive,
            seed_synopses=seed_synopses,
        )
        return context, local

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

    def _sleep(self, delay_ms: float) -> SimFuture:
        future = SimFuture()
        self.clock.schedule(delay_ms, future.resolve)
        return future

    def __repr__(self) -> str:
        return (
            f"SimNetExecutor(engine={self.engine!r}, "
            f"clock={self.clock!r}, jobs={len(self._jobs)})"
        )
