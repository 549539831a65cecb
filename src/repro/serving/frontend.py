"""The serving front end: cached routing + streamed top-k over simnet.

:class:`ServingFrontend` turns the one-shot query pipeline into a
query-*serving* layer.  It wraps a :class:`~repro.simnet.executor.
SimNetExecutor` (or a :class:`~repro.churn.service.ChurnService`, whose
directory events it subscribes to) and serves each query in three
steps:

1. **plan** — look the normalized query up in the
   :class:`~repro.serving.cache.RoutingPlanCache`.  On a miss, run the
   engine's query pipeline up to the plan — entry, seed, the executor's
   networked assembly, context and plan (reference synopses memoized
   through the :class:`~repro.serving.cache.ReferenceSynopsisCache`) —
   and cache the ranked plan with per-peer score bounds unless the
   assembly degraded (a failed term or a topology fallback).  On a hit,
   skip assembly and planning: no directory traffic, no ranking delay.
2. **stream** — pull score-sorted result batches from the planned peers
   in synchronized rounds, closing each stream as soon as the
   threshold-style test (:mod:`repro.serving.streaming`) proves it
   cannot change the top-k.  A planned peer that never answers is
   replaced by the plan's next spare, as in the one-shot path.
3. **merge** — the incremental merge *is* the final merge; its top-k is
   bit-identical to ``merge_results`` over full forwarding.

Every message is charged to the transport and to a per-query
:class:`~repro.net.cost.CostSnapshot` with the batch traffic under the
``result_batch`` kind, so experiments can compare streamed bytes
directly against the one-shot path's ``result_return`` bytes.

Peer content is static in this simulation (churn toggles reachability
and directory state, never a live peer's index), so the per-peer local
top-k computed for a term set is memoized server-side: a peer pays its
``peer_service_ms`` compute once per distinct request shape and serves
later batches from the memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Sequence

from ..churn.service import ChurnService, DirectoryEvent
from ..datasets.queries import Query
from ..ir.topk import ScoredDocument
from ..minerva.engine import (
    BATCH_HEADER_BITS,
    QUERY_HEADER_BITS,
    QUERY_TERM_BITS,
    RESULT_ENTRY_BITS,
    check_query_knobs,
)
from ..net.cost import CostModel, CostSnapshot, MessageKinds
from ..parallel.seeding import derive_seed
from ..routing.base import PeerSelector
from ..simnet.clock import SimFuture, arrival_times, gather, spawn
from ..simnet.executor import SimNetExecutor
from ..simnet.rpc import RpcHandler, RpcResult
from .cache import (
    CachedPlan,
    CacheStats,
    CachingSpec,
    PlanKey,
    ReferenceSynopsisCache,
    RoutingPlanCache,
    plan_key,
)
from .streaming import StreamMerger, StreamState, synopsis_upper_bound

__all__ = ["BATCH_HEADER_BITS", "ServedQuery", "ServingFrontend"]

#: Batch-request payload: (terms, offset, limit, peer_k, conjunctive).
_BatchRequest = tuple[tuple[str, ...], int, int, int, bool]


@dataclass(frozen=True)
class ServedQuery:
    """One served query: the answer plus how the caches and streams did.

    ``topk`` is the merged top-k (bit-identical to the one-shot path's
    ``merged[:k]`` on a fault-free run); ``selected`` are the plan's
    target peers at serve time and ``substituted`` the spares promoted
    for targets that never answered, so ``(*selected, *substituted)``
    mirrors the one-shot outcome's ``selected``.  ``peers_skipped``
    counts targets whose stream was closed before a single batch
    (their bound never beat the threshold) — pure bytes saved.
    """

    query: Query
    initiator_id: str
    topk: tuple[ScoredDocument, ...]
    selected: tuple[str, ...]
    substituted: tuple[str, ...]
    plan_hit: bool
    started_ms: float
    finished_ms: float
    batch_rounds: int
    entries_streamed: int
    peers_skipped: int
    timed_out_peers: tuple[str, ...]
    failed_terms: tuple[str, ...]
    #: Hierarchical fetches that degraded during the cold assembly
    #: (always 0 on a plan hit: degraded plans are never cached).
    topology_fallbacks: int
    cost: CostSnapshot

    @property
    def latency_ms(self) -> float:
        """Virtual wall-clock from submission to merged top-k."""
        return self.finished_ms - self.started_ms

    @property
    def queried(self) -> tuple[str, ...]:
        """Peers actually asked for results, in contact order."""
        return (*self.selected, *self.substituted)

    @property
    def degraded(self) -> bool:
        """True when a peer, directory lookup or hierarchical fetch
        failed to answer."""
        return bool(
            self.timed_out_peers or self.failed_terms or self.topology_fallbacks
        )


class ServingFrontend:
    """Serves a query stream with hot routing caches and streamed top-k.

    Construct over a :class:`SimNetExecutor` (static membership) or a
    :class:`ChurnService` (live membership — the front end subscribes
    to its :class:`DirectoryEvent` feed and invalidates accordingly).
    Routing knobs are fixed per front end because they are part of the
    plan-cache key; build one front end per serving configuration.

    Determinism: serving shares the executor's virtual clock and seeded
    transport, so the same ``(engine setup, host, workload, seed)``
    serves bit-identical results at any process parallelism.
    """

    def __init__(
        self,
        host: SimNetExecutor | ChurnService,
        selector: PeerSelector,
        *,
        max_peers: int = 10,
        k: int = 50,
        peer_k: int | None = None,
        conjunctive: bool = False,
        batch_size: int | None = None,
        fallback_spares: int = 0,
        successor_fallback: bool = False,
        plan_cache_size: int | None = None,
        synopsis_cache_size: int | None = None,
    ) -> None:
        if isinstance(host, ChurnService):
            self.executor = host.executor
            self.service: ChurnService | None = host
            host.subscribe(self._on_directory_event)
        else:
            self.executor = host
            self.service = None
        self.selector = selector
        self.max_peers = max_peers
        self.k = k
        self.peer_k = check_query_knobs(
            max_peers=max_peers, k=k, peer_k=peer_k, fallback_spares=fallback_spares
        )
        self.conjunctive = conjunctive
        self.batch_size = k if batch_size is None else batch_size
        self.fallback_spares = fallback_spares
        self.successor_fallback = successor_fallback
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        engine = self.executor.engine
        self.plan_cache = RoutingPlanCache(max_plans=plan_cache_size)
        self.synopsis_cache = ReferenceSynopsisCache(
            engine.spec, max_entries=synopsis_cache_size
        )
        self._caching_spec = CachingSpec(self.synopsis_cache)
        #: (peer_id, sorted terms, peer_k, conjunctive) -> full local top-k.
        self._answers: dict[
            tuple[str, tuple[str, ...], int, bool], tuple[ScoredDocument, ...]
        ] = {}
        self._jobs: list[SimFuture] = []
        for peer_id in engine.peers:
            self.executor.rpc.serve(
                peer_id, MessageKinds.RESULT_BATCH, self._serve_batch(peer_id)
            )

    # -- server side -------------------------------------------------------

    @staticmethod
    def _answer_key(
        peer_id: str, terms: tuple[str, ...], peer_k: int, conjunctive: bool
    ) -> tuple[str, tuple[str, ...], int, bool]:
        return (peer_id, tuple(sorted(terms)), peer_k, conjunctive)

    def _peer_answer(
        self, peer_id: str, terms: tuple[str, ...], peer_k: int, conjunctive: bool
    ) -> tuple[ScoredDocument, ...] | None:
        """A peer's full local top-``peer_k``, memoized (content is static)."""
        key = self._answer_key(peer_id, terms, peer_k, conjunctive)
        cached = self._answers.get(key)
        if cached is not None:
            return cached
        peer = self.executor.engine.peers.get(peer_id)
        if peer is None:
            return None
        results = tuple(
            peer.answer_query(terms, k=peer_k, conjunctive=conjunctive)
        )
        self._answers[key] = results
        return results

    def _serve_batch(self, peer_id: str) -> RpcHandler:
        """Handler: one score-sorted slice of this peer's local top-k.

        The first batch pays the peer's full service time (the local
        top-k is computed once and memoized); later slices of the same
        answer are served from the memo for free — transport latency
        still applies.
        """

        def handler(
            payload: _BatchRequest,
        ) -> tuple[tuple[ScoredDocument, ...], int, float] | None:
            terms, offset, limit, peer_k, conjunctive = payload
            results = self._peer_answer(peer_id, terms, peer_k, conjunctive)
            if results is None:
                return None  # departed since construction: no reply
            batch = results[offset : offset + limit]
            service_ms = self.executor.peer_service_ms if offset == 0 else 0.0
            return batch, RESULT_ENTRY_BITS * len(batch), service_ms

        return handler

    # -- churn awareness ---------------------------------------------------

    def _on_directory_event(self, event: DirectoryEvent) -> None:
        """Apply one directory change to both caches (see cache module)."""
        if event.kind in ("crash", "leave", "evict"):
            self.plan_cache.drop_peer(event.peer_id)
        if event.kind == "reelect":
            # A super-peer re-election rebuilt the cluster's merged
            # synopses: every scoped plan touching the cluster's members
            # could have ranked differently, so those re-route cold —
            # per-cluster invalidation, not a full flush.
            self.plan_cache.invalidate_peers(event.members)
            self.synopsis_cache.bump_epoch()
        if event.kind in ("recover", "repost", "expire", "evict"):
            # Directory content observably changed (fresh reposts, TTL
            # expiry, or an eviction's re-replication pass): plans over
            # the affected terms may rank wrongly now, and the synopsis
            # epoch moves so cached reference synopses age out with them.
            self.plan_cache.invalidate_terms(event.terms)
            self.synopsis_cache.bump_epoch()

    # -- client side -------------------------------------------------------

    def serve(
        self,
        query: Query,
        *,
        at_ms: float | None = None,
        initiator_id: str | None = None,
    ) -> SimFuture:
        """Schedule one query at virtual time ``at_ms`` (default: now).

        Returns a future resolving to a :class:`ServedQuery` once the
        clock has been driven past its completion (:meth:`run`).  The
        initiator defaults as on every path
        (:meth:`~repro.minerva.engine.MinervaEngine.resolve_initiator`).
        """
        initiator_id = self.executor.engine.resolve_initiator(query, initiator_id)
        result = SimFuture()

        def start() -> None:
            job = spawn(self._serve_job(query, initiator_id))
            job.add_done_callback(lambda done: result.resolve(done.value))

        clock = self.executor.clock
        clock.schedule_at(clock.now if at_ms is None else at_ms, start)
        self._jobs.append(result)
        return result

    def serve_log(
        self,
        log: Sequence[Query],
        *,
        interarrival_ms: float = 100.0,
        arrivals: str = "poisson",
        seed: int | None = None,
        start_ms: float = 0.0,
        live_initiators: bool | None = None,
    ) -> list[ServedQuery]:
        """Serve a whole query log under an arrival process and run it.

        Mirrors :meth:`SimNetExecutor.run_workload`: arrival gaps come
        from a seeded stream, queries genuinely overlap in virtual
        time.  With ``live_initiators`` (default: on when hosted by a
        :class:`ChurnService`) each query's initiator is chosen among
        the peers alive at its arrival instant; otherwise the static
        default initiator is used, which is what makes repeated log
        entries share a plan-cache key.
        """
        times = arrival_times(
            len(log),
            interarrival_ms=interarrival_ms,
            arrivals=arrivals,
            seed=derive_seed(
                self.executor.seed if seed is None else seed, "serve-log"
            ),
            start_ms=start_ms,
        )
        if live_initiators is None:
            live_initiators = self.service is not None
        futures: list[SimFuture] = []
        clock = self.executor.clock
        for query, at_ms in zip(log, times):
            if live_initiators and self.service is not None:
                service = self.service

                def submit(q: Query = query) -> None:
                    futures.append(
                        self.serve(q, initiator_id=service.pick_initiator(q))
                    )

                clock.schedule_at(at_ms, submit)
            else:
                futures.append(self.serve(query, at_ms=at_ms))
        self.run()
        return [future.value for future in futures]

    def run(self, *, until_ms: float | None = None) -> list[ServedQuery]:
        """Drive the clock until idle; return all completed queries."""
        self.executor.clock.run(until_ms=until_ms)
        unfinished = sum(1 for job in self._jobs if not job.done)
        if unfinished and until_ms is None:
            raise RuntimeError(
                f"{unfinished} served queries never completed; "
                "simulation stalled"
            )
        return [job.value for job in self._jobs if job.done]

    # -- the serving coroutine ---------------------------------------------

    def _plan_cold(
        self, query: Query, initiator_id: str, key: PlanKey, cost: CostModel
    ) -> Generator[
        SimFuture,
        Any,
        tuple[CachedPlan, tuple[ScoredDocument, ...], tuple[str, ...], int],
    ]:
        """The pipeline up to the plan (seed, assemble, context, plan).

        Returns the plan, the initiator's local answer, and the
        assembly's failed terms and topology fallbacks.
        """
        executor = self.executor
        engine = executor.engine
        local, view = engine.initiator_seed(
            query, initiator_id, k=self.peer_k, conjunctive=self.conjunctive
        )
        # The seed is the initiator's memoized answer, so a later plan
        # hit for this key does not answer the query again.
        self._answers.setdefault(
            self._answer_key(
                initiator_id, query.terms, self.peer_k, self.conjunctive
            ),
            local,
        )
        scoped = yield from executor.assemble(
            query,
            initiator_id,
            cost,
            initiator=view,
            conjunctive=self.conjunctive,
            max_peers=self.max_peers,
            successor_fallback=self.successor_fallback,
            spec=self._caching_spec,
        )
        context = engine.topology.context_for(
            query,
            scoped,
            initiator=view,
            conjunctive=self.conjunctive,
            spec=self._caching_spec,
        )
        ranked = engine.topology.plan(
            context, scoped, self.selector, self.max_peers + self.fallback_spares
        ).selected
        failed_terms = scoped.failed_terms
        peer_lists = [scoped.peer_lists[term] for term in query.terms]
        bounds: dict[str, float] = {}
        for peer_id in ranked:
            if failed_terms:
                # Degraded directory view: bounds could be under-
                # estimates, so disable early termination outright.
                bounds[peer_id] = float("inf")
                continue
            # Each term's advertised max-score, read from the columns.
            rows = ((peer_list, peer_list.row_of(peer_id)) for peer_list in peer_lists)
            bounds[peer_id] = synopsis_upper_bound(
                float(peer_list.columns.max_scores()[row])
                for peer_list, row in rows
                if row is not None
            )
        plan = CachedPlan(
            ranked=ranked,
            bounds=bounds,
            terms=key.terms,
            epoch=self.synopsis_cache.epoch,
        )
        if not failed_terms and not scoped.topology_fallbacks:
            # A degraded assembly's plan would outlive the fault: no
            # event invalidates it when the fault clears (a re-election
            # cannot drop a plan that skipped the cluster's members).
            self.plan_cache.store(key, plan)
        if executor.routing_ms:
            yield executor.clock.sleep(executor.routing_ms)
        return plan, local, failed_terms, scoped.topology_fallbacks

    def _serve_job(
        self, query: Query, initiator_id: str
    ) -> Generator[SimFuture, Any, ServedQuery]:
        executor = self.executor
        started = executor.clock.now
        cost = CostModel()
        key = plan_key(
            query,
            self.selector,
            initiator_id=initiator_id,
            max_peers=self.max_peers,
            fallback_spares=self.fallback_spares,
            conjunctive=self.conjunctive,
        )
        cached = self.plan_cache.lookup(key)
        failed_terms: tuple[str, ...] = ()
        topology_fallbacks = 0
        if cached is None:
            (
                plan,
                local,
                failed_terms,
                topology_fallbacks,
            ) = yield from self._plan_cold(query, initiator_id, key, cost)
        else:
            plan = cached
            hit_local = self._peer_answer(
                initiator_id, query.terms, self.peer_k, self.conjunctive
            )
            local = hit_local if hit_local is not None else ()

        # Phase 3, streamed: synchronized batch rounds over the planned
        # peers, each stream closed as soon as the threshold test proves
        # it irrelevant; failed streams fall back to the plan's spares.
        selected = plan.ranked[: self.max_peers]
        spares = list(plan.ranked[self.max_peers :])
        merger = StreamMerger(local, k=self.k)
        streams = {
            peer_id: StreamState(
                peer_id=peer_id, upper=plan.bounds.get(peer_id, float("inf"))
            )
            for peer_id in selected
        }
        order = list(selected)
        promoted: list[str] = []
        timed_out: list[str] = []
        rounds = 0
        entries_streamed = 0
        request_bits = (
            QUERY_HEADER_BITS
            + QUERY_TERM_BITS * len(query.terms)
            + BATCH_HEADER_BITS
        )

        def fetch_batch(stream: StreamState) -> SimFuture:
            return executor.rpc.call(
                initiator_id,
                stream.peer_id,
                MessageKinds.RESULT_BATCH,
                payload=(
                    query.terms,
                    stream.offset,
                    self.batch_size,
                    self.peer_k,
                    self.conjunctive,
                ),
                request_bits=request_bits,
            )

        while True:
            active = [
                stream
                for peer_id in order
                if (stream := streams[peer_id]) and merger.still_open(stream)
            ]
            if not active:
                break
            rounds += 1
            replies: list[RpcResult] = yield gather(
                [fetch_batch(stream) for stream in active]
            )
            for stream, reply in zip(active, replies):
                cost.record(
                    MessageKinds.QUERY_FORWARD,
                    bits=request_bits * reply.attempts,
                    count=reply.attempts,
                )
                if reply.ok:
                    batch: tuple[ScoredDocument, ...] = reply.value
                    cost.record(
                        MessageKinds.RESULT_BATCH,
                        bits=RESULT_ENTRY_BITS * len(batch),
                    )
                    entries_streamed += len(batch)
                    merger.absorb(batch)
                    stream.note_batch(batch, self.batch_size)
                    continue
                stream.exhausted = True
                timed_out.append(stream.peer_id)
                if spares:
                    candidate = spares.pop(0)
                    streams[candidate] = StreamState(
                        peer_id=candidate,
                        upper=plan.bounds.get(candidate, float("inf")),
                    )
                    order.append(candidate)
                    promoted.append(candidate)

        peers_skipped = sum(
            1 for peer_id in selected if not streams[peer_id].contributed
        )
        substituted = tuple(
            peer_id for peer_id in promoted if streams[peer_id].contributed
        )
        return ServedQuery(
            query=query,
            initiator_id=initiator_id,
            topk=merger.topk(),
            selected=selected,
            substituted=substituted,
            plan_hit=cached is not None,
            started_ms=started,
            finished_ms=executor.clock.now,
            batch_rounds=rounds,
            entries_streamed=entries_streamed,
            peers_skipped=peers_skipped,
            timed_out_peers=tuple(timed_out),
            failed_terms=failed_terms,
            topology_fallbacks=topology_fallbacks,
            cost=cost.snapshot(),
        )

    # -- observability -----------------------------------------------------

    def plan_stats(self) -> CacheStats:
        """Routing-plan cache counters."""
        return self.plan_cache.stats()

    def synopsis_stats(self) -> CacheStats:
        """Reference-synopsis cache counters."""
        return self.synopsis_cache.stats()

    def __repr__(self) -> str:
        return (
            f"ServingFrontend(peers={len(self.executor.engine.peers)}, "
            f"plans={self.plan_stats()}, synopses={self.synopsis_stats()})"
        )
