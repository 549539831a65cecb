"""The assembled MINERVA testbed: peers + DHT directory + routing + execution.

This is the in-process equivalent of the paper's PC-cluster prototype
(Section 4 and 8.1).  The engine owns:

- the peers with their local collections and indexes;
- a Chord ring whose nodes are the peers, carrying the distributed
  directory of Posts/PeerLists;
- a cost model charged for every post, directory lookup, query forward
  and result return;
- the *centralized reference engine* — an index over the union of all
  collections with the same scoring scheme — against which relative
  recall is measured (Section 8.1).

The engine also holds the query pipeline's shared stages, which the
in-process path (:meth:`MinervaEngine.run_query`), the networked path
(:class:`~repro.simnet.executor.SimNetExecutor`) and the serving path
(:class:`~repro.serving.frontend.ServingFrontend`) all run:

1. entry — :func:`check_query_knobs` and
   :meth:`MinervaEngine.resolve_initiator`;
2. seed — :meth:`MinervaEngine.initiator_seed`, the initiator's local
   top-k, computed once for the reference synopsis and the merge;
3. assemble, context, plan — the engine's
   :class:`~repro.topology.base.RoutingTopology`, with any
   :class:`~repro.routing.base.PeerSelector`;
4. forward — here direct calls (:meth:`MinervaEngine.execute`);
5. measure — :meth:`MinervaEngine.measure`, the recall curve and merge.

Only assembly and forwarding differ between the paths.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..datasets.queries import Query
from ..dht.hashing import DEFAULT_ID_BITS
from ..dht.ring import ChordRing
from ..ir.documents import Corpus, Document
from ..ir.index import InvertedIndex
from ..ir.merge import merge_results, weighted_merge
from ..ir.metrics import relative_recall, result_ids
from ..ir.scoring import Scorer
from ..ir.topk import ScoredDocument, execute_query
from ..net.cost import CostModel, CostSnapshot, MessageKinds
from ..routing.base import LocalView, PeerSelector, RoutingContext
from ..synopses.factory import SynopsisSpec
from .directory import Directory
from .peer import Peer
from .posts import PeerList

if TYPE_CHECKING:  # annotation only — avoids core/simnet import cycles
    from ..core.fastpath import RoutingStats
    from ..net.latency import LatencyProfile
    from ..simnet.executor import NetworkedQueryOutcome
    from ..simnet.faults import FaultPlan
    from ..simnet.rpc import RetryPolicy
    from ..topology.base import RoutingTopology, TopologyPlan

__all__ = ["QueryOutcome", "MinervaEngine", "check_query_knobs"]

#: Bits charged per returned result entry: a 32-bit global id + 32-bit score.
RESULT_ENTRY_BITS = 64

#: Bits charged for forwarding a query: terms are small; one 32-bit token
#: per term plus a 64-bit header is a fair order of magnitude.
QUERY_HEADER_BITS = 64
QUERY_TERM_BITS = 32

#: Extra request bits on a streamed batch fetch (:mod:`repro.serving`):
#: a 32-bit offset plus a 32-bit batch limit on top of the query header.
BATCH_HEADER_BITS = 64


@dataclass(frozen=True)
class QueryOutcome:
    """Everything measured for one routed and executed query.

    ``recall_at[j]`` is the relative recall achieved by the initiator's
    local result plus the first ``j`` selected peers, for ``j = 0 ..
    len(selected)`` — i.e. the x-axis of Figure 3 ("number of queried
    peers") indexes this list.
    """

    query: Query
    initiator_id: str
    selected: tuple[str, ...]
    recall_at: tuple[float, ...]
    merged: tuple[ScoredDocument, ...]
    reference_ids: frozenset[int]
    cost: CostSnapshot
    per_peer_results: dict[str, tuple[ScoredDocument, ...]] = field(repr=False)
    #: Routing work counters from the selector's last rank call (selectors
    #: without instrumentation — anything but IQNRouter — leave this None).
    routing_stats: "RoutingStats | None" = field(default=None, repr=False)
    #: Clusters selected in phase one when routing through a hierarchical
    #: topology (empty on the flat topology).
    clusters_ranked: tuple[str, ...] = ()
    #: Messages answered by super-peers while assembling this query.
    super_fetches: int = 0

    @property
    def final_recall(self) -> float:
        return self.recall_at[-1]


def check_query_knobs(
    *,
    max_peers: int,
    k: int,
    peer_k: int | None = None,
    fallback_spares: int = 0,
) -> int:
    """Entry: validate a query's routing knobs; return ``peer_k``.

    ``peer_k`` defaults to ``k``.  Every query path calls this before it
    touches the network or the clock.
    """
    if peer_k is None:
        peer_k = k
    if max_peers <= 0:
        raise ValueError(f"max_peers must be positive, got {max_peers}")
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if peer_k <= 0:
        raise ValueError(f"peer_k must be positive, got {peer_k}")
    if fallback_spares < 0:
        raise ValueError(f"fallback_spares must be >= 0, got {fallback_spares}")
    return peer_k


class MinervaEngine:
    """An in-process MINERVA network over a fixed set of collections."""

    def __init__(
        self,
        collections: list[Corpus],
        *,
        spec: SynopsisSpec,
        scorer: Scorer | None = None,
        histogram_cells: int | None = None,
        replicas: int = 1,
        ring_bits: int = DEFAULT_ID_BITS,
        indexes: list[InvertedIndex] | None = None,
        reference_index: InvertedIndex | None = None,
        topology: "RoutingTopology | None" = None,
    ) -> None:
        if not collections:
            raise ValueError("an engine needs at least one collection")
        if indexes is not None and len(indexes) != len(collections):
            raise ValueError(
                f"got {len(indexes)} prebuilt indexes for "
                f"{len(collections)} collections"
            )
        self.spec = spec
        self.cost = CostModel()
        width = max(2, len(str(len(collections) - 1)))
        self.peers: dict[str, Peer] = {}
        for i, corpus in enumerate(collections):
            peer_id = f"p{i:0{width}d}"
            self.peers[peer_id] = Peer(
                peer_id,
                corpus,
                spec=spec,
                scorer=scorer,
                histogram_cells=histogram_cells,
                index=indexes[i] if indexes is not None else None,
            )
        self.ring = ChordRing(self.peers.keys(), bits=ring_bits)
        node_of_peer = {
            peer_id: self.ring.node_id_of(peer_id) for peer_id in self.peers
        }
        self.directory = Directory(
            self.ring,
            cost=self.cost,
            replicas=replicas,
            node_of_peer=node_of_peer,
        )
        self._reference_index: InvertedIndex | None = reference_index
        self._scorer = scorer
        self._published_terms: set[str] = set()
        self._departed: set[str] = set()
        if topology is None:
            # Late import: repro.topology imports minerva.posts, which
            # pulls in this module via the package __init__.
            from ..topology.flat import FlatTopology

            topology = FlatTopology()
        self.topology = topology
        self.topology.bind(self)

    @property
    def num_peers(self) -> int:
        """Current network size (the TopologyHost contract)."""
        return len(self.peers)

    # -- directory population ---------------------------------------------------

    def publish(
        self, terms: set[str] | None = None, *, with_histogram: bool = False
    ) -> int:
        """Have every peer post its summaries for ``terms``.

        ``terms=None`` publishes every peer's full vocabulary (the
        realistic but expensive mode); experiments that know their query
        workload publish only the needed terms, which does not change any
        routing decision for those queries.  Returns the number of Posts
        published.
        """
        published = 0
        for peer in self.peers.values():
            peer_terms = (
                peer.index.vocabulary
                if terms is None
                else {t for t in terms if t in peer.index}
            )
            for term in sorted(peer_terms):
                self.directory.publish(
                    peer.build_post(term, with_histogram=with_histogram)
                )
                published += 1
        self._published_terms.update(
            terms if terms is not None else self.all_terms()
        )
        return published

    def all_terms(self) -> set[str]:
        terms: set[str] = set()
        for peer in self.peers.values():
            terms.update(peer.index.vocabulary)
        return terms

    # -- churn (Section 1.1: "resilience to failures and churn") -----------------

    def add_peer(
        self,
        peer_id: str,
        corpus: Corpus,
        *,
        publish_terms: set[str] | None = None,
        with_histogram: bool = False,
    ) -> Peer:
        """Join a new peer: index locally, join the ring, publish Posts.

        The Chord join migrates the directory keys the newcomer now owns;
        ``publish_terms`` limits what the peer posts (None = everything
        previously published network-wide that the peer holds).
        """
        if peer_id in self.peers:
            raise ValueError(f"peer id {peer_id!r} already in the network")
        peer = Peer(
            peer_id,
            corpus,
            spec=self.spec,
            scorer=self._scorer,
            histogram_cells=None,
        )
        self.peers[peer_id] = peer
        node = self.ring.add_node(peer_id)
        self.directory._node_of_peer[peer_id] = node.node_id
        terms = (
            {t for t in self._published_terms if t in peer.index}
            if publish_terms is None
            else {t for t in publish_terms if t in peer.index}
        )
        for term in sorted(terms):
            self.directory.publish(
                peer.build_post(term, with_histogram=with_histogram)
            )
        self._published_terms.update(terms)
        # The union of collections changed; the reference engine must be
        # rebuilt lazily on next access.
        self._reference_index = None
        self._departed.discard(peer_id)
        self.topology.handle_peer_up(peer_id)
        return peer

    def remove_peer(self, peer_id: str, *, purge_posts: bool = True) -> None:
        """A peer leaves: hand its directory keys over, drop its Posts.

        With ``purge_posts=False`` the departed peer's Posts linger in
        the PeerLists (the realistic crash case) until re-publication; a
        router may then select a dead peer, which ``execute`` reports as
        an empty contribution.
        """
        peer = self._get_peer(peer_id)
        node_id = self.directory._node_of_peer.pop(peer_id)
        self.ring.remove_node(node_id)
        del self.peers[peer_id]
        if purge_posts:
            self.purge_posts_of(peer_id)
        self._reference_index = None
        # Keep a tombstone view so executions skip the dead peer.
        self._departed.add(peer_id)
        # Hierarchical topologies rebuild the cluster entry and re-elect
        # if the departed peer was a super-peer (no-op on FlatTopology).
        self.topology.handle_peer_down(peer_id)
        _ = peer  # the object dies with its last reference

    def grow_peer(
        self,
        peer_id: str,
        documents: Iterable[Document],
        *,
        republish_terms: set[str] | None = None,
        drift_factor: float = 1.5,
    ) -> list[str]:
        """A peer's crawl grows; optionally refresh its directory Posts.

        Adds ``documents`` to the peer's collection, invalidates the
        centralized reference index (the network's union changed), and
        returns the terms whose index lists drifted past ``drift_factor``
        — the re-posting candidates.

        ``republish_terms`` controls what actually gets re-posted:
        ``None`` re-posts exactly the drifted terms (threshold policy), a
        set re-posts that set (pass ``set()`` for a never-repost policy;
        the directory then serves stale Posts, and routing quality decays
        accordingly — the trade studied by
        :mod:`repro.experiments.reposting`).
        """
        peer = self._get_peer(peer_id)
        drifted = peer.add_documents(documents, drift_factor=drift_factor)
        self._reference_index = None
        terms = drifted if republish_terms is None else sorted(republish_terms)
        for term in terms:
            if term in peer.index:
                self.directory.publish(peer.build_post(term))
        self._published_terms.update(t for t in terms if t in peer.index)
        return drifted

    def purge_posts_of(self, peer_id: str) -> int:
        """Garbage-collect a departed peer's Posts from all PeerLists."""
        removed = 0
        for node_id in self.ring.node_ids:
            for value in self.ring.node(node_id).store.values():
                if isinstance(value, PeerList) and value.remove(peer_id):
                    removed += 1
        return removed

    # -- reference engine ----------------------------------------------------------

    @property
    def reference_index(self) -> InvertedIndex:
        """The centralized engine over the union of all collections."""
        if self._reference_index is None:
            union: dict[int, object] = {}
            for peer in self.peers.values():
                for document in peer.corpus:
                    union.setdefault(document.doc_id, document)
            corpus = Corpus.from_documents(
                union[doc_id] for doc_id in sorted(union)  # type: ignore[misc]
            )
            self._reference_index = InvertedIndex(corpus, self._scorer)
        return self._reference_index

    def reference_topk(
        self, query: Query, *, k: int, conjunctive: bool = False
    ) -> frozenset[int]:
        """Doc ids of the centralized engine's top-k for ``query``."""
        results = execute_query(
            self.reference_index, query.terms, k=k, conjunctive=conjunctive
        )
        return result_ids(results)

    # -- query pipeline --------------------------------------------------------------

    def resolve_initiator(self, query: Query, initiator_id: str | None) -> str:
        """Entry: check the query is routable and default its initiator.

        The default initiator is ``sorted(peers)[query_id % len(peers)]``;
        an explicit one must be a current peer.
        """
        self._ensure_published(query)
        if initiator_id is None:
            peer_ids = sorted(self.peers)
            return peer_ids[query.query_id % len(peer_ids)]
        if initiator_id not in self.peers:
            raise KeyError(f"unknown peer {initiator_id!r}")
        return initiator_id

    def initiator_seed(
        self,
        query: Query,
        initiator_id: str,
        *,
        k: int = 50,
        conjunctive: bool = False,
    ) -> tuple[tuple[ScoredDocument, ...], LocalView]:
        """Seed: the initiator's local top-``k`` and the view built on it.

        The local result is computed once per query; it seeds IQN's
        reference synopsis through the :class:`LocalView` and is the first
        list of the final merge.
        """
        initiator = self._get_peer(initiator_id)
        local = tuple(initiator.answer_query(query.terms, k=k, conjunctive=conjunctive))
        view = LocalView(
            peer_id=initiator_id,
            result_doc_ids=result_ids(local),
            doc_ids_by_term={
                term: initiator.local_doc_ids(term) for term in query.terms
            },
        )
        return local, view

    def local_view(
        self,
        query: Query,
        initiator_id: str,
        *,
        k: int = 50,
        conjunctive: bool = False,
    ) -> LocalView:
        """The initiator's local knowledge (seeds the reference synopsis)."""
        return self.initiator_seed(query, initiator_id, k=k, conjunctive=conjunctive)[1]

    def make_context(
        self,
        query: Query,
        *,
        initiator_id: str,
        k: int = 50,
        conjunctive: bool = False,
        peer_list_limit: int | None = None,
        peer_list_batch_size: int = 8,
        max_peers: int | None = None,
    ) -> RoutingContext:
        """Assemble the routing context via the topology (Section 4).

        See :meth:`RoutingTopology.assemble
        <repro.topology.base.RoutingTopology.assemble>`; with
        ``peer_list_limit`` routing sees the partial lists of the top-k
        fetch, the approximation the paper accepts "for efficiency
        reasons".
        """
        local_view = self.local_view(
            query, initiator_id, k=k, conjunctive=conjunctive
        )
        scoped = self.topology.assemble(
            query,
            requester=initiator_id,
            initiator=local_view,
            conjunctive=conjunctive,
            max_peers=max_peers,
            peer_list_limit=peer_list_limit,
            peer_list_batch_size=peer_list_batch_size,
        )
        return self.topology.context_for(
            query, scoped, initiator=local_view, conjunctive=conjunctive
        )

    def execute(
        self,
        query: Query,
        peer_ids: list[str],
        *,
        k: int = 50,
        conjunctive: bool = False,
    ) -> dict[str, tuple[ScoredDocument, ...]]:
        """Forward the query to ``peer_ids`` and collect local top-k lists."""
        per_peer: dict[str, tuple[ScoredDocument, ...]] = {}
        query_bits = QUERY_HEADER_BITS + QUERY_TERM_BITS * len(query.terms)
        for peer_id in peer_ids:
            if peer_id in self._departed:
                # Stale Post selected a dead peer: the forward is paid,
                # nothing comes back (the realistic crash-churn case).
                self.cost.record(MessageKinds.QUERY_FORWARD, bits=query_bits)
                per_peer[peer_id] = ()
                continue
            peer = self._get_peer(peer_id)
            self.cost.record(MessageKinds.QUERY_FORWARD, bits=query_bits)
            results = tuple(
                peer.answer_query(query.terms, k=k, conjunctive=conjunctive)
            )
            self.cost.record(
                MessageKinds.RESULT_RETURN, bits=RESULT_ENTRY_BITS * len(results)
            )
            per_peer[peer_id] = results
        return per_peer

    def measure(
        self,
        query: Query,
        plan: TopologyPlan,
        *,
        initiator_id: str,
        local: tuple[ScoredDocument, ...],
        queried: tuple[str, ...],
        per_peer: dict[str, tuple[ScoredDocument, ...]],
        cost: CostSnapshot,
        k: int,
        conjunctive: bool = False,
        cori_weighted_merge: bool = False,
    ) -> QueryOutcome:
        """Measure: the recall curve over ``queried`` and the final merge.

        ``recall_at[j]`` covers the initiator's ``local`` result plus the
        first ``j`` queried peers' lists in ``per_peer``; the merge fuses
        ``local`` with every list in ``per_peer``, in its order.
        """
        reference = self.reference_topk(query, k=k, conjunctive=conjunctive)
        covered = set(result_ids(local))
        recall_curve = [relative_recall(covered, reference)]
        for peer_id in queried:
            covered.update(result_ids(per_peer[peer_id]))
            recall_curve.append(relative_recall(covered, reference))
        if cori_weighted_merge:
            from ..routing.cori import cori_scores

            assert plan.context is not None  # every topology plan records it
            weights = cori_scores(plan.context)
            weights[initiator_id] = 1.0  # local scores are trusted as-is
            merged = weighted_merge(
                {initiator_id: local, **per_peer}, weights, k=None
            )
        else:
            merged = merge_results([local, *per_peer.values()], k=None)
        return QueryOutcome(
            query=query,
            initiator_id=initiator_id,
            selected=queried,
            recall_at=tuple(recall_curve),
            merged=tuple(merged),
            reference_ids=reference,
            cost=cost,
            per_peer_results=per_peer,
            routing_stats=plan.routing_stats,
            clusters_ranked=plan.clusters_ranked,
            super_fetches=plan.super_fetches,
        )

    def run_query(
        self,
        query: Query,
        selector: PeerSelector,
        *,
        initiator_id: str | None = None,
        max_peers: int = 10,
        k: int = 50,
        peer_k: int | None = None,
        conjunctive: bool = False,
        peer_list_limit: int | None = None,
        cori_weighted_merge: bool = False,
    ) -> QueryOutcome:
        """Route, execute, merge, and measure one query end to end.

        ``k`` is the centralized reference depth recall is measured
        against; ``peer_k`` (default ``k``) is how many results each
        queried peer — and the initiator's local execution — contributes.
        Setting ``peer_k < k`` models the regime where no single peer can
        satisfy the information need alone, which is where routing
        quality matters most.  ``cori_weighted_merge`` fuses results with
        each peer's CORI collection score as weight (classic distributed
        IR result merging) instead of the plain max-score merge; recall
        is unaffected (it is set-based), the merged *ranking* changes.
        """
        peer_k = check_query_knobs(max_peers=max_peers, k=k, peer_k=peer_k)
        initiator_id = self.resolve_initiator(query, initiator_id)
        before = self.cost.snapshot()
        local, view = self.initiator_seed(
            query, initiator_id, k=peer_k, conjunctive=conjunctive
        )
        plan = self.topology.route(
            query,
            selector,
            max_peers,
            requester=initiator_id,
            initiator=view,
            conjunctive=conjunctive,
            peer_list_limit=peer_list_limit,
        )
        per_peer = self.execute(
            query, list(plan.selected), k=peer_k, conjunctive=conjunctive
        )
        return self.measure(
            query,
            plan,
            initiator_id=initiator_id,
            local=local,
            queried=plan.selected,
            per_peer=per_peer,
            cost=self.cost.snapshot() - before,
            k=k,
            conjunctive=conjunctive,
            cori_weighted_merge=cori_weighted_merge,
        )

    def run_query_networked(
        self,
        query: Query,
        selector: PeerSelector,
        *,
        faults: FaultPlan | None = None,
        profile: LatencyProfile | None = None,
        policy: RetryPolicy | None = None,
        seed: int = 0,
        initiator_id: str | None = None,
        max_peers: int = 10,
        k: int = 50,
        peer_k: int | None = None,
        conjunctive: bool = False,
        successor_fallback: bool = False,
        fallback_spares: int = 0,
    ) -> NetworkedQueryOutcome:
        """Run one query over the simulated network (:mod:`repro.simnet`).

        The same pipeline as :meth:`run_query`, with assembly and
        forwarding executed as messages on a discrete-event transport,
        subject to ``faults`` (a
        :class:`~repro.simnet.faults.FaultPlan`), the wire ``profile``
        (a :class:`~repro.net.latency.LatencyProfile`), and the retry
        ``policy`` (a :class:`~repro.simnet.rpc.RetryPolicy`).  Returns
        a :class:`~repro.simnet.executor.NetworkedQueryOutcome`; with no
        faults its merged document ids equal :meth:`run_query`'s.
        ``successor_fallback`` and ``fallback_spares`` enable the churn
        robustness path (retry failed directory fetches at the ring
        successor; substitute dead selected peers with the next-ranked
        spares) — see :meth:`SimNetExecutor.submit`.  For
        concurrent workloads build a
        :class:`~repro.simnet.executor.SimNetExecutor` directly and
        reuse it across queries.
        """
        from ..simnet.executor import SimNetExecutor

        executor = SimNetExecutor(
            self, faults=faults, profile=profile, policy=policy, seed=seed
        )
        executor.submit(
            query,
            selector,
            initiator_id=initiator_id,
            max_peers=max_peers,
            k=k,
            peer_k=peer_k,
            conjunctive=conjunctive,
            successor_fallback=successor_fallback,
            fallback_spares=fallback_spares,
        )
        return executor.run()[0]

    # -- helpers ------------------------------------------------------------------

    def _ensure_published(self, query: Query) -> None:
        missing = set(query.terms) - self._published_terms
        if missing:
            raise RuntimeError(
                f"query terms never published to the directory: {sorted(missing)}; "
                "call engine.publish(terms) first"
            )

    def _get_peer(self, peer_id: str) -> Peer:
        try:
            return self.peers[peer_id]
        except KeyError:
            raise KeyError(f"unknown peer {peer_id!r}") from None

    def __repr__(self) -> str:
        return (
            f"MinervaEngine(peers={len(self.peers)}, spec={self.spec.label}, "
            f"ring={len(self.ring)})"
        )
