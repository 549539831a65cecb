"""Pluggable routing topologies: who assembles a query's candidate peers.

One object, :class:`RoutingTopology`, owns candidate-peer assembly,
directory lookup, and plan scoping:

- :class:`~repro.topology.flat.FlatTopology` — the paper's flat
  directory: one full PeerList fetch per query term;
- :class:`~repro.topology.superpeer.SuperPeerTopology` — a two-level
  super-peer tier (Ismail et al.): peers are clustered by synopsis
  similarity, each cluster elects a super-peer holding merged cluster
  synopses, and IQN runs first across clusters, then across the winning
  clusters' members under a split budget.

A topology is *bound* to a host (anything exposing a directory, a
synopsis spec, and a peer count) and writes its assembly once, as a
generator (:meth:`RoutingTopology.assembly`).  The generator yields
batches of directory requests (:class:`PeerListFetch`,
:class:`ClusterFetch`, :class:`MemberFetch`) and is sent one reply per
request, ``None`` where the request failed, so a failure is handled
next to the happy path.  Two drivers answer the requests, and only they
differ: :meth:`RoutingTopology.assemble` in-process from the host's
directory, :class:`~repro.simnet.executor.SimNetExecutor` as one RPC
each.  Both read replies through :meth:`RoutingTopology.answer`; the
networked one sends each request's ``detached`` reply, since sim time
passes before it arrives.
:meth:`RoutingTopology.context_for` and :meth:`RoutingTopology.plan`
then turn the lists into a ranked plan.

Churn integration happens through :meth:`RoutingTopology.handle_peer_down`
/ :meth:`~RoutingTopology.handle_peer_up`, which the super-peer tier
uses for deterministic re-election and cluster-synopsis rebuilds
(surfaced as ``reelect`` events on the
:class:`~repro.churn.service.ChurnService` feed).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar, Generator, Protocol, Sequence, Union

import numpy as np

from ..datasets.queries import Query
from ..minerva.directory import Directory
from ..minerva.posts import PeerList
from ..net.cost import MessageKinds
from ..routing.base import LocalView, PeerSelector, RoutingContext, SeedSynopses
from ..synopses.factory import SynopsisSpec

if TYPE_CHECKING:  # annotation only — fastpath imports stay off this path
    from ..core.fastpath import RoutingStats
    from ..net.latency import LatencyProfile

__all__ = [
    "Assembly",
    "ClusterFetch",
    "DirectoryRequest",
    "MemberFetch",
    "PeerListFetch",
    "TopologyHost",
    "ScopedLists",
    "TopologyPlan",
    "ReElection",
    "RoutingTopology",
    "RowSelection",
    "selection_list",
]


class TopologyHost(Protocol):
    """What a topology needs from its surroundings to assemble queries.

    :class:`~repro.minerva.engine.MinervaEngine` satisfies this, and so
    does the lightweight directory-only host the hierarchy experiments
    use at 100k peers (:class:`repro.datasets.scale.ScaledTestbed`).
    """

    directory: Directory
    spec: SynopsisSpec

    @property
    def num_peers(self) -> int: ...


#: Rows of a stored PeerList, in reply order: what a super-peer answers
#: per term of a :class:`MemberFetch`.
RowSelection = tuple[PeerList, np.ndarray]


def selection_list(term: str, selection: RowSelection) -> PeerList:
    """``term``'s selected rows copied into a PeerList of their own."""
    source, _ = selection
    return PeerList.from_rows(term, source.peer_table, [selection])


def _lists_bits(reply: dict[str, PeerList]) -> int:
    return sum(peer_list.size_in_bits for peer_list in reply.values())


def _selections_bits(reply: dict[str, RowSelection]) -> int:
    return sum(source.rows_size_in_bits(rows) for source, rows in reply.values())


def _detached_selections(reply: dict[str, RowSelection]) -> dict[str, RowSelection]:
    """Each selection copied out: rows no later write to the store moves."""
    detached: dict[str, RowSelection] = {}
    for term, selection in reply.items():
        copy = selection_list(term, selection)
        detached[term] = (copy, np.arange(len(copy), dtype=np.int64))
    return detached


def _live(reply: Any) -> Any:
    # Not copied: routing reads the stored object as it is on arrival,
    # so a write while the reply is in flight shows through.
    return reply


@dataclass(frozen=True)
class PeerListFetch:
    """``term``'s PeerList, routed over the DHT to the term's owner.

    Every request class names its reply's wire size (``reply_bits``)
    and the reply as a networked server sends it (``detached``).
    """

    term: str
    kind: ClassVar[str] = MessageKinds.PEERLIST_FETCH
    detached = staticmethod(_live)

    @property
    def terms(self) -> tuple[str, ...]:
        return (self.term,)

    @property
    def dht_key(self) -> str:
        return self.term

    @staticmethod
    def reply_bits(reply: PeerList) -> int:
        return reply.size_in_bits


@dataclass(frozen=True)
class ClusterFetch:
    """The merged cluster lists of ``terms``, asked of a super-peer.

    It and :class:`MemberFetch` have no DHT key: they go straight to
    the peer :meth:`RoutingTopology.server_of` names.
    """

    terms: tuple[str, ...]
    kind: ClassVar[str] = MessageKinds.CLUSTER_FETCH
    dht_key: ClassVar[None] = None
    reply_bits = staticmethod(_lists_bits)
    detached = staticmethod(_live)


@dataclass(frozen=True)
class MemberFetch:
    """Cluster ``label``'s live members' rows of ``terms``' PeerLists.

    The reply maps each term to a :data:`RowSelection` of the stored
    list.  Read in-process, the rows are merged in place; a networked
    reply is copied when the server sends it, because churn can move
    stored rows (swap-with-last removal) before it arrives.
    """

    label: str
    terms: tuple[str, ...]
    kind: ClassVar[str] = MessageKinds.MEMBER_FETCH
    dht_key: ClassVar[None] = None
    reply_bits = staticmethod(_selections_bits)
    detached = staticmethod(_detached_selections)


DirectoryRequest = Union[PeerListFetch, ClusterFetch, MemberFetch]


@dataclass
class ScopedLists:
    """The candidate PeerLists one query sees, plus scoping diagnostics.

    ``scope_size`` is ``None`` for an unrestricted (flat) assembly; for
    a hierarchical assembly it counts the peers routing may select from
    (the winning clusters' live members).  The fetch counters are filled
    by networked assembly, where directory requests can fail; in-process
    assembly leaves them 0.
    """

    peer_lists: dict[str, PeerList]
    scope_size: int | None = None
    clusters_ranked: tuple[str, ...] = ()
    #: Messages answered by super-peers for this assembly: one cluster
    #: directory fetch plus one member fetch per winning cluster.
    super_fetches: int = 0
    #: Seed synopses the assembly already built for this query (see
    #: :meth:`~repro.routing.base.RoutingContext.seed_synopsis`);
    #: :meth:`RoutingTopology.context_for` hands them on.
    seed_synopses: SeedSynopses = field(default_factory=dict, repr=False)
    #: Query terms whose directory stayed unreachable; each contributed
    #: an empty PeerList.
    failed_terms: tuple[str, ...] = ()
    #: Directory request attempts, retries included.
    directory_attempts: int = 0
    #: PeerList fetches retried at the owner's ring successor.
    directory_fallbacks: int = 0
    #: Hierarchical fetches that degraded: an unreachable super-peer
    #: (full flat re-fetch) or a winning cluster that never answered.
    topology_fallbacks: int = 0


#: Yields request batches, is sent one reply each (``None`` = failed).
Assembly = Generator[list[DirectoryRequest], list[Any], ScopedLists]


@dataclass(frozen=True)
class TopologyPlan:
    """A routed plan plus what the topology did to produce it."""

    selected: tuple[str, ...]
    routing_stats: "RoutingStats | None" = field(default=None, repr=False)
    clusters_ranked: tuple[str, ...] = ()
    #: Candidate peers the selector could see (None = whole directory).
    scope_size: int | None = None
    super_fetches: int = 0
    #: The context the selector ranked (CORI-weighted merging reads it).
    context: RoutingContext | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class ReElection:
    """Outcome of a deterministic super-peer re-election after churn."""

    cluster: str
    old_super: str
    new_super: str
    #: Remaining live members of the cluster, sorted.
    members: tuple[str, ...]
    #: Terms whose merged cluster synopses were rebuilt, sorted.
    terms: tuple[str, ...]


class RoutingTopology(ABC):
    """Owns candidate-peer assembly, directory lookup, and plan scoping."""

    def __init__(self) -> None:
        self._host: TopologyHost | None = None

    # -- binding ---------------------------------------------------------

    def bind(self, host: TopologyHost) -> None:
        """Attach to a host; must happen before any query assembly."""
        self._host = host
        self._on_bind()

    def _on_bind(self) -> None:
        """Hook for subclasses needing setup at bind time."""

    @property
    def host(self) -> TopologyHost:
        if self._host is None:
            raise RuntimeError(
                f"{type(self).__name__} is not bound to a host; call bind() first"
            )
        return self._host

    # -- query pipeline --------------------------------------------------

    def assembly(
        self,
        query: Query,
        *,
        initiator: LocalView | None = None,
        conjunctive: bool = False,
        max_peers: int | None = None,
        spec: SynopsisSpec | None = None,
    ) -> Assembly:
        """This topology's assembly of ``query``'s PeerLists, as requests.

        The directory's own: one PeerList fetch per query term, in query
        order.  A term whose fetch failed routes over an empty PeerList
        and lands in ``failed_terms``.  The keywords serve the super-peer
        tier's cluster ranking: ``initiator`` seeds its reference
        synopsis, ``max_peers`` sets its cluster budget, and ``spec``
        overrides the host's synopsis spec for the seeds it builds
        (phase two must use the same spec to reuse them).
        """
        replies = yield [PeerListFetch(term) for term in query.terms]
        scoped = ScopedLists(peer_lists={})
        failed: list[str] = []
        for term, reply in zip(query.terms, replies):
            if reply is None:
                # Directory unreachable for this term: route with what
                # we have rather than failing the query.
                reply = PeerList(term=term, peer_table=self.host.directory.peer_table)
                failed.append(term)
            scoped.peer_lists[term] = reply
        scoped.failed_terms = tuple(failed)
        return scoped

    def answer(
        self, requests: Sequence[DirectoryRequest], node_id: int | None = None
    ) -> list[tuple[Any, int]]:
        """Each request's reply and its wire bits, read from directory state.

        Called by the networked driver's RPC handler for every request
        and in-process for all but PeerList fetches, which
        :meth:`~repro.minerva.directory.Directory.peer_list` reads with
        the same :meth:`~repro.minerva.directory.Directory.list_at`.
        ``node_id`` is the ring node a PeerList fetch reached.
        """
        replies: list[tuple[Any, int]] = []
        for request in requests:
            assert isinstance(request, PeerListFetch) and node_id is not None
            stored = self.host.directory.list_at(node_id, request.term)
            replies.append((stored, stored.size_in_bits))
        return replies

    def server_of(self, request: DirectoryRequest, requester: str) -> str:
        """The peer a request without a DHT key is sent to."""
        raise NotImplementedError(f"{type(self).__name__} sends no {request.kind}")

    def assemble(
        self,
        query: Query,
        *,
        requester: str | None = None,
        initiator: LocalView | None = None,
        conjunctive: bool = False,
        max_peers: int | None = None,
        peer_list_limit: int | None = None,
        peer_list_batch_size: int = 8,
    ) -> ScopedLists:
        """In-process driver: run :meth:`assembly` on the host's directory.

        A PeerList fetch is a routed lookup from ``requester``'s ring
        node (:meth:`~repro.minerva.directory.Directory.peer_list`
        charges its hops and payload); any other request is read with
        :meth:`answer` and charged its bits.  Nothing fails in-process.
        ``peer_list_limit`` is a :class:`~repro.topology.flat.FlatTopology`
        option.
        """
        del peer_list_batch_size
        if peer_list_limit is not None:
            raise ValueError(
                "peer_list_limit is a flat-directory optimization; "
                f"{type(self).__name__} does not take it"
            )
        directory = self.host.directory
        steps = self.assembly(
            query, initiator=initiator, conjunctive=conjunctive, max_peers=max_peers
        )
        requests = next(steps)
        while True:
            answers = iter(
                self.answer([r for r in requests if not isinstance(r, PeerListFetch)])
            )
            replies: list[Any] = []
            for request in requests:
                if isinstance(request, PeerListFetch):
                    reply = directory.peer_list(request.term, requester=requester)
                else:
                    reply, bits = next(answers)
                    directory.cost.record(request.kind, bits=bits)
                replies.append(reply)
            try:
                requests = steps.send(replies)
            except StopIteration as done:
                return done.value

    def context_for(
        self,
        query: Query,
        scoped: ScopedLists,
        *,
        initiator: LocalView | None = None,
        conjunctive: bool = False,
        spec: SynopsisSpec | None = None,
    ) -> RoutingContext:
        """Wrap assembled lists into the context selectors consume.

        ``spec`` overrides the host's synopsis spec — the serving layer
        passes a build-memoizing wrapper so reference synopses shared
        across queries are built once.  It must be the spec the assembly
        seeded ``scoped.seed_synopses`` with, or phase two rebuilds them.
        """
        return RoutingContext(
            query=query,
            peer_lists=scoped.peer_lists,
            num_peers=self.host.num_peers,
            spec=self.host.spec if spec is None else spec,
            initiator=initiator,
            conjunctive=conjunctive,
            seed_synopses=scoped.seed_synopses,
        )

    def plan(
        self,
        context: RoutingContext,
        scoped: ScopedLists,
        selector: PeerSelector,
        max_peers: int,
    ) -> TopologyPlan:
        """Run the selector over the scoped context."""
        ranked = selector.rank(context, max_peers)
        return TopologyPlan(
            selected=tuple(ranked),
            routing_stats=getattr(selector, "last_stats", None),
            clusters_ranked=scoped.clusters_ranked,
            scope_size=scoped.scope_size,
            super_fetches=scoped.super_fetches,
            context=context,
        )

    def route(
        self,
        query: Query,
        selector: PeerSelector,
        max_peers: int,
        *,
        requester: str | None = None,
        initiator: LocalView | None = None,
        conjunctive: bool = False,
        peer_list_limit: int | None = None,
    ) -> TopologyPlan:
        """Assemble, contextualize, and plan in one call."""
        scoped = self.assemble(
            query,
            requester=requester,
            initiator=initiator,
            conjunctive=conjunctive,
            max_peers=max_peers,
            peer_list_limit=peer_list_limit,
        )
        context = self.context_for(
            query, scoped, initiator=initiator, conjunctive=conjunctive
        )
        return self.plan(context, scoped, selector, max_peers)

    @abstractmethod
    def cache_signature(self) -> str:
        """Every knob that can change assembled lists or scoped plans."""

    # -- churn hooks -----------------------------------------------------

    def handle_peer_down(self, peer_id: str) -> ReElection | None:
        """A peer crashed or left; the super-peer tier re-elects."""
        del peer_id
        return None

    def handle_peer_up(self, peer_id: str) -> None:
        """A crashed peer recovered and re-published its posts."""
        del peer_id

    # -- simnet latency --------------------------------------------------

    def latency_profile_of(self, src: str, dst: str) -> "LatencyProfile | None":
        """The ``src`` -> ``dst`` link's latency profile (None = transport base)."""
        del src, dst
        return None
