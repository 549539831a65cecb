"""Pluggable routing topologies: who assembles a query's candidate peers.

Historically every query path — the in-process engine, the simulated
network executor, the serving frontend — reached straight into the flat
global directory: one full PeerList fetch per query term.  That
hard-codes the paper's single-level architecture.  This package lifts
candidate-peer assembly, directory lookup, and plan scoping behind one
object, :class:`RoutingTopology`, with two implementations:

- :class:`~repro.topology.flat.FlatTopology` — today's behavior,
  bit-identical plans and costs;
- :class:`~repro.topology.superpeer.SuperPeerTopology` — a two-level
  super-peer tier (Ismail et al.): peers are clustered by synopsis
  similarity, each cluster elects a super-peer holding merged cluster
  synopses, and IQN runs twice — first across clusters, then across the
  winning clusters' members under a split budget.

The contract is deliberately small.  A topology is *bound* to a host
(anything exposing a directory, a synopsis spec, and a peer count), and
then answers three questions per query:

1. :meth:`RoutingTopology.assemble` — which PeerLists does the initiator
   see, and what did fetching them cost?
2. :meth:`RoutingTopology.context_for` — wrap those lists into the
   :class:`~repro.routing.base.RoutingContext` the selectors consume.
3. :meth:`RoutingTopology.plan` — run the selector over the (possibly
   scoped) context and report the plan with topology diagnostics.

Churn integration happens through :meth:`RoutingTopology.handle_peer_down`
/ :meth:`~RoutingTopology.handle_peer_up`, which hierarchical topologies
use for deterministic super-peer re-election and cluster-synopsis
rebuilds (surfaced as ``reelect`` events on the
:class:`~repro.churn.service.ChurnService` feed).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

from ..datasets.queries import Query
from ..minerva.directory import Directory
from ..minerva.posts import PeerList
from ..routing.base import LocalView, PeerSelector, RoutingContext, SeedSynopses
from ..synopses.factory import SynopsisSpec

if TYPE_CHECKING:  # annotation only — fastpath imports stay off this path
    from ..core.fastpath import RoutingStats

__all__ = [
    "TopologyHost",
    "ScopedLists",
    "TopologyPlan",
    "ReElection",
    "RoutingTopology",
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


@dataclass
class ScopedLists:
    """The candidate PeerLists one query sees, plus scoping diagnostics.

    ``scope_size`` is ``None`` for an unrestricted (flat) assembly; for
    a hierarchical assembly it counts the peers routing may select from
    (the winning clusters' live members).  The fetch counters are filled
    by networked assembly (:class:`~repro.simnet.executor.SimNetExecutor`),
    where directory lookups can fail; in-process assembly leaves them 0.
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

    #: True when queries route through a super-peer tier; networked
    #: assembly (:class:`~repro.simnet.executor.SimNetExecutor`) branches
    #: on this to use the two-phase fetch messages.
    hierarchical: bool = False

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

    @property
    def bound(self) -> bool:
        return self._host is not None

    # -- query pipeline --------------------------------------------------

    @abstractmethod
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
        """Fetch the PeerLists this query routes over, charging cost.

        ``initiator`` seeds hierarchical cluster ranking (the reference
        synopsis starts from the initiator's local result); flat
        assembly ignores it.  ``max_peers`` lets hierarchical topologies
        derive their cluster budget from the query's peer budget.
        """

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
        """A peer crashed or left; hierarchical topologies re-elect."""
        del peer_id
        return None

    def handle_peer_up(self, peer_id: str) -> None:
        """A crashed peer recovered and re-published its posts."""
        del peer_id
