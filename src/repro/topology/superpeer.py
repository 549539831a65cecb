"""Two-level super-peer routing (Ismail et al., PAPERS.md).

Peers are grouped by synopsis similarity (:mod:`.clustering`), each
cluster elects the highest-capacity member as its super-peer, and the
super-peers jointly hold a *cluster directory*: per term, one merged
entry per cluster — ``cdf`` summed, scores aggregated, synopsis =
union-fold of the members' synopses — stored in
:class:`~repro.minerva.posts.PeerList`\\ s backed by the columnar
:class:`~repro.synopses.columnstore.TermColumns` store on a private
cluster-id table, so cluster ranking itself runs on the columnar fast
path.  One function folds the stored rows into these entries on the
packed columns (:func:`_fold_cluster_entries`), with no Post built:
the build folds every row of a term at once, the churn hooks refold
one cluster's live rows.

Query assembly is two-phase IQN under a split budget:

1. **Rank clusters** — the initiator asks its super-peer for the
   cluster directory of the query terms (one ``cluster_fetch`` message)
   and runs IQN over the merged cluster synopses, selecting at most the
   cluster budget (default ``isqrt(max_peers)``).
2. **Rank members** — each winning cluster's super-peer answers, per
   term, a row selection of the stored PeerList: its live members' rows
   in member order (one ``member_fetch`` per winner).  Each term's
   selections are gathered into one merged list, in winner order, and
   the query's selector ranks only those peers under the full peer
   budget.  In-process the rows are read in place; only a networked
   reply is copied, when the super-peer sends it.

Against the flat topology — which pays per-term DHT routing hops plus
the *complete* PeerList payload of every term — the super-peer tier
sends ``1 + |winners|`` messages carrying only the winning clusters'
entries, which is where the messages-per-query win at large peer
counts comes from (``experiments/hierarchy.py``).

Churn: :meth:`SuperPeerTopology.handle_peer_down` marks the peer dead,
refolds its cluster's entry of every cluster-list term from the live
members' stored rows, in stored-row order — so the entries equal a fresh
build's — and, when the dead peer was the super, deterministically
re-elects (same capacity rule over the survivors).
:class:`~repro.churn.service.ChurnService` surfaces that as a
``reelect`` :class:`DirectoryEvent` so serving plan caches can
invalidate exactly the affected cluster.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from ..datasets.queries import Query
from ..minerva.posts import PeerList, PostBatch
from ..routing.base import LocalView, PeerSelector, RoutingContext, SeedSynopses
from ..synopses.columnstore import PeerIdTable, SynopsisColumn, TermColumns
from .base import (
    Assembly,
    ClusterFetch,
    DirectoryRequest,
    MemberFetch,
    ReElection,
    RoutingTopology,
    RowSelection,
    ScopedLists,
)
from .clustering import (
    Cluster,
    cluster_peers,
    default_num_clusters,
    elect_super_peer,
    group_fold_synopses,
    peer_capacities,
    peer_profiles,
)

if TYPE_CHECKING:
    from ..net.latency import LatencyProfile
    from ..synopses.factory import SynopsisSpec

__all__ = ["SuperPeerTopology"]

#: Cluster budget when neither the topology nor the query pins one.
DEFAULT_CLUSTER_BUDGET = 3

#: A term's stored list, its live rows by (cluster, member rank), and
#: each cluster index's first position in those rows.
_GroupedRows = tuple[PeerList, np.ndarray, list[int]]

_NO_ROWS = np.zeros(0, dtype=np.int64)


def _fold_cluster_entries(
    cluster_list: PeerList,
    stored: TermColumns,
    rows: np.ndarray,
    groups: np.ndarray,
    labels: Sequence[str],
) -> None:
    """Fold ``stored``'s ``rows`` into one entry per cluster.

    Row ``rows[i]`` belongs to cluster ``labels[groups[i]]``.  Each
    cluster with a row gets one entry in ``cluster_list``: ``cdf`` and
    ``term_space_size`` summed, the highest ``max_score``, the
    ``cdf``-weighted mean ``avg_score`` (added in row order), and the
    union of the rows' packed synopses (none when no row has one).  The
    entries are written with one :meth:`PeerList.add_batch`, in cluster
    index order; no Post is built.  The build and the churn refold
    both call this, so a refold equals a fresh build bit for bit.
    """
    num_groups = len(labels)
    cdf_values = stored.cdf_values()[rows]
    counts = np.bincount(groups, minlength=num_groups)
    cdf = np.bincount(groups, weights=cdf_values, minlength=num_groups)
    max_scores = np.zeros(num_groups, dtype=np.float64)
    np.maximum.at(max_scores, groups, stored.max_scores()[rows])
    weighted_avg = np.bincount(
        groups, weights=stored.avg_scores()[rows] * cdf_values, minlength=num_groups
    )
    term_space = np.bincount(
        groups, weights=stored.term_space_values()[rows], minlength=num_groups
    )
    present = np.flatnonzero(counts)
    avg_scores = np.zeros(num_groups, dtype=np.float64)
    np.divide(weighted_avg, cdf, out=avg_scores, where=cdf > 0)
    flags = stored.synopsis_flags()[rows]
    column = stored.synopsis_column
    synopses: SynopsisColumn | list[None] = [None] * len(present)
    if column is not None and flags.any():
        merged = group_fold_synopses(
            column, column.rows(len(stored))[rows[flags]], groups[flags], num_groups
        )
        synopses = column.holding(merged[present])
    names = [labels[group] for group in present.tolist()]
    batch = PostBatch(
        peer_ids=names,
        terms=[cluster_list.term] * len(names),
        cdf=cdf[present].astype(np.int64),
        max_score=max_scores[present],
        avg_score=avg_scores[present],
        term_space_size=term_space[present].astype(np.int64),
        synopses=synopses,
    )
    table = cluster_list.peer_table
    interned = [table.intern(name) for name in names]
    cluster_list.add_batch(batch, interned)
    if isinstance(synopses, SynopsisColumn):
        with_synopsis = np.bincount(groups[flags], minlength=num_groups)[present]
        bare = np.flatnonzero(with_synopsis == 0).tolist()
        if bare:
            # A cluster none of whose rows has a synopsis stays without
            # one; its entry is rewritten in place, keeping row order.
            cleared = dataclasses.replace(
                batch.select(bare), synopses=[None] * len(bare)
            )
            cluster_list.add_batch(cleared, [interned[index] for index in bare])


class SuperPeerTopology(RoutingTopology):
    """Hierarchical topology: clusters, super-peers, two-phase routing.

    Parameters
    ----------
    num_clusters:
        Cluster count; ``None`` uses ``default_num_clusters`` (the
        bounded sqrt heuristic over the directory's peer count).
    cluster_budget:
        Clusters selected in phase one; ``None`` derives
        ``max(1, isqrt(max_peers))`` from the query's peer budget.
    refine_rounds / seed:
        Clustering knobs — see :mod:`.clustering`; everything is
        deterministic in these plus the directory contents.
    cluster_selector:
        Phase-one selector over merged cluster synopses (default: a
        fresh :class:`~repro.core.iqn.IQNRouter`).
    intra_profile / inter_profile:
        Optional latency profiles the simnet transport applies to
        intra- vs inter-cluster links (``None`` keeps the transport's
        base profile for that class of link).
    """

    def __init__(
        self,
        *,
        num_clusters: int | None = None,
        cluster_budget: int | None = None,
        refine_rounds: int = 2,
        seed: int = 0,
        cluster_selector: PeerSelector | None = None,
        intra_profile: "LatencyProfile | None" = None,
        inter_profile: "LatencyProfile | None" = None,
    ) -> None:
        super().__init__()
        if num_clusters is not None and num_clusters <= 0:
            raise ValueError(f"num_clusters must be positive, got {num_clusters}")
        if cluster_budget is not None and cluster_budget <= 0:
            raise ValueError(
                f"cluster_budget must be positive, got {cluster_budget}"
            )
        if refine_rounds < 0:
            raise ValueError(f"refine_rounds must be >= 0, got {refine_rounds}")
        self.num_clusters = num_clusters
        self.cluster_budget = cluster_budget
        self.refine_rounds = refine_rounds
        self.seed = seed
        self._cluster_selector = cluster_selector
        self.intra_profile = intra_profile
        self.inter_profile = inter_profile
        self._clusters: tuple[Cluster, ...] | None = None
        self._cluster_of: dict[str, str] = {}
        self._super_of: dict[str, str] = {}
        self._members: dict[str, tuple[str, ...]] = {}
        self._capacity: dict[str, int] = {}
        self._cluster_table = PeerIdTable()
        self._cluster_lists: dict[str, PeerList] = {}
        self._down: set[str] = set()
        self._live: dict[str, tuple[str, ...]] = {}
        #: Per interned peer id: its cluster's index while the peer is
        #: live, ``-1`` once down (or never clustered).
        self._live_cluster = np.zeros(0, dtype=np.int64)
        #: Per interned peer id: position in its cluster's member tuple.
        self._member_rank = np.zeros(0, dtype=np.int64)
        self._cluster_index: dict[str, int] = {}

    # -- configuration ---------------------------------------------------

    @property
    def cluster_selector(self) -> PeerSelector:
        if self._cluster_selector is None:
            from ..core.iqn import IQNRouter  # late: avoids core import cycle

            self._cluster_selector = IQNRouter()
        return self._cluster_selector

    def resolve_cluster_budget(self, max_peers: int | None) -> int:
        if self.cluster_budget is not None:
            return self.cluster_budget
        if max_peers is not None and max_peers > 0:
            return max(1, math.isqrt(max_peers))
        return DEFAULT_CLUSTER_BUDGET

    def cache_signature(self) -> str:
        return (
            f"SuperPeerTopology(clusters={self.num_clusters},"
            f" budget={self.cluster_budget},"
            f" rounds={self.refine_rounds},"
            f" seed={self.seed},"
            f" cluster_selector={self.cluster_selector.cache_signature()})"
        )

    # -- cluster state ---------------------------------------------------

    def _on_bind(self) -> None:
        self.invalidate()

    def invalidate(self) -> None:
        """Drop cluster state; the next query rebuilds from the directory."""
        self._clusters = None
        self._cluster_of = {}
        self._super_of = {}
        self._members = {}
        self._capacity = {}
        self._cluster_table = PeerIdTable()
        self._cluster_lists = {}
        self._down = set()
        self._live = {}
        self._live_cluster = np.zeros(0, dtype=np.int64)
        self._member_rank = np.zeros(0, dtype=np.int64)
        self._cluster_index = {}

    @property
    def clusters(self) -> tuple[Cluster, ...]:
        return self.ensure_clusters()

    def ensure_clusters(self) -> tuple[Cluster, ...]:
        if self._clusters is None:
            self._build()
        assert self._clusters is not None
        return self._clusters

    def cluster_of(self, peer_id: str) -> str | None:
        self.ensure_clusters()
        return self._cluster_of.get(peer_id)

    def super_peer_of(self, peer_id: str) -> str | None:
        """The super-peer serving ``peer_id``'s cluster directory."""
        label = self.cluster_of(peer_id)
        return None if label is None else self._super_of.get(label)

    def super_of_cluster(self, label: str) -> str:
        self.ensure_clusters()
        return self._super_of[label]

    def members_of(self, label: str) -> tuple[str, ...]:
        self.ensure_clusters()
        return self._members.get(label, ())

    def live_members(self, label: str) -> tuple[str, ...]:
        self.ensure_clusters()
        return self._live.get(label, ())

    def _set_liveness(self, peer_id: str, label: str, live: bool) -> None:
        """Record ``peer_id`` going down or up and refresh the caches."""
        if live:
            self._down.discard(peer_id)
        else:
            self._down.add(peer_id)
        self._live[label] = tuple(
            member for member in self._members[label] if member not in self._down
        )
        interned = self.host.directory.peer_table.lookup(peer_id)
        assert interned is not None  # every clustered peer is interned
        self._live_cluster[interned] = self._cluster_index[label] if live else -1

    def _stored_columns(self) -> list[tuple[str, TermColumns]]:
        directory = self.host.directory
        out: list[tuple[str, TermColumns]] = []
        for term in sorted(directory.stored_terms()):
            stored = directory.stored_list(term)
            if stored is not None and len(stored.columns):
                out.append((term, stored.columns))
        return out

    def _build(self) -> None:
        directory = self.host.directory
        table = directory.peer_table
        term_columns = self._stored_columns()
        if not term_columns or not len(table):
            self._clusters = ()
            return
        columns = [tc for _, tc in term_columns]
        profiles, template = peer_profiles(columns, table)
        capacity = peer_capacities(columns, table)
        k = (
            self.num_clusters
            if self.num_clusters is not None
            else default_num_clusters(len(table))
        )
        assignment = cluster_peers(
            profiles,
            k,
            template,
            seed=self.seed,
            refine_rounds=self.refine_rounds,
        )
        # Compact away empty clusters, relabeling in original index order
        # so labels are stable in (directory, seed).
        present = sorted(set(assignment.tolist()))
        remap = {original: compact for compact, original in enumerate(present)}
        compact_assignment = np.array(
            [remap[value] for value in assignment.tolist()], dtype=np.int64
        )
        width = max(3, len(str(max(1, len(present) - 1))))
        labels = [f"c{index:0{width}d}" for index in range(len(present))]
        members_by: dict[int, list[int]] = {i: [] for i in range(len(present))}
        for interned, compact in enumerate(compact_assignment.tolist()):
            members_by[compact].append(interned)
        self._capacity = {
            table.name(interned): int(capacity[interned])
            for interned in range(len(table))
        }
        clusters: list[Cluster] = []
        self._cluster_of = {}
        self._super_of = {}
        self._members = {}
        self._member_rank = np.zeros(len(table), dtype=np.int64)
        for index, label in enumerate(labels):
            member_ids = sorted(members_by[index], key=table.name)
            self._member_rank[member_ids] = np.arange(len(member_ids))
            members = tuple(table.name(interned) for interned in member_ids)
            super_peer = elect_super_peer(
                members, lambda peer_id: self._capacity.get(peer_id, 0)
            )
            clusters.append(
                Cluster(label=label, members=members, super_peer=super_peer)
            )
            self._members[label] = members
            self._super_of[label] = super_peer
            for peer_id in members:
                self._cluster_of[peer_id] = label
        self._clusters = tuple(clusters)
        self._down = set()
        self._live = dict(self._members)
        self._live_cluster = compact_assignment
        self._cluster_index = {label: index for index, label in enumerate(labels)}
        self._build_cluster_lists(term_columns, compact_assignment, labels)

    def _build_cluster_lists(
        self,
        term_columns: list[tuple[str, TermColumns]],
        assignment: np.ndarray,
        labels: list[str],
    ) -> None:
        """One merged entry per (term, cluster): every stored row folds
        into its cluster's entry."""
        self._cluster_table = PeerIdTable()
        self._cluster_lists = {}
        for term, tc in term_columns:
            peer_list = PeerList(term=term, peer_table=self._cluster_table)
            _fold_cluster_entries(
                peer_list,
                tc,
                np.arange(len(tc)),
                assignment[tc.interned_ids()],
                labels,
            )
            self._cluster_lists[term] = peer_list

    def _refold_cluster(self, label: str) -> tuple[str, ...]:
        """Refold ``label``'s entry of every cluster-list term from its
        live members' stored rows, as a fresh build would; an entry left
        with no live poster is removed.  Returns the touched terms,
        sorted."""
        index = self._cluster_index[label]
        directory = self.host.directory
        live_cluster = self._live_clusters(len(directory.peer_table))
        touched: list[str] = []
        for term in sorted(self._cluster_lists):
            peer_list = self._cluster_lists[term]
            stored = directory.stored_list(term)
            rows = _NO_ROWS
            if stored is not None:
                clusters = live_cluster[stored.columns.interned_ids()]
                rows = np.flatnonzero(clusters == index)
            if len(rows):
                assert stored is not None
                _fold_cluster_entries(
                    peer_list, stored.columns, rows, np.zeros_like(rows), [label]
                )
            elif not peer_list.remove(label):
                continue
            touched.append(term)
        return tuple(touched)

    # -- query pipeline --------------------------------------------------

    def cluster_peer_lists(
        self, terms: tuple[str, ...]
    ) -> tuple[dict[str, PeerList], int]:
        """The cluster directory for ``terms`` plus its wire bits."""
        self.ensure_clusters()
        lists: dict[str, PeerList] = {}
        bits = 0
        for term in terms:
            peer_list = self._cluster_lists.get(term)
            if peer_list is None:
                peer_list = PeerList(term=term, peer_table=self._cluster_table)
            lists[term] = peer_list
            bits += peer_list.size_in_bits
        return lists, bits

    def rank_clusters(
        self,
        query: Query,
        cluster_lists: dict[str, PeerList],
        *,
        initiator: LocalView | None = None,
        conjunctive: bool = False,
        budget: int = DEFAULT_CLUSTER_BUDGET,
        seed_synopses: SeedSynopses | None = None,
        spec: SynopsisSpec | None = None,
    ) -> list[str]:
        """Phase one: IQN over the fetched merged cluster synopses.

        ``seed_synopses`` collects the seed synopses this phase builds,
        so phase two can reuse them (see :meth:`assembly`).  ``spec``
        overrides the host's synopsis spec for those builds; phase two
        must use the same spec to find them.
        """
        clusters = self.ensure_clusters()
        if not clusters:
            return []
        context = RoutingContext(
            query=query,
            peer_lists=cluster_lists,
            num_peers=len(clusters),
            spec=self.host.spec if spec is None else spec,
            initiator=initiator,
            conjunctive=conjunctive,
            seed_synopses={} if seed_synopses is None else seed_synopses,
        )
        return self.cluster_selector.rank(context, budget)

    def member_posts(
        self,
        label: str,
        terms: tuple[str, ...],
        *,
        stored: dict[str, _GroupedRows | None] | None = None,
    ) -> tuple[dict[str, RowSelection], int]:
        """One cluster's live members' rows of each term + wire bits.

        Per term, the reply is a row selection ``(stored PeerList,
        rows)``: the cluster's live posters, in member order.  Nothing is
        copied; the bits are read from the stored columns over the rows
        (:meth:`PeerList.rows_size_in_bits`), the same integers as the
        size of the copied slice.  Only a networked reply is copied, when
        the super-peer sends it (:meth:`MemberFetch.detached`).
        ``stored`` caches each term's rows grouped by live cluster
        (``None`` = nobody posted) across calls: :meth:`answer` shares
        one per batch, so a query groups each term once.
        """
        self.ensure_clusters()
        table = self.host.directory.peer_table
        index = self._cluster_index.get(label)
        if index is None:
            return {
                term: (PeerList(term=term, peer_table=table), _NO_ROWS)
                for term in terms
            }, 0
        if stored is None:
            stored = {}
        out: dict[str, RowSelection] = {}
        bits = 0
        for term in terms:
            if term not in stored:
                stored[term] = self._grouped_rows(term)
            grouped = stored[term]
            if grouped is None:
                out[term] = (PeerList(term=term, peer_table=table), _NO_ROWS)
                continue
            source, order, bounds = grouped
            rows = order[bounds[index] : bounds[index + 1]]
            out[term] = (source, rows)
            bits += source.rows_size_in_bits(rows)
        return out, bits

    def _live_clusters(self, table_size: int) -> np.ndarray:
        """:attr:`_live_cluster` covering ``table_size`` interned ids;
        peers interned after the build belong to no cluster."""
        if len(self._live_cluster) < table_size:
            padding = table_size - len(self._live_cluster)
            self._live_cluster = np.concatenate(
                [self._live_cluster, np.full(padding, -1, dtype=np.int64)]
            )
            self._member_rank = np.concatenate(
                [self._member_rank, np.zeros(padding, dtype=np.int64)]
            )
        return self._live_cluster

    def _grouped_rows(self, term: str) -> _GroupedRows | None:
        """``term``'s stored list, its live clustered rows sorted by
        (cluster, member rank), and each cluster index's start in them
        (one past the last cluster's end closes the list)."""
        source = self.host.directory.stored_list(term)
        if source is None:
            return None
        table_size = len(source.peer_table)
        ids = source.columns.interned_ids()
        clusters = self._live_clusters(table_size)[ids]
        # Down or unclustered rows (cluster -1) sort first and fall
        # before every cluster's start.
        order = np.argsort(
            clusters * table_size + self._member_rank[ids], kind="stable"
        )
        bounds = np.searchsorted(
            clusters[order], np.arange(len(self._cluster_index) + 1)
        )
        return source, order, bounds.tolist()

    def assembly(
        self,
        query: Query,
        *,
        initiator: LocalView | None = None,
        conjunctive: bool = False,
        max_peers: int | None = None,
        spec: SynopsisSpec | None = None,
    ) -> Assembly:
        """Cluster fetch, rank clusters, member fetches, merge.

        An unreachable super-peer degrades to the full flat fetch, and
        a winning cluster whose member fetch failed is skipped; each
        counts as a topology fallback.
        """
        terms = query.terms
        (cluster_lists,) = yield [ClusterFetch(terms)]
        if cluster_lists is None:
            scoped = yield from super().assembly(query)
            scoped.topology_fallbacks = 1
            return scoped
        # Both phases seed their references from the same initiator:
        # build each seed synopsis once for the query.
        seed_synopses: SeedSynopses = {}
        winners = self.rank_clusters(
            query,
            cluster_lists,
            initiator=initiator,
            conjunctive=conjunctive,
            budget=self.resolve_cluster_budget(max_peers),
            seed_synopses=seed_synopses,
            spec=spec,
        )
        replies = yield [MemberFetch(label, terms) for label in winners]
        answered = [
            (label, reply) for label, reply in zip(winners, replies) if reply is not None
        ]
        table = self.host.directory.peer_table
        # Winner order, then member order: one column gather per term.
        merged = {
            term: PeerList.from_rows(
                term, table, [selections[term] for _, selections in answered]
            )
            for term in terms
        }
        return ScopedLists(
            peer_lists=merged,
            scope_size=sum(len(self.live_members(label)) for label, _ in answered),
            clusters_ranked=tuple(winners),
            super_fetches=1 + len(answered),
            seed_synopses=seed_synopses,
            topology_fallbacks=len(winners) - len(answered),
        )

    def answer(
        self, requests: Sequence[DirectoryRequest], node_id: int | None = None
    ) -> list[tuple[Any, int]]:
        """Cluster directories and member row selections as well; a
        batch's member fetches share one grouping of each term's rows."""
        grouped: dict[str, _GroupedRows | None] = {}
        replies: list[tuple[Any, int]] = []
        for request in requests:
            if isinstance(request, ClusterFetch):
                replies.append(self.cluster_peer_lists(request.terms))
            elif isinstance(request, MemberFetch):
                replies.append(
                    self.member_posts(request.label, request.terms, stored=grouped)
                )
            else:
                replies += super().answer([request], node_id)
        return replies

    def server_of(self, request: DirectoryRequest, requester: str) -> str:
        """A member fetch goes to its cluster's super-peer, a cluster
        fetch to the requester's own (or the requester, if unclustered)."""
        if isinstance(request, MemberFetch):
            return self.super_of_cluster(request.label)
        return self.super_peer_of(requester) or requester

    # -- churn -----------------------------------------------------------

    def handle_peer_down(self, peer_id: str) -> ReElection | None:
        if self._clusters is None:
            return None  # never built — nothing to maintain yet
        label = self._cluster_of.get(peer_id)
        if label is None or peer_id in self._down:
            return None
        self._set_liveness(peer_id, label, live=False)
        terms = self._refold_cluster(label)
        if self._super_of.get(label) != peer_id:
            return None
        live = self.live_members(label)
        if not live:
            return None  # whole cluster gone; its entries already dropped
        new_super = elect_super_peer(
            live, lambda member: self._capacity.get(member, 0)
        )
        self._super_of[label] = new_super
        self._clusters = tuple(
            cluster
            if cluster.label != label
            else Cluster(
                label=label, members=cluster.members, super_peer=new_super
            )
            for cluster in self._clusters
        )
        return ReElection(
            cluster=label,
            old_super=peer_id,
            new_super=new_super,
            members=live,
            terms=terms,
        )

    def handle_peer_up(self, peer_id: str) -> None:
        if self._clusters is None or peer_id not in self._down:
            return
        label = self._cluster_of[peer_id]  # only clustered peers go down
        self._set_liveness(peer_id, label, live=True)
        self._refold_cluster(label)

    # -- simnet latency --------------------------------------------------

    def latency_profile_of(
        self, src: str, dst: str
    ) -> "LatencyProfile | None":
        """Intra- vs inter-cluster link profile (None = transport base)."""
        if self.intra_profile is None and self.inter_profile is None:
            return None
        source = self._cluster_of.get(src)
        target = self._cluster_of.get(dst)
        if source is None or target is None or source != target:
            return self.inter_profile
        return self.intra_profile
