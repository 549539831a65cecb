"""The distributed directory: PeerLists on a Chord ring (Section 4).

"A conceptually global but physically distributed directory, which is
layered on top of Chord, holds compact, aggregated information about the
peers' local indexes ... we use the Chord DHT to partition the term
space, such that every peer is responsible for the statistics and
metadata of a randomized subset of terms within the directory.  For
failure resilience and availability, the responsibility for a term can be
replicated across multiple peers."

Every publish and every PeerList fetch routes through the simulated ring
from the acting peer's own node and is charged to the cost model — hops
as ``dht_hop`` messages, payloads as ``post`` / ``peerlist_fetch``.
"""

from __future__ import annotations

from typing import Sequence

from ..dht.ring import ChordRing
from ..net.cost import CostModel, MessageKinds
from ..synopses.columnstore import PeerIdTable
from .posts import PeerList, Post, PostBatch

__all__ = ["Directory"]


class Directory:
    """Term-partitioned Post storage over a Chord ring.

    All PeerLists created by this directory share one interned
    :class:`~repro.synopses.columnstore.PeerIdTable`, so a peer id is
    stored once network-wide and every per-term column indexes into the
    same table — the precondition for cross-term columnar routing.
    """

    def __init__(
        self,
        ring: ChordRing,
        *,
        cost: CostModel | None = None,
        replicas: int = 1,
        node_of_peer: dict[str, int] | None = None,
        peer_table: PeerIdTable | None = None,
    ) -> None:
        if replicas <= 0:
            raise ValueError(f"replicas must be positive, got {replicas}")
        self.ring = ring
        self.cost = cost or CostModel()
        self.replicas = replicas
        #: Maps peer ids to their ring node ids so lookups start at the
        #: acting peer's own position (realistic hop counts).
        self._node_of_peer = node_of_peer or {}
        #: Shared interned peer-id table for every PeerList this
        #: directory creates.
        self.peer_table = peer_table if peer_table is not None else PeerIdTable()

    def _start_node(self, peer_id: str | None) -> int | None:
        if peer_id is None:
            return None
        return self._node_of_peer.get(peer_id)

    # -- publishing ----------------------------------------------------------

    def publish(self, post: Post) -> None:
        """Route the Post to the term's responsible node(s) and store it."""
        lookup = self.ring.lookup(post.term, start_node=self._start_node(post.peer_id))
        self.cost.record(MessageKinds.DHT_HOP, count=lookup.hops)
        # One message (carrying the full payload) per replica.
        self.cost.record(
            MessageKinds.POST,
            bits=post.size_in_bits * self.replicas,
            count=self.replicas,
        )
        key = self.ring.key_id(post.term)
        for node in self.ring.replica_nodes(post.term, self.replicas):
            peer_list = node.store.get(key)
            if peer_list is None:
                peer_list = PeerList(term=post.term, peer_table=self.peer_table)
                node.store[key] = peer_list
            peer_list.add(post)

    def publish_batch(self, posts: PostBatch | Sequence[Post]) -> int:
        """Publish several Posts, batching per destination node.

        Section 7.2: "peers should batch multiple posts that are directed
        to the same recipient so that message sizes do indeed matter."
        Posts whose terms hash to the same directory node share one
        message (one routing trip, one per-message overhead); the payload
        bits are unchanged.  Returns the number of messages sent.

        ``posts`` is a columnar :class:`PostBatch` (a list of Posts is
        converted once).  Each term's posts go into its stored columns
        as one :meth:`PeerList.add_batch`, with no Post built per row;
        peers are interned owner by owner, in post order.
        """
        batch = posts if isinstance(posts, PostBatch) else PostBatch.from_posts(posts)
        ring = self.ring
        owner_of_term: dict[str, int] = {}
        by_owner: dict[int, list[int]] = {}
        for index, term in enumerate(batch.terms):
            owner = owner_of_term.get(term)
            if owner is None:
                lookup = ring.lookup(
                    term, start_node=self._start_node(batch.peer_ids[index])
                )
                owner = owner_of_term[term] = lookup.owner
                # Route once per destination node, not once per post:
                # after the first lookup the peer knows the owner's address.
                if owner not in by_owner:
                    self.cost.record(MessageKinds.DHT_HOP, count=lookup.hops)
                    by_owner[owner] = []
            by_owner[owner].append(index)
        messages = 0
        for indices in by_owner.values():
            owner_batch = batch.select(indices)
            self.cost.record(
                MessageKinds.POST,
                bits=owner_batch.size_in_bits * self.replicas,
                count=self.replicas,
            )
            messages += self.replicas
            interned = [self.peer_table.intern(peer) for peer in owner_batch.peer_ids]
            by_term: dict[str, list[int]] = {}
            for position, term in enumerate(owner_batch.terms):
                by_term.setdefault(term, []).append(position)
            for term, positions in by_term.items():
                term_batch = owner_batch.select(positions)
                term_ids = [interned[position] for position in positions]
                key = ring.key_id(term)
                for node in ring.replica_nodes(term, self.replicas):
                    peer_list = node.store.get(key)
                    if peer_list is None:
                        peer_list = PeerList(term=term, peer_table=self.peer_table)
                        node.store[key] = peer_list
                    peer_list.add_batch(term_batch, term_ids)
        return messages

    # -- lookups --------------------------------------------------------------

    def peer_list(self, term: str, *, requester: str | None = None) -> PeerList:
        """Fetch the PeerList for ``term``, charging routing and payload.

        Returns an empty PeerList when no peer posted the term — the
        initiator learns the term is unknown network-wide.
        """
        lookup = self.ring.lookup(term, start_node=self._start_node(requester))
        self.cost.record(MessageKinds.DHT_HOP, count=lookup.hops)
        stored = self.list_at(lookup.owner, term)
        self.cost.record(MessageKinds.PEERLIST_FETCH, bits=stored.size_in_bits)
        return stored

    def list_at(self, node_id: int, term: str) -> PeerList:
        """``term``'s PeerList as ring node ``node_id`` stores it (may be
        empty), uncharged: the read behind every PeerList fetch."""
        stored = self.ring.node(node_id).store.get(self.ring.key_id(term))
        if stored is None:
            stored = PeerList(term=term, peer_table=self.peer_table)
        return stored

    def peer_lists(
        self, terms: tuple[str, ...], *, requester: str | None = None
    ) -> dict[str, PeerList]:
        """Fetch PeerLists for all query terms (one DHT lookup each).

        Duplicates are fetched once; the returned dict preserves first-
        occurrence term order (not salted set order), so downstream
        order-sensitive derivations — CORI's last-write-wins
        ``average_term_space_size`` — are stable across processes.
        """
        return {
            term: self.peer_list(term, requester=requester)
            for term in dict.fromkeys(terms)
        }

    def peer_list_batch(
        self,
        term: str,
        *,
        offset: int,
        limit: int,
        requester: str | None = None,
    ) -> list[Post]:
        """Fetch one quality-ordered slice of a term's PeerList.

        Section 4: "the query initiator can decide to not retrieve the
        complete PeerLists, but only a subset, say the top-k peers from
        each list based on IR relevance measures".  The directory node
        serves posts ordered by descending ``max_score`` (ties broken by
        ``cdf`` then peer id); the initiator pays routing hops per batch
        request plus the payload of the returned slice only.

        The quality order is computed once per stored list — one lexsort
        over the packed score columns, cached inside the column store —
        and reused across batch requests from any requester until the
        term's columns next mutate, so repeated paging over the same term
        no longer re-sorts per request.
        """
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        if limit <= 0:
            raise ValueError(f"limit must be positive, got {limit}")
        lookup = self.ring.lookup(term, start_node=self._start_node(requester))
        self.cost.record(MessageKinds.DHT_HOP, count=lookup.hops)
        stored = self.ring.node(lookup.owner).store.get(self.ring.key_id(term))
        if stored is None:
            self.cost.record(MessageKinds.PEERLIST_FETCH, bits=0)
            return []
        batch = stored.top_by_quality(offset + limit)[offset:]
        self.cost.record(
            MessageKinds.PEERLIST_FETCH,
            bits=sum(post.size_in_bits for post in batch),
        )
        return batch

    def stored_list(self, term: str) -> PeerList | None:
        """The stored PeerList for ``term`` without charging any cost.

        Maintenance-path read: topology builds (cluster synopses,
        super-peer elections), churn repairs and super-peer answers
        consume directory state in place; only *query-time* fetches pay
        routing and payload.  The owner is read off the ring directly
        (:meth:`~repro.dht.ring.ChordRing.get`), not routed to: the ring
        repairs its pointers eagerly, so it is the node a lookup reaches.
        """
        stored = self.ring.get(term)
        return stored if isinstance(stored, PeerList) else None

    def stored_terms(self) -> set[str]:
        """All terms any node currently stores (diagnostic helper)."""
        terms: set[str] = set()
        for node_id in self.ring.node_ids:
            for value in self.ring.node(node_id).store.values():
                if isinstance(value, PeerList):
                    terms.add(value.term)
        return terms
