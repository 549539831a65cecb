"""The flat single-level directory topology (the paper's architecture).

Candidate assembly is the directory's own
(:meth:`~repro.topology.base.RoutingTopology.assembly`): one full
PeerList fetch per query term.  In-process,
``peer_list_limit`` swaps in the distributed quality-ordered top-k
fetch of :mod:`repro.minerva.topk_peers`.  Plans, costs, and outcomes
are bit-identical to the pre-topology code — the equivalence tests in
``tests/topology/test_flat_equivalence.py`` pin this.
"""

from __future__ import annotations

from ..datasets.queries import Query
from ..minerva.posts import PeerList
from ..routing.base import LocalView
from .base import RoutingTopology, ScopedLists

__all__ = ["FlatTopology"]


class FlatTopology(RoutingTopology):
    """One global directory; every peer is a routing candidate."""

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
        if peer_list_limit is None:
            return super().assemble(
                query,
                requester=requester,
                initiator=initiator,
                conjunctive=conjunctive,
                max_peers=max_peers,
            )
        from ..minerva.topk_peers import fetch_top_k_peers

        directory = self.host.directory
        result = fetch_top_k_peers(
            directory,
            query.terms,
            peer_list_limit,
            batch_size=peer_list_batch_size,
            requester=requester,
        )
        peer_lists = {}
        for term in query.terms:
            partial = PeerList(term=term, peer_table=directory.peer_table)
            for post in result.posts_by_term.get(term, {}).values():
                partial.add(post)
            peer_lists[term] = partial
        return ScopedLists(peer_lists=peer_lists)

    def cache_signature(self) -> str:
        return "FlatTopology()"
