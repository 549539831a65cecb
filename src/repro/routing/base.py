"""Query-routing interfaces shared by all selection methods.

A *peer selector* ranks candidate peers for a query given only what the
directory knows — the PeerLists with their statistics and synopses — plus
the initiator's local knowledge.  Selectors never touch remote peers'
collections; that is the whole point of directory-based routing.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..datasets.queries import Query
from ..synopses.base import SetSynopsis
from ..synopses.factory import SynopsisSpec

if TYPE_CHECKING:  # imported for annotations only — avoids a package cycle
    from ..minerva.posts import PeerList, Post

__all__ = [
    "LocalView",
    "CandidatePeer",
    "SeedSynopses",
    "RoutingContext",
    "PeerSelector",
]

#: Seed synopses of one query, keyed by ``(spec, doc ids)``.
SeedSynopses = dict[tuple[SynopsisSpec, frozenset[int]], SetSynopsis]


@dataclass(frozen=True)
class LocalView:
    """What the query initiator knows locally (exactly, not via synopses).

    ``result_doc_ids`` is the initiator's own local query result — the
    seed of IQN's reference synopsis ("the query initiator can compute by
    executing the query against its own local collection", Section 5.1).
    ``doc_ids_by_term`` are the initiator's local index lists for the
    query terms, used by the per-term aggregation strategy.
    """

    peer_id: str
    result_doc_ids: frozenset[int] = frozenset()
    doc_ids_by_term: dict[str, frozenset[int]] = field(default_factory=dict)


@dataclass(frozen=True)
class CandidatePeer:
    """A remote peer as seen through the fetched PeerLists."""

    peer_id: str
    posts: dict[str, Post]

    def post(self, term: str) -> Post | None:
        return self.posts.get(term)

    def cdf(self, term: str) -> int:
        post = self.posts.get(term)
        return post.cdf if post else 0

    @property
    def covered_terms(self) -> frozenset[str]:
        return frozenset(self.posts)


@dataclass
class RoutingContext:
    """Everything a selector may use to rank peers for one query.

    A context is a per-query snapshot: the PeerLists it references are
    treated as frozen for the context's lifetime, which lets the derived
    views (:meth:`candidates`, :attr:`average_term_space_size`) be
    computed once and cached.  Selectors call both repeatedly — the IQN
    hot path asks for the candidate list and the CORI quality scores on
    every query — so the caches turn two full PeerList sweeps per call
    into dictionary-free lookups.
    """

    query: Query
    peer_lists: dict[str, PeerList]
    num_peers: int
    spec: SynopsisSpec
    initiator: LocalView | None = None
    conjunctive: bool = False
    #: Synopses :meth:`seed_synopsis` built for this query.  Contexts of
    #: one query may share the dict — the super-peer tier's two phases
    #: do — so each seed is built once per query.
    seed_synopses: SeedSynopses = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.num_peers <= 0:
            raise ValueError(f"num_peers must be positive, got {self.num_peers}")
        missing = set(self.query.terms) - set(self.peer_lists)
        if missing:
            raise ValueError(f"peer_lists missing query terms: {sorted(missing)}")
        self._candidates_cache: list[CandidatePeer] | None = None
        self._avg_term_space_cache: float | None = None

    def candidates(self) -> list[CandidatePeer]:
        """All peers appearing in any query term's PeerList, minus the
        initiator (a peer never forwards a query to itself).  Cached;
        callers must not mutate the returned list."""
        if self._candidates_cache is not None:
            return self._candidates_cache
        posts_by_peer: dict[str, dict[str, Post]] = {}
        for term in self.query.terms:
            for post in self.peer_lists[term]:
                posts_by_peer.setdefault(post.peer_id, {})[term] = post
        if self.initiator is not None:
            posts_by_peer.pop(self.initiator.peer_id, None)
        self._candidates_cache = [
            CandidatePeer(peer_id=peer_id, posts=posts)
            for peer_id, posts in sorted(posts_by_peer.items())
        ]
        return self._candidates_cache

    def seed_synopsis(self, ids: frozenset[int]) -> SetSynopsis:
        """``spec.build(ids)``, built once per (spec, id set) and query.

        A synopsis is a pure function of its spec and id set, so keying
        on both is exact: strategies seeding from different id sets
        (per-peer from the initiator's result, per-term from its term
        lists) never share a build they should not.
        """
        key = (self.spec, frozenset(ids))
        synopsis = self.seed_synopses.get(key)
        if synopsis is None:
            synopsis = self.spec.build(ids)
            self.seed_synopses[key] = synopsis
        return synopsis

    def collection_frequency(self, term: str) -> int:
        """CORI's ``cf_t``: number of peers that posted the term."""
        return self.peer_lists[term].collection_frequency

    @property
    def average_term_space_size(self) -> float:
        """CORI's ``|V_avg|`` approximated over the fetched PeerLists.

        Section 5.1: "We approximate this value by the average over all
        collections found in the PeerLists."  Cached per context.
        """
        if self._avg_term_space_cache is not None:
            return self._avg_term_space_cache
        from .columns import columnar_term_space_average

        average = columnar_term_space_average(self.peer_lists)
        if average is None:
            sizes: dict[str, int] = {}
            for peer_list in self.peer_lists.values():
                for post in peer_list:
                    sizes[post.peer_id] = post.term_space_size
            average = sum(sizes.values()) / len(sizes) if sizes else 1.0
        self._avg_term_space_cache = average
        return average


class PeerSelector(abc.ABC):
    """Ranks candidate peers; the first ``max_peers`` get the query."""

    @abc.abstractmethod
    def rank(self, context: RoutingContext, max_peers: int) -> list[str]:
        """Return up to ``max_peers`` peer ids, best first."""

    @property
    def name(self) -> str:
        return type(self).__name__

    def cache_signature(self) -> str:
        """A stable identity for routing-plan caching.

        Two selector instances whose rankings can ever differ must
        never share a signature — the serving layer's plan cache keys
        on it.  The base implementation names the class; selectors
        with ranking-relevant configuration (CORI's alpha, IQN's
        aggregation mode) must extend it with those knobs.
        """
        return type(self).__name__

    def _check_max_peers(self, max_peers: int) -> None:
        if max_peers <= 0:
            raise ValueError(f"max_peers must be positive, got {max_peers}")
