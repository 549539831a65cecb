"""Directory upkeep: Post TTLs, repost timers, staleness sweeps, ring repair.

Under churn the directory is only as good as its maintenance.  Three
mechanisms keep it serviceable, all driven by virtual-clock timers that
:class:`~repro.churn.service.ChurnService` schedules:

- **reposting** — every live peer refreshes its Posts each
  ``repost_interval_ms``, re-creating entries lost to node crashes and
  resetting their freshness stamp;
- **TTL sweeps** — a Post not refreshed within ``post_ttl_ms`` is
  presumed to belong to a departed peer and is dropped from every
  replica's PeerList (the staleness that otherwise wastes forwards);
- **ring repair** — crashed peers' directory nodes are evicted from the
  :class:`~repro.dht.ring.ChordRing` once detected, the keys they held
  are re-owned by their successors, and surviving replicas are copied
  back up to the configured replication factor
  (:meth:`~repro.dht.ring.ChordRing.re_replicate`).

The maintainer is pure bookkeeping over the engine's directory; *when*
any of this runs is the service's business, so all methods take the
current virtual time explicitly (no clock reads, no wall clock —
reprolint RPRL003 enforces this for the whole package).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..minerva.posts import PeerList

if TYPE_CHECKING:
    from ..minerva.engine import MinervaEngine

__all__ = ["MaintenanceConfig", "DirectoryMaintainer"]


@dataclass(frozen=True)
class MaintenanceConfig:
    """Timer intervals and replication factor for directory upkeep.

    ``post_ttl_ms`` must exceed ``repost_interval_ms`` or live peers'
    Posts would expire between refreshes; the default TTL of 2.5
    repost intervals tolerates one missed refresh (peer briefly down)
    before declaring a Post stale.  ``stabilize_interval_ms`` is the
    crash-detection latency: a crashed node keeps receiving (and
    timing out) directory lookups until the next stabilization tick
    evicts it.
    """

    repost_interval_ms: float = 30_000.0
    post_ttl_ms: float = 75_000.0
    stabilize_interval_ms: float = 5_000.0
    replicas: int = 2

    def __post_init__(self) -> None:
        if self.repost_interval_ms <= 0:
            raise ValueError(
                f"repost_interval_ms must be positive, got {self.repost_interval_ms}"
            )
        if self.post_ttl_ms <= self.repost_interval_ms:
            raise ValueError(
                "post_ttl_ms must exceed repost_interval_ms "
                f"({self.post_ttl_ms} <= {self.repost_interval_ms})"
            )
        if self.stabilize_interval_ms <= 0:
            raise ValueError(
                f"stabilize_interval_ms must be positive, "
                f"got {self.stabilize_interval_ms}"
            )
        if self.replicas <= 0:
            raise ValueError(f"replicas must be positive, got {self.replicas}")

    @classmethod
    def for_repost_interval(
        cls,
        repost_interval_ms: float,
        *,
        ttl_factor: float = 2.5,
        stabilize_interval_ms: float = 5_000.0,
        replicas: int = 2,
    ) -> "MaintenanceConfig":
        """Config whose TTL scales with the repost interval (the sweep axis)."""
        if ttl_factor <= 1.0:
            raise ValueError(f"ttl_factor must be > 1, got {ttl_factor}")
        return cls(
            repost_interval_ms=repost_interval_ms,
            post_ttl_ms=repost_interval_ms * ttl_factor,
            stabilize_interval_ms=stabilize_interval_ms,
            replicas=replicas,
        )


class DirectoryMaintainer:
    """Freshness bookkeeping and repair operations over one engine's directory.

    Tracks when each ``(term, peer)`` Post was last published (virtual
    time) and implements the repost / sweep / repair primitives the
    churn service schedules.  Publishing goes through
    :meth:`Directory.publish`, so maintenance traffic is charged to the
    engine's cost model like any other directory operation.
    """

    def __init__(self, engine: "MinervaEngine", config: MaintenanceConfig) -> None:
        self.engine = engine
        self.config = config
        #: (term, peer_id) -> virtual time of the last publish.
        self._posted_at: dict[tuple[str, str], float] = {}
        for term, peer_id in self._directory_entries():
            self._posted_at[(term, peer_id)] = 0.0

    def _directory_entries(self) -> set[tuple[str, str]]:
        entries: set[tuple[str, str]] = set()
        ring = self.engine.ring
        for node_id in ring.node_ids:
            for value in ring.node(node_id).store.values():
                if isinstance(value, PeerList):
                    for peer_id in value.peer_ids:
                        entries.add((value.term, peer_id))
        return entries

    # -- freshness ---------------------------------------------------------

    def record_publish(self, term: str, peer_id: str, now_ms: float) -> None:
        """Stamp one Post as fresh at ``now_ms``."""
        self._posted_at[(term, peer_id)] = now_ms

    def posted_at(self, term: str, peer_id: str) -> float | None:
        """Virtual time the Post was last published (None if unknown)."""
        return self._posted_at.get((term, peer_id))

    def forget_peer(self, peer_id: str) -> None:
        """Drop a departed peer's freshness records (graceful withdrawal)."""
        for key in [k for k in self._posted_at if k[1] == peer_id]:
            del self._posted_at[key]

    # -- repost ------------------------------------------------------------

    def _stored_stats(
        self, term: str, peer_id: str
    ) -> tuple[int, float, float, int] | None:
        """The stats tuple of the Post currently stored at the term's owner.

        Reads the owner node's store directly (no routing, no cost):
        this is maintenance bookkeeping, not a directory lookup.
        """
        ring = self.engine.ring
        stored = ring.owner_of(term).store.get(ring.key_id(term))
        if not isinstance(stored, PeerList):
            return None
        post = stored.get(peer_id)
        if post is None:
            return None
        return (post.cdf, post.max_score, post.avg_score, post.term_space_size)

    def repost(self, peer_id: str, now_ms: float) -> int:
        """Republish one peer's Posts for every term it has published.

        Re-posting overwrites the stored Posts (refreshing synopses and
        statistics), re-creates entries lost to node crashes, and resets
        the TTL stamp.  Returns the number of Posts published.
        """
        count, _ = self.repost_detailed(peer_id, now_ms)
        return count

    def repost_detailed(
        self, peer_id: str, now_ms: float
    ) -> tuple[int, tuple[str, ...]]:
        """:meth:`repost`, also reporting which terms *changed content*.

        A periodic repost usually republishes identical statistics (the
        peer's collection did not change) — a pure TTL refresh that no
        directory consumer can observe.  Terms whose stored stats tuple
        ``(cdf, max_score, avg_score, term_space_size)`` differs from
        the fresh Post — or that were missing from the owner's store
        (lost to a crash) — are returned so cache layers can invalidate
        only on observable changes instead of on every repost tick.
        Returns ``(posts_published, changed_terms)``.
        """
        peer = self.engine.peers[peer_id]
        terms = sorted(
            term for term in self.engine._published_terms if term in peer.index
        )
        changed: list[str] = []
        for term in terms:
            post = peer.build_post(term)
            before = self._stored_stats(term, peer_id)
            if before != (
                post.cdf,
                post.max_score,
                post.avg_score,
                post.term_space_size,
            ):
                changed.append(term)
            self.engine.directory.publish(post)
            self.record_publish(term, peer_id, now_ms)
        return len(terms), tuple(changed)

    # -- TTL sweep ---------------------------------------------------------

    def sweep(self, now_ms: float) -> int:
        """Drop Posts older than the TTL from every replica's PeerList.

        A Post with no freshness record (published before the maintainer
        existed) is stamped ``now_ms`` rather than guessed stale.
        Returns the number of distinct ``(term, peer)`` Posts expired.
        """
        return len(self.sweep_detailed(now_ms))

    def sweep_detailed(self, now_ms: float) -> tuple[tuple[str, str], ...]:
        """:meth:`sweep`, returning the expired ``(term, peer_id)`` keys.

        The keys are sorted, so consumers (cache invalidation, logging)
        see a deterministic order regardless of ring iteration order.
        """
        expired: set[tuple[str, str]] = set()
        ring = self.engine.ring
        for node_id in ring.node_ids:
            for value in ring.node(node_id).store.values():
                if not isinstance(value, PeerList):
                    continue
                for peer_id in sorted(value.peer_ids):
                    key = (value.term, peer_id)
                    stamped = self._posted_at.get(key)
                    if stamped is None:
                        self._posted_at[key] = now_ms
                        continue
                    if now_ms - stamped > self.config.post_ttl_ms:
                        del value.posts[peer_id]
                        expired.add(key)
        for key in expired:
            self._posted_at.pop(key, None)
        return tuple(sorted(expired))

    # -- ring repair -------------------------------------------------------

    def evict_crashed(self, peer_ids: list[str]) -> tuple[int, int]:
        """Evict detected-crashed peers' ring nodes and restore replicas.

        Each eviction loses the node's store (abrupt crash — no
        handoff); a single :meth:`~repro.dht.ring.ChordRing.re_replicate`
        pass then copies surviving replicas onto the keys' new owners.
        Returns ``(nodes_evicted, keys_re_replicated)``.
        """
        ring = self.engine.ring
        node_of_peer = self.engine.directory._node_of_peer
        evicted = 0
        for peer_id in sorted(peer_ids):
            node_id = node_of_peer.get(peer_id)
            if node_id is None or len(ring) <= 1:
                continue
            del node_of_peer[peer_id]
            ring.crash_node(node_id)
            evicted += 1
        copied = ring.re_replicate(self.config.replicas) if evicted else 0
        return evicted, copied

    def rejoin(self, peer_id: str, now_ms: float) -> int:
        """Return a previously evicted peer's node to the ring and repost.

        ``add_node`` hands back the key range the rejoining node now
        owns; a re-replication pass restores the replica invariant, and
        the peer republishes its own Posts fresh.  Returns the number of
        Posts republished.
        """
        node_of_peer = self.engine.directory._node_of_peer
        if peer_id not in node_of_peer:
            node = self.engine.ring.add_node(peer_id)
            node_of_peer[peer_id] = node.node_id
            self.engine.ring.re_replicate(self.config.replicas)
        return self.repost(peer_id, now_ms)

    def __repr__(self) -> str:
        return (
            f"DirectoryMaintainer(posts={len(self._posted_at)}, "
            f"config={self.config})"
        )
