"""Hot routing state for the serving front end.

A live MINERVA deployment answers a *stream* of queries, and real query
logs are heavily skewed: the same few queries repeat constantly.  The
per-query work that :class:`~repro.simnet.executor.SimNetExecutor` pays
on every submission — PeerList fetches over Chord, synopsis-based
ranking, reference-synopsis construction — is identical across
repetitions as long as the directory has not observably changed.  Two
caches capture that reuse:

- :class:`RoutingPlanCache` maps a normalized query key (sorted terms,
  selector/aggregation signature, initiator, routing knobs) to the
  ranked peer plan *and* per-peer score upper bounds, so a repeated
  query skips Phase 1 (directory traffic) and Phase 2 (ranking) cold.
- :class:`ReferenceSynopsisCache` memoizes the synopses IQN builds from
  document-id sets — the initiator's reference synopses that seed
  novelty estimation — keyed by content and directory epoch.

Both are *churn-aware*: they subscribe (via the front end) to
:class:`~repro.churn.service.DirectoryEvent` notifications, dropping a
dead peer from every plan that routes to it (the remaining ranked spares
are promoted implicitly) and invalidating plans whose terms' directory
content changed.  Stale state is therefore bounded by crash-*detection*
latency, exactly like the directory itself.

Both classes follow the repo-wide memo-slot contract (reprolint
RPRL001): derived statistics are memoized in ``_stats_memo`` and every
mutating method resets the slot to ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from ..synopses.base import SetSynopsis
from ..synopses.factory import SynopsisSpec

if TYPE_CHECKING:
    from ..datasets.queries import Query
    from ..routing.base import PeerSelector

__all__ = [
    "PlanKey",
    "plan_key",
    "selector_signature",
    "CachedPlan",
    "CacheStats",
    "RoutingPlanCache",
    "ReferenceSynopsisCache",
    "CachingSpec",
]


def selector_signature(selector: "PeerSelector") -> str:
    """A stable cache-key fragment naming a selector configuration.

    Plans ranked by different selectors — or by the same selector under
    different configuration (CORI's alpha, IQN's aggregation mode and
    stopping criterion) — must never alias, so the key delegates to
    :meth:`~repro.routing.base.PeerSelector.cache_signature`, which
    every configured selector extends with its ranking-relevant knobs.
    """
    return selector.cache_signature()


@dataclass(frozen=True)
class PlanKey:
    """Normalized identity of a routing decision.

    ``terms`` is the *sorted* term tuple: MINERVA's three phases are
    order-insensitive (PeerList fetches are per-term, scoring sums over
    the term set), so "pest safety" and "safety pest" share a plan.
    Everything else that changes the ranked outcome is part of the key.
    """

    terms: tuple[str, ...]
    selector: str
    initiator_id: str
    max_peers: int
    fallback_spares: int
    conjunctive: bool


def plan_key(
    query: "Query",
    selector: "PeerSelector",
    *,
    initiator_id: str,
    max_peers: int,
    fallback_spares: int,
    conjunctive: bool,
) -> PlanKey:
    """The :class:`PlanKey` under which ``query``'s plan is cached."""
    return PlanKey(
        terms=tuple(sorted(query.terms)),
        selector=selector_signature(selector),
        initiator_id=initiator_id,
        max_peers=max_peers,
        fallback_spares=fallback_spares,
        conjunctive=conjunctive,
    )


@dataclass(frozen=True)
class CachedPlan:
    """One cached routing decision: ranked peers plus streaming bounds.

    ``ranked`` is the selector's full ranking (selected peers first,
    then the fallback spares); ``bounds`` maps each ranked peer to an
    upper bound on any single document score it can return (used by the
    streamed top-k's early termination); ``epoch`` records the
    reference-synopsis epoch the plan was built under, for diagnostics.
    """

    ranked: tuple[str, ...]
    bounds: dict[str, float]
    terms: tuple[str, ...]
    epoch: int

    def without_peer(self, peer_id: str) -> "CachedPlan":
        """A copy with ``peer_id`` removed (spares shift up one rank)."""
        return CachedPlan(
            ranked=tuple(p for p in self.ranked if p != peer_id),
            bounds={p: b for p, b in self.bounds.items() if p != peer_id},
            terms=self.terms,
            epoch=self.epoch,
        )


@dataclass(frozen=True)
class CacheStats:
    """Immutable counters of one cache's behavior."""

    hits: int
    misses: int
    size: int
    invalidated: int = 0
    repaired: int = 0
    #: Entries dropped by the LRU size cap (0 on unbounded caches).
    evicted: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never used)."""
        total = self.lookups
        return self.hits / total if total else 0.0


class RoutingPlanCache:
    """Plans keyed by :class:`PlanKey`, invalidated by directory events.

    Secondary indexes (by ranked peer, by term) make event handling
    proportional to the number of *affected* plans, not the cache size.
    Invalidation policy, mirroring the failure semantics of
    :mod:`repro.churn`:

    - a peer going silent (``crash``/``leave``/``evict``) is *repaired
      out* of every plan routing to it via :meth:`drop_peer` — its slot
      falls to the next-ranked spare, so the hot path keeps its hit;
      a plan with no ranked peers left is dropped entirely;
    - a term whose directory content observably changed
      (``recover``/changed ``repost``/``expire``) invalidates every plan
      over that term via :meth:`invalidate_term` — the old ranking may
      now be wrong, so the next occurrence re-routes cold.
    """

    def __init__(self, *, max_plans: int | None = None) -> None:
        if max_plans is not None and max_plans <= 0:
            raise ValueError(f"max_plans must be positive, got {max_plans}")
        #: Size cap; ``None`` keeps the cache unbounded (historical
        #: behavior).  The plans dict doubles as the LRU order: hits and
        #: stores move the key to the end, eviction pops the front.
        self.max_plans = max_plans
        self._plans: dict[PlanKey, CachedPlan] = {}
        self._keys_by_peer: dict[str, set[PlanKey]] = {}
        self._keys_by_term: dict[str, set[PlanKey]] = {}
        self._hits = 0
        self._misses = 0
        self._invalidated = 0
        self._repaired = 0
        self._evicted = 0
        self._stats_memo: CacheStats | None = None

    def __len__(self) -> int:
        return len(self._plans)

    def lookup(self, key: PlanKey) -> CachedPlan | None:
        """The cached plan for ``key``, counting a hit or a miss."""
        plan = self._plans.get(key)
        if plan is None:
            self._misses += 1
        else:
            self._hits += 1
            # Refresh recency: re-insertion moves the key to the end.
            del self._plans[key]
            self._plans[key] = plan
        self._stats_memo = None
        return plan

    def store(self, key: PlanKey, plan: CachedPlan) -> None:
        """Cache ``plan`` under ``key`` (replacing any previous entry)."""
        if key in self._plans:
            self._unindex(key)
            del self._plans[key]
        self._plans[key] = plan
        for peer_id in plan.ranked:
            self._keys_by_peer.setdefault(peer_id, set()).add(key)
        for term in key.terms:
            self._keys_by_term.setdefault(term, set()).add(key)
        while self.max_plans is not None and len(self._plans) > self.max_plans:
            oldest = next(iter(self._plans))
            self._unindex(oldest)
            del self._plans[oldest]
            self._evicted += 1
        self._stats_memo = None

    def drop_peer(self, peer_id: str) -> int:
        """Remove a silent peer from every plan routing to it.

        Plans keep serving with their surviving ranked peers (implicit
        spare promotion); a plan left with nobody to route to is
        invalidated.  Returns the number of plans touched.
        """
        keys = self._keys_by_peer.pop(peer_id, None)
        if not keys:
            self._stats_memo = None
            return 0
        touched = 0
        for key in sorted(keys, key=lambda k: (k.terms, k.initiator_id)):
            repaired = self._plans[key].without_peer(peer_id)
            touched += 1
            if repaired.ranked:
                self._plans[key] = repaired
                self._repaired += 1
            else:
                self._unindex(key, skip_peer=peer_id)
                del self._plans[key]
                self._invalidated += 1
        self._stats_memo = None
        return touched

    def invalidate_term(self, term: str) -> int:
        """Drop every plan whose query touches ``term``.

        Returns the number of plans invalidated.
        """
        keys = self._keys_by_term.get(term)
        if not keys:
            self._stats_memo = None
            return 0
        dropped = 0
        for key in sorted(tuple(keys), key=lambda k: (k.terms, k.initiator_id)):
            self._unindex(key)
            del self._plans[key]
            self._invalidated += 1
            dropped += 1
        self._stats_memo = None
        return dropped

    def invalidate_terms(self, terms: Iterable[str]) -> int:
        """:meth:`invalidate_term` over several terms; returns the total."""
        return sum(self.invalidate_term(term) for term in terms)

    def invalidate_peers(self, peer_ids: Iterable[str]) -> int:
        """Drop every plan routing to *any* of ``peer_ids`` entirely.

        Unlike :meth:`drop_peer` (which repairs a plan around one dead
        peer), this is for cluster-level upheaval — a super-peer
        re-election changed which candidates a scoped plan should have
        seen, so every plan touching the affected cluster's members must
        re-route cold.  Returns the number of plans invalidated.
        """
        keys: set[PlanKey] = set()
        for peer_id in peer_ids:
            keys |= self._keys_by_peer.get(peer_id, set())
        dropped = 0
        for key in sorted(keys, key=lambda k: (k.terms, k.initiator_id)):
            self._unindex(key)
            del self._plans[key]
            self._invalidated += 1
            dropped += 1
        self._stats_memo = None
        return dropped

    def clear(self) -> None:
        """Drop every plan (counters are kept)."""
        self._invalidated += len(self._plans)
        self._plans.clear()
        self._keys_by_peer.clear()
        self._keys_by_term.clear()
        self._stats_memo = None

    def _unindex(self, key: PlanKey, *, skip_peer: str | None = None) -> None:
        plan = self._plans[key]
        for peer_id in plan.ranked:
            if peer_id == skip_peer:
                continue
            bucket = self._keys_by_peer.get(peer_id)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._keys_by_peer[peer_id]
        for term in key.terms:
            bucket = self._keys_by_term.get(term)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._keys_by_term[term]
        self._stats_memo = None

    def stats(self) -> CacheStats:
        """Current counters (memoized until the next mutation)."""
        if self._stats_memo is None:
            self._stats_memo = CacheStats(
                hits=self._hits,
                misses=self._misses,
                size=len(self._plans),
                invalidated=self._invalidated,
                repaired=self._repaired,
                evicted=self._evicted,
            )
        return self._stats_memo

    def __repr__(self) -> str:
        return f"RoutingPlanCache(plans={len(self._plans)}, stats={self.stats()})"


class ReferenceSynopsisCache:
    """Memoizes synopsis construction by content and directory epoch.

    IQN seeds its reference synopsis from the initiator's result doc-ids
    (per-term aggregation: from its term lists) on every query; absorbing
    candidates unions synopses and builds nothing.  The built synopsis is a pure function of ``(spec,
    id-set)``, and all repo synopses are *non-mutating* (``union``
    returns a fresh instance), so one cached instance is safely shared
    across queries.  The ``epoch`` is bumped whenever directory content
    observably changes; keying on it keeps this cache's lifetime
    aligned with the plan cache's invalidation without tracking which
    id-sets a change affected.
    """

    def __init__(
        self, spec: SynopsisSpec, *, max_entries: int | None = None
    ) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError(
                f"max_entries must be positive, got {max_entries}"
            )
        self.spec = spec
        #: Size cap; ``None`` keeps the cache unbounded.  Entries evict
        #: in LRU order (the dict doubles as the recency list).
        self.max_entries = max_entries
        self._epoch = 0
        self._synopses: dict[tuple[int, frozenset[int]], SetSynopsis] = {}
        self._hits = 0
        self._misses = 0
        self._evicted = 0
        self._stats_memo: CacheStats | None = None

    @property
    def epoch(self) -> int:
        return self._epoch

    def __len__(self) -> int:
        return len(self._synopses)

    def build(self, ids: Iterable[int]) -> SetSynopsis:
        """The spec's synopsis of ``ids``, built once per (epoch, set)."""
        key = (self._epoch, frozenset(ids))
        cached = self._synopses.get(key)
        if cached is not None:
            self._hits += 1
            # Refresh recency: re-insertion moves the key to the end.
            del self._synopses[key]
            self._synopses[key] = cached
            self._stats_memo = None
            return cached
        self._misses += 1
        synopsis = self.spec.build(key[1])
        self._synopses[key] = synopsis
        while (
            self.max_entries is not None
            and len(self._synopses) > self.max_entries
        ):
            self._synopses.pop(next(iter(self._synopses)))
            self._evicted += 1
        self._stats_memo = None
        return synopsis

    def bump_epoch(self) -> int:
        """Invalidate everything: directory content observably changed."""
        self._epoch += 1
        self._synopses.clear()
        self._stats_memo = None
        return self._epoch

    def stats(self) -> CacheStats:
        """Current counters (memoized until the next mutation)."""
        if self._stats_memo is None:
            self._stats_memo = CacheStats(
                hits=self._hits,
                misses=self._misses,
                size=len(self._synopses),
                invalidated=self._epoch,
                evicted=self._evicted,
            )
        return self._stats_memo

    def __repr__(self) -> str:
        return (
            f"ReferenceSynopsisCache(spec={self.spec.label!r}, "
            f"epoch={self._epoch}, stats={self.stats()})"
        )


class CachingSpec(SynopsisSpec):
    """A :class:`SynopsisSpec` whose ``build`` memoizes through a cache.

    Dropped into :class:`~repro.routing.base.RoutingContext.spec` by the
    serving front end, so aggregation strategies (which call
    ``context.spec.build`` once per seed id set to start the reference;
    absorb only unions) transparently share previously built synopses.  Construction copies
    the cached spec's fields, so ``label``/``size_in_bits``/equality of
    the *configuration* behave identically; only ``build`` changes.
    """

    _reference_cache: ReferenceSynopsisCache

    def __init__(self, cache: ReferenceSynopsisCache) -> None:
        spec = cache.spec
        super().__init__(
            kind=spec.kind,
            parameter=spec.parameter,
            seed=spec.seed,
            num_hashes=spec.num_hashes,
            bitmap_length=spec.bitmap_length,
        )
        # The base dataclass is frozen; the cache reference is not a
        # field of the configuration, so it bypasses the freeze.
        object.__setattr__(self, "_reference_cache", cache)

    def build(self, ids: Iterable[int]) -> SetSynopsis:
        return self._reference_cache.build(ids)
