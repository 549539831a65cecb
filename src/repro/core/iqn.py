"""The IQN (Integrated Quality Novelty) routing method — Section 5.

IQN builds the query execution plan iteratively:

1. **Select-Best-Peer**: among the candidates from the fetched PeerLists,
   pick the peer maximizing ``quality * novelty``, where quality is the
   CORI collection score (Section 5.1) and novelty is estimated from
   synopses against the *reference synopsis* of the result space covered
   so far (Section 5.2).
2. **Aggregate-Synopses**: union the chosen peer's synopsis into the
   reference synopsis, so the next iteration discounts everything that
   peer is expected to contribute (Section 5.3).

The reference synopsis is seeded from the query initiator's local result,
and the loop runs until the stopping criterion fires (Section 5.1's
"maximum peers" by default).  Crucially, no remote peer is contacted
during this decision process — only directory state is consumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..routing.base import PeerSelector, RoutingContext
from ..routing.cori import CORI_ALPHA, cori_scores
from .aggregation import AggregationStrategy, PerPeerAggregation
from .fastpath import (
    FastPathUnsupported,
    RoutingStats,
    column_rank_detailed,
    fast_rank_detailed,
)
from .stopping import MaxPeers, StoppingCriterion

__all__ = ["IQNSelection", "IQNRouter"]


@dataclass(frozen=True)
class IQNSelection:
    """One Select-Best-Peer decision, kept for diagnostics/experiments."""

    peer_id: str
    quality: float
    novelty: float

    @property
    def score(self) -> float:
        return self.quality * self.novelty


class IQNRouter(PeerSelector):
    """Quality*novelty routing with iterative synopsis aggregation.

    Parameters
    ----------
    aggregation:
        Multi-keyword strategy (Section 6); defaults to per-peer
        aggregation with the paper's crude conjunctive fallback enabled.
    stopping:
        Extra stopping criterion (Section 5.1); ``max_peers`` passed to
        :meth:`rank` always applies on top of it.
    quality_weighted:
        With ``False`` the router ranks by novelty alone — handy for
        ablations isolating the novelty signal (Section 5.2's "For
        simplicity, best refers to highest novelty here").
    alpha:
        CORI's default-belief parameter for the quality component.
    fast_path:
        Use the vectorized Select-Best-Peer driver
        (:mod:`repro.core.fastpath`: cached per-candidate statistics,
        exact invalidation of the rows each absorb touches) when the
        configuration supports it, falling back to the naive loop
        otherwise.  Plans are bit-identical either way; disable only to
        benchmark or debug against the naive reference implementation.

    After every :meth:`rank_detailed` call, :attr:`last_stats` holds a
    :class:`~repro.core.fastpath.RoutingStats` describing the work done
    (evaluation counts, rounds, which path ran).  It is diagnostic state
    belonging to the most recent call on this router instance.
    """

    def __init__(
        self,
        aggregation: AggregationStrategy | None = None,
        *,
        stopping: StoppingCriterion | None = None,
        quality_weighted: bool = True,
        alpha: float = CORI_ALPHA,
        fast_path: bool = True,
    ) -> None:
        self.aggregation = aggregation or PerPeerAggregation()
        self.stopping = stopping
        self.quality_weighted = quality_weighted
        self.alpha = alpha
        self.fast_path = fast_path
        self.last_stats: RoutingStats | None = None

    def rank(self, context: RoutingContext, max_peers: int) -> list[str]:
        return [
            selection.peer_id for selection in self.rank_detailed(context, max_peers)
        ]

    def cache_signature(self) -> str:
        """Every knob that can change the ranked plan (``fast_path`` is
        excluded: both tiers are bit-identical by construction)."""
        stopping = "" if self.stopping is None else self.stopping.cache_signature()
        return (
            f"{type(self).__name__}"
            f"({self.aggregation.cache_signature()},"
            f" stopping={stopping},"
            f" quality={self.quality_weighted},"
            f" alpha={self.alpha!r})"
        )

    def rank_detailed(
        self, context: RoutingContext, max_peers: int
    ) -> list[IQNSelection]:
        """Run the full IQN loop, returning per-iteration diagnostics."""
        self._check_max_peers(max_peers)
        stopping = self.stopping or MaxPeers(max_peers)

        if self.fast_path:
            # Fastest tier: attach directly to the directory's packed
            # columns — no per-peer objects on the hot path at all.
            try:
                plan_rows, stats = column_rank_detailed(
                    context,
                    self.aggregation,
                    stopping,
                    max_peers,
                    alpha=self.alpha,
                    quality_weighted=self.quality_weighted,
                )
            except FastPathUnsupported:
                pass  # not column-backed, or a config the kernels can't run
            else:
                self.last_stats = stats
                return [
                    IQNSelection(peer_id=peer_id, quality=quality, novelty=novelty)
                    for peer_id, quality, novelty in plan_rows
                ]

        candidates = {c.peer_id: c for c in context.candidates()}
        if not candidates:
            self.last_stats = RoutingStats(mode="empty", candidates=0)
            return []
        qualities = (
            cori_scores(context, alpha=self.alpha)
            if self.quality_weighted
            else {peer_id: 1.0 for peer_id in candidates}
        )

        if self.fast_path:
            try:
                plan_rows, stats = fast_rank_detailed(
                    context, self.aggregation, qualities, stopping, max_peers
                )
            except FastPathUnsupported:
                pass  # configurations the kernels can't represent exactly
            else:
                self.last_stats = stats
                return [
                    IQNSelection(peer_id=peer_id, quality=quality, novelty=novelty)
                    for peer_id, quality, novelty in plan_rows
                ]

        stats = RoutingStats(mode="naive", candidates=len(candidates))
        state = self.aggregation.start(context)

        plan: list[IQNSelection] = []
        while candidates and len(plan) < max_peers:
            stats.rounds += 1
            stats.novelty_evaluations += len(candidates)
            stats.naive_evaluations += len(candidates)
            # Select-Best-Peer: maximize quality * novelty; break ties by
            # quality, then peer id, for deterministic plans.
            best_id = None
            best_key: tuple[float, float, str] | None = None
            best_novelty = 0.0
            for peer_id, candidate in candidates.items():
                novelty = self.aggregation.novelty(state, candidate)
                quality = qualities[peer_id]
                key = (quality * novelty, quality, peer_id)
                if best_key is None or key > best_key:
                    best_key = key
                    best_id = peer_id
                    best_novelty = novelty
            assert best_id is not None
            chosen = candidates.pop(best_id)
            plan.append(
                IQNSelection(
                    peer_id=best_id,
                    quality=qualities[best_id],
                    novelty=best_novelty,
                )
            )
            # Aggregate-Synopses: fold the chosen peer into the reference.
            self.aggregation.absorb(state, chosen)
            if stopping.should_stop(
                selected_count=len(plan),
                estimated_coverage=self.aggregation.estimated_coverage(state),
                last_novelty=best_novelty,
            ):
                break
        self.last_stats = stats
        return plan

    @property
    def name(self) -> str:
        suffix = "" if self.quality_weighted else "-novelty-only"
        return f"IQN({self.aggregation.name}){suffix}"
