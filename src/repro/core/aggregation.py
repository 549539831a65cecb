"""Multi-dimensional synopsis aggregation strategies (Section 6).

Synopses are posted *per term*; a multi-keyword query therefore needs a
policy for combining them.  The paper develops two:

- **Per-peer aggregation** (Section 6.2): first combine each candidate
  peer's term synopses into one query-specific synopsis (union for
  disjunctive queries, intersection for conjunctive ones), then measure
  novelty against a single reference synopsis.
- **Per-term aggregation** (Section 6.3): keep one reference synopsis per
  query term, estimate term-wise novelties, and *sum* them.  Cruder as an
  absolute estimate but preserves the relative ranking — and it never
  needs a synopsis intersection, which makes it the only exact option for
  conjunctive queries over hash sketches.

Strategies are stateless policy objects; all mutable per-query state
lives in the state objects they create, so one strategy instance can
serve many concurrent queries.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

from ..synopses.base import SetSynopsis, UnsupportedOperationError
from ..routing.base import CandidatePeer, RoutingContext
from .novelty import estimate_novelty

__all__ = [
    "AggregationStrategy",
    "PerPeerAggregation",
    "PerPeerState",
    "PerTermAggregation",
    "PerTermState",
]


class AggregationStrategy(abc.ABC):
    """Policy for reference-synopsis bookkeeping across IQN iterations."""

    @abc.abstractmethod
    def start(self, context: RoutingContext) -> Any:
        """Create the per-query state, seeded from the initiator's local
        knowledge (Select-Best-Peer's reference baseline)."""

    @abc.abstractmethod
    def novelty(self, state: Any, candidate: CandidatePeer) -> float:
        """Estimated novelty of ``candidate`` against the current state."""

    def cache_signature(self) -> str:
        """A stable identity for routing-plan caching: strategies whose
        novelty estimates can differ must never share a signature."""
        return type(self).__name__

    @abc.abstractmethod
    def absorb(self, state: Any, candidate: CandidatePeer) -> None:
        """Aggregate-Synopses step: fold the chosen peer into the state."""

    @abc.abstractmethod
    def estimated_coverage(self, state: Any) -> float:
        """Current estimate of covered result cardinality (for stopping)."""

    @property
    def name(self) -> str:
        return type(self).__name__


# -- per-peer aggregation (Section 6.2) --------------------------------------


@dataclass
class PerPeerState:
    """Reference synopsis + tracked cardinality for per-peer aggregation."""

    context: RoutingContext
    reference: SetSynopsis
    reference_cardinality: float
    combined_cache: dict[str, tuple[SetSynopsis | None, float]]


class PerPeerAggregation(AggregationStrategy):
    """Combine each peer's term synopses first, then compare (Section 6.2).

    ``crude_conjunctive_fallback`` enables the paper's noted workaround
    for synopsis families without intersection (hash sketches): use the
    union as a superset approximation, "of course, the accuracy of the
    synopses would drastically degrade".
    """

    def __init__(self, *, crude_conjunctive_fallback: bool = True) -> None:
        self.crude_conjunctive_fallback = crude_conjunctive_fallback

    def cache_signature(self) -> str:
        return f"{type(self).__name__}(crude={self.crude_conjunctive_fallback})"

    def start(self, context: RoutingContext) -> PerPeerState:
        seed_ids: frozenset[int] = frozenset()
        if context.initiator is not None:
            seed_ids = context.initiator.result_doc_ids
        return PerPeerState(
            context=context,
            reference=context.seed_synopsis(seed_ids),
            reference_cardinality=float(len(seed_ids)),
            combined_cache={},
        )

    # -- candidate-side combination -----------------------------------------

    def combine(
        self, state: PerPeerState, candidate: CandidatePeer
    ) -> tuple[SetSynopsis | None, float]:
        """Combined query synopsis and cardinality estimate for a peer.

        Returns ``(None, 0.0)`` when the peer cannot contribute (e.g. a
        conjunctive query with a term the peer lacks).  Cached per peer —
        the combination never changes across IQN iterations.  The
        routing kernels (:mod:`repro.core.fastpath`) fold the same
        combination row-wise on packed columns and must agree with it.
        """
        cached = state.combined_cache.get(candidate.peer_id)
        if cached is not None:
            return cached
        context = state.context
        terms = context.query.terms
        posts = [candidate.post(term) for term in terms]
        if context.conjunctive and any(
            post is None or post.synopsis is None for post in posts
        ):
            result: tuple[SetSynopsis | None, float] = (None, 0.0)
            state.combined_cache[candidate.peer_id] = result
            return result
        synopses = [post.synopsis for post in posts if post and post.synopsis]
        if not synopses:
            result = (None, 0.0)
            state.combined_cache[candidate.peer_id] = result
            return result
        combined = synopses[0]
        for synopsis in synopses[1:]:
            if context.conjunctive:
                try:
                    combined = combined.intersect(synopsis)
                except UnsupportedOperationError:
                    if not self.crude_conjunctive_fallback:
                        raise
                    combined = combined.union(synopsis)
            else:
                combined = combined.union(synopsis)
        cardinality = self._candidate_cardinality(candidate, combined, context)
        result = (combined, cardinality)
        state.combined_cache[candidate.peer_id] = result
        return result

    @staticmethod
    def _candidate_cardinality(
        candidate: CandidatePeer,
        combined: SetSynopsis,
        context: RoutingContext,
    ) -> float:
        """Estimate the combined collection's size, clamped by exact cdfs.

        The per-term list lengths are exact (they travel in the Posts);
        they bound the union from below by the largest list and from
        above by the sum, and the intersection by the smallest list.
        """
        cdfs = [candidate.cdf(term) for term in context.query.terms]
        present = [c for c in cdfs if c > 0]
        if not present:
            return 0.0
        if len(present) == 1:
            return float(present[0])
        estimate = combined.estimate_cardinality()
        if context.conjunctive:
            return min(max(0.0, estimate), float(min(present)))
        return min(max(estimate, float(max(present))), float(sum(present)))

    # -- strategy interface ----------------------------------------------------

    def novelty(self, state: PerPeerState, candidate: CandidatePeer) -> float:
        combined, cardinality = self.combine(state, candidate)
        if combined is None or cardinality <= 0.0:
            return 0.0
        return estimate_novelty(
            combined,
            state.reference,
            candidate_cardinality=cardinality,
            reference_cardinality=state.reference_cardinality,
        )

    def absorb(self, state: PerPeerState, candidate: CandidatePeer) -> None:
        combined, _ = self.combine(state, candidate)
        if combined is None:
            return
        gained = self.novelty(state, candidate)
        state.reference = state.reference.union(combined)
        state.reference_cardinality += gained

    def estimated_coverage(self, state: PerPeerState) -> float:
        return state.reference_cardinality


# -- per-term aggregation (Section 6.3) --------------------------------------


@dataclass
class PerTermState:
    """One reference synopsis (and cardinality) per query term."""

    context: RoutingContext
    references: dict[str, SetSynopsis]
    reference_cardinalities: dict[str, float]


class PerTermAggregation(AggregationStrategy):
    """Sum term-wise novelties over per-term references (Section 6.3).

    "The summation is, of course, a crude estimate of the novelty of the
    contribution ... for the entire query result.  But this technique
    preserves the relative ranking of peers" — and it sidesteps synopsis
    intersection entirely, even for conjunctive queries.
    """

    def start(self, context: RoutingContext) -> PerTermState:
        references: dict[str, SetSynopsis] = {}
        cardinalities: dict[str, float] = {}
        local_lists: dict[str, frozenset[int]] = {}
        if context.initiator is not None:
            local_lists = context.initiator.doc_ids_by_term
        for term in context.query.terms:
            seed = local_lists.get(term, frozenset())
            references[term] = context.seed_synopsis(seed)
            cardinalities[term] = float(len(seed))
        return PerTermState(
            context=context,
            references=references,
            reference_cardinalities=cardinalities,
        )

    def _term_novelty(
        self, state: PerTermState, candidate: CandidatePeer, term: str
    ) -> float:
        post = candidate.post(term)
        if post is None or post.synopsis is None or post.cdf == 0:
            return 0.0
        return estimate_novelty(
            post.synopsis,
            state.references[term],
            candidate_cardinality=float(post.cdf),
            reference_cardinality=state.reference_cardinalities[term],
        )

    def novelty(self, state: PerTermState, candidate: CandidatePeer) -> float:
        # Plain left-to-right addition in term order, as the routing
        # kernels add per-term novelty columns.  Not ``sum()``: from
        # Python 3.12 it compensates float rounding, so its total can
        # differ from the kernels' in the last bits.
        total = 0.0
        for term in state.context.query.terms:
            total += self._term_novelty(state, candidate, term)
        return total

    def absorb(self, state: PerTermState, candidate: CandidatePeer) -> None:
        for term in state.context.query.terms:
            post = candidate.post(term)
            if post is None or post.synopsis is None:
                continue
            gained = self._term_novelty(state, candidate, term)
            state.references[term] = state.references[term].union(post.synopsis)
            state.reference_cardinalities[term] += gained

    def estimated_coverage(self, state: PerTermState) -> float:
        """Sum of per-term coverages — an upper-bound-flavored proxy.

        Documents matching several query terms are counted once per term,
        so this overestimates distinct coverage; it is only used for
        stopping decisions, mirroring the strategy's own crudeness.
        """
        return sum(state.reference_cardinalities.values())
