"""Local top-k query execution over one peer's inverted index.

MINERVA peers answer a forwarded query from their own index only; the
initiator merges per-peer results afterwards (:mod:`repro.ir.merge`).
Both IR query models of Section 6.1 are supported:

- **disjunctive** ("OR"): documents matching *any* query term, scored by
  the sum of their per-term scores — the model behind query expansion and
  automatically generated queries;
- **conjunctive** ("AND"): documents matching *all* terms, the Web-search
  default.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple, Sequence

from .index import InvertedIndex

__all__ = ["ScoredDocument", "execute_query"]


class ScoredDocument(NamedTuple):
    """A ranked result entry; tuple ordering is by ``(score, doc_id)``."""

    score: float
    doc_id: int


def execute_query(
    index: InvertedIndex,
    terms: Sequence[str],
    *,
    k: int = 10,
    conjunctive: bool = False,
) -> list[ScoredDocument]:
    """Rank the local collection for ``terms`` and return the top ``k``.

    Scores are summed over query terms (the standard disjunctive
    aggregation; for conjunctive queries the sum runs over all terms by
    construction).  Ties break on doc_id, descending, so results are
    deterministic.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if not terms:
        return []
    # Distinct terms in query order: float addition is not associative,
    # so a hash-ordered set would tie score bits to PYTHONHASHSEED.
    unique_terms = dict.fromkeys(terms)
    accumulated: dict[int, float] = {}
    matched_terms: dict[int, int] = {}
    for term in unique_terms:
        for posting in index.index_list(term):
            accumulated[posting.doc_id] = (
                accumulated.get(posting.doc_id, 0.0) + posting.score
            )
            matched_terms[posting.doc_id] = matched_terms.get(posting.doc_id, 0) + 1
    if conjunctive:
        required = len(unique_terms)
        accumulated = {
            doc_id: score
            for doc_id, score in accumulated.items()
            if matched_terms[doc_id] == required
        }
    # Doc ids are unique, so no two entries compare equal and the ``k``
    # largest are exactly ``sorted(..., reverse=True)[:k]``.  A list (not
    # a generator) lets ``nlargest`` just sort when ``k`` covers it.
    return heapq.nlargest(
        k,
        [ScoredDocument(score=score, doc_id=doc_id) for doc_id, score in accumulated.items()],
    )
