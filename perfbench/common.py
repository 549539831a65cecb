"""Statistics, digests and the result record shared by the workloads."""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.net.cost import MessageKinds

#: Message kinds reported one by one as ``net.messages_per_query.<kind>``.
KINDS = (
    MessageKinds.DHT_HOP,
    MessageKinds.PEERLIST_FETCH,
    MessageKinds.CLUSTER_FETCH,
    MessageKinds.MEMBER_FETCH,
    MessageKinds.QUERY_FORWARD,
    MessageKinds.RESULT_RETURN,
    MessageKinds.RESULT_BATCH,
)


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with >= ``q`` of the mass.

    The convention of the repository's own benches
    (``ceil(q * n) - 1`` into the ascending sort).
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def spread(values: Sequence[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` as the acceptance rule
    computes them (``statistics.quantiles(values, n=4)``)."""
    q1, mid, q3 = statistics.quantiles(values, n=4)
    relative = (q3 - q1) / mid if mid else math.inf
    return mid, q1, q3, relative


def digest(items: Iterable[Any]) -> str:
    """SHA-256 over the ``repr`` of each item (floats render exactly)."""
    hasher = hashlib.sha256()
    for item in items:
        hasher.update(repr(item).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


@dataclass
class Outcome:
    """What a workload run measured and whether its outputs were right."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: name -> (value, unit)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Diagnostics printed before the result line (never part of it).
    notes: dict[str, Any] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fail(self, message: str) -> None:
        self.failures.append(message)


def put_rank_stats(outcome: Outcome, stats: list, queries: int) -> None:
    """``core.*`` counters from the router's per-call statistics."""
    calls = len(stats)
    if not calls:
        return
    evaluations = sum(s.novelty_evaluations for s in stats)
    naive = sum(s.naive_evaluations for s in stats)
    outcome.put("core.rank_calls_per_query", calls / queries, "count")
    outcome.put("core.candidates", sum(s.candidates for s in stats) / calls, "count")
    outcome.put("core.novelty_evaluations", evaluations / calls, "count")
    outcome.put("core.evaluation_savings", naive / evaluations if evaluations else 1.0, "ratio")
    naive_tier = sum(1 for s in stats if s.mode == "naive")
    columns_tier = sum(1 for s in stats if s.mode != "naive" and s.attach == "columns")
    outcome.put("core.tier_columns_share", columns_tier / calls, "ratio")
    outcome.put("core.tier_objects_share", (calls - naive_tier - columns_tier) / calls, "ratio")
    outcome.put("core.tier_naive_share", naive_tier / calls, "ratio")
