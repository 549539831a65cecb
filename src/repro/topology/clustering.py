"""Deterministic peer clustering by synopsis similarity.

Each peer's *profile* is the union-fold of its per-term synopses in
packed-matrix form — the same per-family union kernels the routing fast
path uses (MIPs: position-wise ``min``, LogLog: register-wise ``max``,
Bloom / hash sketches: bitwise ``or``) applied across every term column
the directory stores.  Peers holding similar content produce similar
profiles, so profile resemblance recovers topical groups:

- bitset families (Bloom, hash sketches): Broder resemblance
  ``popcount(a & b) / popcount(a | b)``;
- MIPs: the classic matching-minima fraction;
- LogLog: matching-register fraction (registers carry no set identity,
  so this is a similarity proxy — adequate for grouping, documented as
  such).

Clustering is seeded medoid assignment plus a few rounds of
fold-centroid refinement; every tie breaks toward the lowest cluster
index, so the assignment is a pure function of (columns, k, seed) at
any worker count.  Super-peer election picks the highest-capacity
member (total posted ``cdf``), ties to the smallest peer id — the same
rule re-elections apply after churn.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..parallel.seeding import derive_seed
from ..synopses.bloom import row_popcounts
from ..synopses.columnstore import (
    LogLogColumn,
    MipsColumn,
    PeerIdTable,
    SynopsisColumn,
    TermColumns,
)

__all__ = [
    "Cluster",
    "default_num_clusters",
    "peer_profiles",
    "peer_capacities",
    "cluster_peers",
    "elect_super_peer",
    "group_fold_synopses",
]


@dataclass(frozen=True)
class Cluster:
    """One super-peer cluster: a label, its members, and its super."""

    label: str
    members: tuple[str, ...]
    super_peer: str


def default_num_clusters(num_peers: int) -> int:
    """The sqrt heuristic, bounded so huge directories stay tractable."""
    if num_peers <= 0:
        return 1
    root = int(np.sqrt(num_peers))
    return max(2, min(root, 512))


def _fold_ufunc(column: SynopsisColumn) -> np.ufunc:
    """The family's union fold over packed rows (fastpath kernels)."""
    if isinstance(column, MipsColumn):
        return np.minimum
    if isinstance(column, LogLogColumn):
        return np.maximum
    return np.bitwise_or  # Bloom and hash-sketch bitsets


def peer_profiles(
    columns: Sequence[TermColumns], table: PeerIdTable
) -> tuple[np.ndarray, SynopsisColumn]:
    """Per-peer profile matrix: row ``i`` = union of peer ``i``'s synopses.

    Requires every term column to be pure and parameter-identical (one
    directory-wide :class:`~repro.synopses.factory.SynopsisSpec`), which
    is how every engine and testbed publishes.  Raises ``ValueError``
    otherwise — heterogeneous synopses cannot be folded into one matrix.
    """
    template: SynopsisColumn | None = None
    for term_columns in columns:
        column = term_columns.synopsis_column
        if column is None or not term_columns.is_pure:
            raise ValueError(
                f"term {term_columns.term!r} has no pure packed synopsis "
                "column; super-peer clustering needs one synopsis family "
                "directory-wide"
            )
        if template is None:
            template = column
        elif type(column) is not type(template) or column.params != template.params:
            raise ValueError(
                "mixed synopsis families/parameters across terms; "
                "super-peer clustering needs one spec directory-wide"
            )
    if template is None:
        raise ValueError("no stored terms to cluster on")
    fold = _fold_ufunc(template)
    profiles = template.neutral_matrix(len(table))
    for term_columns in columns:
        mask = term_columns.synopsis_flags()
        column = term_columns.synopsis_column
        assert column is not None
        fold.at(
            profiles,
            term_columns.interned_ids()[mask],
            column.rows(len(term_columns))[mask],
        )
    return profiles, template


def peer_capacities(
    columns: Sequence[TermColumns], table: PeerIdTable
) -> np.ndarray:
    """Total posted ``cdf`` per interned peer id — the election key."""
    capacity = np.zeros(len(table), dtype=np.int64)
    for term_columns in columns:
        np.add.at(
            capacity, term_columns.interned_ids(), term_columns.cdf_values()
        )
    return capacity


def _similarities(
    profiles: np.ndarray, centroids: np.ndarray, column: SynopsisColumn
) -> np.ndarray:
    """(N, k) resemblance of every profile to every centroid."""
    num_centroids = len(centroids)
    sims = np.empty((len(profiles), num_centroids), dtype=np.float64)
    if isinstance(column, (MipsColumn, LogLogColumn)):
        for j in range(num_centroids):
            sims[:, j] = (profiles == centroids[j]).mean(axis=1)
        return sims
    for j in range(num_centroids):
        inter = row_popcounts(profiles & centroids[j])
        union = row_popcounts(profiles | centroids[j])
        sims[:, j] = inter / np.maximum(union, 1)
    return sims


def cluster_peers(
    profiles: np.ndarray,
    num_clusters: int,
    column: SynopsisColumn,
    *,
    seed: int = 0,
    refine_rounds: int = 2,
) -> np.ndarray:
    """Assign every profile row to a cluster index (deterministic).

    Seeded medoid initialization (a sorted sample of rows), similarity
    assignment with ties to the lowest cluster index (``argmax`` returns
    the first maximum), then ``refine_rounds`` of union-fold centroids.
    """
    if num_clusters <= 0:
        raise ValueError(f"num_clusters must be positive, got {num_clusters}")
    num_rows = len(profiles)
    if num_rows == 0:
        return np.zeros(0, dtype=np.int64)
    k = min(num_clusters, num_rows)
    rng = random.Random(derive_seed(seed, "superpeer-medoids"))
    medoids = sorted(rng.sample(range(num_rows), k))
    centroids = profiles[medoids].copy()
    fold = _fold_ufunc(column)
    assignment = np.argmax(_similarities(profiles, centroids, column), axis=1)
    for _ in range(max(0, refine_rounds)):
        for j in range(k):
            members = profiles[assignment == j]
            if len(members):
                centroids[j] = fold.reduce(members, axis=0)
        refined = np.argmax(_similarities(profiles, centroids, column), axis=1)
        if np.array_equal(refined, assignment):
            break
        assignment = refined
    return assignment.astype(np.int64)


def elect_super_peer(
    members: Sequence[str], capacity_of: Callable[[str], int]
) -> str:
    """Highest capacity wins; ties to the lexicographically smallest id."""
    if not members:
        raise ValueError("cannot elect a super-peer from an empty cluster")
    return min(members, key=lambda peer_id: (-capacity_of(peer_id), peer_id))


def group_fold_synopses(
    column: SynopsisColumn,
    rows: np.ndarray,
    groups: np.ndarray,
    num_groups: int,
) -> np.ndarray:
    """Union-fold packed synopsis rows per group.

    ``rows`` is an ``(M, W)`` packed matrix, ``groups`` the ``(M,)``
    group index of each row; group ``g`` of the result holds the
    family's union of its rows (neutral where a group has none) — the
    merged cluster synopsis, computed without materializing a single
    per-peer object.
    """
    merged = column.neutral_matrix(num_groups)
    _fold_ufunc(column).at(merged, groups, rows)
    return merged
