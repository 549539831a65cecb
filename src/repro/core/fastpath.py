"""Vectorized fast path for IQN's Select-Best-Peer loop.

The naive loop in :mod:`repro.core.iqn` re-estimates novelty for every
remaining candidate on every iteration — ``O(C)`` synopsis evaluations
per selected peer, each one fresh big-int / Python work.  This module
replaces that with one exact driver that produces *bit-identical* plans
(same peers, same novelty/quality floats, same tie-breaks) for every
synopsis family.

The kernels read the directory's packed column store through
:class:`~repro.routing.columns.ColumnContextView`.  A context the view
cannot serve (peer lists on different peer-id tables, foreign synopsis
objects) or a configuration no kernel represents exactly raises
:class:`FastPathUnsupported`, and the router runs the naive loop, the
reference oracle.

**Exact incremental invalidation.**  Each family kernel caches every
candidate's integer sufficient statistic against the reference (Bloom:
popcount of ``cand AND NOT ref``; MIPs: matching-minima count; hash
sketch: per-bucket first-zero positions; LogLog: merged-register sum
and empty count) and catches it up after each absorb from the reference
change alone: Bloom subtracts each row's popcount over the added bits
in one pass, MIPs recounts matches only at the positions whose minimum
sank, and the sketch families recompute only the rows the change can
affect.  Turning statistics into novelty floats is a vectorized O(C)
pass per round using lookup tables indexed by the integer statistic —
the tables are filled by the same scalar :mod:`math`-based code the
synopses use, so no NumPy transcendental (whose libm may differ by
ULPs) ever touches the value path.  The next peer is the first maximum of
``quality * novelty`` over the candidates in one order fixed per query
— quality, then peer id, both descending — which is the naive loop's
tie-break.

Aggregate-Synopses runs on packed rows too.  The reference is seeded
once from the strategy's ``start``; after each pick the driver folds the
winner's row into each kernel's reference row with the family's
``union`` (``bitwise_or``, ``minimum`` or ``maximum``) and adds the
kernel's own novelty of the winner to the reference cardinality — the
value the naive ``absorb`` recomputes — so references, cardinalities
and the coverage stopping criteria read all evolve exactly as in the
naive loop, with no synopsis object or ``Post`` between ``start`` and
the plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..routing.base import RoutingContext
from ..routing.columns import (
    ColumnContextView,
    ColumnViewUnavailable,
    cori_score_array,
)
from ..routing.cori import CORI_ALPHA
from ..synopses.columnstore import (
    BloomColumn,
    HashSketchColumn,
    LogLogColumn,
    MipsColumn,
    SynopsisColumn,
    column_layout,
)
from ..synopses.bloom import (
    BloomFilter,
    batch_difference_popcounts,
    pack_bit_row,
    popcount_cardinality_table,
    row_popcounts,
)
from ..synopses.hashsketch import (
    HashSketch,
    first_zero_positions,
    pack_bitmap_row,
    rho_sum_cardinality_table,
)
from ..synopses.loglog import (
    LogLogCounter,
    pack_register_row,
    register_cardinality_tables,
)
from ..synopses.mips import (
    MIPS_MODULUS,
    MinWisePermutations,
    batch_match_counts,
    pack_minima_row,
)
from .aggregation import PerPeerAggregation, PerTermAggregation
from .stopping import StoppingCriterion

__all__ = [
    "RoutingStats",
    "FastPathUnsupported",
    "column_rank_detailed",
]


class FastPathUnsupported(Exception):
    """The configuration has no exact fast path; use the naive loop."""


@dataclass
class RoutingStats:
    """Counters surfaced by :class:`~repro.core.iqn.IQNRouter`.

    ``novelty_evaluations`` counts per-candidate synopsis-level novelty
    computations: the initial batch, affected-row refreshes, and one per
    round for the winner's gain that Aggregate-Synopses adds to the
    reference cardinality.  The naive ``absorb`` recomputes that gain;
    the kernels reuse the value they scored the winner with, and count
    it all the same.  ``naive_evaluations`` is what the naive loop would
    have spent on the same plan — the sum of remaining-candidate counts
    over rounds — so ``naive_evaluations / novelty_evaluations`` is the
    measured savings factor; the kernels never exceed
    ``naive_evaluations + rounds``.

    ``mode`` names the path that planned: ``"incremental"`` for the
    kernels over the directory's packed columns
    (:func:`column_rank_detailed`), ``"naive"`` for the reference loop,
    ``"empty"`` when there was no candidate.
    """

    mode: str
    candidates: int = 0
    rounds: int = 0
    novelty_evaluations: int = 0
    naive_evaluations: int = 0

    @property
    def attach(self) -> str:
        """Where the kernels read their matrices: always ``"columns"``,
        the directory's packed column store.  Readers that split plans
        by tier (``perfbench/common.py``) still read it.
        """
        return "columns"

    @property
    def evaluation_savings(self) -> float:
        """Naive-vs-actual evaluation ratio (1.0 = no savings)."""
        if self.novelty_evaluations == 0:
            return 1.0
        return self.naive_evaluations / self.novelty_evaluations


# -- family kernels ----------------------------------------------------------
#
# One kernel tracks every candidate's packed synopsis row against one
# reference synopsis: the per-peer strategy uses a single kernel over
# combined query synopses, the per-term strategy one kernel per query
# term.  The rows are gathered from the directory's column store, and
# the adapters below have already matched the reference to the stored
# family and parameters (``column_layout``), so a constructor only packs
# the reference and computes its statistics.
#
# Row ``i`` of a kernel's matrix is what Aggregate-Synopses unions into
# the reference when candidate ``i`` wins: its synopsis even when the
# candidate is inactive (zero cardinality, which the naive absorb still
# unions in after a zero-score tie), the neutral payload when there is
# nothing to union.  Rows that cannot score (inactive, or an empty
# synopsis) get a zero cardinality, which every ``rescore`` clamps
# novelty to, so no per-round mask is needed.


class _Kernel:
    """What every family kernel shares: the rows and the packed-row absorb."""

    #: The family's ``union`` on packed rows (Aggregate-Synopses).
    union: np.ufunc
    _reference_row: np.ndarray

    def __init__(
        self, rows: np.ndarray, cards: Sequence[float], scored: np.ndarray
    ) -> None:
        self._rows = rows
        self._cards = np.where(scored, np.asarray(cards, dtype=np.float64), 0.0)

    def absorbed(self, best: int) -> np.ndarray:
        """The reference row with candidate ``best``'s row folded in."""
        return self.union(self._reference_row, self._rows[best])


class _BloomColumn(_Kernel):
    """Packed-bit Bloom novelty kernel.

    Operates on a ``(C, words)`` uint64 bit-matrix gathered from the
    directory's column store and caches every row's popcount of
    ``row AND NOT reference``.
    """

    union = np.bitwise_or

    def __init__(
        self,
        rows: np.ndarray,
        cards: Sequence[float],
        active: np.ndarray,
        reference: Any,
    ) -> None:
        super().__init__(rows, cards, active)
        self._active = active
        self._table = popcount_cardinality_table(
            reference.num_bits, reference.num_hashes
        )
        self._reference_row = pack_bit_row(reference.raw_bits, reference.num_bits)
        self._popcounts = batch_difference_popcounts(rows, self._reference_row)

    def refresh_reference(self, new_row: np.ndarray) -> np.ndarray:
        # Absorbs only union bits in, so ``row AND NOT reference`` loses
        # exactly the row's bits among the added ones: one popcount pass.
        lost = row_popcounts(self._rows & (new_row & ~self._reference_row))
        self._popcounts -= lost
        self._reference_row = new_row
        return (lost > 0) & self._active

    def rescore(self, reference_cardinality: float) -> np.ndarray:
        return np.minimum(
            np.maximum(0.0, self._table[self._popcounts]), self._cards
        )


class _MipsColumn(_Kernel):
    """Minima-matrix MIPs novelty kernel."""

    union = np.minimum

    def __init__(
        self,
        rows: np.ndarray,
        cards: Sequence[float],
        active: np.ndarray,
        reference: Any,
    ) -> None:
        self._maintained = active & ~(rows == MIPS_MODULUS).all(axis=1)
        super().__init__(rows, cards, self._maintained)
        self._common = reference.num_permutations
        self._reference_row = pack_minima_row(reference)
        self._matches = batch_match_counts(rows, self._reference_row)
        self._ref_empty = bool((self._reference_row == MIPS_MODULUS).all())

    def refresh_reference(self, new_row: np.ndarray) -> np.ndarray:
        changed = np.nonzero(new_row != self._reference_row)[0]
        if changed.size == 0:
            return np.zeros(len(self._rows), dtype=bool)
        # A row's match count can only change at positions where the
        # reference minimum changed: a previous match is lost where the
        # row equals the old non-sentinel minimum, and a new one gained
        # where it equals the new minimum, which is always below the
        # sentinel — reference minima only sink, so the reference is no
        # longer empty either.
        sub = self._rows[:, changed]
        old_values = self._reference_row[changed]
        lost = ((sub == old_values) & (old_values != MIPS_MODULUS)).sum(axis=1)
        gained = (sub == new_row[changed]).sum(axis=1)
        self._matches += gained - lost
        self._reference_row = new_row
        self._ref_empty = False
        return (lost + gained > 0) & self._maintained

    def rescore(self, reference_cardinality: float) -> np.ndarray:
        if self._ref_empty:
            return self._cards.copy()
        resemblance = self._matches / self._common
        overlap = (
            resemblance
            * (reference_cardinality + self._cards)
            / (resemblance + 1.0)
        )
        overlap = np.minimum(
            np.maximum(overlap, 0.0),
            np.minimum(reference_cardinality, self._cards),
        )
        return np.maximum(0.0, self._cards - overlap)


class _HashSketchColumn(_Kernel):
    """First-zero-position hash-sketch kernel."""

    union = np.bitwise_or

    def __init__(
        self,
        rows: np.ndarray,
        cards: Sequence[float],
        active: np.ndarray,
        reference: Any,
    ) -> None:
        self._length = reference.bitmap_length
        self._maintained = active & ~(rows == 0).all(axis=1)
        super().__init__(rows, cards, self._maintained)
        self._reference_row = pack_bitmap_row(reference)
        self._first_zero = first_zero_positions(
            self._rows | self._reference_row, self._length
        )
        self._rho_sums = self._first_zero.sum(axis=1)
        self._table = rho_sum_cardinality_table(
            reference.num_bitmaps, reference.bitmap_length
        )

    def refresh_reference(self, new_row: np.ndarray) -> np.ndarray:
        touched = np.zeros(len(self._rows), dtype=bool)
        changed = np.nonzero(new_row != self._reference_row)[0]
        for bucket in changed.tolist():
            new_bits = int(new_row[bucket]) & ~int(self._reference_row[bucket])
            # A row's R statistic moves iff some new reference bit lands
            # exactly on its current first zero; bits below are already
            # set in the merge, bits above leave the first zero alone.
            affected = np.zeros(len(self._rows), dtype=bool)
            remaining = new_bits
            while remaining:
                lowest = remaining & -remaining
                affected |= self._first_zero[:, bucket] == lowest.bit_length() - 1
                remaining ^= lowest
            affected &= self._maintained
            if affected.any():
                merged = self._rows[affected, bucket] | new_row[bucket]
                positions = first_zero_positions(merged, self._length)
                self._rho_sums[affected] += (
                    positions - self._first_zero[affected, bucket]
                )
                self._first_zero[affected, bucket] = positions
                touched |= affected
        self._reference_row = new_row
        return touched

    def rescore(self, reference_cardinality: float) -> np.ndarray:
        estimate = self._table[self._rho_sums]
        return np.minimum(
            np.maximum(0.0, estimate - reference_cardinality), self._cards
        )


class _LogLogColumn(_Kernel):
    """Merged-register LogLog kernel."""

    union = np.maximum

    def __init__(
        self,
        rows: np.ndarray,
        cards: Sequence[float],
        active: np.ndarray,
        reference: Any,
    ) -> None:
        buckets = reference.num_buckets
        self._maintained = active & ~(rows == 0).all(axis=1)
        super().__init__(rows, cards, self._maintained)
        self._reference_row = pack_register_row(reference)
        self._merged = np.maximum(rows, self._reference_row)
        self._zero_counts = (self._merged == 0).sum(axis=1)
        self._register_sums = self._merged.sum(axis=1, dtype=np.int64)
        self._linear_table, self._extrapolation_table = (
            register_cardinality_tables(buckets)
        )
        self._threshold = buckets * 0.3

    def refresh_reference(self, new_row: np.ndarray) -> np.ndarray:
        touched = np.zeros(len(self._merged), dtype=bool)
        changed = np.nonzero(new_row > self._reference_row)[0]
        for bucket in changed.tolist():
            value = new_row[bucket]
            column = self._merged[:, bucket]
            affected = (column < value) & self._maintained
            if affected.any():
                old_values = column[affected].astype(np.int64)
                self._register_sums[affected] += int(value) - old_values
                self._zero_counts[affected] -= old_values == 0
                self._merged[affected, bucket] = value
                touched |= affected
        self._reference_row = new_row
        return touched

    def rescore(self, reference_cardinality: float) -> np.ndarray:
        estimate = np.where(
            self._zero_counts > self._threshold,
            self._linear_table[self._zero_counts],
            self._extrapolation_table[self._register_sums],
        )
        return np.minimum(
            np.maximum(0.0, estimate - reference_cardinality), self._cards
        )


# -- strategy adapters -------------------------------------------------------
#
# An adapter seeds the family kernels from the strategy's ``start``,
# attaches them to gathered slices of the directory's stored matrices,
# and returns them with their reference cardinalities, one per kernel,
# in the order the strategy's coverage sums them.  From there on the
# driver owns the reference: packed rows plus these floats.  Rows with
# nothing to absorb are the family's neutral payload, and the
# cardinality clamps run the strategies' scalar float operations in the
# same association, so the driver sees exactly the naive loop's inputs.

_KERNELS: dict[type[SynopsisColumn], type[_Kernel]] = {
    BloomColumn: _BloomColumn,
    MipsColumn: _MipsColumn,
    HashSketchColumn: _HashSketchColumn,
    LogLogColumn: _LogLogColumn,
}


def _family(
    reference: Any,
) -> tuple[type[SynopsisColumn], tuple[int, ...], type[_Kernel]]:
    """The store column class and parameters matching ``reference``,
    and its kernel.

    ``column_layout`` refuses exactly what the kernels cannot represent:
    subclassed or unknown families and >64-bit sketch bitmaps.
    """
    layout = column_layout(reference)
    if layout is None:
        raise FastPathUnsupported(
            f"no vectorized kernel for {type(reference).__name__}"
        )
    column_cls, params = layout
    return column_cls, params, _KERNELS[column_cls]


def _term_matrix(
    column: SynopsisColumn | None,
    rows: np.ndarray,
    mask: np.ndarray,
    column_cls: type[SynopsisColumn],
    params: tuple[int, ...],
    count: int,
) -> np.ndarray:
    """One term's stored column gathered into candidate order.

    ``column is None`` means no peer ever posted a packable synopsis for
    the term, so every candidate row is neutral.
    """
    if column is None:
        empty = column_cls(*params, capacity=1)  # type: ignore[call-arg]
        return empty.neutral_matrix(count)
    if type(column) is not column_cls or column.params != params:
        raise FastPathUnsupported(
            "stored column family or parameters do not match the reference"
        )
    return column.gather(rows, mask)


def _fold_disjunctive(mats: list[np.ndarray], union: np.ufunc) -> np.ndarray:
    """Row-wise union fold; the neutral payload is the fold identity."""
    combined = mats[0]
    for mat in mats[1:]:
        union(combined, mat, out=combined)
    return combined


def _fold_conjunctive(
    mats: list[np.ndarray], kernel_cls: Any, crude_fallback: bool
) -> np.ndarray:
    """Row-wise intersection fold, mirroring ``PerPeerAggregation.combine``.

    Hash sketches and LogLog counters raise ``UnsupportedOperationError``
    on every pairwise intersect; with the crude fallback enabled
    ``combine`` degrades each pair to a union, so the whole fold *is* the
    union fold.  Without the fallback ``combine`` raises an error the
    naive loop must surface — defer to it.  A single-term fold never
    intersects at all.
    """
    if len(mats) == 1:
        return mats[0]
    if kernel_cls is _BloomColumn:
        combined = mats[0]
        for mat in mats[1:]:
            np.bitwise_and(combined, mat, out=combined)
        return combined
    if kernel_cls is _MipsColumn:
        combined = mats[0]
        for mat in mats[1:]:
            np.maximum(combined, mat, out=combined)
        return combined
    if not crude_fallback:
        raise FastPathUnsupported(
            "conjunctive intersection raises for this family; the naive "
            "loop owns that error"
        )
    return _fold_disjunctive(mats, kernel_cls.union)


def _matrix_cardinalities(rows: np.ndarray, reference: Any) -> np.ndarray:
    """Per-row ``estimate_cardinality()`` of packed synopsis payloads.

    Tabulated / sequential arithmetic only, so every row's estimate is
    bit-identical to materializing the synopsis object and calling its
    scalar estimator.
    """
    if type(reference) is BloomFilter:
        table = popcount_cardinality_table(
            reference.num_bits, reference.num_hashes
        )
        return np.asarray(table[row_popcounts(rows)], dtype=np.float64)
    if type(reference) is MinWisePermutations:
        length = reference.num_permutations
        fractions = rows / float(MIPS_MODULUS)
        # Left-to-right accumulation in position order, as the scalar
        # estimator adds, keeps float addition bit-identical.
        total = np.add.accumulate(fractions, axis=1)[:, -1]
        with np.errstate(divide="ignore", invalid="ignore"):
            estimate = np.where(
                total <= 0.0,
                np.inf,
                np.maximum(0.0, float(length) / total - 1.0),
            )
        empty = (rows == MIPS_MODULUS).all(axis=1)
        return np.asarray(np.where(empty, 0.0, estimate), dtype=np.float64)
    if type(reference) is HashSketch:
        table = rho_sum_cardinality_table(
            reference.num_bitmaps, reference.bitmap_length
        )
        rho_sums = first_zero_positions(rows, reference.bitmap_length).sum(axis=1)
        empty = (rows == 0).all(axis=1)
        return np.asarray(np.where(empty, 0.0, table[rho_sums]), dtype=np.float64)
    if type(reference) is LogLogCounter:
        buckets = reference.num_buckets
        linear_table, extrapolation_table = register_cardinality_tables(buckets)
        zero_counts = (rows == 0).sum(axis=1)
        register_sums = rows.sum(axis=1, dtype=np.int64)
        estimate = np.where(
            zero_counts > buckets * 0.3,
            linear_table[zero_counts],
            extrapolation_table[register_sums],
        )
        return np.asarray(
            np.where(zero_counts == buckets, 0.0, estimate), dtype=np.float64
        )
    raise FastPathUnsupported(
        f"no vectorized kernel for {type(reference).__name__}"
    )


def _combined_cardinalities(
    view: ColumnContextView,
    combined: np.ndarray,
    reference: Any,
    conjunctive: bool,
) -> np.ndarray:
    """Vectorized ``PerPeerAggregation._candidate_cardinality``.

    Exact per-term cdfs bound the synopsis estimate: one present term is
    taken verbatim, two or more clamp the estimate by the largest/summed
    (disjunctive) or smallest (conjunctive) list length.  All clamps run
    on exact int64-derived floats, so results match the scalar path.
    """
    count = view.count
    n_present = np.zeros(count, dtype=np.int64)
    sum_cdf = np.zeros(count, dtype=np.int64)
    max_cdf = np.zeros(count, dtype=np.int64)
    min_cdf = np.full(count, np.iinfo(np.int64).max, dtype=np.int64)
    for gather in view.gathers:
        present = gather.cdf > 0
        n_present += present
        sum_cdf += gather.cdf
        max_cdf = np.maximum(max_cdf, gather.cdf)
        min_cdf = np.where(present, np.minimum(min_cdf, gather.cdf), min_cdf)
    sum_f = sum_cdf.astype(np.float64)
    estimate = _matrix_cardinalities(combined, reference)
    if conjunctive:
        clamped = np.minimum(
            np.maximum(0.0, estimate), min_cdf.astype(np.float64)
        )
    else:
        clamped = np.minimum(
            np.maximum(estimate, max_cdf.astype(np.float64)), sum_f
        )
    return np.asarray(
        np.where(n_present == 0, 0.0, np.where(n_present == 1, sum_f, clamped)),
        dtype=np.float64,
    )


def _per_peer_columns(
    aggregation: PerPeerAggregation,
    context: RoutingContext,
    view: ColumnContextView,
) -> tuple[list[Any], list[float]]:
    """One kernel over each candidate's combined query synopsis."""
    state = aggregation.start(context)
    reference = state.reference
    column_cls, params, kernel_cls = _family(reference)
    count = view.count
    mats: list[np.ndarray] = []
    syn_count = np.zeros(count, dtype=np.int64)
    conj_ok = np.ones(count, dtype=bool) if context.conjunctive else None
    for gather in view.gathers:
        mats.append(
            _term_matrix(
                gather.columns.synopsis_column,
                gather.rows,
                gather.has_synopsis,
                column_cls,
                params,
                count,
            )
        )
        syn_count += gather.has_synopsis
        if conj_ok is not None:
            conj_ok &= gather.has_post & gather.has_synopsis
    if context.conjunctive:
        combined = _fold_conjunctive(
            mats, kernel_cls, aggregation.crude_conjunctive_fallback
        )
    else:
        combined = _fold_disjunctive(mats, kernel_cls.union)
    cards = _combined_cardinalities(
        view, combined, reference, context.conjunctive
    )
    if bool(np.any(cards < 0.0)):
        raise FastPathUnsupported("negative candidate cardinality")
    active = (syn_count > 0) & (cards > 0.0)
    if conj_ok is not None:
        active &= conj_ok
        # A conjunctive candidate missing a term's synopsis combines to
        # nothing, so it must absorb as the neutral payload.
        combined[~conj_ok] = column_cls.neutral
    cards = np.where(active, cards, 0.0)
    return [kernel_cls(combined, cards, active, reference)], [
        state.reference_cardinality
    ]


def _per_term_columns(
    aggregation: PerTermAggregation,
    context: RoutingContext,
    view: ColumnContextView,
) -> tuple[list[Any], list[float]]:
    """One kernel per query term over the posted term synopses."""
    state = aggregation.start(context)
    columns: list[Any] = []
    for gather in view.gathers:
        reference = state.references[gather.term]
        column_cls, params, kernel_cls = _family(reference)
        # Posts with a synopsis but ``cdf == 0`` score nothing, yet the
        # naive absorb still unions their synopsis in.
        active = gather.has_synopsis & (gather.cdf != 0)
        matrix = _term_matrix(
            gather.columns.synopsis_column,
            gather.rows,
            gather.has_synopsis,
            column_cls,
            params,
            view.count,
        )
        cards = np.where(active, gather.cdf.astype(np.float64), 0.0)
        columns.append(kernel_cls(matrix, cards, active, reference))
    return columns, [
        state.reference_cardinalities[term] for term in context.query.terms
    ]


def column_rank_detailed(
    context: RoutingContext,
    aggregation: Any,
    stopping: StoppingCriterion,
    max_peers: int,
    *,
    alpha: float = CORI_ALPHA,
    quality_weighted: bool = True,
) -> tuple[list[tuple[str, float, float]], RoutingStats]:
    """Run Select-Best-Peer directly on the directory's packed columns.

    Candidate assembly, CORI scoring, and the novelty kernels all read
    gathered slices of the stored matrices — no per-peer Python objects
    exist on the hot path.  Plans are bit-identical to the naive loop.
    Raises :class:`FastPathUnsupported` — always before mutating shared
    state — when the column view cannot serve the context (peer lists on
    different peer-id tables, foreign synopses) or no kernel represents
    the configuration exactly; the router then runs the naive loop.
    """
    aggregation_type = type(aggregation)
    if aggregation_type not in (PerPeerAggregation, PerTermAggregation):
        raise FastPathUnsupported(
            f"no fast path for aggregation strategy {aggregation_type.__name__}"
        )
    try:
        view = ColumnContextView.build(context)
    except ColumnViewUnavailable as exc:
        raise FastPathUnsupported(str(exc)) from exc
    if view.count == 0:
        return [], RoutingStats(mode="empty", candidates=0)
    qualities_array = (
        cori_score_array(view, alpha=alpha)
        if quality_weighted
        else np.ones(view.count, dtype=np.float64)
    )
    if aggregation_type is PerPeerAggregation:
        columns, cardinalities = _per_peer_columns(aggregation, context, view)
    else:
        columns, cardinalities = _per_term_columns(aggregation, context, view)
    stats = RoutingStats(mode="incremental", candidates=view.count)
    plan = _run_incremental(
        columns,
        cardinalities,
        qualities_array,
        view.peer_names,
        stopping,
        max_peers,
        stats,
    )
    return plan, stats


# -- driver ------------------------------------------------------------------


def _run_incremental(
    columns: list[Any],
    reference_cardinalities: list[float],
    qualities_array: np.ndarray,
    peer_ids: list[str],
    stopping: StoppingCriterion,
    max_peers: int,
    stats: RoutingStats,
) -> list[tuple[str, float, float]]:
    count = len(peer_ids)
    # The naive loop breaks score ties by the highest quality, then the
    # largest peer id.  ``peer_ids`` ascend, so that key is this fixed
    # order, and each round's pick is the first maximum of the scores
    # read in it (signed zeros tie both in the sort and in ``argmax``).
    order = np.lexsort((np.arange(count, dtype=np.int64), qualities_array))[::-1]
    ordered_qualities = qualities_array[order]
    picked: list[int] = []  # positions in ``order``, scored ``-inf``
    alive = np.ones(count, dtype=bool)
    stats.novelty_evaluations += count
    plan: list[tuple[str, float, float]] = []
    reference_rows: list[np.ndarray] = []
    for _ in range(min(max_peers, count)):
        stats.rounds += 1
        stats.naive_evaluations += count - len(plan)
        if plan:
            # Catch the kernels up with the previous round's absorb —
            # here rather than after it, so the last round pays nothing.
            touched = columns[0].refresh_reference(reference_rows[0])
            for column, row in zip(columns[1:], reference_rows[1:]):
                touched = touched | column.refresh_reference(row)
            stats.novelty_evaluations += int(np.count_nonzero(touched & alive))
        per_column = [
            column.rescore(cardinality)
            for column, cardinality in zip(columns, reference_cardinalities)
        ]
        novelty = per_column[0]
        for column_novelty in per_column[1:]:
            novelty = novelty + column_novelty
        scores = ordered_qualities * novelty[order]
        scores[picked] = -np.inf
        position = int(scores.argmax())
        picked.append(position)
        best = int(order[position])
        best_novelty = float(novelty[best])
        plan.append((peer_ids[best], float(qualities_array[best]), best_novelty))
        alive[best] = False
        # Aggregate-Synopses: fold the winner's rows into the reference
        # rows and add its per-column novelty — the gain the naive absorb
        # recomputes — to the reference cardinalities, in column order.
        reference_rows = [column.absorbed(best) for column in columns]
        for index, column_novelty in enumerate(per_column):
            reference_cardinalities[index] += float(column_novelty[best])
        stats.novelty_evaluations += 1  # the winner's gain, reused
        if stopping.should_stop(
            selected_count=len(plan),
            estimated_coverage=sum(reference_cardinalities),
            last_novelty=best_novelty,
        ):
            break
    return plan
