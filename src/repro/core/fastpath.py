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
ULPs) ever touches the value path.  The kernels hold the candidates in
one order fixed per query — quality, then peer id, both descending,
which is the naive loop's tie-break — so the next peer is the first
maximum of ``quality * novelty``.

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
    TermGather,
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
    column_popcounts,
    pack_bit_row,
    popcount_cardinality_table,
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
# term.  The rows are scattered from the directory's column store in
# tie-break order, and the adapters below have already matched the
# reference to the stored family and parameters (``column_layout``), so
# a constructor only packs the reference and computes its statistics.
#
# Row ``i`` of a kernel's matrix (column ``i`` of Bloom's word-major
# one) is what Aggregate-Synopses unions into
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
    #: Whether the matrix is stored transposed, one row per word.
    word_major = False
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

    Operates on a word-major ``(words, C)`` uint64 bit-matrix — column
    ``i`` is candidate ``i``'s filter — and caches every candidate's
    popcount of ``row AND NOT reference``.
    """

    union = np.bitwise_or
    word_major = True

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

    def absorbed(self, best: int) -> np.ndarray:
        return self.union(self._reference_row, self._rows[:, best])

    def refresh_reference(self, new_row: np.ndarray) -> np.ndarray:
        # Absorbs only union bits in, so ``row AND NOT reference`` loses
        # exactly the row's bits among the added ones: one popcount pass.
        added = new_row & ~self._reference_row
        lost = column_popcounts(self._rows & added[:, None])
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
# attaches them to rows scattered from the directory's stored matrices,
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


def _candidate_matrix(
    gathers: Sequence[TermGather],
    column_cls: type[SynopsisColumn],
    params: tuple[int, ...],
    count: int,
    fold: np.ufunc,
) -> np.ndarray:
    """The terms' stored synopsis rows scattered to their candidate rows,
    each term after the first folded in with ``fold``.

    Rows without a synopsis are stored neutral, and candidates a term
    misses keep what is there, so with the family's ``union`` (whose
    identity is the neutral payload) each row is the union over the
    candidate's terms; with an intersection only the rows of candidates
    present in every term are right, the only ones a conjunctive query
    keeps.  A term no peer posted a packable synopsis for has no column
    and changes nothing.  The initiator's rows land in a spare last row,
    which is cut off.
    """
    matrix = column_cls(*params, capacity=1).neutral_matrix(count + 1)  # type: ignore[call-arg]
    first = True
    for gather in gathers:
        column = gather.columns.synopsis_column
        if column is None:
            continue
        if type(column) is not column_cls or column.params != params:
            raise FastPathUnsupported(
                "stored column family or parameters do not match the reference"
            )
        stored = column.rows(len(gather.columns))
        positions = gather.positions
        if not first:
            stored = fold(matrix[positions], stored)
        matrix[positions] = stored
        first = False
    return matrix[:count]


def _kernel_layout(kernel_cls: type[_Kernel], matrix: np.ndarray) -> np.ndarray:
    """A candidate-row matrix in the layout the kernel reads."""
    if kernel_cls.word_major:
        return np.ascontiguousarray(matrix.T, dtype=matrix.dtype)
    return matrix


def _intersection(kernel_cls: type[_Kernel], crude_fallback: bool) -> np.ufunc:
    """The row-wise intersection ``PerPeerAggregation.combine`` folds with.

    Hash sketches and LogLog counters raise ``UnsupportedOperationError``
    on every pairwise intersect; with the crude fallback enabled
    ``combine`` degrades each pair to a union, so the whole fold *is* the
    union fold.  Without the fallback ``combine`` raises an error the
    naive loop must surface — defer to it.
    """
    if kernel_cls is _BloomColumn:
        return np.bitwise_and
    if kernel_cls is _MipsColumn:
        return np.maximum
    if not crude_fallback:
        raise FastPathUnsupported(
            "conjunctive intersection raises for this family; the naive "
            "loop owns that error"
        )
    return kernel_cls.union


def _matrix_cardinalities(rows: np.ndarray, reference: Any) -> np.ndarray:
    """Per-candidate ``estimate_cardinality()`` of packed synopsis payloads,
    in the family kernel's layout (Bloom matrices are word-major).

    Tabulated / sequential arithmetic only, so every row's estimate is
    bit-identical to materializing the synopsis object and calling its
    scalar estimator.
    """
    if type(reference) is BloomFilter:
        table = popcount_cardinality_table(
            reference.num_bits, reference.num_hashes
        )
        return np.asarray(table[column_popcounts(rows)], dtype=np.float64)
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
    cdfs = np.stack([gather.cdf for gather in view.gathers])
    present = cdfs > 0
    sum_f = cdfs.sum(axis=0).astype(np.float64)
    estimate = _matrix_cardinalities(combined, reference)
    if conjunctive:
        min_cdf = np.where(present, cdfs, np.iinfo(np.int64).max).min(axis=0)
        clamped = np.minimum(
            np.maximum(0.0, estimate), min_cdf.astype(np.float64)
        )
    else:
        clamped = np.minimum(
            np.maximum(estimate, cdfs.max(axis=0).astype(np.float64)), sum_f
        )
    # With no present term the sum is 0.0, so it also covers that case.
    return np.asarray(
        np.where(np.count_nonzero(present, axis=0) <= 1, sum_f, clamped),
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
    syn_count = np.zeros(count, dtype=np.int64)
    for gather in view.gathers:
        syn_count += gather.has_synopsis
    fold = kernel_cls.union
    if context.conjunctive and len(view.gathers) > 1:
        fold = _intersection(kernel_cls, aggregation.crude_conjunctive_fallback)
    combined = _candidate_matrix(view.gathers, column_cls, params, count, fold)
    if context.conjunctive:
        conj_ok = np.ones(count, dtype=bool)
        for gather in view.gathers:
            conj_ok &= gather.has_post & gather.has_synopsis
        # A conjunctive candidate missing a term's synopsis combines to
        # nothing, so it must absorb as the neutral payload; the rows
        # kept are folded over every term.
        combined[~conj_ok] = column_cls.neutral
    combined = _kernel_layout(kernel_cls, combined)
    cards = _combined_cardinalities(
        view, combined, reference, context.conjunctive
    )
    if bool(np.any(cards < 0.0)):
        raise FastPathUnsupported("negative candidate cardinality")
    active = (syn_count > 0) & (cards > 0.0)
    if context.conjunctive:
        active &= conj_ok
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
        matrix = _candidate_matrix(
            [gather], column_cls, params, view.count, kernel_cls.union
        )
        matrix = _kernel_layout(kernel_cls, matrix)
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
    rows scattered from the stored matrices — no per-peer Python objects
    exist on the hot path, and only the selected peers' names are looked
    up.  Plans are bit-identical to the naive loop.
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
    qualities = (
        cori_score_array(view, alpha=alpha)
        if quality_weighted
        else np.ones(view.count, dtype=np.float64)
    )
    order = tie_break_order(qualities)
    view = view.ordered(order)
    if aggregation_type is PerPeerAggregation:
        columns, cardinalities = _per_peer_columns(aggregation, context, view)
    else:
        columns, cardinalities = _per_term_columns(aggregation, context, view)
    stats = RoutingStats(mode="incremental", candidates=view.count)
    picks = _run_incremental(
        columns, cardinalities, qualities[order], stopping, max_peers, stats
    )
    names = view.peer_names(np.array([pick for pick, _, _ in picks], dtype=np.int64))
    plan = [
        (name, quality, novelty)
        for name, (_, quality, novelty) in zip(names, picks)
    ]
    return plan, stats


# -- driver ------------------------------------------------------------------


def tie_break_order(qualities: np.ndarray) -> np.ndarray:
    """Candidates in the naive loop's tie-break order.

    The naive loop breaks score ties by the highest quality, then the
    largest peer id.  Candidates arrive in ascending peer-id order, so
    that key is quality descending, then position descending (signed
    zeros tie in the sort, as they do in the naive comparison).
    """
    return np.argsort(qualities, kind="stable")[::-1]


def _run_incremental(
    columns: list[Any],
    reference_cardinalities: list[float],
    qualities: np.ndarray,
    stopping: StoppingCriterion,
    max_peers: int,
    stats: RoutingStats,
) -> list[tuple[int, float, float]]:
    """The Select-Best-Peer rounds over candidates in tie-break order.

    Every kernel's rows and ``qualities`` list the candidates in
    :func:`tie_break_order`, so each round's pick is the first maximum
    of ``quality * novelty`` (signed zeros tie in ``argmax`` too).
    Returns ``(position, quality, novelty)`` per pick.
    """
    count = len(qualities)
    picked: list[int] = []  # scored ``-inf`` from then on
    alive = np.ones(count, dtype=bool)
    stats.novelty_evaluations += count
    plan: list[tuple[int, float, float]] = []
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
        scores = qualities * novelty
        scores[picked] = -np.inf
        best = int(scores.argmax())
        picked.append(best)
        best_novelty = float(novelty[best])
        plan.append((best, float(qualities[best]), best_novelty))
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
