"""Packed columnar storage for directory synopses.

The object model (one :class:`~repro.minerva.posts.Post` per peer per
term, each holding a synopsis object) caps directories at tens of peers:
every query re-packs C Python objects into matrices before the
vectorized kernels of :mod:`repro.core.fastpath` can run.  This module
inverts the representation — the *directory* stores one contiguous
numpy matrix per synopsis family per term (a Bloom bit-matrix, a MIPs
min-hash matrix, a hash-sketch bitmap matrix, a LogLog register matrix)
plus parallel metadata arrays (``cdf``, ``max_score``, ``avg_score``,
``term_space_size``) and an interned peer-id table.  Packing becomes an
ingest-time cost amortized across queries; the routing hot path attaches
straight to the stored matrices with zero per-peer Python work.

Per-peer objects still materialize lazily (:meth:`TermColumns.synopsis_at`,
:meth:`TermColumns.post_fields`) for the non-fastpath code, and the
payload round-trips exactly: ``materialize(pack(s)) == s`` for every
family, so the compatibility path sees bit-identical synopses.

Synopses whose family or parameters the per-term column cannot hold
(mixed parameters, exotic types, >64-bit sketch bitmaps) drop into a
per-peer *foreign* dict; :attr:`TermColumns.is_pure` tells the routing
layer whether the packed matrix covers every stored synopsis.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from .base import SetSynopsis
from .bloom import BloomFilter, pack_bit_row, unpack_bit_row
from .hashsketch import HashSketch, pack_bitmap_row
from .histogram import ScoreHistogramSynopsis
from .loglog import REGISTER_BITS, LogLogCounter, pack_register_row
from .mips import (
    BITS_PER_POSITION,
    MIPS_MODULUS,
    MinWisePermutations,
    pack_minima_row,
)

__all__ = [
    "PeerIdTable",
    "SynopsisColumn",
    "BloomColumn",
    "MipsColumn",
    "HashSketchColumn",
    "LogLogColumn",
    "TermColumns",
    "column_for",
    "column_layout",
]

#: Initial row capacity of every column; grows by doubling.
_INITIAL_CAPACITY = 8


class PeerIdTable:
    """Interns peer-id strings to dense integers, shared across terms.

    One table per directory: every :class:`TermColumns` keys its rows by
    the interned integer, so cross-term candidate assembly is pure array
    indexing instead of string-dict probing.  :meth:`name_ranks` orders
    the interned ids as ``sorted()`` orders their names, so integer sorts
    reproduce the string tie-breaks exactly.
    """

    __slots__ = ("_index", "_names", "_rank_memo")

    def __init__(self) -> None:
        self._index: dict[str, int] = {}
        self._names: list[str] = []
        self._rank_memo: tuple[np.ndarray, np.ndarray] | None = None

    def intern(self, name: str) -> int:
        """Return the stable integer id for ``name``, assigning if new."""
        interned = self._index.get(name)
        if interned is None:
            interned = len(self._names)
            self._index[name] = interned
            self._names.append(name)
            self._rank_memo = None
        return interned

    def lookup(self, name: str) -> int | None:
        return self._index.get(name)

    def name(self, interned: int) -> str:
        return self._names[interned]

    def names(self, interned: np.ndarray) -> list[str]:
        """The names of the given interned ids, in that order."""
        names = self._names
        return [names[position] for position in interned.tolist()]

    def _ranking(self) -> tuple[np.ndarray, np.ndarray]:
        memo = self._rank_memo
        if memo is None:
            names = self._names
            by_rank = np.array(
                sorted(range(len(names)), key=names.__getitem__), dtype=np.int64
            )
            ranks = np.empty(len(names), dtype=np.int64)
            ranks[by_rank] = np.arange(len(names), dtype=np.int64)
            memo = (ranks, by_rank)
            self._rank_memo = memo
        return memo

    def name_ranks(self) -> np.ndarray:
        """Each interned id's position among the names in ``sorted()``
        (Python code-point) order; rebuilt after a name is interned."""
        return self._ranking()[0]

    def names_at_ranks(self, ranks: np.ndarray) -> list[str]:
        """The names at the given :meth:`name_ranks` positions."""
        return self.names(self._ranking()[1][ranks])

    def __len__(self) -> int:
        return len(self._names)

    def __getstate__(self) -> tuple[list[str]]:
        return (self._names,)

    def __setstate__(self, state: tuple[list[str]]) -> None:
        (names,) = state
        self._names = names
        self._index = {name: position for position, name in enumerate(names)}
        self._rank_memo = None


class SynopsisColumn:
    """One contiguous matrix of packed synopsis payloads (row = peer).

    Subclasses fix the family: matrix dtype/width, the row packing, the
    lazy inverse (:meth:`materialize`), and the exact parameter match
    (:meth:`accepts`).  Rows beyond the logical size and rows of peers
    without a synopsis hold :attr:`neutral` — the empty synopsis, which
    is also the identity of the family's union fold.
    """

    __slots__ = ("_matrix",)

    #: Scalar filling vacated / missing rows (the empty synopsis).
    neutral: int = 0

    def __init__(self, capacity: int = _INITIAL_CAPACITY) -> None:
        self._matrix = self._make_matrix(max(1, capacity))

    # -- family hooks ----------------------------------------------------

    def _make_matrix(self, rows: int) -> np.ndarray:
        raise NotImplementedError

    def _pack(self, synopsis: SetSynopsis) -> np.ndarray:
        raise NotImplementedError

    def materialize(self, row: int) -> SetSynopsis:
        """Rebuild the synopsis object stored at ``row`` (compat path)."""
        raise NotImplementedError

    def accepts(self, synopsis: SetSynopsis) -> bool:
        """Whether ``synopsis`` is exactly this column's family + params."""
        raise NotImplementedError

    @property
    def params(self) -> tuple[int, ...]:
        """Family parameters, in the family constructor's order."""
        raise NotImplementedError

    @property
    def bits_per_row(self) -> int:
        """Wire size of one packed synopsis (= ``size_in_bits``)."""
        raise NotImplementedError

    # -- storage ---------------------------------------------------------

    def ensure(self, rows: int) -> None:
        """Grow capacity (by doubling) to hold at least ``rows`` rows."""
        capacity = len(self._matrix)
        if rows <= capacity:
            return
        while capacity < rows:
            capacity *= 2
        grown = self._make_matrix(capacity)
        grown[: len(self._matrix)] = self._matrix
        self._matrix = grown

    def set_row(self, row: int, synopsis: SetSynopsis) -> None:
        self._matrix[row] = self._pack(synopsis)

    def clear_row(self, row: int) -> None:
        self._matrix[row] = self.neutral

    def move_row(self, source: int, target: int) -> None:
        self._matrix[target] = self._matrix[source]
        self._matrix[source] = self.neutral

    @property
    def capacity(self) -> int:
        """Rows the matrix holds (stored, neutral or spare)."""
        return len(self._matrix)

    def neutral_matrix(self, rows: int) -> np.ndarray:
        """A fresh all-neutral matrix with ``rows`` rows."""
        return self._make_matrix(rows)

    def rows(self, count: int) -> np.ndarray:
        """Live view of the first ``count`` packed rows."""
        return self._matrix[:count]

    def holding(self, matrix: np.ndarray) -> "SynopsisColumn":
        """A column of this family and parameters whose rows are ``matrix``.

        How a batch of already-packed synopses travels to
        :meth:`TermColumns.upsert_rows`; ``matrix`` must have the
        family's row width and dtype.
        """
        column = self.fresh(1)
        layout = column._matrix
        if (
            matrix.ndim != 2
            or matrix.shape[1:] != layout.shape[1:]
            or matrix.dtype != layout.dtype
        ):
            raise ValueError(
                f"{type(self).__name__}{self.params} rows are "
                f"{layout.dtype}[:, {layout.shape[1]}], got "
                f"{matrix.dtype}{list(matrix.shape)}"
            )
        column._matrix = matrix
        return column

    def matches(self, other: "SynopsisColumn") -> bool:
        """Whether ``other`` packs the same family with the same parameters."""
        return type(other) is type(self) and other.params == self.params

    def take(self, rows: np.ndarray) -> "SynopsisColumn":
        """A column holding copies of the given rows, in that order."""
        return self.holding(self._matrix[rows])

    def set_packed_row(self, row: int, values: np.ndarray) -> None:
        """Store one already-packed row (cluster-synopsis merging)."""
        self._matrix[row] = values

    def fresh(self, capacity: int) -> "SynopsisColumn":
        """A new empty column with this column's family and parameters.

        Relies on :attr:`params` listing the family parameters in the
        subclass constructor's order (the documented contract).
        """
        return type(self)(*self.params, capacity=capacity)  # type: ignore[call-arg]


class BloomColumn(SynopsisColumn):
    """Packed little-endian uint64 bit-matrix of Bloom filters."""

    __slots__ = ("num_bits", "num_hashes", "seed", "_words")

    def __init__(
        self,
        num_bits: int,
        num_hashes: int,
        seed: int,
        capacity: int = _INITIAL_CAPACITY,
    ) -> None:
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self.seed = seed
        self._words = (num_bits + 63) // 64
        super().__init__(capacity)

    def _make_matrix(self, rows: int) -> np.ndarray:
        return np.zeros((rows, self._words), dtype=np.uint64)

    def _pack(self, synopsis: SetSynopsis) -> np.ndarray:
        assert isinstance(synopsis, BloomFilter)
        return pack_bit_row(synopsis.raw_bits, self.num_bits)

    def materialize(self, row: int) -> BloomFilter:
        return BloomFilter(
            self.num_bits, self.num_hashes, self.seed, unpack_bit_row(self._matrix[row])
        )

    def accepts(self, synopsis: SetSynopsis) -> bool:
        return type(synopsis) is BloomFilter and (
            synopsis.num_bits,
            synopsis.num_hashes,
            synopsis.seed,
        ) == (self.num_bits, self.num_hashes, self.seed)

    @property
    def params(self) -> tuple[int, ...]:
        return (self.num_bits, self.num_hashes, self.seed)

    @property
    def bits_per_row(self) -> int:
        return self.num_bits


class MipsColumn(SynopsisColumn):
    """Packed int64 minima matrix of MIPs vectors (sentinel = empty)."""

    __slots__ = ("num_permutations", "seed")

    neutral: int = MIPS_MODULUS

    def __init__(
        self, num_permutations: int, seed: int, capacity: int = _INITIAL_CAPACITY
    ) -> None:
        self.num_permutations = num_permutations
        self.seed = seed
        super().__init__(capacity)

    def _make_matrix(self, rows: int) -> np.ndarray:
        return np.full((rows, self.num_permutations), MIPS_MODULUS, dtype=np.int64)

    def _pack(self, synopsis: SetSynopsis) -> np.ndarray:
        assert isinstance(synopsis, MinWisePermutations)
        return pack_minima_row(synopsis)

    def materialize(self, row: int) -> MinWisePermutations:
        return MinWisePermutations(self._matrix[row].tolist(), self.seed)

    def accepts(self, synopsis: SetSynopsis) -> bool:
        return (
            type(synopsis) is MinWisePermutations
            and synopsis.num_permutations == self.num_permutations
            and synopsis.seed == self.seed
        )

    @property
    def params(self) -> tuple[int, ...]:
        return (self.num_permutations, self.seed)

    @property
    def bits_per_row(self) -> int:
        return BITS_PER_POSITION * self.num_permutations


class HashSketchColumn(SynopsisColumn):
    """Packed uint64 bitmap matrix of PCSA hash sketches (L <= 64)."""

    __slots__ = ("num_bitmaps", "bitmap_length", "seed")

    def __init__(
        self,
        num_bitmaps: int,
        bitmap_length: int,
        seed: int,
        capacity: int = _INITIAL_CAPACITY,
    ) -> None:
        self.num_bitmaps = num_bitmaps
        self.bitmap_length = bitmap_length
        self.seed = seed
        super().__init__(capacity)

    def _make_matrix(self, rows: int) -> np.ndarray:
        return np.zeros((rows, self.num_bitmaps), dtype=np.uint64)

    def _pack(self, synopsis: SetSynopsis) -> np.ndarray:
        assert isinstance(synopsis, HashSketch)
        return pack_bitmap_row(synopsis)

    def materialize(self, row: int) -> HashSketch:
        return HashSketch(
            self.num_bitmaps,
            self.bitmap_length,
            self.seed,
            self._matrix[row].tolist(),
        )

    def accepts(self, synopsis: SetSynopsis) -> bool:
        return type(synopsis) is HashSketch and (
            synopsis.num_bitmaps,
            synopsis.bitmap_length,
            synopsis.seed,
        ) == (self.num_bitmaps, self.bitmap_length, self.seed)

    @property
    def params(self) -> tuple[int, ...]:
        return (self.num_bitmaps, self.bitmap_length, self.seed)

    @property
    def bits_per_row(self) -> int:
        return self.num_bitmaps * self.bitmap_length


class LogLogColumn(SynopsisColumn):
    """Packed uint8 register matrix of LogLog counters."""

    __slots__ = ("num_buckets", "seed")

    def __init__(
        self, num_buckets: int, seed: int, capacity: int = _INITIAL_CAPACITY
    ) -> None:
        self.num_buckets = num_buckets
        self.seed = seed
        super().__init__(capacity)

    def _make_matrix(self, rows: int) -> np.ndarray:
        return np.zeros((rows, self.num_buckets), dtype=np.uint8)

    def _pack(self, synopsis: SetSynopsis) -> np.ndarray:
        assert isinstance(synopsis, LogLogCounter)
        return pack_register_row(synopsis)

    def materialize(self, row: int) -> LogLogCounter:
        return LogLogCounter(self.num_buckets, self.seed, self._matrix[row].tolist())

    def accepts(self, synopsis: SetSynopsis) -> bool:
        return (
            type(synopsis) is LogLogCounter
            and synopsis.num_buckets == self.num_buckets
            and synopsis.seed == self.seed
        )

    @property
    def params(self) -> tuple[int, ...]:
        return (self.num_buckets, self.seed)

    @property
    def bits_per_row(self) -> int:
        return self.num_buckets * REGISTER_BITS


def column_layout(
    synopsis: SetSynopsis,
) -> tuple[type[SynopsisColumn], tuple[int, ...]] | None:
    """The column class and :attr:`~SynopsisColumn.params` matching
    ``synopsis``'s exact family and parameters.

    Returns ``None`` for families the packed matrices cannot represent
    (subclasses, >64-bit sketch bitmaps, unknown types); those synopses
    stay as per-peer objects in :attr:`TermColumns._foreign`.
    """
    if isinstance(synopsis, BloomFilter) and type(synopsis) is BloomFilter:
        return BloomColumn, (
            synopsis.num_bits,
            synopsis.num_hashes,
            synopsis.seed,
        )
    if (
        isinstance(synopsis, MinWisePermutations)
        and type(synopsis) is MinWisePermutations
    ):
        return MipsColumn, (synopsis.num_permutations, synopsis.seed)
    if isinstance(synopsis, HashSketch) and type(synopsis) is HashSketch:
        if synopsis.bitmap_length > 64:
            return None
        return HashSketchColumn, (
            synopsis.num_bitmaps,
            synopsis.bitmap_length,
            synopsis.seed,
        )
    if isinstance(synopsis, LogLogCounter) and type(synopsis) is LogLogCounter:
        return LogLogColumn, (synopsis.num_buckets, synopsis.seed)
    return None


def column_for(
    synopsis: SetSynopsis, capacity: int = _INITIAL_CAPACITY
) -> SynopsisColumn | None:
    """A fresh column matching ``synopsis`` (see :func:`column_layout`)."""
    layout = column_layout(synopsis)
    if layout is None:
        return None
    column_cls, params = layout
    return column_cls(*params, capacity=capacity)  # type: ignore[call-arg]


class TermColumns:
    """One term's directory state as parallel packed arrays.

    Rows are dense (``0 .. len-1``); removal swaps the last row into the
    hole, so every array stays contiguous.  The vacated slot is cleared
    so pickled bytes depend only on the logical content plus the
    deterministic capacity history — required by the content-addressed
    experiment setup cache.
    """

    __slots__ = (
        "term",
        "_table",
        "_peer_ids",
        "_cdf",
        "_max_score",
        "_avg_score",
        "_term_space",
        "_has_synopsis",
        "_size",
        "_row_of",
        "_column",
        "_foreign",
        "_histograms",
        "_order_cache",
    )

    def __init__(self, term: str, table: PeerIdTable) -> None:
        self.term = term
        self._table = table
        self._peer_ids = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self._cdf = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self._max_score = np.zeros(_INITIAL_CAPACITY, dtype=np.float64)
        self._avg_score = np.zeros(_INITIAL_CAPACITY, dtype=np.float64)
        self._term_space = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self._has_synopsis = np.zeros(_INITIAL_CAPACITY, dtype=bool)
        self._size = 0
        self._row_of: dict[int, int] = {}
        self._column: SynopsisColumn | None = None
        self._foreign: dict[int, SetSynopsis] = {}
        self._histograms: dict[int, ScoreHistogramSynopsis] = {}
        self._order_cache: np.ndarray | None = None

    # -- ingest ----------------------------------------------------------

    def upsert(
        self,
        peer_id: str,
        cdf: int,
        max_score: float,
        avg_score: float,
        term_space_size: int,
        synopsis: SetSynopsis | None,
        histogram: ScoreHistogramSynopsis | None,
    ) -> int:
        """Insert or overwrite one peer's posting; returns its row."""
        rows = self.upsert_rows(
            [self._table.intern(peer_id)],
            [cdf],
            [max_score],
            [avg_score],
            [term_space_size],
            [synopsis],
            None if histogram is None else [histogram],
        )
        return rows[0]

    def upsert_rows(
        self,
        interned: Sequence[int] | np.ndarray,
        cdf: Sequence[int] | np.ndarray,
        max_score: Sequence[float] | np.ndarray,
        avg_score: Sequence[float] | np.ndarray,
        term_space_size: Sequence[int] | np.ndarray,
        synopses: "SynopsisColumn | Sequence[SetSynopsis | None]",
        histograms: Sequence[ScoreHistogramSynopsis | None] | None = None,
    ) -> list[int]:
        """Insert or overwrite a batch of postings; returns their rows.

        Batch row ``i`` is peer ``interned[i]``'s posting (ids already
        interned in :attr:`table`).  ``synopses`` is either packed — a
        column of the family whose row ``i`` is batch row ``i``'s
        synopsis (:meth:`SynopsisColumn.holding`) — or one object (or
        ``None``) per row, packed here.  The result equals upserting the
        rows one by one in order: new peers append in first-occurrence
        order, existing rows are overwritten in place, a peer repeated
        in the batch ends with its last row, and synopses the stored
        column does not accept are kept as foreign objects.
        """
        ids = interned.tolist() if isinstance(interned, np.ndarray) else list(interned)
        count = len(ids)
        row_of = self._row_of
        size = self._size
        row_list: list[int] = []
        for peer in ids:
            row = row_of.get(peer)
            if row is None:
                row = size
                row_of[peer] = row
                size += 1
            row_list.append(row)
        self._grow(size)
        self._size = size
        # ``target`` holds each written row once; ``source`` picks the
        # batch index that writes it last.  One row is indexed plainly.
        source: int | slice | np.ndarray
        target: int | np.ndarray
        if count == 1:
            source, target = 0, row_list[0]
        else:
            rows = np.array(row_list, dtype=np.int64)
            source, target = slice(None), rows
            if len(set(row_list)) < count:
                _, first_from_end = np.unique(rows[::-1], return_index=True)
                source = count - 1 - first_from_end
                target = rows[source]

        def last(values: Any, dtype: Any) -> Any:
            """The values written last to each row of ``target``."""
            if isinstance(source, np.ndarray):
                return np.asarray(values, dtype=dtype)[source]
            return values[source]

        if count:
            self._peer_ids[target] = last(ids, np.int64)
            self._cdf[target] = last(cdf, np.int64)
            self._max_score[target] = last(max_score, np.float64)
            self._avg_score[target] = last(avg_score, np.float64)
            self._term_space[target] = last(term_space_size, np.int64)
        if not isinstance(synopses, SynopsisColumn):
            for row, peer, synopsis in zip(row_list, ids, synopses):
                self._store_synopsis(row, peer, synopsis)
        elif count:
            self._has_synopsis[target] = True
            column = self._column
            if column is None:
                column = synopses.fresh(len(self._peer_ids))
                self._column = column
            if column.matches(synopses):
                column._matrix[target] = last(synopses.rows(count), None)
                if self._foreign:
                    for peer in ids:
                        self._foreign.pop(peer, None)
            else:
                # Packed rows of another family or parameters.
                column._matrix[target] = column.neutral
                for index, peer in enumerate(ids):
                    self._foreign[peer] = synopses.materialize(index)
        if histograms is not None or self._histograms:
            for index, peer in enumerate(ids):
                histogram = None if histograms is None else histograms[index]
                if histogram is None:
                    self._histograms.pop(peer, None)
                else:
                    self._histograms[peer] = histogram
        self._invalidate()
        return row_list

    def _store_synopsis(
        self, row: int, interned: int, synopsis: SetSynopsis | None
    ) -> None:
        """Store one synopsis object at ``row``: packed when the column
        (created from the first packable synopsis) accepts it, else kept
        as a foreign object."""
        column = self._column
        if synopsis is None:
            self._has_synopsis[row] = False
            self._foreign.pop(interned, None)
            if column is not None:
                column.clear_row(row)
            return
        self._has_synopsis[row] = True
        if column is None:
            column = column_for(synopsis, capacity=len(self._peer_ids))
            if column is not None:
                self._column = column
        if column is not None and column.accepts(synopsis):
            column.set_row(row, synopsis)
            self._foreign.pop(interned, None)
        else:
            if column is not None:
                column.clear_row(row)
            self._foreign[interned] = synopsis

    def remove(self, peer_id: str) -> bool:
        """Drop one peer's posting (swap-with-last); False if absent."""
        interned = self._table.lookup(peer_id)
        if interned is None:
            return False
        row = self._row_of.pop(interned, None)
        if row is None:
            return False
        last = self._size - 1
        if row != last:
            moved = int(self._peer_ids[last])
            self._peer_ids[row] = moved
            self._cdf[row] = self._cdf[last]
            self._max_score[row] = self._max_score[last]
            self._avg_score[row] = self._avg_score[last]
            self._term_space[row] = self._term_space[last]
            self._has_synopsis[row] = self._has_synopsis[last]
            if self._column is not None:
                self._column.move_row(last, row)
            self._row_of[moved] = row
        elif self._column is not None:
            self._column.clear_row(last)
        self._peer_ids[last] = 0
        self._cdf[last] = 0
        self._max_score[last] = 0.0
        self._avg_score[last] = 0.0
        self._term_space[last] = 0
        self._has_synopsis[last] = False
        self._size = last
        self._foreign.pop(interned, None)
        self._histograms.pop(interned, None)
        self._invalidate()
        return True

    def _grow(self, needed: int) -> None:
        capacity = len(self._peer_ids)
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        for name in ("_peer_ids", "_cdf", "_term_space"):
            grown = np.zeros(capacity, dtype=np.int64)
            grown[: self._size] = getattr(self, name)[: self._size]
            setattr(self, name, grown)
        for name in ("_max_score", "_avg_score"):
            grown_scores = np.zeros(capacity, dtype=np.float64)
            grown_scores[: self._size] = getattr(self, name)[: self._size]
            setattr(self, name, grown_scores)
        grown_flags = np.zeros(capacity, dtype=bool)
        grown_flags[: self._size] = self._has_synopsis[: self._size]
        self._has_synopsis = grown_flags
        if self._column is not None:
            self._column.ensure(capacity)

    def _invalidate(self) -> None:
        self._order_cache = None

    @classmethod
    def from_rows(
        cls,
        term: str,
        table: PeerIdTable,
        parts: Sequence[tuple["TermColumns", np.ndarray]],
    ) -> "TermColumns":
        """A fresh store of the given rows of other stores, in order.

        Each part is ``(source, rows)``: ``source``'s rows ``rows`` are
        copied — metadata, packed synopsis rows, foreign synopses and
        histograms — into consecutive rows of the result, part after
        part, with no per-row packing.  The result holds the same posts
        as upserting them one by one in that order, keys its rows on
        ``table`` (the sources' table) and keeps the sources' column
        family; rows foreign in their source stay foreign.  Every part
        whose source holds a packed column must match the first such
        column's family and parameters (``ValueError`` otherwise); a
        peer may appear once only.
        """
        store = cls(term, table)
        total = sum(len(rows) for _, rows in parts)
        store._grow(total)
        column: SynopsisColumn | None = None
        for source, _ in parts:
            packed = source._column
            if packed is None:
                continue
            if column is None:
                column = packed.fresh(len(store._peer_ids))
            elif not column.matches(packed):
                raise ValueError(
                    f"cannot concatenate {type(packed).__name__}{packed.params}"
                    f" rows onto {type(column).__name__}{column.params} rows"
                )
        store._column = column
        start = 0
        for source, rows in parts:
            stop = start + len(rows)
            interned = source._peer_ids[rows]
            store._peer_ids[start:stop] = interned
            store._cdf[start:stop] = source._cdf[rows]
            store._max_score[start:stop] = source._max_score[rows]
            store._avg_score[start:stop] = source._avg_score[rows]
            store._term_space[start:stop] = source._term_space[rows]
            store._has_synopsis[start:stop] = source._has_synopsis[rows]
            if column is not None and source._column is not None:
                column._matrix[start:stop] = source._column._matrix[rows]
            ids = interned.tolist()
            store._row_of.update(zip(ids, range(start, stop)))
            foreign, histograms = source._foreign, source._histograms
            if foreign:
                store._foreign.update(
                    (peer, foreign[peer]) for peer in ids if peer in foreign
                )
            if histograms:
                store._histograms.update(
                    (peer, histograms[peer]) for peer in ids if peer in histograms
                )
            start = stop
        if len(store._row_of) != total:
            raise ValueError(f"a peer appears twice among the rows of {term!r}")
        store._size = total
        return store

    # -- views -----------------------------------------------------------

    @property
    def table(self) -> PeerIdTable:
        return self._table

    @property
    def synopsis_column(self) -> SynopsisColumn | None:
        return self._column

    @property
    def is_pure(self) -> bool:
        """True when every stored synopsis lives in the packed column."""
        return not self._foreign

    def interned_ids(self) -> np.ndarray:
        return self._peer_ids[: self._size]

    def cdf_values(self) -> np.ndarray:
        return self._cdf[: self._size]

    def max_scores(self) -> np.ndarray:
        return self._max_score[: self._size]

    def avg_scores(self) -> np.ndarray:
        return self._avg_score[: self._size]

    def term_space_values(self) -> np.ndarray:
        return self._term_space[: self._size]

    def synopsis_flags(self) -> np.ndarray:
        return self._has_synopsis[: self._size]

    def row_for(self, interned: int) -> int | None:
        return self._row_of.get(interned)

    def quality_order(self) -> np.ndarray:
        """Row permutation sorting by ``(max_score, cdf, peer_id)`` desc.

        Cached until the next mutation, so repeated quality-ordered
        fetches (``Directory.peer_list_batch`` from many requesters)
        reuse one sort.  The key triple is unique per row (peer ids are
        unique within a term) and name ranks order peer ids as ``sorted``
        does, so reversing the ascending lexsort equals
        ``sorted(..., reverse=True)`` exactly.  Interning a new name
        re-ranks the table but keeps the relative order of the names
        already here, so the cached order stays valid.
        """
        order = self._order_cache
        if order is None:
            ranks = self._table.name_ranks()[self.interned_ids()]
            order = np.lexsort((ranks, self.cdf_values(), self.max_scores()))[::-1]
            self._order_cache = order
        return order

    def synopsis_at(self, row: int) -> SetSynopsis | None:
        """Materialize the synopsis stored at ``row`` (compat path)."""
        if not self._has_synopsis[row]:
            return None
        interned = int(self._peer_ids[row])
        foreign = self._foreign.get(interned)
        if foreign is not None:
            return foreign
        column = self._column
        assert column is not None  # flagged rows are packed or foreign
        return column.materialize(row)

    def post_fields(
        self, row: int
    ) -> tuple[
        str,
        int,
        float,
        float,
        int,
        SetSynopsis | None,
        ScoreHistogramSynopsis | None,
    ]:
        """Everything needed to rebuild the Post stored at ``row``."""
        interned = int(self._peer_ids[row])
        return (
            self._table.name(interned),
            int(self._cdf[row]),
            float(self._max_score[row]),
            float(self._avg_score[row]),
            int(self._term_space[row]),
            self.synopsis_at(row),
            self._histograms.get(interned),
        )

    def synopsis_bits(self, rows: np.ndarray | None = None) -> int:
        """Total wire bits of the stored synopses (packed + foreign) of
        every row, or of ``rows`` only."""
        if rows is None:
            flags = self.synopsis_flags()
            foreign = list(self._foreign.values())
        else:
            flags = self._has_synopsis[rows]
            foreign = self._objects_at(self._foreign, rows)
        packed = int(np.count_nonzero(flags)) - len(foreign)
        bits = sum(synopsis.size_in_bits for synopsis in foreign)
        if self._column is not None and packed > 0:
            bits += packed * self._column.bits_per_row
        return bits

    def histogram_bits(self, rows: np.ndarray | None = None) -> int:
        """Total wire bits of the histograms of every row, or of ``rows``."""
        if rows is None:
            histograms = list(self._histograms.values())
        else:
            histograms = self._objects_at(self._histograms, rows)
        return sum(histogram.size_in_bits for histogram in histograms)

    def _objects_at(self, objects: dict[int, Any], rows: np.ndarray) -> list[Any]:
        """The values ``objects`` keeps for the peers at ``rows``."""
        if not objects:
            return []
        ids = self._peer_ids[rows]
        held = np.fromiter(objects, dtype=np.int64, count=len(objects))
        return [objects[peer] for peer in ids[np.isin(ids, held)].tolist()]

    def __len__(self) -> int:
        return self._size

    # -- pickling --------------------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        state = {name: getattr(self, name) for name in self.__slots__}
        state["_order_cache"] = None
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        for name, value in state.items():
            setattr(self, name, value)
