"""Bloom filters (Bloom 1970) as P2P collection synopses.

A Bloom filter represents a set as an ``m``-bit vector written by ``k``
independent hash probes per element.  The paper (Section 3.2) uses them
for membership, cardinality estimation from the fill ratio, and cheap
aggregation: union = bitwise OR, intersection = bitwise AND, and — for
novelty (Section 5.2) — a bitwise set difference ``bf_p AND NOT bf_ref``.

Cardinality inversion
---------------------
With ``n`` distinct insertions the probability a given bit is still zero
is ``(1 - 1/m)^{kn}``, so the expected number of set bits is
``E = m * (1 - (1 - 1/m)^{kn})``.  Solving exactly for ``n``::

    n = ln(1 - t/m) / (k * ln(1 - 1/m))      with t = observed set bits

The paper mentions Taylor approximations of this inversion; we use the
exact closed form (the "linear counting" estimator generalized to k
probes), which is strictly more accurate and just as cheap.

The bit vector is stored as a single arbitrary-precision integer, which
makes the bitwise aggregations one machine-optimized operation each and
keeps the object immutable and hashable.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence

import numpy as np

from .base import IncompatibleSynopsesError, SetSynopsis
from .hashing import (
    ids_to_uint64_array,
    segment_layout,
    splitmix64,
    splitmix64_array,
    uniform_hash,
)

__all__ = [
    "BloomFilter",
    "bloom_rows",
    "optimal_num_hashes",
    "cardinality_from_popcount",
    "popcount_cardinality_table",
    "pack_bit_row",
    "unpack_bit_row",
    "batch_difference_popcounts",
    "column_popcounts",
    "row_popcounts",
]


def optimal_num_hashes(num_bits: int, expected_items: int) -> int:
    """Return the false-positive-minimizing probe count ``k = m/n * ln 2``.

    Falls back to 1 when the filter is overloaded (``n >= m``), which is
    exactly the regime the paper shows Bloom filters degrading in
    (Figure 2: "BF 2048 ... overloaded").
    """
    if num_bits <= 0:
        raise ValueError(f"num_bits must be positive, got {num_bits}")
    if expected_items <= 0:
        return 1
    return max(1, round(num_bits / expected_items * math.log(2)))


def cardinality_from_popcount(bit_count: int, num_bits: int, num_hashes: int) -> float:
    """Invert the fill ratio ``t/m`` to a cardinality estimate.

    Single source of truth for the linear-counting inversion: both
    :meth:`BloomFilter.estimate_cardinality` and the vectorized routing
    kernels (via :func:`popcount_cardinality_table`) call this scalar, so
    batched estimates are bit-identical to per-object ones.
    """
    t = bit_count
    m = num_bits
    if t == 0:
        return 0.0
    if t >= m:
        # Saturated filter: the inversion diverges; report the value
        # for one unset bit as a finite (huge) upper estimate.
        t = m - 1
    return math.log1p(-t / m) / (num_hashes * math.log1p(-1.0 / m))


@functools.lru_cache(maxsize=None)
def popcount_cardinality_table(num_bits: int, num_hashes: int) -> np.ndarray:
    """Cardinality estimates for every possible popcount ``0 .. m``.

    Indexing this table with an integer popcount array vectorizes the
    inversion without touching transcendental functions in NumPy (whose
    libm may differ from :mod:`math` by ULPs — the table keeps batched
    and scalar paths exactly equal).  Memoized per ``(m, k)`` and shared
    by every caller, so the table is read-only.
    """
    table = np.array(
        [
            cardinality_from_popcount(t, num_bits, num_hashes)
            for t in range(num_bits + 1)
        ],
        dtype=np.float64,
    )
    table.flags.writeable = False
    return table


def pack_bit_row(bits: int, num_bits: int) -> np.ndarray:
    """Pack one big-int bit vector into a little-endian ``uint64`` row."""
    num_words = (num_bits + 63) // 64
    return np.frombuffer(
        bits.to_bytes(num_words * 8, "little"), dtype="<u8"
    ).copy()


def unpack_bit_row(row: np.ndarray) -> int:
    """Inverse of :func:`pack_bit_row`: one packed row as a big-int."""
    return int.from_bytes(row.astype("<u8").tobytes(), "little")


@functools.lru_cache(maxsize=None)
def _probe_salts(seed: int, num_hashes: int) -> np.ndarray:
    """Read-only ``(k, 1)`` column of each probe's hash salt:
    ``uniform_hash(x, seed ^ (j + 1))`` is ``splitmix64(x ^ salt_j)``."""
    salts = np.array(
        [[splitmix64(seed ^ (probe + 1))] for probe in range(num_hashes)],
        dtype=np.uint64,
    )
    salts.flags.writeable = False
    return salts


def bloom_rows(
    ids: Iterable[int] | np.ndarray,
    offsets: Sequence[int] | np.ndarray,
    *,
    num_bits: int,
    num_hashes: int,
    seed: int,
) -> np.ndarray:
    """Bloom filters of many id sets, one packed ``uint64`` row per set.

    ``ids`` concatenates the sets and ``offsets`` bounds them (set ``s``
    is ``ids[offsets[s]:offsets[s + 1]]``, see
    :func:`~repro.synopses.hashing.segment_layout`).  Probe ``j`` of an
    id sets bit ``uniform_hash(id, seed ^ (j + 1)) % num_bits`` of its
    set's filter; all ``k`` probes of the whole batch are hashed at once
    and their bits ORed into the words of every row, so row ``s`` equals
    :func:`pack_bit_row` of the filter holding set ``s``.
    """
    if num_bits <= 0:
        raise ValueError(f"num_bits must be positive, got {num_bits}")
    if num_hashes <= 0:
        raise ValueError(f"num_hashes must be positive, got {num_hashes}")
    id_array = ids_to_uint64_array(ids)
    bounds, segment = segment_layout(offsets, id_array.size)
    num_words = (num_bits + 63) // 64
    rows = np.zeros((bounds.size - 1, num_words), dtype=np.uint64)
    if id_array.size:
        # (k, n) probe positions: row j is uniform_hash(ids, seed ^ (j + 1)).
        position = splitmix64_array(
            id_array ^ _probe_salts(seed, num_hashes)
        ) % np.uint64(num_bits)
        np.bitwise_or.at(
            rows.reshape(-1),
            segment * num_words + (position >> np.uint64(6)).astype(np.int64),
            np.uint64(1) << (position & np.uint64(63)),
        )
    return rows


def _unpacked_row_popcounts(matrix: np.ndarray) -> np.ndarray:
    """:func:`row_popcounts` for NumPy < 2.0, which has no ``bitwise_count``."""
    return np.unpackbits(matrix.view(np.uint8), axis=1).sum(axis=1, dtype=np.int64)


def row_popcounts(matrix: np.ndarray) -> np.ndarray:
    """Per-row popcount of a C-contiguous packed ``uint64`` matrix."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(matrix).sum(axis=1, dtype=np.int64)
    return _unpacked_row_popcounts(matrix)


def column_popcounts(matrix: np.ndarray) -> np.ndarray:
    """Per-column popcount of a word-major packed ``uint64`` matrix.

    Column ``j`` of the ``(words, rows)`` matrix is packed row ``j``.
    Summing over the words adds whole contiguous rows of per-word counts,
    which is about twice as fast as :func:`row_popcounts`' strided
    reduction over a row-major matrix.
    """
    if hasattr(np, "bitwise_count"):
        return np.add.reduce(np.bitwise_count(matrix), axis=0, dtype=np.uint32)
    counts = _unpacked_row_popcounts(np.ascontiguousarray(matrix.T))
    return counts.astype(np.uint32)


def batch_difference_popcounts(words: np.ndarray, reference_row: np.ndarray) -> np.ndarray:
    """Popcount of ``row AND NOT reference`` for every packed row.

    ``words`` is word-major (:func:`column_popcounts`).  One vectorized
    pass over the candidate matrix replaces C big-int difference
    constructions — the Bloom novelty hot loop (Section 5.2's
    ``bf_p AND NOT bf_ref``) reduced to two bitwise ops and a popcount.
    """
    return column_popcounts(words & ~reference_row[:, None])


class BloomFilter(SetSynopsis):
    """Immutable Bloom filter over integer document ids.

    Parameters
    ----------
    num_bits:
        Bit-vector length ``m``.  Two filters are only combinable when
        their ``num_bits``, ``num_hashes`` and ``seed`` all agree — the
        heterogeneity limitation the paper holds against Bloom filters.
    num_hashes:
        Number of hash probes ``k`` per element.
    seed:
        Hash-family seed; must be shared network-wide.
    """

    __slots__ = ("_num_bits", "_num_hashes", "_seed", "_bits", "_bit_count")

    def __init__(
        self, num_bits: int, num_hashes: int, seed: int = 0, _bits: int = 0
    ) -> None:
        if num_bits <= 0:
            raise ValueError(f"num_bits must be positive, got {num_bits}")
        if num_hashes <= 0:
            raise ValueError(f"num_hashes must be positive, got {num_hashes}")
        if _bits < 0 or _bits >> num_bits:
            raise ValueError("bit payload does not fit in num_bits")
        self._num_bits = num_bits
        self._num_hashes = num_hashes
        self._seed = seed
        self._bits = _bits
        self._bit_count: int | None = None

    # -- construction ----------------------------------------------------

    @classmethod
    def from_ids(  # type: ignore[override]
        cls,
        ids: Iterable[int],
        *,
        num_bits: int = 2048,
        num_hashes: int = 7,
        seed: int = 0,
    ) -> "BloomFilter":
        """Build a filter containing every id in ``ids``.

        The one-set case of :func:`bloom_rows`, unpacked to the big-int
        bit vector; ids wrap to 64 bits as in
        :func:`~repro.synopses.hashing.ids_to_uint64_array`.
        """
        id_array = ids_to_uint64_array(ids)
        row = bloom_rows(
            id_array,
            (0, id_array.size),
            num_bits=num_bits,
            num_hashes=num_hashes,
            seed=seed,
        )[0]
        return cls(num_bits, num_hashes, seed, unpack_bit_row(row))

    def empty_like(self) -> "BloomFilter":
        return BloomFilter(self._num_bits, self._num_hashes, self._seed)

    def add(self, doc_id: int) -> "BloomFilter":
        """Return a new filter that additionally contains ``doc_id``."""
        bits = self._bits
        for probe in range(self._num_hashes):
            bits |= 1 << (uniform_hash(doc_id, self._seed ^ (probe + 1)) % self._num_bits)
        return BloomFilter(self._num_bits, self._num_hashes, self._seed, bits)

    # -- membership -------------------------------------------------------

    def __contains__(self, doc_id: int) -> bool:
        for probe in range(self._num_hashes):
            position = uniform_hash(doc_id, self._seed ^ (probe + 1)) % self._num_bits
            if not (self._bits >> position) & 1:
                return False
        return True

    def false_positive_rate(self) -> float:
        """Current false-positive probability ``(t/m)^k`` from the fill."""
        return (self.bit_count / self._num_bits) ** self._num_hashes

    # -- estimation ------------------------------------------------------

    def estimate_cardinality(self) -> float:
        return cardinality_from_popcount(
            self.bit_count, self._num_bits, self._num_hashes
        )

    def estimate_resemblance(self, other: SetSynopsis) -> float:
        self.check_compatible(other)
        assert isinstance(other, BloomFilter)
        union_est = self.union(other).estimate_cardinality()
        if union_est <= 0.0:
            return 0.0
        card_a = self.estimate_cardinality()
        card_b = other.estimate_cardinality()
        intersection_est = max(0.0, card_a + card_b - union_est)
        return min(1.0, intersection_est / union_est)

    # -- aggregation -----------------------------------------------------

    def union(self, other: SetSynopsis) -> "BloomFilter":
        self.check_compatible(other)
        assert isinstance(other, BloomFilter)
        return BloomFilter(
            self._num_bits, self._num_hashes, self._seed, self._bits | other._bits
        )

    def intersect(self, other: SetSynopsis) -> "BloomFilter":
        """Bitwise-AND approximation of the intersection filter.

        Slightly overestimates the true intersection filter (bits set by
        distinct elements of A and B may coincide) but is the standard
        construction and the one the paper uses for conjunctive queries.
        """
        self.check_compatible(other)
        assert isinstance(other, BloomFilter)
        return BloomFilter(
            self._num_bits, self._num_hashes, self._seed, self._bits & other._bits
        )

    def difference(self, other: SetSynopsis) -> "BloomFilter":
        """Bitwise difference ``self AND NOT other`` (Section 5.2).

        Not an exact Bloom filter of the set difference — shared bits are
        cleared even when set by non-shared elements — but the paper
        reports the induced error is acceptable unless the operands are
        already overloaded.
        """
        self.check_compatible(other)
        assert isinstance(other, BloomFilter)
        mask = (1 << self._num_bits) - 1
        return BloomFilter(
            self._num_bits, self._num_hashes, self._seed, self._bits & ~other._bits & mask
        )

    # -- bookkeeping -----------------------------------------------------

    @property
    def num_bits(self) -> int:
        return self._num_bits

    @property
    def num_hashes(self) -> int:
        return self._num_hashes

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def raw_bits(self) -> int:
        """The bit vector as a non-negative integer (bit ``i`` = slot ``i``)."""
        return self._bits

    @property
    def bit_count(self) -> int:
        """Number of set bits ``t`` in the vector (cached — immutable)."""
        if self._bit_count is None:
            self._bit_count = self._bits.bit_count()
        return self._bit_count

    @property
    def fill_fraction(self) -> float:
        return self.bit_count / self._num_bits

    @property
    def size_in_bits(self) -> int:
        return self._num_bits

    @property
    def compressed_size_in_bits(self) -> float:
        """Entropy bound on the compressed wire size (Mitzenmacher 2002).

        The paper cites compressed Bloom filters [26]: a filter with fill
        fraction ``p`` is a Bernoulli(p) bit string, compressible to
        ``m * H(p)`` bits with ``H`` the binary entropy.  Sparse filters
        (small sets in large filters) ship far below ``m`` bits; a
        half-full filter is incompressible.  This is the quantity a
        bandwidth-conscious deployment would charge for posting.
        """
        p = self.fill_fraction
        if p <= 0.0 or p >= 1.0:
            return 0.0
        entropy = -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))
        return self._num_bits * entropy

    @property
    def is_empty(self) -> bool:
        return self._bits == 0

    def check_compatible(self, other: SetSynopsis) -> None:
        super().check_compatible(other)
        assert isinstance(other, BloomFilter)
        if (self._num_bits, self._num_hashes, self._seed) != (
            other._num_bits,
            other._num_hashes,
            other._seed,
        ):
            raise IncompatibleSynopsesError(
                "Bloom filters require identical (num_bits, num_hashes, seed): "
                f"{(self._num_bits, self._num_hashes, self._seed)} vs "
                f"{(other._num_bits, other._num_hashes, other._seed)}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return (
            self._num_bits == other._num_bits
            and self._num_hashes == other._num_hashes
            and self._seed == other._seed
            and self._bits == other._bits
        )

    def __hash__(self) -> int:
        return hash((self._num_bits, self._num_hashes, self._seed, self._bits))

    def __repr__(self) -> str:
        return (
            f"BloomFilter(m={self._num_bits}, k={self._num_hashes}, "
            f"fill={self.fill_fraction:.3f})"
        )
