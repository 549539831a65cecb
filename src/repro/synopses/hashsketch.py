"""Hash sketches (Flajolet–Martin probabilistic counting / PCSA).

A hash sketch estimates the number of distinct elements in a (multi)set.
Each element is hashed pseudo-uniformly; the position ``ρ`` of the least
significant 1-bit of the hash follows ``P(ρ = k) = 2^{-k-1}``, so an
``n``-element set tends to set bits ``0 .. log2(n)`` of a bitmap.  The
PCSA variant ("probabilistic counting with stochastic averaging",
Flajolet & Martin 1985) splits elements across ``m`` bitmaps by another
hash and averages the per-bitmap statistic ``R_j`` (index of the lowest
*unset* bit), estimating::

    n  ≈  (m / φ) * 2^{ mean_j R_j }        φ ≈ 0.77351

The paper's "HSs 32" configuration under a 2048-bit budget corresponds to
32 bitmaps of 64 bits each.

Aggregation properties (Sections 5.2, 5.3, 6.1):

- **Union** is exact: bitwise OR of corresponding bitmaps — a bit is set
  in the union sketch iff some element of either set would set it.
- **Intersection** has *no* known low-error construction; we raise
  :class:`~repro.synopses.base.UnsupportedOperationError`, which is
  precisely the limitation that rules hash sketches out for conjunctive
  multi-keyword routing in the paper.
- Resemblance is derived by inclusion–exclusion from ``|A|``, ``|B|`` and
  ``|A ∪ B|`` estimates.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

import numpy as np

from .base import (
    IncompatibleSynopsesError,
    SetSynopsis,
    UnsupportedOperationError,
)
from .hashing import ids_to_uint64_array, segment_layout, uniform_hash_array

__all__ = [
    "HashSketch",
    "hash_sketch_rows",
    "PCSA_PHI",
    "cardinality_from_rho_sum",
    "rho_sum_cardinality_table",
    "pack_bitmap_row",
    "pack_bitmap_rows",
    "first_zero_positions",
]

#: Flajolet–Martin bias correction constant.
PCSA_PHI = 0.77351


def cardinality_from_rho_sum(rho_sum: int, num_bitmaps: int) -> float:
    """PCSA estimate from the *sum* of per-bucket ``R`` statistics.

    Same arithmetic as :meth:`HashSketch.estimate_cardinality` (which
    calls this), factored out so the vectorized routing kernels can
    tabulate it per integer ``ΣR`` and stay bit-identical to the scalar
    path.  Callers must handle the empty-sketch case themselves.
    """
    mean_r = rho_sum / num_bitmaps
    return (num_bitmaps / PCSA_PHI) * (2.0**mean_r)


@functools.lru_cache(maxsize=None)
def rho_sum_cardinality_table(num_bitmaps: int, bitmap_length: int) -> np.ndarray:
    """Estimates for every possible ``ΣR`` in ``0 .. m * L``.

    Memoized per ``(m, L)`` and shared by every caller, so read-only.
    """
    table = np.array(
        [
            cardinality_from_rho_sum(total, num_bitmaps)
            for total in range(num_bitmaps * bitmap_length + 1)
        ],
        dtype=np.float64,
    )
    table.flags.writeable = False
    return table


def pack_bitmap_row(synopsis: "HashSketch") -> np.ndarray:
    """One sketch's bucket bitmaps as a ``uint64`` row (requires L <= 64)."""
    return np.fromiter(
        synopsis._bitmaps, dtype=np.uint64, count=synopsis._num_bitmaps
    )


def pack_bitmap_rows(
    synopses: Sequence["HashSketch | None"], num_bitmaps: int
) -> np.ndarray:
    """Stack sketches into a ``(C, m)`` uint64 bitmap matrix.

    ``None`` entries become all-zero rows (the empty sketch) so row
    indices stay aligned with the candidate list.
    """
    rows = np.zeros((len(synopses), num_bitmaps), dtype=np.uint64)
    for index, synopsis in enumerate(synopses):
        if synopsis is not None:
            rows[index] = pack_bitmap_row(synopsis)
    return rows


def first_zero_positions(bitmaps: np.ndarray, bitmap_length: int) -> np.ndarray:
    """Vectorized :meth:`HashSketch._first_zero` over a bitmap array.

    The lowest unset bit of ``b`` is the lowest set bit of ``~b``;
    isolating it with ``x & -x`` gives an exact power of two whose
    ``log2`` (exact in float64 up to 2^63) is the position.  All-ones
    bitmaps yield ``bitmap_length``, matching the scalar cap.
    """
    mask = np.uint64((1 << bitmap_length) - 1)
    inverted = ~bitmaps & mask
    positions = np.full(bitmaps.shape, bitmap_length, dtype=np.int64)
    nonzero = inverted != 0
    lowest = inverted[nonzero]
    lowest = lowest & (np.uint64(0) - lowest)
    positions[nonzero] = np.log2(lowest.astype(np.float64)).astype(np.int64)
    return positions


def _rho(value: int, limit: int) -> int:
    """Position of the least significant 1-bit of ``value``, capped at limit.

    ``ρ(0)`` is defined as ``limit`` (the paper's ``ρ(0) = L``).
    """
    if value == 0:
        return limit
    return min((value & -value).bit_length() - 1, limit)


def hash_sketch_rows(
    ids: Iterable[int] | np.ndarray,
    offsets: Sequence[int] | np.ndarray,
    *,
    num_bitmaps: int,
    bitmap_length: int,
    seed: int,
) -> np.ndarray:
    """PCSA sketches of many id sets, one ``uint64`` row per set.

    ``ids`` concatenates the sets and ``offsets`` bounds them (set ``s``
    is ``ids[offsets[s]:offsets[s + 1]]``).  Each id's hash
    ``h = uniform_hash(id, seed)`` picks bucket ``h % m``; the least
    significant 1-bit of ``h // m`` (``L - 1`` when that is 0, and never
    above it) is the bit it sets there.  The whole batch is hashed once
    and the bits are OR-scattered into the rows.

    Each bitmap takes ``ceil(L / 64)`` little-endian words, so with
    ``L <= 64`` a row is exactly :func:`pack_bitmap_row` of the sketch.
    """
    if num_bitmaps <= 0:
        raise ValueError(f"num_bitmaps must be positive, got {num_bitmaps}")
    if bitmap_length <= 0:
        raise ValueError(f"bitmap_length must be positive, got {bitmap_length}")
    id_array = ids_to_uint64_array(ids)
    bounds, segment = segment_layout(offsets, id_array.size)
    words_per_bitmap = (bitmap_length + 63) // 64
    rows = np.zeros((bounds.size - 1, num_bitmaps * words_per_bitmap), dtype=np.uint64)
    if id_array.size:
        hashed = uniform_hash_array(id_array, seed)
        buckets = (hashed % np.uint64(num_bitmaps)).astype(np.int64)
        rest = hashed // np.uint64(num_bitmaps)
        # rest & (-rest) isolates the lowest set bit 2^p (exact in
        # float64); frexp's exponent of it is p + 1, and 0 when rest is 0.
        _, exponent = np.frexp((rest & (np.uint64(0) - rest)).astype(np.float64))
        positions = np.where(
            exponent == 0, bitmap_length - 1, np.minimum(exponent - 1, bitmap_length - 1)
        ).astype(np.int64)
        word = (segment * num_bitmaps + buckets) * words_per_bitmap + positions // 64
        np.bitwise_or.at(
            rows.reshape(-1),
            word,
            np.uint64(1) << (positions % 64).astype(np.uint64),
        )
    return rows


class HashSketch(SetSynopsis):
    """Immutable PCSA hash sketch.

    Parameters
    ----------
    num_bitmaps:
        Number of stochastic-averaging buckets ``m`` (a power of two is
        conventional but not required).
    bitmap_length:
        Bits per bitmap ``L``; caps the representable ``ρ`` values.
    seed:
        Hash seed shared network-wide.
    """

    __slots__ = ("_num_bitmaps", "_bitmap_length", "_seed", "_bitmaps", "_cardinality")

    def __init__(
        self,
        num_bitmaps: int,
        bitmap_length: int,
        seed: int = 0,
        bitmaps: Sequence[int] | None = None,
    ) -> None:
        if num_bitmaps <= 0:
            raise ValueError(f"num_bitmaps must be positive, got {num_bitmaps}")
        if bitmap_length <= 0:
            raise ValueError(f"bitmap_length must be positive, got {bitmap_length}")
        if bitmaps is None:
            bitmaps = (0,) * num_bitmaps
        if len(bitmaps) != num_bitmaps:
            raise ValueError(
                f"expected {num_bitmaps} bitmaps, got {len(bitmaps)}"
            )
        mask_limit = 1 << bitmap_length
        bad = [b for b in bitmaps if not 0 <= b < mask_limit]
        if bad:
            raise ValueError("bitmap payload exceeds bitmap_length")
        self._num_bitmaps = num_bitmaps
        self._bitmap_length = bitmap_length
        self._seed = seed
        self._bitmaps = tuple(int(b) for b in bitmaps)
        self._cardinality: float | None = None

    # -- construction ----------------------------------------------------

    @classmethod
    def from_ids(  # type: ignore[override]
        cls,
        ids: Iterable[int],
        *,
        num_bitmaps: int = 32,
        bitmap_length: int = 64,
        seed: int = 0,
    ) -> "HashSketch":
        """Build a sketch of ``ids``.

        The one-set case of :func:`hash_sketch_rows`, unpacked to one
        integer per bitmap (a big-int when ``bitmap_length > 64``).
        """
        id_array = ids_to_uint64_array(ids)
        row = hash_sketch_rows(
            id_array,
            (0, id_array.size),
            num_bitmaps=num_bitmaps,
            bitmap_length=bitmap_length,
            seed=seed,
        )[0]
        if bitmap_length <= 64:
            bitmaps = row.tolist()
        else:
            words = row.astype("<u8").reshape(num_bitmaps, -1)
            bitmaps = [int.from_bytes(bitmap.tobytes(), "little") for bitmap in words]
        return cls(num_bitmaps, bitmap_length, seed, bitmaps)

    def empty_like(self) -> "HashSketch":
        return HashSketch(self._num_bitmaps, self._bitmap_length, self._seed)

    # -- estimation ------------------------------------------------------

    def _first_zero(self, bitmap: int) -> int:
        """Index of the lowest unset bit (the PCSA ``R`` statistic)."""
        r = 0
        while (bitmap >> r) & 1 and r < self._bitmap_length:
            r += 1
        return r

    def estimate_cardinality(self) -> float:
        if self._cardinality is not None:
            return self._cardinality
        if self.is_empty:
            estimate = 0.0
        else:
            rho_sum = sum(self._first_zero(b) for b in self._bitmaps)
            estimate = cardinality_from_rho_sum(rho_sum, self._num_bitmaps)
        self._cardinality = estimate
        return estimate

    def estimate_resemblance(self, other: SetSynopsis) -> float:
        """Inclusion–exclusion resemblance from cardinality estimates."""
        self.check_compatible(other)
        assert isinstance(other, HashSketch)
        union_est = self.union(other).estimate_cardinality()
        if union_est <= 0.0:
            return 0.0
        card_a = self.estimate_cardinality()
        card_b = other.estimate_cardinality()
        intersection_est = max(0.0, card_a + card_b - union_est)
        return min(1.0, intersection_est / union_est)

    # -- aggregation -----------------------------------------------------

    def union(self, other: SetSynopsis) -> "HashSketch":
        """Exact union sketch: bitwise OR per bucket (Section 5.2)."""
        self.check_compatible(other)
        assert isinstance(other, HashSketch)
        merged = [a | b for a, b in zip(self._bitmaps, other._bitmaps)]
        return HashSketch(self._num_bitmaps, self._bitmap_length, self._seed, merged)

    def intersect(self, other: SetSynopsis) -> "HashSketch":
        """Unsupported — the paper knows no low-error HS intersection."""
        self.check_compatible(other)
        raise UnsupportedOperationError(
            "hash sketches do not support intersection aggregation "
            "(Section 3.4); use union as a crude superset, or switch to "
            "MIPs/Bloom synopses for conjunctive queries"
        )

    # -- bookkeeping -----------------------------------------------------

    @property
    def num_bitmaps(self) -> int:
        return self._num_bitmaps

    @property
    def bitmap_length(self) -> int:
        return self._bitmap_length

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def bitmaps(self) -> tuple[int, ...]:
        return self._bitmaps

    @property
    def size_in_bits(self) -> int:
        return self._num_bitmaps * self._bitmap_length

    @property
    def is_empty(self) -> bool:
        return all(b == 0 for b in self._bitmaps)

    def check_compatible(self, other: SetSynopsis) -> None:
        super().check_compatible(other)
        assert isinstance(other, HashSketch)
        if (self._num_bitmaps, self._bitmap_length, self._seed) != (
            other._num_bitmaps,
            other._bitmap_length,
            other._seed,
        ):
            raise IncompatibleSynopsesError(
                "hash sketches require identical (num_bitmaps, bitmap_length, "
                f"seed): {(self._num_bitmaps, self._bitmap_length, self._seed)}"
                f" vs {(other._num_bitmaps, other._bitmap_length, other._seed)}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HashSketch):
            return NotImplemented
        return (
            self._num_bitmaps == other._num_bitmaps
            and self._bitmap_length == other._bitmap_length
            and self._seed == other._seed
            and self._bitmaps == other._bitmaps
        )

    def __hash__(self) -> int:
        return hash(
            (self._num_bitmaps, self._bitmap_length, self._seed, self._bitmaps)
        )

    def __repr__(self) -> str:
        return (
            f"HashSketch(m={self._num_bitmaps}, L={self._bitmap_length}, "
            f"est={self.estimate_cardinality():.0f})"
        )
