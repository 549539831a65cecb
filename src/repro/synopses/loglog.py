"""(Super-)LogLog counting — Durand & Flajolet, ESA 2003.

The paper cites this as the space-improved successor of Flajolet–Martin
hash sketches ("reduced the space complexity and relaxed the required
statistical properties of the hash function").  Instead of an L-bit
bitmap per bucket, each of ``m`` buckets stores only the *maximum* ρ
value observed — 5 bits suffice for 2^32 distinct elements — giving
``m * 5`` bits total.

Estimator::

    E = alpha_m * m * 2^(mean of registers)

with the asymptotic bias correction ``alpha_m ≈ 0.39701`` (we apply the
standard small-range correction via linear counting when many registers
are still empty).  The *super*-LogLog refinement averages only the
smallest ``theta = 70%`` of registers (truncation), which cuts the
standard error from ``1.30/sqrt(m)`` to ``1.05/sqrt(m)``; both
estimators are exposed.

Aggregation mirrors hash sketches: union = register-wise max (exact);
intersection is unsupported.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence

import numpy as np

from .base import (
    IncompatibleSynopsesError,
    SetSynopsis,
    UnsupportedOperationError,
)
from .hashing import ids_to_uint64_array, segment_layout, uniform_hash_array

__all__ = [
    "LogLogCounter",
    "loglog_rows",
    "LOGLOG_ALPHA",
    "REGISTER_BITS",
    "cardinality_from_register_stats",
    "register_cardinality_tables",
    "pack_register_row",
    "pack_register_rows",
]

#: Asymptotic bias-correction constant of the LogLog estimator.
LOGLOG_ALPHA = 0.39701

#: Register width: 5 bits hold ρ values up to 31, enough for 2^31+
#: distinct elements per bucket.
REGISTER_BITS = 5

_MAX_RHO = (1 << REGISTER_BITS) - 1

#: Super-LogLog truncation: keep this fraction of smallest registers.
_TRUNCATION = 0.7


def cardinality_from_register_stats(
    empty_count: int, register_sum: int, num_buckets: int
) -> float:
    """LogLog estimate from the register histogram's sufficient statistics.

    ``empty_count`` drives the small-range linear-counting branch,
    ``register_sum`` the ``2^mean`` extrapolation — exactly the
    arithmetic of :meth:`LogLogCounter.estimate_cardinality` (which
    calls this).  Callers handle the all-empty case themselves.
    """
    if empty_count > num_buckets * 0.3:
        return num_buckets * math.log(num_buckets / empty_count)
    mean_register = register_sum / num_buckets
    return LOGLOG_ALPHA * num_buckets * (2.0**mean_register)


@functools.lru_cache(maxsize=None)
def register_cardinality_tables(num_buckets: int) -> tuple[np.ndarray, np.ndarray]:
    """``(linear_counting, extrapolation)`` lookup tables for batching.

    ``linear_counting[e]`` is the small-range estimate for ``e`` empty
    registers (``e = 0`` is a placeholder — that branch never fires for
    it); ``extrapolation[s]`` the ``2^mean`` estimate for register sum
    ``s``.  Tabulating the scalar function keeps vectorized selection
    bit-identical to per-object estimation.  Memoized per ``m`` and
    shared by every caller, so both tables are read-only.
    """
    linear = np.array(
        [np.inf]
        + [
            cardinality_from_register_stats(e, 0, num_buckets)
            for e in range(1, num_buckets + 1)
        ],
        dtype=np.float64,
    )
    extrapolation = np.array(
        [
            cardinality_from_register_stats(0, s, num_buckets)
            for s in range(num_buckets * _MAX_RHO + 1)
        ],
        dtype=np.float64,
    )
    linear.flags.writeable = False
    extrapolation.flags.writeable = False
    return linear, extrapolation


def pack_register_row(synopsis: "LogLogCounter") -> np.ndarray:
    """One counter's registers as a ``uint8`` row."""
    return np.fromiter(
        synopsis._registers, dtype=np.uint8, count=synopsis._num_buckets
    )


def pack_register_rows(
    synopses: Sequence["LogLogCounter | None"], num_buckets: int
) -> np.ndarray:
    """Stack counters into a ``(C, m)`` uint8 register matrix.

    ``None`` entries become all-zero rows (the empty counter) so row
    indices stay aligned with the candidate list.
    """
    rows = np.zeros((len(synopses), num_buckets), dtype=np.uint8)
    for index, synopsis in enumerate(synopses):
        if synopsis is not None:
            rows[index] = pack_register_row(synopsis)
    return rows


def loglog_rows(
    ids: Iterable[int] | np.ndarray,
    offsets: Sequence[int] | np.ndarray,
    *,
    num_buckets: int,
    seed: int,
) -> np.ndarray:
    """LogLog counters of many id sets, one ``uint8`` register row per set.

    ``ids`` concatenates the sets and ``offsets`` bounds them (set ``s``
    is ``ids[offsets[s]:offsets[s + 1]]``).  Each id's hash
    ``h = uniform_hash(id, seed)`` selects bucket ``h % m``; the 1-based
    rank of the first 1-bit of ``h // m`` (the register maximum when
    that is 0, and never above it) raises that bucket's register.  The
    whole batch is hashed once and the ranks are max-scattered into the
    rows, so row ``s`` equals :func:`pack_register_row` of set ``s``'s
    counter.
    """
    if num_buckets <= 0:
        raise ValueError(f"num_buckets must be positive, got {num_buckets}")
    id_array = ids_to_uint64_array(ids)
    bounds, segment = segment_layout(offsets, id_array.size)
    rows = np.zeros((bounds.size - 1, num_buckets), dtype=np.uint8)
    if id_array.size:
        hashed = uniform_hash_array(id_array, seed)
        buckets = (hashed % np.uint64(num_buckets)).astype(np.int64)
        rest = hashed // np.uint64(num_buckets)
        # rest & (-rest) isolates the lowest set bit 2^p (exact in
        # float64); frexp's exponent of it is the 1-based rank p + 1, and 0
        # when rest is 0.
        _, rank = np.frexp((rest & (np.uint64(0) - rest)).astype(np.float64))
        rho = np.where(rank == 0, _MAX_RHO, np.minimum(rank, _MAX_RHO))
        np.maximum.at(
            rows.reshape(-1), segment * num_buckets + buckets, rho.astype(np.uint8)
        )
    return rows


class LogLogCounter(SetSynopsis):
    """Immutable (super-)LogLog cardinality sketch."""

    __slots__ = ("_num_buckets", "_seed", "_registers", "_cardinality")

    def __init__(
        self,
        num_buckets: int,
        seed: int = 0,
        registers: Sequence[int] | None = None,
    ) -> None:
        if num_buckets <= 0:
            raise ValueError(f"num_buckets must be positive, got {num_buckets}")
        if registers is None:
            registers = (0,) * num_buckets
        if len(registers) != num_buckets:
            raise ValueError(
                f"expected {num_buckets} registers, got {len(registers)}"
            )
        bad = [r for r in registers if not 0 <= r <= _MAX_RHO]
        if bad:
            raise ValueError(f"registers out of range [0, {_MAX_RHO}]: {bad[:3]}")
        self._num_buckets = num_buckets
        self._seed = seed
        self._registers = tuple(int(r) for r in registers)
        self._cardinality: float | None = None

    # -- construction ----------------------------------------------------

    @classmethod
    def from_ids(  # type: ignore[override]
        cls, ids: Iterable[int], *, num_buckets: int = 64, seed: int = 0
    ) -> "LogLogCounter":
        """Build a counter over ``ids``.

        Each element's hash selects a bucket; the rank of the first 1-bit
        of the remaining hash bits (1-based, as in the original paper)
        updates that bucket's max register.  The one-set case of
        :func:`loglog_rows`, unpacked to the register tuple.
        """
        id_array = ids_to_uint64_array(ids)
        row = loglog_rows(
            id_array, (0, id_array.size), num_buckets=num_buckets, seed=seed
        )[0]
        return cls(num_buckets, seed, row.tolist())

    def empty_like(self) -> "LogLogCounter":
        return LogLogCounter(self._num_buckets, self._seed)

    # -- estimation ------------------------------------------------------

    def estimate_cardinality(self) -> float:
        """Plain LogLog estimate with small-range linear counting.

        With many untouched buckets, linear counting on the "bucket hit"
        pattern is far more accurate than the ``2^mean`` extrapolation;
        :func:`cardinality_from_register_stats` picks the branch.
        """
        if self._cardinality is not None:
            return self._cardinality
        if self.is_empty:
            estimate = 0.0
        else:
            estimate = cardinality_from_register_stats(
                self._registers.count(0), sum(self._registers), self._num_buckets
            )
        self._cardinality = estimate
        return estimate

    def estimate_cardinality_super(self) -> float:
        """Super-LogLog: average the smallest 70% of registers only."""
        if self.is_empty:
            return 0.0
        empty = self._registers.count(0)
        if empty > self._num_buckets * 0.3:
            return self._num_buckets * math.log(self._num_buckets / empty)
        kept = sorted(self._registers)[
            : max(1, int(self._num_buckets * _TRUNCATION))
        ]
        mean_register = sum(kept) / len(kept)
        # The truncated estimator needs its own (m-dependent) correction;
        # the simple alpha works well enough for the bucket counts used
        # here and keeps the estimator monotone under union.
        return LOGLOG_ALPHA * self._num_buckets * (2.0**mean_register)

    def estimate_resemblance(self, other: SetSynopsis) -> float:
        """Inclusion–exclusion resemblance, like hash sketches."""
        self.check_compatible(other)
        assert isinstance(other, LogLogCounter)
        union_est = self.union(other).estimate_cardinality()
        if union_est <= 0.0:
            return 0.0
        inter = max(
            0.0,
            self.estimate_cardinality()
            + other.estimate_cardinality()
            - union_est,
        )
        return min(1.0, inter / union_est)

    # -- aggregation -----------------------------------------------------

    def union(self, other: SetSynopsis) -> "LogLogCounter":
        """Register-wise max — exactly the counter of the union."""
        self.check_compatible(other)
        assert isinstance(other, LogLogCounter)
        merged = [max(a, b) for a, b in zip(self._registers, other._registers)]
        return LogLogCounter(self._num_buckets, self._seed, merged)

    def intersect(self, other: SetSynopsis) -> "LogLogCounter":
        self.check_compatible(other)
        raise UnsupportedOperationError(
            "LogLog counters support no intersection aggregation (like "
            "hash sketches, Section 3.4)"
        )

    # -- bookkeeping -----------------------------------------------------

    @property
    def num_buckets(self) -> int:
        return self._num_buckets

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def registers(self) -> tuple[int, ...]:
        return self._registers

    @property
    def size_in_bits(self) -> int:
        return self._num_buckets * REGISTER_BITS

    @property
    def is_empty(self) -> bool:
        return all(r == 0 for r in self._registers)

    def check_compatible(self, other: SetSynopsis) -> None:
        super().check_compatible(other)
        assert isinstance(other, LogLogCounter)
        if (self._num_buckets, self._seed) != (other._num_buckets, other._seed):
            raise IncompatibleSynopsesError(
                "LogLog counters require identical (num_buckets, seed): "
                f"{(self._num_buckets, self._seed)} vs "
                f"{(other._num_buckets, other._seed)}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogLogCounter):
            return NotImplemented
        return (
            self._num_buckets == other._num_buckets
            and self._seed == other._seed
            and self._registers == other._registers
        )

    def __hash__(self) -> int:
        return hash((self._num_buckets, self._seed, self._registers))

    def __repr__(self) -> str:
        return (
            f"LogLogCounter(m={self._num_buckets}, "
            f"est={self.estimate_cardinality():.0f})"
        )
