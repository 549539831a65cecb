"""Min-wise independent permutations (Broder et al.) as collection synopses.

A MIPs synopsis stores, for each of ``N`` shared random linear
permutations ``h_i(x) = (a_i x + b_i) mod U``, the minimum permuted value
over the summarized set (Figure 1 of the paper).  Its key properties:

- **Resemblance** ``|A ∩ B| / |A ∪ B|`` is estimated *unbiasedly* by the
  fraction of vector positions where two synopses agree, because under a
  random permutation every element of ``A ∪ B`` is equally likely to be
  the minimum, and the minima agree exactly when that element lies in
  ``A ∩ B``.
- **Union** is exact on the synopsis level: position-wise minimum.
- **Intersection** has a conservative heuristic: position-wise maximum
  (Section 6.1 — the true minimum over ``A ∩ B`` can be no smaller than
  the max of the two per-set minima).
- **Heterogeneous lengths** work: two vectors built from the same hash
  family are comparable on their common prefix of permutations
  (Section 5.3), the property that distinguishes MIPs from Bloom filters
  and hash sketches in a loosely coupled P2P network.

Implementation notes
--------------------
Building a synopsis evaluates ``N`` linear hashes over the whole id set;
we vectorize this with NumPy.  To keep ``a * x + b`` inside unsigned
64-bit arithmetic we first scramble ids with SplitMix64 and fold them to
31 bits, then permute within ``Z_p`` for the Mersenne prime
``p = 2^31 - 1``.  The 31-bit fold introduces a ~``n^2 / 2^32`` chance of
id collisions, which is far below the sketch's own estimation error for
the collection sizes of interest (up to a few million).

Positions never touched (empty set) hold the sentinel value ``p`` itself,
which is one larger than any achievable hash and is the neutral element
of the position-wise ``min``.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

import numpy as np

from .base import IncompatibleSynopsesError, SetSynopsis
from .hashing import (
    LinearHashFamily,
    ids_to_uint64_array,
    segment_layout,
    splitmix64_array,
)

__all__ = [
    "MinWisePermutations",
    "mips_rows",
    "MIPS_MODULUS",
    "BITS_PER_POSITION",
    "pack_minima_row",
    "pack_minima_rows",
    "batch_match_counts",
]

#: Modulus of the MIPs permutation family: the Mersenne prime 2^31 - 1.
MIPS_MODULUS = (1 << 31) - 1

#: Wire width we account per stored minimum.  The paper equates 64
#: permutations with 2048 bits, i.e. 32 bits per position.
BITS_PER_POSITION = 32

_FAMILY_CACHE: dict[int, LinearHashFamily] = {}

#: Permuted values :func:`mips_rows` holds at once (8 bytes each): the
#: permutations are applied a block at a time so a large batch never
#: materializes its whole ``(N, n)`` matrix.
_PERMUTED_BLOCK = 1 << 20


def _family(seed: int) -> LinearHashFamily:
    """Return the (process-wide) permutation family for ``seed``.

    The family is the paper's "same sequence of hash functions" that all
    peers agree on; caching it makes repeated synopsis construction cheap
    and guarantees identical permutations across peers in one simulation.
    """
    family = _FAMILY_CACHE.get(seed)
    if family is None:
        family = LinearHashFamily(seed=seed, modulus=MIPS_MODULUS)
        _FAMILY_CACHE[seed] = family
    return family


def pack_minima_row(synopsis: "MinWisePermutations") -> np.ndarray:
    """One MIPs vector as an ``int64`` row (sentinel ``p`` for empties)."""
    return np.fromiter(
        synopsis._minima, dtype=np.int64, count=len(synopsis._minima)
    )


def pack_minima_rows(
    synopses: Sequence["MinWisePermutations | None"], num_permutations: int
) -> np.ndarray:
    """Stack MIPs vectors into a ``(C, N)`` int64 matrix.

    ``None`` entries become all-sentinel rows (the empty synopsis), so
    row indices stay aligned with the candidate list.
    """
    rows = np.full((len(synopses), num_permutations), MIPS_MODULUS, dtype=np.int64)
    for index, synopsis in enumerate(synopses):
        if synopsis is not None:
            rows[index] = pack_minima_row(synopsis)
    return rows


def batch_match_counts(rows: np.ndarray, reference_row: np.ndarray) -> np.ndarray:
    """Per-row count of positions matching the reference (sentinels excluded).

    Vectorized core of :meth:`MinWisePermutations.estimate_resemblance`:
    ``matches / N`` is the resemblance estimate, so one pass over the
    matrix replaces C Python-level zip loops.
    """
    return ((rows == reference_row) & (reference_row != MIPS_MODULUS)).sum(
        axis=1, dtype=np.int64
    )


def _scramble_to_31_bits(ids: np.ndarray) -> np.ndarray:
    """SplitMix64-mix ``ids`` (uint64) and keep the top 31 bits."""
    return splitmix64_array(ids) >> np.uint64(33)


@functools.lru_cache(maxsize=None)
def _coefficients(seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``(a, b)`` of the seed family's first ``count`` permutations as
    read-only ``uint64`` columns (shape ``(count, 1)``)."""
    permutations = _family(seed).permutations(count)
    coeff_a = np.array([[p.a] for p in permutations], dtype=np.uint64)
    coeff_b = np.array([[p.b] for p in permutations], dtype=np.uint64)
    coeff_a.flags.writeable = False
    coeff_b.flags.writeable = False
    return coeff_a, coeff_b


def mips_rows(
    ids: Iterable[int] | np.ndarray,
    offsets: Sequence[int] | np.ndarray,
    *,
    num_permutations: int,
    seed: int,
) -> np.ndarray:
    """MIPs vectors of many id sets, one ``int64`` minima row per set.

    ``ids`` concatenates the sets and ``offsets`` bounds them (set ``s``
    is ``ids[offsets[s]:offsets[s + 1]]``).  Every id is scrambled to 31
    bits once; permutation ``i`` of the seed's family maps the keys and
    ``minimum.reduceat`` takes each set's minimum.  Empty sets keep the
    all-sentinel row (``reduceat`` would return the value at an empty
    segment's start), so row ``s`` equals :func:`pack_minima_row` of the
    vector of set ``s``.
    """
    if num_permutations <= 0:
        raise ValueError(
            f"num_permutations must be positive, got {num_permutations}"
        )
    id_array = ids_to_uint64_array(ids)
    bounds, _ = segment_layout(offsets, id_array.size)
    starts = bounds[:-1]
    filled = bounds[1:] > starts
    rows = np.full((starts.size, num_permutations), MIPS_MODULUS, dtype=np.int64)
    if id_array.size == 0:
        return rows
    keys = _scramble_to_31_bits(id_array)
    coeff_a, coeff_b = _coefficients(seed, num_permutations)
    firsts = starts[filled]
    step = max(1, _PERMUTED_BLOCK // id_array.size)
    for low in range(0, num_permutations, step):
        high = min(num_permutations, low + step)
        # (N, n) permuted values; a * key < 2^62, so they are exact in uint64.
        permuted = (coeff_a[low:high] * keys + coeff_b[low:high]) % np.uint64(
            MIPS_MODULUS
        )
        rows[filled, low:high] = np.minimum.reduceat(permuted, firsts, axis=1).T
    return rows


class MinWisePermutations(SetSynopsis):
    """Immutable MIPs vector of ``num_permutations`` minima."""

    __slots__ = ("_minima", "_seed", "_cardinality")

    def __init__(self, minima: Sequence[int], seed: int = 0) -> None:
        if len(minima) == 0:
            raise ValueError("a MIPs synopsis needs at least one permutation")
        bad = [m for m in minima if not 0 <= m <= MIPS_MODULUS]
        if bad:
            raise ValueError(f"minima out of range [0, {MIPS_MODULUS}]: {bad[:3]}")
        self._minima = tuple(int(m) for m in minima)
        self._seed = seed
        self._cardinality: float | None = None

    # -- construction ----------------------------------------------------

    @classmethod
    def from_ids(  # type: ignore[override]
        cls,
        ids: Iterable[int],
        *,
        num_permutations: int = 64,
        seed: int = 0,
    ) -> "MinWisePermutations":
        """Build a MIPs vector over ``ids`` with ``num_permutations`` hashes.

        The one-set case of :func:`mips_rows`, unpacked to the tuple of
        minima.
        """
        id_array = ids_to_uint64_array(ids)
        row = mips_rows(
            id_array,
            (0, id_array.size),
            num_permutations=num_permutations,
            seed=seed,
        )[0]
        return cls(row.tolist(), seed)

    def empty_like(self) -> "MinWisePermutations":
        return MinWisePermutations([MIPS_MODULUS] * len(self._minima), self._seed)

    # -- estimation ------------------------------------------------------

    def estimate_resemblance(self, other: SetSynopsis) -> float:
        """Fraction of agreeing positions over the common prefix."""
        self.check_compatible(other)
        assert isinstance(other, MinWisePermutations)
        common = min(len(self._minima), len(other._minima))
        if self.is_empty or other.is_empty:
            return 0.0
        matches = sum(
            1
            for a, b in zip(self._minima[:common], other._minima[:common])
            if a == b and a != MIPS_MODULUS
        )
        return matches / common

    def estimate_cardinality(self) -> float:
        """Order-statistics cardinality estimate from the minima.

        Each minimum of ``n`` i.i.d. uniforms on ``[0, p)`` has expectation
        ``p / (n + 1)``, so ``n ≈ N / sum(min_i / p) - 1``.  Far noisier
        than the resemblance estimator — MINERVA posts carry exact index
        list lengths — but available when only the synopsis survives.
        """
        if self._cardinality is not None:
            return self._cardinality
        if self.is_empty:
            estimate = 0.0
        else:
            total = sum(m / MIPS_MODULUS for m in self._minima)
            estimate = (
                float("inf")
                if total <= 0.0
                else max(0.0, len(self._minima) / total - 1.0)
            )
        self._cardinality = estimate
        return estimate

    @property
    def distinct_fraction(self) -> float:
        """Fraction of distinct values among the stored minima.

        The paper (Section 3.2) notes this ratio on an aggregated vector
        gives a (biased) estimate related to the aggregate's cardinality.
        """
        filled = [m for m in self._minima if m != MIPS_MODULUS]
        if not filled:
            return 0.0
        return len(set(filled)) / len(self._minima)

    # -- aggregation -----------------------------------------------------

    def union(self, other: SetSynopsis) -> "MinWisePermutations":
        """Position-wise minimum over the common permutation prefix."""
        self.check_compatible(other)
        assert isinstance(other, MinWisePermutations)
        common = min(len(self._minima), len(other._minima))
        merged = [
            min(a, b) for a, b in zip(self._minima[:common], other._minima[:common])
        ]
        return MinWisePermutations(merged, self._seed)

    def intersect(self, other: SetSynopsis) -> "MinWisePermutations":
        """Conservative position-wise maximum heuristic (Section 6.1)."""
        self.check_compatible(other)
        assert isinstance(other, MinWisePermutations)
        common = min(len(self._minima), len(other._minima))
        merged = [
            max(a, b) for a, b in zip(self._minima[:common], other._minima[:common])
        ]
        return MinWisePermutations(merged, self._seed)

    # -- bookkeeping -----------------------------------------------------

    @property
    def minima(self) -> tuple[int, ...]:
        return self._minima

    @property
    def num_permutations(self) -> int:
        return len(self._minima)

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def size_in_bits(self) -> int:
        return BITS_PER_POSITION * len(self._minima)

    @property
    def is_empty(self) -> bool:
        return all(m == MIPS_MODULUS for m in self._minima)

    def check_compatible(self, other: SetSynopsis) -> None:
        super().check_compatible(other)
        assert isinstance(other, MinWisePermutations)
        if self._seed != other._seed:
            raise IncompatibleSynopsesError(
                f"MIPs hash-family seeds differ: {self._seed} vs {other._seed}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MinWisePermutations):
            return NotImplemented
        return self._seed == other._seed and self._minima == other._minima

    def __hash__(self) -> int:
        return hash((self._seed, self._minima))

    def __repr__(self) -> str:
        return (
            f"MinWisePermutations(N={len(self._minima)}, seed={self._seed}, "
            f"empty={self.is_empty})"
        )
