"""Deterministic hash families shared by all synopsis types.

The paper requires that *every peer in the network uses the same sequence
of hash functions* so that synopses built independently by different
peers are comparable (Section 5.3: "The only agreement that needs to be
disseminated among and obeyed by all participating peers is that they use
the same sequence of hash functions for creating their permutations.").

We therefore derive every hash function deterministically from a small
integer *family seed* that plays the role of that network-wide agreement.
Python's builtin ``hash`` is randomized per process and must never be
used here; we use SplitMix64, a well-studied 64-bit finalizer with good
avalanche behaviour, implemented in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "MERSENNE_PRIME_61",
    "ids_to_uint64_array",
    "segment_layout",
    "splitmix64",
    "splitmix64_array",
    "uniform_hash",
    "uniform_hash_array",
    "LinearPermutation",
    "LinearHashFamily",
]

#: A large Mersenne prime used as the modulus ``U`` of the paper's linear
#: permutation hashes ``h_i(x) = (a_i * x + b_i) mod U``.  Using a prime
#: makes ``x -> a*x + b`` a true permutation of ``Z_U`` for ``a != 0``.
MERSENNE_PRIME_61 = (1 << 61) - 1

_MASK64 = (1 << 64) - 1

# SplitMix64's constants as NumPy scalars, built once.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U27, _U30, _U31 = np.uint64(27), np.uint64(30), np.uint64(31)


def ids_to_uint64_array(ids: Iterable[int] | np.ndarray) -> np.ndarray:
    """Convert an iterable of integer ids to a ``uint64`` array, mod 2^64.

    Shared by every synopsis ``from_ids`` constructor so the wrap-around
    semantics (``id & (2^64 - 1)``) are defined in exactly one place.
    The common case — ids that already fit in 64 bits — converts through
    a single bulk ``np.array`` call instead of a per-element Python
    generator; arbitrary-precision or negative ids fall back to the
    explicit masked path with identical results.
    """
    if isinstance(ids, np.ndarray):
        if ids.dtype == np.uint64:
            return ids
        if ids.dtype.kind in "iu":
            return ids.astype(np.uint64)
        ids = ids.tolist()
    id_list = ids if isinstance(ids, (list, tuple)) else list(ids)
    if not id_list:
        return np.empty(0, dtype=np.uint64)
    array: np.ndarray | None
    try:
        array = np.asarray(id_list)
    except OverflowError:
        array = None
    if array is not None and array.dtype.kind in "iu":
        return array.astype(np.uint64)
    # Arbitrary-precision ids (object dtype) wrap explicitly; non-integer
    # inputs raise TypeError from the bitwise mask, as before.
    return np.fromiter(
        (i & _MASK64 for i in id_list), dtype=np.uint64, count=len(id_list)
    )


def segment_layout(
    offsets: Sequence[int] | np.ndarray, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Validate segment ``offsets`` over ``size`` concatenated ids.

    The batched synopsis builders take many id sets as one concatenated
    array: set ``s`` is ``ids[offsets[s]:offsets[s + 1]]``, so ``offsets``
    holds ``S + 1`` boundaries that start at 0, never decrease and end at
    ``size``.  Returns the boundaries as ``int64`` and the set number of
    every id.
    """
    bounds = np.asarray(offsets, dtype=np.int64)
    lengths = bounds[1:] - bounds[:-1]
    if (
        bounds.ndim != 1
        or bounds.size == 0
        or bounds[0] != 0
        or bounds[-1] != size
        or (lengths.size and lengths.min() < 0)
    ):
        raise ValueError(
            f"offsets must rise from 0 to {size} (the id count), got {offsets!r}"
        )
    return bounds, np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)


def splitmix64(x: int) -> int:
    """Return the SplitMix64 mix of ``x`` as an unsigned 64-bit integer.

    SplitMix64 is a bijective finalizer on 64-bit integers with strong
    avalanche properties, which makes it suitable both as a pseudo-uniform
    hash (for hash sketches and Bloom filters) and as a seed sequencer
    (for deriving the ``a_i, b_i`` coefficients of linear permutations).
    """
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def splitmix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`splitmix64` over a ``uint64`` array.

    Bit-identical to the scalar version — unsigned 64-bit NumPy
    arithmetic wraps exactly like the masked Python-int arithmetic.
    """
    x = np.asarray(values, dtype=np.uint64) + _GOLDEN
    x = (x ^ (x >> _U30)) * _MIX1
    x = (x ^ (x >> _U27)) * _MIX2
    return x ^ (x >> _U31)


def uniform_hash(key: int, seed: int = 0) -> int:
    """Hash ``key`` to a pseudo-uniform unsigned 64-bit value.

    Different ``seed`` values yield (empirically) independent hash
    functions, which is what Bloom filters' ``k`` probes and hash
    sketches' stochastic averaging require.
    """
    return splitmix64((key & _MASK64) ^ splitmix64(seed))


def uniform_hash_array(keys: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorized :func:`uniform_hash` — same values, array at a time."""
    salt = np.uint64(splitmix64(seed))
    return splitmix64_array(np.asarray(keys, dtype=np.uint64) ^ salt)


@dataclass(frozen=True)
class LinearPermutation:
    """One linear permutation ``h(x) = (a*x + b) mod U`` over ``Z_U``.

    This is exactly the permutation family of Broder et al. used by the
    paper's MIPs synopsis (Section 3.2, Figure 1).  ``a`` must be nonzero
    modulo ``U`` for the map to be a bijection.
    """

    a: int
    b: int
    modulus: int = MERSENNE_PRIME_61

    def __post_init__(self) -> None:
        if self.modulus <= 1:
            raise ValueError(f"modulus must be > 1, got {self.modulus}")
        if self.a % self.modulus == 0:
            raise ValueError("coefficient 'a' must be nonzero mod modulus")

    def __call__(self, x: int) -> int:
        return (self.a * x + self.b) % self.modulus


class LinearHashFamily:
    """A reproducible, lazily-extended sequence of linear permutations.

    Two ``LinearHashFamily`` instances created with the same ``seed``
    produce the identical sequence of permutations, no matter how many
    each instance has materialized.  That property is what lets two
    autonomous peers build MIPs vectors of *different lengths* that are
    still comparable on their common prefix (Section 5.3).
    """

    def __init__(self, seed: int = 0, modulus: int = MERSENNE_PRIME_61) -> None:
        if modulus <= 1:
            raise ValueError(f"modulus must be > 1, got {modulus}")
        self.seed = seed
        self.modulus = modulus
        self._permutations: list[LinearPermutation] = []

    def permutation(self, index: int) -> LinearPermutation:
        """Return the ``index``-th permutation, materializing as needed."""
        if index < 0:
            raise IndexError(f"permutation index must be >= 0, got {index}")
        while len(self._permutations) <= index:
            i = len(self._permutations)
            # Derive (a, b) from the family seed and position; reject a == 0.
            a = splitmix64(self.seed ^ splitmix64(2 * i + 1)) % self.modulus
            b = splitmix64(self.seed ^ splitmix64(2 * i + 2)) % self.modulus
            if a == 0:
                a = 1
            self._permutations.append(LinearPermutation(a, b, self.modulus))
        return self._permutations[index]

    def permutations(self, count: int) -> list[LinearPermutation]:
        """Return the first ``count`` permutations of the family."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count:
            self.permutation(count - 1)
        return self._permutations[:count]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinearHashFamily(seed={self.seed}, modulus={self.modulus}, "
            f"materialized={len(self._permutations)})"
        )
