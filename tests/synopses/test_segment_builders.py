"""Batched synopsis builders against a scalar insertion oracle.

Every family's ``from_ids`` is the one-set case of its batched builder
(``bloom_rows``, ``mips_rows``, ``hash_sketch_rows``, ``loglog_rows``),
so comparing the two would prove nothing.  These tests compare each
builder's rows with a test-local oracle that inserts one id at a time
with the scalar hash functions, exactly as the family docstrings define
the synopsis, plus golden synopses pinned before the builders existed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.synopses import (
    BloomFilter,
    HashSketch,
    LogLogCounter,
    MinWisePermutations,
    SynopsisSpec,
)
from repro.synopses.bloom import bloom_rows, pack_bit_row
from repro.synopses.hashing import (
    LinearHashFamily,
    segment_layout,
    splitmix64,
    uniform_hash,
)
from repro.synopses.hashsketch import hash_sketch_rows
from repro.synopses.loglog import loglog_rows
from repro.synopses.mips import MIPS_MODULUS, mips_rows

MASK64 = (1 << 64) - 1
MAX_RHO = 31


# -- scalar oracles ----------------------------------------------------------


def bloom_oracle(ids, num_bits, num_hashes, seed):
    bits = 0
    for doc_id in ids:
        for probe in range(num_hashes):
            bits |= 1 << (uniform_hash(doc_id, seed ^ (probe + 1)) % num_bits)
    return bits


def mips_oracle(ids, num_permutations, seed):
    family = LinearHashFamily(seed=seed, modulus=MIPS_MODULUS)
    minima = [MIPS_MODULUS] * num_permutations
    for doc_id in ids:
        key = splitmix64(doc_id & MASK64) >> 33
        for i in range(num_permutations):
            minima[i] = min(minima[i], family.permutation(i)(key))
    return minima


def hash_sketch_oracle(ids, num_bitmaps, bitmap_length, seed):
    bitmaps = [0] * num_bitmaps
    for doc_id in ids:
        h = uniform_hash(doc_id, seed)
        rest = h // num_bitmaps
        position = (
            bitmap_length - 1
            if rest == 0
            else min((rest & -rest).bit_length() - 1, bitmap_length - 1)
        )
        bitmaps[h % num_bitmaps] |= 1 << position
    return bitmaps


def loglog_oracle(ids, num_buckets, seed):
    registers = [0] * num_buckets
    for doc_id in ids:
        h = uniform_hash(doc_id, seed)
        rest = h // num_buckets
        rho = MAX_RHO if rest == 0 else min(MAX_RHO, (rest & -rest).bit_length())
        registers[h % num_buckets] = max(registers[h % num_buckets], rho)
    return registers


# -- ids whose hash is chosen ---------------------------------------------------


def _unxorshift(value, shift):
    x = value
    for _ in range(64 // shift + 1):
        x = value ^ (x >> shift)
    return x


def splitmix64_inverse(z):
    x = _unxorshift(z, 31)
    x = (x * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK64
    x = _unxorshift(x, 27)
    x = (x * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK64
    x = _unxorshift(x, 30)
    return (x - 0x9E3779B97F4A7C15) & MASK64


def key_with_hash(h, seed):
    """An id whose ``uniform_hash(id, seed)`` is exactly ``h``."""
    return splitmix64_inverse(h) ^ splitmix64(seed)


def test_key_with_hash_inverts_uniform_hash():
    for h in (0, 1, 63, 12345, MASK64):
        for seed in (0, 7):
            assert uniform_hash(key_with_hash(h, seed), seed) == h


# -- strategies ------------------------------------------------------------------

#: Ids beyond both ends of uint64: negatives and >= 2^64 wrap mod 2^64.
plain_ids = st.integers(min_value=-(1 << 70), max_value=1 << 70)


@st.composite
def id_sets(draw, seed, buckets):
    """Segments (some empty, some with repeats) over plain ids plus ids
    whose hash leaves ``h // buckets == 0`` (the ``rest == 0`` case)."""
    pool = draw(st.lists(plain_ids, min_size=1, max_size=6))
    pool += [
        key_with_hash(h, seed)
        for h in draw(st.lists(st.integers(0, buckets - 1), max_size=2))
    ]
    return draw(
        st.lists(st.lists(st.sampled_from(pool), max_size=8), max_size=5)
    )


def concatenated(segments):
    ids = [doc_id for segment in segments for doc_id in segment]
    offsets = np.cumsum([0] + [len(segment) for segment in segments])
    return ids, offsets


seeds = st.integers(min_value=0, max_value=(1 << 64) - 1)


# -- builder vs oracle -----------------------------------------------------------


class TestBloomRows:
    @given(st.data(), seeds, st.integers(1, 300), st.integers(1, 6))
    def test_rows_match_scalar_insertion(self, data, seed, num_bits, num_hashes):
        segments = data.draw(id_sets(seed, 1))
        ids, offsets = concatenated(segments)
        rows = bloom_rows(
            ids, offsets, num_bits=num_bits, num_hashes=num_hashes, seed=seed
        )
        assert rows.shape == (len(segments), (num_bits + 63) // 64)
        for row, segment in zip(rows, segments):
            expected = bloom_oracle(segment, num_bits, num_hashes, seed)
            assert np.array_equal(row, pack_bit_row(expected, num_bits))

    def test_from_ids_is_the_one_segment_case(self):
        ids = [5, -1, 1 << 65, 5]
        bloom = BloomFilter.from_ids(ids, num_bits=100, num_hashes=4, seed=3)
        assert bloom.raw_bits == bloom_oracle(ids, 100, 4, 3)


class TestMipsRows:
    @given(st.data(), seeds, st.integers(1, 12))
    def test_rows_match_scalar_insertion(self, data, seed, num_permutations):
        segments = data.draw(id_sets(seed, 1))
        ids, offsets = concatenated(segments)
        rows = mips_rows(ids, offsets, num_permutations=num_permutations, seed=seed)
        assert rows.shape == (len(segments), num_permutations)
        assert rows.dtype == np.int64
        for row, segment in zip(rows, segments):
            assert row.tolist() == mips_oracle(segment, num_permutations, seed)

    def test_empty_segments_stay_sentinel_between_filled_ones(self):
        segments = [[], [4, 9], [], [], [7], []]
        ids, offsets = concatenated(segments)
        rows = mips_rows(ids, offsets, num_permutations=5, seed=2)
        for row, segment in zip(rows, segments):
            assert row.tolist() == mips_oracle(segment, 5, 2)
        assert (rows[[0, 2, 3, 5]] == MIPS_MODULUS).all()

    def test_large_batches_permute_in_blocks(self, monkeypatch):
        import repro.synopses.mips as mips

        segments = [list(range(i, i + 30)) for i in range(0, 300, 30)] + [[]]
        ids, offsets = concatenated(segments)
        whole = mips_rows(ids, offsets, num_permutations=9, seed=1)
        monkeypatch.setattr(mips, "_PERMUTED_BLOCK", 700)
        assert np.array_equal(
            mips_rows(ids, offsets, num_permutations=9, seed=1), whole
        )


class TestHashSketchRows:
    @given(st.data(), seeds, st.integers(1, 9), st.sampled_from([1, 17, 64]))
    def test_rows_match_scalar_insertion(self, data, seed, num_bitmaps, length):
        segments = data.draw(id_sets(seed, num_bitmaps))
        ids, offsets = concatenated(segments)
        rows = hash_sketch_rows(
            ids, offsets, num_bitmaps=num_bitmaps, bitmap_length=length, seed=seed
        )
        assert rows.shape == (len(segments), num_bitmaps)
        for row, segment in zip(rows, segments):
            expected = hash_sketch_oracle(segment, num_bitmaps, length, seed)
            assert row.tolist() == expected

    @given(st.data(), seeds, st.integers(1, 5), st.sampled_from([65, 100, 128]))
    def test_long_bitmaps_span_several_words(self, data, seed, num_bitmaps, length):
        segments = data.draw(id_sets(seed, num_bitmaps))
        ids, offsets = concatenated(segments)
        rows = hash_sketch_rows(
            ids, offsets, num_bitmaps=num_bitmaps, bitmap_length=length, seed=seed
        )
        words = (length + 63) // 64
        assert rows.shape == (len(segments), num_bitmaps * words)
        for row, segment in zip(rows, segments):
            bitmaps = [
                int.from_bytes(chunk.astype("<u8").tobytes(), "little")
                for chunk in row.reshape(num_bitmaps, words)
            ]
            assert bitmaps == hash_sketch_oracle(segment, num_bitmaps, length, seed)
            sketch = HashSketch.from_ids(
                segment, num_bitmaps=num_bitmaps, bitmap_length=length, seed=seed
            )
            assert list(sketch.bitmaps) == bitmaps

    def test_rest_zero_sets_the_top_bit_of_a_long_bitmap(self):
        doc_id = key_with_hash(0, 11)
        sketch = HashSketch.from_ids([doc_id], num_bitmaps=2, bitmap_length=90, seed=11)
        assert sketch.bitmaps == (1 << 89, 0)


class TestLogLogRows:
    @given(st.data(), seeds, st.integers(1, 12))
    def test_rows_match_scalar_insertion(self, data, seed, num_buckets):
        segments = data.draw(id_sets(seed, num_buckets))
        ids, offsets = concatenated(segments)
        rows = loglog_rows(ids, offsets, num_buckets=num_buckets, seed=seed)
        assert rows.shape == (len(segments), num_buckets)
        assert rows.dtype == np.uint8
        for row, segment in zip(rows, segments):
            assert row.tolist() == loglog_oracle(segment, num_buckets, seed)

    def test_rest_zero_takes_the_register_maximum(self):
        doc_id = key_with_hash(3, 5)  # bucket 3 of 4, rest 0
        counter = LogLogCounter.from_ids([doc_id], num_buckets=4, seed=5)
        assert counter.registers == (0, 0, 0, MAX_RHO)


# -- the spec's dispatch and the offsets contract ---------------------------------


@pytest.mark.parametrize("label", ["bf-300", "mips-7", "hs-5", "ll-9"])
def test_spec_rows_pack_what_build_builds(label):
    from repro.synopses.columnstore import column_for

    spec = SynopsisSpec.parse(label, seed=21)
    segments = [[1, 2, 3], [], [-4, 1 << 66], [8, 8]]
    ids, offsets = concatenated(segments)
    rows = spec.build_rows(np.array(ids, dtype=object), offsets)
    for row, segment in zip(rows, segments):
        synopsis = spec.build(segment)
        column = column_for(synopsis, capacity=1)
        column.set_row(0, synopsis)
        assert np.array_equal(row, column.rows(1)[0])


@pytest.mark.parametrize(
    "offsets", [[], [1, 3], [0, 2], [0, 3, 2, 3], [[0, 3]]]
)
def test_segment_layout_rejects_bad_offsets(offsets):
    with pytest.raises(ValueError, match="offsets"):
        segment_layout(offsets, 3)


def test_segment_layout_numbers_every_id():
    bounds, segment = segment_layout([0, 0, 2, 2, 5], 5)
    assert bounds.tolist() == [0, 0, 2, 2, 5]
    assert segment.tolist() == [1, 1, 3, 3, 3]


@pytest.mark.parametrize(
    "build",
    [
        lambda: bloom_rows([], [0], num_bits=0, num_hashes=1, seed=0),
        lambda: bloom_rows([], [0], num_bits=8, num_hashes=0, seed=0),
        lambda: mips_rows([], [0], num_permutations=0, seed=0),
        lambda: hash_sketch_rows([], [0], num_bitmaps=0, bitmap_length=8, seed=0),
        lambda: hash_sketch_rows([], [0], num_bitmaps=2, bitmap_length=0, seed=0),
        lambda: loglog_rows([], [0], num_buckets=0, seed=0),
    ],
)
def test_builders_reject_nonpositive_parameters(build):
    with pytest.raises(ValueError, match="must be positive"):
        build()


# -- golden synopses, pinned before the batched builders --------------------------

GOLDEN_IDS = [3, 17, (1 << 64) + 5, -7, 1000003, 42, 42, 99991]
GOLDEN_RANGE = list(range(0, 5000, 7))


class TestGolden:
    def test_bloom(self):
        assert BloomFilter.from_ids(
            GOLDEN_IDS, num_bits=200, num_hashes=3, seed=7
        ).raw_bits == 0x40021000601011000208004202001410000008000200D0000
        assert BloomFilter.from_ids(
            GOLDEN_RANGE, num_bits=128, num_hashes=5, seed=0
        ).raw_bits == (1 << 128) - 1
        assert BloomFilter.from_ids([], num_bits=200, num_hashes=3, seed=7).raw_bits == 0

    def test_mips(self):
        assert MinWisePermutations.from_ids(
            GOLDEN_IDS, num_permutations=6, seed=11
        ).minima == (584747226, 24121057, 3511655, 658138900, 22757173, 298541431)
        assert MinWisePermutations.from_ids(
            GOLDEN_RANGE, num_permutations=4, seed=0
        ).minima == (1270938, 14752, 2274839, 1341451)

    def test_hash_sketch(self):
        assert HashSketch.from_ids(
            GOLDEN_IDS, num_bitmaps=4, bitmap_length=64, seed=5
        ).bitmaps == (3, 3, 8, 1)
        assert HashSketch.from_ids(
            GOLDEN_RANGE, num_bitmaps=2, bitmap_length=16, seed=0
        ).bitmaps == (255, 895)
        # Ids whose hash leaves rest == 0 (bucket 0 and bucket 3 / 2).
        assert HashSketch.from_ids(
            GOLDEN_IDS + [201462734464499889, 16542228966261088547],
            num_bitmaps=4,
            bitmap_length=64,
            seed=5,
        ).bitmaps == (9223372036854775811, 3, 8, 9223372036854775809)
        assert HashSketch.from_ids(
            GOLDEN_IDS + [17766897998012536101, 1872424404555290990],
            num_bitmaps=3,
            bitmap_length=70,
            seed=2,
        ).bitmaps == (590295810358705651715, 3, 590295810358705651717)

    def test_loglog(self):
        assert LogLogCounter.from_ids(
            GOLDEN_IDS, num_buckets=8, seed=9
        ).registers == (2, 4, 0, 0, 0, 0, 0, 1)
        assert LogLogCounter.from_ids(
            GOLDEN_RANGE, num_buckets=4, seed=0
        ).registers == (7, 9, 9, 9)
        assert LogLogCounter.from_ids(
            GOLDEN_IDS + [6240041819849697753, 2818723860614168267],
            num_buckets=8,
            seed=9,
        ).registers == (3, 31, 0, 0, 0, 0, 0, 1)
