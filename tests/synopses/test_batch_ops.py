"""Batch-kernel vs scalar equality for the routing fast path.

Every packed/vectorized operation added for :mod:`repro.core.fastpath`
must reproduce the scalar synopsis code *bit for bit* — the fast path's
plan-equivalence guarantee rests on these identities.
"""

import math
import random

import numpy as np
import pytest

from repro.synopses.bloom import (
    BloomFilter,
    _unpacked_row_popcounts,
    batch_difference_popcounts,
    cardinality_from_popcount,
    column_popcounts,
    pack_bit_row,
    popcount_cardinality_table,
    row_popcounts,
)
from repro.synopses.columnstore import LogLogColumn, MipsColumn
from repro.synopses.hashsketch import (
    HashSketch,
    cardinality_from_rho_sum,
    first_zero_positions,
    pack_bitmap_row,
    rho_sum_cardinality_table,
)
from repro.synopses.loglog import (
    LogLogCounter,
    cardinality_from_register_stats,
    pack_register_row,
    register_cardinality_tables,
)
from repro.synopses.mips import (
    MIPS_MODULUS,
    MinWisePermutations,
    batch_match_counts,
    pack_minima_row,
)


def random_sets(seed, count=12, universe=5000):
    rng = random.Random(seed)
    sets = []
    for _ in range(count):
        size = rng.randrange(0, 400)
        sets.append({rng.randrange(0, universe) for _ in range(size)})
    return sets


class TestBloomKernels:
    M, K = 512, 3

    def filters(self, seed):
        return [BloomFilter.from_ids(s, num_bits=self.M, num_hashes=self.K)
                for s in random_sets(seed)]

    def test_pack_roundtrip(self):
        filters = self.filters(0)
        rows = np.stack([pack_bit_row(f.raw_bits, self.M) for f in filters])
        assert rows.shape == (len(filters), (self.M + 63) // 64)
        for row, synopsis in zip(rows, filters):
            rebuilt = 0
            for word_index, word in enumerate(row.tolist()):
                rebuilt |= word << (64 * word_index)
            assert rebuilt == synopsis.raw_bits

    def test_batch_difference_matches_scalar(self):
        filters = self.filters(1)
        reference = filters[0]
        for other in filters[1:]:
            reference = reference.union(other)
        # Word-major, as the Bloom kernel stores it: column i is filter i.
        words = np.stack(
            [pack_bit_row(f.raw_bits, self.M) for f in self.filters(2)], axis=1
        )
        reference_row = pack_bit_row(reference.raw_bits, self.M)
        popcounts = batch_difference_popcounts(words, reference_row)
        for synopsis, popcount in zip(self.filters(2), popcounts.tolist()):
            difference = synopsis.difference(reference)
            assert difference.bit_count == popcount

    @pytest.mark.parametrize("shape", [(0, 4), (1, 1), (7, 3), (40, 32)])
    def test_row_popcounts_match_python_bit_counts(self, shape):
        matrix = np.random.default_rng(shape[0]).integers(
            0, 2**64, size=shape, dtype=np.uint64, endpoint=False
        )
        expected = [sum(int(word).bit_count() for word in row) for row in matrix]
        assert row_popcounts(matrix).tolist() == expected

    @pytest.mark.skipif(
        not hasattr(np, "bitwise_count"), reason="NumPy < 2.0 has no bitwise_count"
    )
    @pytest.mark.parametrize("shape", [(0, 4), (1, 1), (7, 3), (40, 32)])
    def test_fallback_popcounts_match_bitwise_count(self, shape, monkeypatch):
        # NumPy 1.x (which ``pyproject.toml`` allows) takes the fallback.
        matrix = np.random.default_rng(shape[1]).integers(
            0, 2**64, size=shape, dtype=np.uint64, endpoint=False
        )
        matrix[:, :1] = np.uint64(2**64 - 1)
        expected = np.bitwise_count(matrix).sum(axis=1, dtype=np.int64)
        fallback = _unpacked_row_popcounts(matrix)
        assert fallback.dtype == expected.dtype
        assert fallback.tolist() == expected.tolist()
        # The word-major reduction the Bloom kernel runs every round goes
        # through the same fallback, on the transposed matrix.
        words = np.ascontiguousarray(matrix.T)
        column_expected = column_popcounts(words)
        assert column_expected.tolist() == expected.tolist()
        monkeypatch.delattr(np, "bitwise_count")
        column_fallback = column_popcounts(words)
        assert column_fallback.dtype == column_expected.dtype
        assert column_fallback.tolist() == column_expected.tolist()

    def test_popcount_table_matches_estimator(self):
        table = popcount_cardinality_table(self.M, self.K)
        assert len(table) == self.M + 1
        for synopsis in self.filters(3):
            t = synopsis.bit_count
            assert table[t] == synopsis.estimate_cardinality()

    def test_cardinality_from_popcount_saturation(self):
        # A full filter is clamped to t = m - 1 rather than log(0).
        full = cardinality_from_popcount(self.M, self.M, self.K)
        assert math.isfinite(full)
        assert cardinality_from_popcount(0, self.M, self.K) == 0.0

    def test_bit_count_cached_value_is_correct(self):
        synopsis = BloomFilter.from_ids(range(100), num_bits=self.M)
        assert synopsis.bit_count == bin(synopsis.raw_bits).count("1")
        # Second access hits the cache; value must not drift.
        assert synopsis.bit_count == bin(synopsis.raw_bits).count("1")


class TestMipsKernels:
    N = 24

    def synopses(self, seed):
        return [MinWisePermutations.from_ids(s, num_permutations=self.N)
                for s in random_sets(seed)]

    def test_pack_rows_sentinel_for_none(self):
        # A peer without a synopsis gathers as the column's neutral row,
        # which is the empty synopsis's packed row: all sentinels.
        empty = pack_minima_row(
            MinWisePermutations.from_ids([], num_permutations=self.N)
        )
        neutral = MipsColumn(self.N, 0).neutral_matrix(1)[0]
        assert (empty == MIPS_MODULUS).all()
        assert (neutral == empty).all()

    def test_batch_match_counts_match_resemblance(self):
        synopses = self.synopses(1)
        reference = synopses[0]
        for other in synopses[1:3]:
            reference = reference.union(other)
        rows = np.stack([pack_minima_row(s) for s in synopses])
        reference_row = pack_minima_row(reference)
        matches = batch_match_counts(rows, reference_row)
        for synopsis, count in zip(synopses, matches.tolist()):
            if reference.is_empty:
                continue
            assert reference.estimate_resemblance(synopsis) == count / self.N

    def test_cardinality_cached(self):
        synopsis = MinWisePermutations.from_ids(range(50), num_permutations=self.N)
        assert synopsis.estimate_cardinality() == synopsis.estimate_cardinality()


class TestHashSketchKernels:
    M, L = 8, 24

    def synopses(self, seed):
        return [HashSketch.from_ids(s, num_bitmaps=self.M, bitmap_length=self.L)
                for s in random_sets(seed)]

    def test_first_zero_positions_match_scalar(self):
        synopses = self.synopses(0)
        rows = np.stack([pack_bitmap_row(s) for s in synopses])
        positions = first_zero_positions(rows, self.L)
        for synopsis, row in zip(synopses, positions.tolist()):
            for bucket, position in enumerate(row):
                bitmap = int(rows[synopses.index(synopsis)][bucket])
                expected = 0
                while expected < self.L and (bitmap >> expected) & 1:
                    expected += 1
                assert position == expected

    def test_rho_sum_table_matches_estimator(self):
        table = rho_sum_cardinality_table(self.M, self.L)
        assert len(table) == self.M * self.L + 1
        for synopsis in self.synopses(1):
            rows = np.stack([pack_bitmap_row(synopsis)])
            rho_sum = int(first_zero_positions(rows, self.L).sum())
            assert table[rho_sum] == synopsis.estimate_cardinality()

    def test_cardinality_from_rho_sum_scalar(self):
        for rho_sum in (0, 1, 7, self.M * self.L):
            value = cardinality_from_rho_sum(rho_sum, self.M)
            assert value > 0 or rho_sum == 0


class TestLogLogKernels:
    M = 32

    def synopses(self, seed):
        return [LogLogCounter.from_ids(s, num_buckets=self.M)
                for s in random_sets(seed)]

    def test_register_tables_match_estimator(self):
        linear, extrapolation = register_cardinality_tables(self.M)
        for synopsis in self.synopses(0):
            rows = np.stack([pack_register_row(synopsis)])
            empty = int((rows[0] == 0).sum())
            register_sum = int(rows[0].sum(dtype=np.int64))
            expected = synopsis.estimate_cardinality()
            if empty > self.M * 0.3:
                assert linear[empty] == expected
            else:
                assert extrapolation[register_sum] == expected

    def test_linear_table_zero_empty_is_unreachable_sentinel(self):
        linear, _ = register_cardinality_tables(self.M)
        # empty == 0 never takes the linear branch (0 > 0.3 m is false);
        # the slot only pads the table for direct integer indexing.
        assert math.isinf(linear[0])

    def test_cardinality_from_register_stats_branches(self):
        dense = cardinality_from_register_stats(0, 5 * self.M, self.M)
        sparse = cardinality_from_register_stats(self.M - 1, 3, self.M)
        assert dense > sparse

    def test_no_synopsis_row_is_the_empty_counter(self):
        synopsis = LogLogCounter.from_ids(range(100), num_buckets=self.M)
        rows = np.stack(
            [
                LogLogColumn(self.M, 0).neutral_matrix(1)[0],
                pack_register_row(synopsis),
            ]
        )
        empty = pack_register_row(LogLogCounter.from_ids([], num_buckets=self.M))
        assert (rows[0] == empty).all()
        assert (rows[0] == 0).all()
        assert rows.dtype == np.uint8


class TestMemoizedTables:
    """Cardinality tables are built once per parameter set and shared by
    every caller, so a stray write must fail instead of corrupting every
    later estimate."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: [popcount_cardinality_table(512, 3)],
            lambda: [rho_sum_cardinality_table(16, 32)],
            lambda: list(register_cardinality_tables(32)),
        ],
        ids=["bloom", "hash-sketch", "loglog"],
    )
    def test_tables_are_shared_and_read_only(self, build):
        first, second = build(), build()
        for table, again in zip(first, second):
            assert table is again
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[1] = 0.0
