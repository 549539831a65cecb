"""``TermColumns.upsert_rows`` against a loop of one-row upserts.

``upsert`` is the one-row call of ``upsert_rows``, so the oracle here is
a test-local copy of the historical one-row upsert: intern, append or
overwrite in place, pack an accepted synopsis into the column (creating
the column from the first packable synopsis), keep anything else as a
foreign object.  Batches with new peers, overwrites, peers repeated
within a batch, ``None`` synopses, synopses of foreign families and
parameters, and histograms must leave the same arrays, row order,
capacity and pickle bytes.
"""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.synopses import HashSketch, ScoreHistogramSynopsis, SynopsisSpec
from repro.synopses.columnstore import PeerIdTable, TermColumns, column_for

#: The families a batch draws from: the column's own, the same family
#: with other parameters, another family, and one no column can hold.
SPECS = {
    "bloom": SynopsisSpec.parse("bf-64"),
    "bloom-wide": SynopsisSpec.parse("bf-128"),
    "mips": SynopsisSpec.parse("mips-4"),
}
HISTOGRAM_SPEC = SynopsisSpec.parse("mips-2")
PEERS = [f"p{i}" for i in range(12)]


def oracle_upsert(store, peer_id, cdf, max_score, avg_score, term_space, synopsis, histogram):
    """The one-row upsert as it was before batched ingest."""
    interned = store._table.intern(peer_id)
    row = store._row_of.get(interned)
    if row is None:
        row = store._size
        store._grow(row + 1)
        store._size = row + 1
        store._row_of[interned] = row
        store._peer_ids[row] = interned
    store._cdf[row] = cdf
    store._max_score[row] = max_score
    store._avg_score[row] = avg_score
    store._term_space[row] = term_space
    column = store._column
    if synopsis is None:
        store._has_synopsis[row] = False
        store._foreign.pop(interned, None)
        if column is not None:
            column.clear_row(row)
    else:
        store._has_synopsis[row] = True
        if column is None:
            column = column_for(synopsis, capacity=len(store._peer_ids))
            if column is not None:
                store._column = column
        if column is not None and column.accepts(synopsis):
            column.set_row(row, synopsis)
            store._foreign.pop(interned, None)
        else:
            if column is not None:
                column.clear_row(row)
            store._foreign[interned] = synopsis
    if histogram is None:
        store._histograms.pop(interned, None)
    else:
        store._histograms[interned] = histogram
    store._invalidate()


def make_synopsis(kind, ids):
    if kind is None:
        return None
    if kind == "sketch-long":
        return HashSketch.from_ids(ids, num_bitmaps=2, bitmap_length=80)
    return SPECS[kind].build(ids)


post_rows = st.tuples(
    st.sampled_from(PEERS),
    st.integers(0, 10_000),
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(0.0, 1.0, allow_nan=False),
    st.integers(0, 50),
    st.lists(st.integers(0, 500), max_size=6),
    st.booleans(),
)
object_kinds = st.sampled_from(
    [None, "bloom", "bloom", "bloom", "bloom-wide", "mips", "sketch-long"]
)


@st.composite
def batches(draw):
    """One batch: posts plus either per-row synopsis kinds (object
    synopses) or one spec for the whole batch (packed rows)."""
    rows = draw(st.lists(post_rows, min_size=1, max_size=8))
    if draw(st.booleans()):
        return rows, draw(st.sampled_from(sorted(SPECS))), None
    return rows, None, draw(st.lists(object_kinds, min_size=len(rows), max_size=len(rows)))


def histogram_for(ids):
    return ScoreHistogramSynopsis.from_scored_ids(
        [(i, (i % 10) / 10) for i in ids], spec=HISTOGRAM_SPEC, num_cells=2
    )


def apply_batch(bulk, oracle, batch):
    rows, packed_kind, kinds = batch
    if packed_kind is not None:
        kinds = [packed_kind] * len(rows)
    synopses = [make_synopsis(kind, row[5]) for kind, row in zip(kinds, rows)]
    histograms = [histogram_for(row[5]) if row[6] else None for row in rows]
    for row, synopsis, histogram in zip(rows, synopses, histograms):
        oracle_upsert(oracle, *row[:5], synopsis, histogram)
    interned = [bulk.table.intern(row[0]) for row in rows]
    if packed_kind is not None:
        spec = SPECS[packed_kind]
        ids = [i for row in rows for i in row[5]]
        offsets = np.cumsum([0] + [len(row[5]) for row in rows])
        layout = column_for(spec.empty())
        batch_synopses = layout.holding(spec.build_rows(ids, offsets))
    else:
        batch_synopses = synopses
    returned = bulk.upsert_rows(
        interned,
        [row[1] for row in rows],
        [row[2] for row in rows],
        [row[3] for row in rows],
        [row[4] for row in rows],
        batch_synopses,
        histograms if any(h is not None for h in histograms) else None,
    )
    assert returned == [bulk.row_for(peer) for peer in interned]


def assert_same_store(bulk, oracle):
    for name in ("_peer_ids", "_cdf", "_max_score", "_avg_score", "_term_space", "_has_synopsis"):
        assert np.array_equal(getattr(bulk, name), getattr(oracle, name)), name
    assert bulk._size == oracle._size
    assert list(bulk._row_of.items()) == list(oracle._row_of.items())
    assert list(bulk._foreign.items()) == list(oracle._foreign.items())
    assert list(bulk._histograms) == list(oracle._histograms)
    if oracle._column is None:
        assert bulk._column is None
    else:
        assert type(bulk._column) is type(oracle._column)
        assert bulk._column.params == oracle._column.params
        assert bulk._column.capacity == oracle._column.capacity
        assert np.array_equal(bulk._column.rows(bulk._column.capacity), oracle._column.rows(oracle._column.capacity))
    assert pickle.dumps(bulk) == pickle.dumps(oracle)


@given(st.lists(batches(), min_size=1, max_size=5))
def test_upsert_rows_equals_one_row_upserts(batch_list):
    bulk = TermColumns("t", PeerIdTable())
    oracle = TermColumns("t", PeerIdTable())
    for batch in batch_list:
        apply_batch(bulk, oracle, batch)
        assert_same_store(bulk, oracle)


def test_repeated_peer_keeps_its_last_row():
    store = TermColumns("t", PeerIdTable())
    spec = SPECS["bloom"]
    first, last = spec.build([1]), spec.build([2])
    ids = [store.table.intern(name) for name in ("a", "b", "a")]
    rows = store.upsert_rows(ids, [1, 2, 3], [0.1, 0.2, 0.3], [0.0] * 3, [4] * 3, [first, None, last])
    assert rows == [0, 1, 0]
    assert store.cdf_values().tolist() == [3, 2]
    assert store.synopsis_flags().tolist() == [True, False]
    assert store.synopsis_at(0) == last


def test_rows_of_another_family_are_kept_as_objects():
    store = TermColumns("t", PeerIdTable())
    store.upsert("a", 1, 0.5, 0.2, 3, SPECS["bloom"].build([1]), None)
    wide = SPECS["bloom-wide"]
    layout = column_for(wide.empty())
    packed = layout.holding(wide.build_rows([5, 6], [0, 2]))
    store.upsert_rows([store.table.intern("b")], [2], [0.4], [0.1], [3], packed)
    assert not store.is_pure
    assert store.synopsis_at(1) == wide.build([5, 6])
    assert store.synopsis_column.params == (64, 5, 0)


def test_empty_batch_changes_nothing():
    store = TermColumns("t", PeerIdTable())
    before = pickle.dumps(store)
    assert store.upsert_rows([], [], [], [], [], []) == []
    assert pickle.dumps(store) == before
