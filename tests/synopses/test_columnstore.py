"""The packed column store: round-trips, invariants, and bit-identical
routing plans against the naive oracle.

The columnar representation is only admissible because it is *exact*:
``materialize(pack(s)) == s`` for every family, and a routing plan
computed from the stored matrices equals — float for float — the plan
the naive loop computes from per-peer synopsis objects.  These tests
pin both properties.
"""

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import PerPeerAggregation, PerTermAggregation
from repro.core.fastpath import column_rank_detailed
from repro.core.iqn import IQNRouter
from repro.core.stopping import MaxPeers
from repro.datasets.queries import Query
from repro.minerva.posts import PeerList, Post
from repro.routing.base import LocalView, RoutingContext
from repro.synopses.bloom import BloomFilter
from repro.synopses.columnstore import (
    BloomColumn,
    HashSketchColumn,
    LogLogColumn,
    MipsColumn,
    PeerIdTable,
    TermColumns,
    column_for,
)
from repro.synopses.factory import SynopsisSpec
from repro.synopses.hashsketch import HashSketch
from repro.synopses.histogram import ScoreHistogramSynopsis
from repro.synopses.loglog import LogLogCounter
from repro.synopses.mips import MinWisePermutations

id_sets = st.sets(st.integers(min_value=0, max_value=1 << 40), max_size=200)

FAMILIES = {
    "bloom": lambda ids: BloomFilter.from_ids(ids, num_bits=512, num_hashes=4),
    "mips": lambda ids: MinWisePermutations.from_ids(ids, num_permutations=32),
    "hash-sketch": lambda ids: HashSketch.from_ids(
        ids, num_bitmaps=16, bitmap_length=32
    ),
    "loglog": lambda ids: LogLogCounter.from_ids(ids, num_buckets=32),
}


class TestPeerIdTable:
    def test_intern_is_stable_and_lookup_inverts(self):
        table = PeerIdTable()
        a = table.intern("peer-a")
        b = table.intern("peer-b")
        assert a != b
        assert table.intern("peer-a") == a
        assert table.lookup("peer-b") == b
        assert table.lookup("peer-zzz") is None
        assert table.name(a) == "peer-a"
        assert len(table) == 2

    def test_name_ranks_track_growth(self):
        table = PeerIdTable()
        table.intern("x")
        first = table.name_ranks()
        assert first.tolist() == [0]
        assert table.name_ranks() is first  # cached
        # A name sorting first re-ranks every earlier name.  A trailing
        # NUL keeps a name distinct from its prefix and sorts after it.
        for name in ("y", "x\x00", ""):
            table.intern(name)
        names = ["x", "y", "x\x00", ""]
        ranks = table.name_ranks()
        assert ranks is not first
        assert [names[i] for i in np.argsort(ranks)] == sorted(names)
        assert table.names_at_ranks(np.arange(4)) == sorted(names)
        assert table.names(np.array([2, 0])) == ["x\x00", "x"]

    def test_pickle_round_trip(self):
        table = PeerIdTable()
        for name in ("c", "a", "b"):
            table.intern(name)
        clone = pickle.loads(pickle.dumps(table))
        assert len(clone) == 3
        assert clone.lookup("a") == table.lookup("a")
        assert clone.names(np.arange(3)) == table.names(np.arange(3))
        assert clone.name_ranks().tolist() == table.name_ranks().tolist()


class TestPackRoundTrip:
    """materialize(pack(s)) == s, bit for bit, for every family."""

    @given(id_sets)
    @settings(max_examples=40)
    def test_bloom(self, ids):
        synopsis = FAMILIES["bloom"](ids)
        column = column_for(synopsis)
        assert isinstance(column, BloomColumn)
        column.set_row(0, synopsis)
        assert column.materialize(0) == synopsis

    @given(id_sets)
    @settings(max_examples=40)
    def test_mips(self, ids):
        synopsis = FAMILIES["mips"](ids)
        column = column_for(synopsis)
        assert isinstance(column, MipsColumn)
        column.set_row(0, synopsis)
        assert column.materialize(0) == synopsis

    @given(id_sets)
    @settings(max_examples=40)
    def test_hash_sketch(self, ids):
        synopsis = FAMILIES["hash-sketch"](ids)
        column = column_for(synopsis)
        assert isinstance(column, HashSketchColumn)
        column.set_row(0, synopsis)
        assert column.materialize(0) == synopsis

    @given(id_sets)
    @settings(max_examples=40)
    def test_loglog(self, ids):
        synopsis = FAMILIES["loglog"](ids)
        column = column_for(synopsis)
        assert isinstance(column, LogLogColumn)
        column.set_row(0, synopsis)
        assert column.materialize(0) == synopsis

    def test_wide_sketch_bitmaps_are_not_packable(self):
        class Wide(HashSketch):
            pass

        base = HashSketch.from_ids([1, 2], num_bitmaps=4, bitmap_length=64)
        assert column_for(base) is not None
        subclassed = Wide(4, 64, 0, list(base.bitmaps))
        assert column_for(subclassed) is None

    def test_neutral_rows_materialize_as_empty(self):
        empty = FAMILIES["mips"](set())
        column = column_for(FAMILIES["mips"]({1, 2, 3}))
        assert column is not None
        assert column.materialize(0) == empty  # untouched row


class TestTermColumns:
    def make(self):
        return TermColumns("alpha", PeerIdTable())

    def post_args(self, peer, cdf, synopsis=None):
        return (peer, cdf, float(cdf), cdf / 2.0, 1000, synopsis, None)

    def test_upsert_overwrites_in_place(self):
        columns = self.make()
        row = columns.upsert(*self.post_args("p1", 10))
        assert columns.upsert(*self.post_args("p1", 25)) == row
        assert len(columns) == 1
        assert columns.cdf_values().tolist() == [25]

    def test_remove_swaps_last_and_clears_vacated(self):
        columns = self.make()
        synopsis = FAMILIES["bloom"]({1, 2, 3})
        for peer in ("p1", "p2", "p3"):
            columns.upsert(*self.post_args(peer, 5, synopsis))
        assert columns.remove("p1")
        assert len(columns) == 2
        survivors = {
            columns.table.name(i) for i in columns.interned_ids().tolist()
        }
        assert survivors == {"p2", "p3"}
        # The vacated physical slot holds neutral payloads.
        column = columns.synopsis_column
        assert column is not None
        assert not column._matrix[2].any()
        assert not columns.remove("p1")
        assert not columns.remove("ghost")

    def test_rows_stay_dense_after_removal(self):
        columns = self.make()
        for index in range(10):
            columns.upsert(*self.post_args(f"p{index}", index + 1))
        for peer in ("p0", "p5", "p9"):
            columns.remove(peer)
        assert len(columns) == 7
        interned = columns.interned_ids()
        for position, value in enumerate(interned.tolist()):
            assert columns.row_for(value) == position

    def test_quality_order_matches_sorted_and_is_cached(self):
        columns = self.make()
        rng = random.Random(11)
        posts = []
        for index in range(30):
            peer = f"p{index:02d}"
            cdf = rng.randrange(1, 50)
            max_score = rng.choice([0.5, 1.0, 1.5])  # force score ties
            columns.upsert(peer, cdf, max_score, 0.1, 100, None, None)
            posts.append((max_score, cdf, peer))
        order = columns.quality_order()
        assert columns.quality_order() is order  # cached
        expected = sorted(posts, reverse=True)
        names = columns.table.names(columns.interned_ids())
        got = [
            (
                float(columns.max_scores()[row]),
                int(columns.cdf_values()[row]),
                names[row],
            )
            for row in order.tolist()
        ]
        assert got == expected
        columns.upsert(*self.post_args("zz", 99))
        assert columns.quality_order() is not order  # invalidated

    def test_quality_order_survives_table_growth(self):
        table = PeerIdTable()
        columns = TermColumns("alpha", table)
        for peer in ("p2", "p1\x00", "p1"):
            columns.upsert(peer, 1, 1.0, 0.5, 10, None, None)
        order = columns.quality_order()
        names = columns.table.names(columns.interned_ids())
        assert [names[row] for row in order.tolist()] == ["p2", "p1\x00", "p1"]
        # Another term interns a name that sorts first: the table
        # re-ranks, but the cached order keeps these names' relative
        # order and stays valid.
        table.intern("a")
        assert columns.quality_order() is order
        ranks = table.name_ranks()[columns.interned_ids()]
        assert np.lexsort((ranks, columns.cdf_values(), columns.max_scores()))[
            ::-1
        ].tolist() == order.tolist()

    def test_foreign_synopsis_breaks_purity(self):
        columns = self.make()
        columns.upsert(*self.post_args("p1", 5, FAMILIES["bloom"]({1})))
        assert columns.is_pure
        other_params = BloomFilter.from_ids({2}, num_bits=256, num_hashes=2)
        columns.upsert(*self.post_args("p2", 5, other_params))
        assert not columns.is_pure
        assert columns.synopsis_at(1) == other_params

    def test_pickle_round_trip_preserves_content(self):
        columns = self.make()
        synopsis = FAMILIES["mips"]({1, 2, 3})
        columns.upsert(*self.post_args("p1", 7, synopsis))
        clone = pickle.loads(pickle.dumps(columns))
        assert len(clone) == 1
        assert clone.synopsis_at(0) == synopsis
        assert clone.post_fields(0)[:2] == ("p1", 7)


#: Per family: the same family at other parameters, which the column
#: built for ``FAMILIES`` cannot hold (the row goes foreign).
OTHER_PARAMS = {
    "bloom": lambda ids: BloomFilter.from_ids(ids, num_bits=256, num_hashes=2),
    "mips": lambda ids: MinWisePermutations.from_ids(ids, num_permutations=16),
    "hash-sketch": lambda ids: HashSketch.from_ids(
        ids, num_bitmaps=8, bitmap_length=32
    ),
    "loglog": lambda ids: LogLogCounter.from_ids(ids, num_buckets=16),
}

HISTOGRAM_SPEC = SynopsisSpec.parse("mips-8")

#: One posting: synopsis kind, doc ids, with a histogram, cdf, scores.
postings = st.tuples(
    st.sampled_from(["packed", "packed", "foreign", "none"]),
    st.sets(st.integers(min_value=0, max_value=500), min_size=1, max_size=30),
    st.booleans(),
    st.integers(min_value=0, max_value=1000),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)


def make_post(peer, term, family, posting):
    kind, ids, with_histogram, cdf, score = posting
    synopsis = None
    if kind == "packed":
        synopsis = FAMILIES[family](ids)
    elif kind == "foreign":
        synopsis = OTHER_PARAMS[family](ids)
    histogram = None
    if with_histogram:
        histogram = ScoreHistogramSynopsis.from_scored_ids(
            [(doc, (doc % 10) / 10) for doc in ids], spec=HISTOGRAM_SPEC
        )
    return Post(
        peer_id=peer,
        term=term,
        cdf=cdf,
        max_score=score,
        avg_score=score / 2,
        term_space_size=len(ids),
        synopsis=synopsis,
        histogram=histogram,
    )


class TestFromRows:
    """Gathering stored rows equals upserting the same posts in order."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @given(
        first=st.lists(postings, min_size=1, max_size=10),
        second=st.lists(postings, max_size=10),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_the_upserted_list(self, family, first, second, data):
        table = PeerIdTable()
        sources = []
        for prefix, entries in (("a", first), ("b", second)):
            source = PeerList(term="t", peer_table=table)
            # Both sources hold the family's column, as a stored list does:
            # the first synopsis a list stores fixes its column.
            entries = [("packed", *entry[1:]) for entry in entries[:1]] + entries[1:]
            for index, posting in enumerate(entries):
                source.add(make_post(f"{prefix}{index}", "t", family, posting))
            sources.append(source)
        a, b = sources
        order_a = data.draw(st.permutations(range(len(a))))
        order_b = data.draw(st.permutations(range(len(b))))
        cut = data.draw(st.integers(min_value=0, max_value=len(order_a)))
        taken_b = data.draw(st.integers(min_value=0, max_value=len(order_b)))
        chosen = [
            (a, order_a[:cut]),
            (b, order_b[:taken_b]),
            (a, order_a[cut:][: data.draw(st.integers(0, len(a) - cut))]),
        ]
        parts = [(src, np.array(rows, dtype=np.int64)) for src, rows in chosen]
        gathered = PeerList.from_rows("t", table, parts)

        posts = [src._post_at(row) for src, rows in chosen for row in rows]
        upserted = PeerList(term="t", peer_table=table)
        for post in posts:
            upserted.add(post)

        assert list(gathered) == posts == list(upserted)
        assert gathered.size_in_bits == upserted.size_in_bits
        assert gathered.size_in_bits == sum(post.size_in_bits for post in posts)
        columns = gathered.columns
        assert columns.table is table
        for src, rows in chosen:
            for row in rows:
                peer = src.columns.interned_ids()[row]
                assert (peer in columns._foreign) == (peer in src.columns._foreign)
        if a.columns.synopsis_column is not None:
            column = columns.synopsis_column
            assert type(column) is type(a.columns.synopsis_column)
            assert column.params == a.columns.synopsis_column.params
            spare = column._matrix[len(gathered):]
            assert (spare == column.neutral).all()
        clone = pickle.loads(pickle.dumps(gathered))
        assert list(clone) == posts
        assert clone.size_in_bits == gathered.size_in_bits

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @given(entries=st.lists(postings, max_size=12), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_row_bits_equal_the_gathered_size(self, family, entries, data):
        # Foreign synopses, histograms and rows without a synopsis, in a
        # list with or without a packed column; any selection, empty too.
        table = PeerIdTable()
        source = PeerList(term="t", peer_table=table)
        for index, posting in enumerate(entries):
            source.add(make_post(f"p{index}", "t", family, posting))
        order = data.draw(st.permutations(range(len(source))))
        taken = data.draw(st.integers(min_value=0, max_value=len(order)))
        for rows in (order[:taken], []):
            rows = np.array(rows, dtype=np.int64)
            gathered = PeerList.from_rows("t", table, [(source, rows)])
            assert source.rows_size_in_bits(rows) == gathered.size_in_bits
        assert source.size_in_bits == sum(post.size_in_bits for post in source)

    def test_empty_parts_give_an_empty_list(self):
        table = PeerIdTable()
        gathered = PeerList.from_rows("t", table, [])
        assert len(gathered) == 0 and gathered.size_in_bits == 0
        assert gathered.columns.table is table

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_mismatched_columns_raise(self, family):
        table = PeerIdTable()
        a = PeerList(term="t", peer_table=table)
        b = PeerList(term="t", peer_table=table)
        a.add(make_post("a0", "t", family, ("packed", {1}, False, 1, 1.0)))
        b.add(make_post("b0", "t", family, ("foreign", {2}, False, 1, 1.0)))
        whole = np.arange(1, dtype=np.int64)
        with pytest.raises(ValueError, match="cannot concatenate"):
            PeerList.from_rows("t", table, [(a, whole), (b, whole)])

    def test_a_source_without_column_adds_neutral_rows(self):
        table = PeerIdTable()
        a = PeerList(term="t", peer_table=table)
        b = PeerList(term="t", peer_table=table)
        a.add(make_post("a0", "t", "bloom", ("none", {1}, False, 1, 1.0)))
        b.add(make_post("b0", "t", "bloom", ("packed", {2}, True, 1, 1.0)))
        assert a.columns.synopsis_column is None
        whole = np.arange(1, dtype=np.int64)
        gathered = PeerList.from_rows("t", table, [(a, whole), (b, whole)])
        assert list(gathered) == [a.get("a0"), b.get("b0")]
        assert gathered.columns.synopsis_flags().tolist() == [False, True]
        assert gathered.columns.is_pure

    def test_mixed_families_raise(self):
        table = PeerIdTable()
        a = PeerList(term="t", peer_table=table)
        b = PeerList(term="t", peer_table=table)
        a.add(make_post("a0", "t", "bloom", ("packed", {1}, False, 1, 1.0)))
        b.add(make_post("b0", "t", "mips", ("packed", {2}, False, 1, 1.0)))
        whole = np.arange(1, dtype=np.int64)
        with pytest.raises(ValueError, match="cannot concatenate"):
            PeerList.from_rows("t", table, [(a, whole), (b, whole)])

    def test_a_peer_may_appear_once(self):
        table = PeerIdTable()
        a = PeerList(term="t", peer_table=table)
        a.add(make_post("a0", "t", "bloom", ("packed", {1}, False, 1, 1.0)))
        twice = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError, match="appears twice"):
            PeerList.from_rows("t", table, [(a, twice)])


def seeded_lists(spec, *, peers=50, terms=("alpha", "beta", "gamma"), seed=42):
    """One directory snapshot on a shared peer table and one equal copy
    whose lists each keep a private table and the caller's objects."""
    rng = random.Random(seed)
    table = PeerIdTable()
    shared = {t: PeerList(term=t, peer_table=table) for t in terms}
    posts_by_term = {t: [] for t in terms}
    for index in range(peers):
        peer = f"peer-{index:03d}"
        for term in terms:
            if rng.random() < 0.75:
                docs = frozenset(
                    rng.randrange(20000)
                    for _ in range(rng.randrange(1, 100))
                )
                posts_by_term[term].append(
                    Post(
                        peer_id=peer,
                        term=term,
                        cdf=len(docs),
                        max_score=rng.random(),
                        avg_score=rng.random() / 2,
                        term_space_size=rng.randrange(100, 9000),
                        synopsis=spec.build(docs),
                    )
                )
    for term in terms:
        for post in posts_by_term[term]:
            shared[term].add(post)
    # Same content on per-list private tables: the column view cannot
    # attach (tables differ), so routing runs the naive loop over the
    # caller's Post objects.
    private = {t: PeerList(term=t) for t in terms}
    for term in terms:
        for post in posts_by_term[term]:
            private[term].add(post)
    return shared, private


def make_context(lists, spec, *, conjunctive=False, peers=50):
    terms = tuple(lists)
    initiator = LocalView(
        peer_id="peer-000",
        result_doc_ids=frozenset(range(60)),
        doc_ids_by_term={t: frozenset(range(40)) for t in terms},
    )
    return RoutingContext(
        query=Query(query_id=1, terms=terms),
        peer_lists=lists,
        num_peers=peers,
        spec=spec,
        initiator=initiator,
        conjunctive=conjunctive,
    )


SPECS = [
    SynopsisSpec(kind="bloom", parameter=1024, seed=7),
    SynopsisSpec(kind="mips", parameter=64, seed=7),
    SynopsisSpec(kind="hash-sketch", parameter=32, seed=7),
    SynopsisSpec(kind="loglog", parameter=64, seed=7),
]


def plan_rows(plan):
    return [(s.peer_id, s.quality, s.novelty) for s in plan]


class TestBitIdenticalRouting:
    """Column-backed plans equal the naive oracle's plans exactly."""

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    @pytest.mark.parametrize("conjunctive", [False, True], ids=["disj", "conj"])
    @pytest.mark.parametrize(
        "make_aggregation",
        [PerPeerAggregation, PerTermAggregation],
        ids=["perpeer", "perterm"],
    )
    def test_three_tiers_agree(self, spec, conjunctive, make_aggregation):
        # The kernels over the packed columns, the oracle over synopses
        # decoded from those columns, and the oracle over the caller's
        # objects as built all produce one plan.
        shared, private = seeded_lists(spec)
        columnar_router = IQNRouter(make_aggregation())
        columnar = columnar_router.rank_detailed(
            make_context(shared, spec, conjunctive=conjunctive), 12
        )
        assert columnar_router.last_stats is not None
        assert columnar_router.last_stats.mode == "incremental"
        naive_router = IQNRouter(make_aggregation(), fast_path=False)
        naive = naive_router.rank_detailed(
            make_context(shared, spec, conjunctive=conjunctive), 12
        )
        assert naive_router.last_stats is not None
        assert naive_router.last_stats.mode == "naive"
        object_plan = IQNRouter(make_aggregation(), fast_path=False).rank_detailed(
            make_context(private, spec, conjunctive=conjunctive), 12
        )
        assert plan_rows(columnar) == plan_rows(naive) == plan_rows(object_plan)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_novelty_only_ranking_agrees(self, spec):
        shared, _ = seeded_lists(spec, seed=9)
        columnar = IQNRouter(quality_weighted=False).rank_detailed(
            make_context(shared, spec), 8
        )
        naive = IQNRouter(quality_weighted=False, fast_path=False).rank_detailed(
            make_context(shared, spec), 8
        )
        assert plan_rows(columnar) == plan_rows(naive)

    def test_stats_counters_match_the_oracle(self):
        spec = SPECS[0]
        shared, _ = seeded_lists(spec, seed=3)
        columnar_router = IQNRouter()
        columnar_router.rank_detailed(make_context(shared, spec), 10)
        naive_router = IQNRouter(fast_path=False)
        naive_router.rank_detailed(make_context(shared, spec), 10)
        columnar_stats = columnar_router.last_stats
        naive_stats = naive_router.last_stats
        assert columnar_stats is not None and naive_stats is not None
        assert columnar_stats.mode == "incremental"
        assert columnar_stats.candidates == naive_stats.candidates
        assert columnar_stats.rounds == naive_stats.rounds
        assert columnar_stats.naive_evaluations == naive_stats.naive_evaluations
        assert (
            columnar_stats.novelty_evaluations
            < naive_stats.novelty_evaluations
        )

    def test_private_table_context_routes_naive(self):
        # Lists on different peer tables are no directory's; the column
        # view refuses them and the router runs the oracle directly.
        spec = SPECS[1]
        shared, private = seeded_lists(spec, seed=5)
        columnar_router = IQNRouter()
        columnar = columnar_router.rank_detailed(make_context(shared, spec), 10)
        private_router = IQNRouter()
        fallback = private_router.rank_detailed(make_context(private, spec), 10)
        assert columnar_router.last_stats.mode == "incremental"
        assert private_router.last_stats.mode == "naive"
        assert plan_rows(fallback) == plan_rows(columnar)

    def test_empty_directory_routes_empty_via_columns(self):
        spec = SPECS[0]
        table = PeerIdTable()
        lists = {
            t: PeerList(term=t, peer_table=table) for t in ("alpha", "beta")
        }
        plan, stats = column_rank_detailed(
            make_context(lists, spec), PerPeerAggregation(), MaxPeers(5), 5
        )
        assert plan == []
        assert stats.mode == "empty"
        router = IQNRouter()
        assert router.rank_detailed(make_context(lists, spec), 5) == []
        assert router.last_stats is not None
        assert router.last_stats.mode == "empty"
