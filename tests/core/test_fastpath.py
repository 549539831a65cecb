"""Tests for the vectorized routing kernels.

The contract is strict: for every supported configuration the kernels
over the directory's packed columns must produce plans *bit-identical*
to the naive Select-Best-Peer loop — same peers in the same order with
equal quality and novelty floats — while never performing more novelty
evaluations than the naive loop (plus the one absorb-time recompute per
round).  Unsupported configurations must fall back to the naive loop
transparently.
"""

import builtins
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import PerPeerAggregation, PerTermAggregation
from repro.core.correlations import CorrelationAwarePerTerm
from repro.core.fastpath import (
    FastPathUnsupported,
    RoutingStats,
    _BloomColumn,
    _matrix_cardinalities,
    _MipsColumn,
    _run_incremental,
    column_rank_detailed,
    tie_break_order,
)
from repro.core.histogram_routing import HistogramAggregation
from repro.core.iqn import IQNRouter
from repro.core.stopping import AnyOf, CoverageTarget, MaxPeers, MinimumNoveltyGain
from repro.datasets.queries import Query
from repro.minerva.posts import PeerList, Post
from repro.routing.base import LocalView, RoutingContext
from repro.synopses.bloom import (
    BloomFilter,
    batch_difference_popcounts,
    cardinality_from_popcount,
    pack_bit_row,
)
from repro.synopses.columnstore import PeerIdTable
from repro.synopses.factory import SynopsisSpec
from repro.synopses.mips import (
    MinWisePermutations,
    batch_match_counts,
    pack_minima_row,
)

SPEC_LABELS = ("mips-32", "bf-1024", "hs-16", "ll-64")
AGGREGATIONS = (PerPeerAggregation, PerTermAggregation)
AGGREGATION_IDS = ("peer", "term")
#: How the posts are stored: "obj" keeps the caller's Post objects, so
#: the oracle scores the synopses as built; "col" keeps only the packed
#: columns, so the oracle scores synopses decoded from them.  The
#: kernels read the columns either way.
STORE_IDS = ("obj", "col")
TERMS = ("apple", "pear")


@pytest.fixture
def correctly_rounded_sum(monkeypatch):
    """Install a ``sum`` whose float totals are correctly rounded.

    From Python 3.12 the builtin ``sum`` compensates float rounding, so
    its totals can differ in the last bits from the kernels' left-to-
    right numpy additions.  Under this stand-in (``math.fsum`` for any
    sum with a float in it) an oracle that adds floats with ``sum()``
    diverges from the kernels on every Python version, not just 3.12+.
    """
    original = builtins.sum

    def fsum_when_floats(iterable, /, start=0):
        items = [start, *iterable]
        numeric = all(type(x) in (int, float, bool) for x in items)
        if numeric and any(type(x) is float for x in items):
            return math.fsum(items)
        return original(items[1:], start)

    monkeypatch.setattr(builtins, "sum", fsum_when_floats)


def make_context(
    seed,
    *,
    spec_label="mips-32",
    conjunctive=False,
    num_peers=30,
    universe=2500,
    terms=TERMS,
    retain=True,
):
    """A synthetic directory snapshot with clustered, overlapping peers.

    Peers draw most documents from a per-peer hot region plus a uniform
    tail, so collections overlap heavily — the regime where the
    reference-synopsis discount actually reorders the plan and any
    divergence between the two implementations would surface.  The
    lists share one interned peer table, as a directory's do, so the
    kernels attach to the packed columns; ``retain`` is passed to
    ``PeerList.add`` (see ``STORE_IDS``).
    """
    rng = random.Random(seed)
    spec = SynopsisSpec.parse(spec_label)
    table = PeerIdTable()
    peer_lists = {term: PeerList(term=term, peer_table=table) for term in terms}
    for i in range(num_peers):
        peer_id = f"p{i:03d}"
        base = rng.randrange(0, universe)
        size = rng.randrange(10, 200)
        doc_ids = set()
        for _ in range(size):
            if rng.random() < 0.6:
                doc_ids.add((base + rng.randrange(0, 250)) % universe)
            else:
                doc_ids.add(rng.randrange(0, universe))
        for term in terms:
            if rng.random() < 0.85:
                term_ids = {d for d in doc_ids if rng.random() < 0.7}
                if not term_ids:
                    continue
                peer_lists[term].add(
                    Post(
                        peer_id=peer_id,
                        term=term,
                        cdf=len(term_ids),
                        max_score=rng.random(),
                        avg_score=rng.random() / 2,
                        term_space_size=rng.randrange(50, 400),
                        synopsis=spec.build(term_ids),
                    ),
                    retain=retain,
                )
    seed_ids = frozenset(rng.randrange(0, universe) for _ in range(80))
    initiator = LocalView(
        peer_id="me",
        result_doc_ids=seed_ids,
        doc_ids_by_term={
            term: frozenset(x for x in seed_ids if rng.random() < 0.6)
            for term in terms
        },
    )
    return RoutingContext(
        query=Query(0, terms),
        peer_lists=peer_lists,
        num_peers=num_peers + 1,
        spec=spec,
        initiator=initiator,
        conjunctive=conjunctive,
    )


def plan_rows(selections):
    return [(s.peer_id, s.quality, s.novelty) for s in selections]


def rank_both(context_args, router_args, max_peers=10):
    """Rank the same scenario with the naive loop and the fast path."""
    naive = IQNRouter(fast_path=False, **router_args)
    fast = IQNRouter(**router_args)
    plan_naive = naive.rank_detailed(make_context(**context_args), max_peers)
    plan_fast = fast.rank_detailed(make_context(**context_args), max_peers)
    return plan_naive, plan_fast, naive.last_stats, fast.last_stats


class TestPlanEquivalence:
    """Fast plans must equal naive plans bit for bit."""

    @pytest.mark.parametrize("spec_label", SPEC_LABELS)
    @pytest.mark.parametrize("aggregation_cls", AGGREGATIONS)
    @pytest.mark.parametrize("conjunctive", (False, True))
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_matrix(self, spec_label, aggregation_cls, conjunctive, seed):
        plan_naive, plan_fast, _, fast_stats = rank_both(
            dict(seed=seed, spec_label=spec_label, conjunctive=conjunctive),
            dict(aggregation=aggregation_cls()),
        )
        assert plan_rows(plan_fast) == plan_rows(plan_naive)
        assert fast_stats.mode == "incremental"

    @pytest.mark.parametrize("spec_label", SPEC_LABELS)
    def test_novelty_only_ranking(self, spec_label):
        plan_naive, plan_fast, _, _ = rank_both(
            dict(seed=3, spec_label=spec_label),
            dict(quality_weighted=False),
        )
        assert plan_rows(plan_fast) == plan_rows(plan_naive)

    @pytest.mark.parametrize(
        "stopping",
        [
            CoverageTarget(300.0),
            MinimumNoveltyGain(5.0),
            AnyOf(MaxPeers(4), MinimumNoveltyGain(2.0)),
        ],
        ids=lambda s: type(s).__name__,
    )
    @pytest.mark.parametrize("spec_label", ("bf-1024", "mips-32"))
    def test_stopping_criteria(self, stopping, spec_label):
        plan_naive, plan_fast, _, _ = rank_both(
            dict(seed=4, spec_label=spec_label),
            dict(stopping=stopping),
        )
        assert plan_rows(plan_fast) == plan_rows(plan_naive)

    @pytest.mark.parametrize("spec_label", SPEC_LABELS)
    def test_single_term_query(self, spec_label):
        plan_naive, plan_fast, _, _ = rank_both(
            dict(seed=5, spec_label=spec_label, terms=("apple",)),
            dict(aggregation=PerTermAggregation()),
        )
        assert plan_rows(plan_fast) == plan_rows(plan_naive)

    @pytest.mark.parametrize("max_peers", (1, 3, 30))
    def test_plan_length_sweep(self, max_peers):
        plan_naive, plan_fast, _, _ = rank_both(
            dict(seed=6, spec_label="bf-1024"),
            dict(),
            max_peers=max_peers,
        )
        assert plan_rows(plan_fast) == plan_rows(plan_naive)

    def test_no_initiator(self):
        context_naive = make_context(7)
        context_fast = make_context(7)
        context_naive = RoutingContext(
            query=context_naive.query,
            peer_lists=context_naive.peer_lists,
            num_peers=context_naive.num_peers,
            spec=context_naive.spec,
            initiator=None,
        )
        context_fast = RoutingContext(
            query=context_fast.query,
            peer_lists=context_fast.peer_lists,
            num_peers=context_fast.num_peers,
            spec=context_fast.spec,
            initiator=None,
        )
        naive = IQNRouter(fast_path=False)
        fast = IQNRouter()
        assert plan_rows(fast.rank_detailed(context_fast, 8)) == plan_rows(
            naive.rank_detailed(context_naive, 8)
        )


class TestFallback:
    """Unsupported configurations transparently use the naive loop."""

    def test_unknown_strategy_falls_back(self):
        class ConstantNovelty(PerPeerAggregation):
            # Not PerPeerAggregation *exactly*, so no fast path applies.
            def novelty(self, state, candidate):
                return 1.0

        context = make_context(0, spec_label="mips-32")
        router = IQNRouter(ConstantNovelty())
        plan = router.rank(context, 5)
        assert router.last_stats.mode == "naive"
        assert len(plan) == 5

    def test_correlation_aware_falls_back(self):
        context = make_context(0, spec_label="mips-32")
        router = IQNRouter(CorrelationAwarePerTerm())
        router.rank(context, 5)
        assert router.last_stats.mode == "naive"

    def test_correlation_aware_matches_its_naive_self(self):
        # Subclasses of supported strategies must not silently get the
        # parent's fast path: their overridden novelty would be ignored.
        plan_naive, plan_fast, _, fast_stats = rank_both(
            dict(seed=1, spec_label="mips-32"),
            dict(aggregation=CorrelationAwarePerTerm()),
        )
        assert fast_stats.mode == "naive"
        assert plan_rows(plan_fast) == plan_rows(plan_naive)

    def test_column_rank_detailed_raises_for_unknown_strategy(self):
        context = make_context(0)
        with pytest.raises(FastPathUnsupported):
            column_rank_detailed(context, HistogramAggregation(), MaxPeers(5), 5)

    def test_mixed_synopsis_parameters_fall_back(self):
        context = make_context(8, spec_label="mips-32")
        other_spec = SynopsisSpec.parse("mips-16")
        term = TERMS[0]
        peer_list = context.peer_lists[term]
        post = next(iter(peer_list.posts.values()))
        peer_list.add(
            Post(
                peer_id=post.peer_id,
                term=term,
                cdf=post.cdf,
                max_score=post.max_score,
                avg_score=post.avg_score,
                term_space_size=post.term_space_size,
                synopsis=other_spec.build(range(10)),
            )
        )
        router = IQNRouter()
        plan = router.rank(context, 5)
        assert router.last_stats.mode == "naive"
        assert plan  # the naive loop still ranks the mixed directory

    def test_fast_path_disabled_by_flag(self):
        context = make_context(0, spec_label="bf-1024")
        router = IQNRouter(fast_path=False)
        router.rank(context, 5)
        assert router.last_stats.mode == "naive"


class TestRoutingStats:
    def test_modes_by_family(self):
        for spec_label, expected in [
            ("bf-1024", "incremental"),
            ("mips-32", "incremental"),
            ("hs-16", "incremental"),
            ("ll-64", "incremental"),
        ]:
            router = IQNRouter()
            router.rank(make_context(0, spec_label=spec_label), 5)
            assert router.last_stats.mode == expected, spec_label

    def test_empty_candidates(self):
        context = RoutingContext(
            query=Query(0, ("apple",)),
            peer_lists={"apple": PeerList(term="apple")},
            num_peers=3,
            spec=SynopsisSpec.parse("mips-8"),
        )
        router = IQNRouter()
        assert router.rank_detailed(context, 5) == []
        assert router.last_stats.mode == "empty"
        assert router.last_stats.candidates == 0

    @pytest.mark.parametrize("retain", (True, False), ids=STORE_IDS)
    @pytest.mark.parametrize("aggregation_cls", AGGREGATIONS, ids=AGGREGATION_IDS)
    @pytest.mark.parametrize("spec_label", SPEC_LABELS)
    def test_evals_within_naive_plus_rounds(
        self, spec_label, aggregation_cls, retain
    ):
        # The driver scores every candidate once, then re-evaluates only
        # rows the last absorb touched, plus one absorb-time recompute
        # per round: never more than the naive loop's work + rounds.
        args = dict(
            seed=10,
            spec_label=spec_label,
            num_peers=80,
            universe=8000,
            retain=retain,
        )
        naive = IQNRouter(aggregation_cls(), fast_path=False)
        fast = IQNRouter(aggregation_cls())
        naive.rank(make_context(**args), 25)
        fast.rank(make_context(**args), 25)
        stats = fast.last_stats
        assert stats.mode == "incremental"
        assert stats.rounds == naive.last_stats.rounds
        # Both report the same hypothetical naive workload.
        assert stats.naive_evaluations == naive.last_stats.naive_evaluations
        assert stats.novelty_evaluations <= stats.naive_evaluations + stats.rounds

    def test_incremental_counts_touched_rows(self):
        naive = IQNRouter(fast_path=False)
        fast = IQNRouter()
        args = dict(seed=10, spec_label="mips-32", num_peers=80, universe=8000)
        naive.rank(make_context(**args), 25)
        fast.rank(make_context(**args), 25)
        assert fast.last_stats.mode == "incremental"
        assert (
            fast.last_stats.novelty_evaluations
            < naive.last_stats.novelty_evaluations
        )

    def test_naive_stats_shape(self):
        router = IQNRouter(fast_path=False)
        context = make_context(0)
        plan = router.rank_detailed(context, 5)
        stats = router.last_stats
        assert stats.mode == "naive"
        assert stats.candidates == len(context.candidates())
        assert stats.rounds == len(plan)
        assert stats.novelty_evaluations == stats.naive_evaluations
        assert stats.evaluation_savings == 1.0

    def test_savings_defined_without_evaluations(self):
        assert RoutingStats(mode="empty").evaluation_savings == 1.0


class TestBloomTier:
    """Bloom runs on the shared exact-invalidation driver."""

    @pytest.mark.parametrize("retain", (True, False), ids=STORE_IDS)
    @pytest.mark.parametrize("aggregation_cls", AGGREGATIONS, ids=AGGREGATION_IDS)
    @pytest.mark.parametrize("conjunctive", (False, True), ids=["disj", "conj"])
    @pytest.mark.parametrize("seed", (11, 12))
    def test_plans_bit_identical_to_naive(
        self, seed, conjunctive, aggregation_cls, retain
    ):
        args = dict(
            seed=seed,
            spec_label="bf-1024",
            conjunctive=conjunctive,
            num_peers=60,
            terms=("apple", "pear", "plum"),
            retain=retain,
        )
        naive = IQNRouter(aggregation_cls(), fast_path=False)
        fast = IQNRouter(aggregation_cls())
        plan_naive = naive.rank_detailed(make_context(**args), 20)
        plan_fast = fast.rank_detailed(make_context(**args), 20)
        assert plan_rows(plan_fast) == plan_rows(plan_naive)
        assert fast.last_stats.mode == "incremental"

    id_sets = st.sets(st.integers(min_value=0, max_value=3_000), max_size=120)

    @given(
        st.lists(st.tuples(id_sets, st.booleans()), min_size=1, max_size=12),
        id_sets,
        st.lists(id_sets, min_size=1, max_size=6),
    )
    @settings(max_examples=60)
    def test_refresh_mask_is_exactly_the_changed_rows(
        self, candidates, seed_ids, absorbed
    ):
        def build(ids):
            return BloomFilter.from_ids(ids, num_bits=256, num_hashes=3)

        synopses = [build(ids) for ids, _ in candidates]
        active = np.array([ok for _, ok in candidates], dtype=bool)
        cards = [float(len(ids)) for ids, _ in candidates]
        reference = build(seed_ids)
        # Word-major: column ``i`` is candidate ``i``'s filter.
        words = np.stack([pack_bit_row(s.raw_bits, 256) for s in synopses], axis=1)
        column = _BloomColumn(words, cards, active, reference)

        def popcounts(ref):
            return [(s.raw_bits & ~ref.raw_bits).bit_count() for s in synopses]

        for ids in absorbed:
            before = popcounts(reference)
            reference = reference.union(build(ids))
            after = popcounts(reference)
            mask = column.refresh_reference(pack_bit_row(reference.raw_bits, 256))
            expected = [
                bool(ok) and old != new
                for ok, old, new in zip(active, before, after)
            ]
            assert mask.tolist() == expected
            novelty = column.rescore(0.0)
            for index, (ok, count) in enumerate(zip(active, after)):
                scalar = min(
                    max(0.0, cardinality_from_popcount(count, 256, 3)),
                    cards[index],
                )
                assert novelty[index] == (scalar if ok else 0.0)


class TestIncrementalStatistics:
    """Each refresh keeps the cached statistics equal to a recount."""

    id_sets = st.sets(st.integers(min_value=0, max_value=80), max_size=40)
    scenario = (
        st.lists(st.tuples(id_sets, st.booleans()), min_size=1, max_size=12),
        id_sets,
        st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=8),
    )

    @staticmethod
    def absorb_each(column, count, picks):
        """Fold candidate rows into the reference, as the driver does."""
        for pick in picks:
            reference_row = column.absorbed(pick % count)
            column.refresh_reference(reference_row)
            yield reference_row

    @given(*scenario)
    @settings(max_examples=60)
    def test_bloom_popcounts_equal_a_recount(self, candidates, seed_ids, picks):
        def build(ids):
            return BloomFilter.from_ids(ids, num_bits=256, num_hashes=3)

        active = np.array([ok for _, ok in candidates], dtype=bool)
        words = np.stack(
            [pack_bit_row(build(ids).raw_bits, 256) for ids, _ in candidates],
            axis=1,
        )
        cards = [float(len(ids)) for ids, _ in candidates]
        column = _BloomColumn(words, cards, active, build(seed_ids))
        for reference_row in self.absorb_each(column, len(candidates), picks):
            recount = batch_difference_popcounts(words, reference_row)
            assert column._popcounts[active].tolist() == recount[active].tolist()

    @given(*scenario)
    @settings(max_examples=60)
    def test_mips_matches_equal_a_recount(self, candidates, seed_ids, picks):
        spec = SynopsisSpec.parse("mips-16")
        active = np.array([ok for _, ok in candidates], dtype=bool)
        rows = np.stack(
            [pack_minima_row(spec.build(ids)) for ids, _ in candidates]
        )
        cards = [float(len(ids)) for ids, _ in candidates]
        column = _MipsColumn(rows, cards, active, spec.build(seed_ids))
        for reference_row in self.absorb_each(column, len(rows), picks):
            recount = batch_match_counts(rows, reference_row)
            assert column._matches[active].tolist() == recount[active].tolist()


class FixedNovelty:
    """A kernel stand-in whose novelty never changes between rounds."""

    def __init__(self, novelty):
        self.novelty = novelty

    def absorbed(self, best):
        return np.zeros(1)

    def refresh_reference(self, new_row):
        return np.zeros(len(self.novelty), dtype=bool)

    def rescore(self, reference_cardinality):
        return self.novelty.copy()


class TestTieBreak:
    """Every round picks what the naive (quality, peer id) key did."""

    @staticmethod
    def key_rule(scores, qualities, peer_ids, alive):
        masked = np.where(alive, scores, -np.inf)
        tied = np.nonzero(alive & (masked == masked.max()))[0]
        return max(tied.tolist(), key=lambda i: (qualities[i], peer_ids[i]))

    @staticmethod
    def driver_picks(novelty, qualities, peer_ids):
        """Candidate indices in the order a full plan picks them.

        The driver reads its rows in tie-break order, as
        ``column_rank_detailed`` hands them over, and reports positions
        in that order.
        """
        count = len(peer_ids)
        order = tie_break_order(qualities)
        plan = _run_incremental(
            [FixedNovelty(novelty[order])],
            [0.0],
            qualities[order],
            MaxPeers(count),
            count,
            RoutingStats(mode="incremental"),
        )
        picks = [int(order[position]) for position, _, _ in plan]
        for pick, (_, quality, novelty_value) in zip(picks, plan):
            assert quality == qualities[pick]
            assert novelty_value == novelty[pick]
        return picks

    def key_rule_picks(self, novelty, qualities, peer_ids):
        scores = qualities * novelty
        alive = np.ones(len(peer_ids), dtype=bool)
        picks = []
        while alive.any():
            best = self.key_rule(scores, qualities, peer_ids, alive)
            picks.append(best)
            alive[best] = False
        return picks

    # Few distinct values (with both signed zeros) force score and
    # quality ties.  Names are sorted and unique, as
    # ``ColumnContextView`` delivers them.
    rows = st.lists(
        st.tuples(
            st.sampled_from([0.0, -0.0, 0.5, 1.0]),
            st.sampled_from([0.0, -0.0, 0.25, 1.0]),
            st.text(alphabet="pq0129", min_size=1, max_size=3),
        ),
        min_size=1,
        max_size=16,
        unique_by=lambda row: row[2],
    )

    @given(rows)
    @settings(max_examples=300)
    def test_matches_the_quality_then_peer_id_key(self, rows):
        novelty = np.array([row[0] for row in rows], dtype=np.float64)
        qualities = np.array([row[1] for row in rows], dtype=np.float64)
        peer_ids = sorted(row[2] for row in rows)
        assert self.driver_picks(novelty, qualities, peer_ids) == (
            self.key_rule_picks(novelty, qualities, peer_ids)
        )

    def test_signed_zeros_tie(self):
        # Zero scores of both signs tie, and so do zero qualities of
        # both signs: the largest peer id wins each round.
        novelty = np.array([0.0, -0.0, 0.0], dtype=np.float64)
        qualities = np.array([0.0, -0.0, -0.0], dtype=np.float64)
        assert self.driver_picks(novelty, qualities, ["a", "b", "c"]) == [2, 1, 0]


class TestMatrixCardinalities:
    """Packed-row estimates equal the scalar estimator bit for bit."""

    @pytest.mark.parametrize("length", (8, 31, 64, 128))
    def test_mips_rows_match_the_scalar_estimator(self, length):
        self.check_mips_rows(length)

    @pytest.mark.parametrize("length", (31, 128))
    def test_mips_rows_do_not_depend_on_sum(
        self, length, correctly_rounded_sum
    ):
        self.check_mips_rows(length)

    @staticmethod
    def check_mips_rows(length):
        spec = SynopsisSpec(kind="mips", parameter=length, seed=3)
        rng = random.Random(length)
        id_sets = [[]] + [
            [rng.randrange(10**6) for _ in range(rng.randrange(0, 300))]
            for _ in range(40)
        ] + [[]]
        offsets = np.cumsum([0] + [len(ids) for ids in id_sets])
        rows = spec.build_rows([x for ids in id_sets for x in ids], offsets)
        estimates = _matrix_cardinalities(rows, spec.build(()))
        for row, estimate in zip(rows, estimates.tolist()):
            scalar = MinWisePermutations(row.tolist(), spec.seed)
            assert estimate.hex() == scalar.estimate_cardinality().hex()


class TestFloatAdditionOrder:
    """The oracle adds floats in the kernels' order, not via ``sum()``."""

    @pytest.mark.parametrize("spec_label", SPEC_LABELS)
    @pytest.mark.parametrize("aggregation_cls", AGGREGATIONS, ids=AGGREGATION_IDS)
    def test_plans_do_not_depend_on_sum(
        self, spec_label, aggregation_cls, correctly_rounded_sum
    ):
        plan_naive, plan_fast, _, fast_stats = rank_both(
            dict(seed=0, spec_label=spec_label, terms=("apple", "pear", "plum")),
            dict(aggregation=aggregation_cls()),
        )
        assert plan_rows(plan_fast) == plan_rows(plan_naive)
        assert fast_stats.mode == "incremental"
