"""Differential tests for the packed-row Aggregate-Synopses step.

The routing kernels fold each winner's packed row into the reference
row and add their own novelty of it to the reference cardinality.  These
tests pin that against the naive oracle (``IQNRouter(fast_path=False)``)
where the shortcut could drift: winners the kernels score as inactive
(which the naive absorb still unions in), plans longer than the active
candidate count, and stopping criteria that read the row-tracked
coverage.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import PerPeerAggregation, PerTermAggregation
from repro.core.fastpath import column_rank_detailed
from repro.core.iqn import IQNRouter
from repro.core.stopping import AnyOf, CoverageTarget, MaxPeers, MinimumNoveltyGain
from repro.datasets.queries import Query
from repro.minerva.posts import PeerList, Post
from repro.routing.base import LocalView, RoutingContext
from repro.synopses.columnstore import PeerIdTable, TermColumns
from repro.synopses.factory import SynopsisSpec

SPEC_LABELS = ("bf-128", "mips-16", "hs-8", "ll-16")
AGGREGATIONS = (PerPeerAggregation, PerTermAggregation)
TERMS = ("t0", "t1", "t2")

doc_ids = st.frozensets(st.integers(min_value=0, max_value=60), max_size=20)
#: One peer's entry for one term: no post, a post without a synopsis, or
#: a post whose ``cdf`` is either the exact list length or zero.
entries = st.one_of(
    st.none(),
    st.tuples(doc_ids, st.sampled_from(("exact", "zero", "no-synopsis"))),
)
stoppings = st.one_of(
    st.none(),
    st.builds(CoverageTarget, st.floats(min_value=1.0, max_value=120.0)),
    st.builds(MinimumNoveltyGain, st.floats(min_value=0.0, max_value=8.0)),
    st.builds(
        lambda limit, threshold: AnyOf(MaxPeers(limit), MinimumNoveltyGain(threshold)),
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.0, max_value=8.0),
    ),
    st.builds(
        lambda target, threshold: AnyOf(
            CoverageTarget(target), MinimumNoveltyGain(threshold)
        ),
        st.floats(min_value=1.0, max_value=120.0),
        st.floats(min_value=0.0, max_value=8.0),
    ),
)


def build_context(spec_label, terms, peers, seed_ids, conjunctive):
    """A column-backed context: ``peers[i][term]`` is an ``entries`` draw."""
    spec = SynopsisSpec.parse(spec_label)
    table = PeerIdTable()
    lists = {term: PeerList(term=term, peer_table=table) for term in terms}
    for index, by_term in enumerate(peers):
        for term in terms:
            entry = by_term.get(term)
            if entry is None:
                continue
            ids, kind = entry
            lists[term].add(
                Post(
                    peer_id=f"p{index}",
                    term=term,
                    cdf=0 if kind == "zero" else len(ids),
                    max_score=1.0,
                    avg_score=0.5,
                    term_space_size=10 + index,
                    synopsis=None if kind == "no-synopsis" else spec.build(ids),
                )
            )
    initiator = LocalView(
        peer_id="me",
        result_doc_ids=seed_ids,
        doc_ids_by_term={term: seed_ids for term in terms},
    )
    return RoutingContext(
        query=Query(0, terms),
        peer_lists=lists,
        num_peers=len(peers) + 1,
        spec=spec,
        initiator=initiator,
        conjunctive=conjunctive,
    )


def exact(plan):
    """Plan rows with floats as hex, so signed zeros and ULPs count."""
    return [(peer, quality.hex(), novelty.hex()) for peer, quality, novelty in plan]


@st.composite
def scenarios(draw):
    drawn_terms = draw(st.lists(st.sampled_from(TERMS), min_size=1, max_size=4))
    num_peers = draw(st.integers(min_value=1, max_value=7))
    return dict(
        spec_label=draw(st.sampled_from(SPEC_LABELS)),
        aggregation_cls=draw(st.sampled_from(AGGREGATIONS)),
        conjunctive=draw(st.booleans()),
        quality_weighted=draw(st.booleans()),
        drawn_terms=drawn_terms,
        peers=[
            {term: draw(entries) for term in TERMS} for _ in range(num_peers)
        ],
        seed_ids=draw(doc_ids),
        max_peers=draw(st.integers(min_value=1, max_value=num_peers + 2)),
        stopping=draw(stoppings),
    )


class TestRowAbsorbMatchesTheOracle:
    @given(scenarios())
    @settings(max_examples=400, deadline=None)
    def test_columns_tier_matches_the_naive_loop(self, scenario):
        drawn = scenario["drawn_terms"]
        terms = tuple(dict.fromkeys(drawn))
        if len(terms) != len(drawn):
            # The row absorb keeps one reference row per query term; a
            # query never repeats one.
            with pytest.raises(ValueError):
                Query(0, tuple(drawn))
        context = build_context(
            scenario["spec_label"],
            terms,
            scenario["peers"],
            scenario["seed_ids"],
            scenario["conjunctive"],
        )
        max_peers = scenario["max_peers"]
        stopping = scenario["stopping"] or MaxPeers(max_peers)
        quality_weighted = scenario["quality_weighted"]
        aggregation = scenario["aggregation_cls"]()

        oracle = IQNRouter(
            aggregation,
            stopping=scenario["stopping"],
            quality_weighted=quality_weighted,
            fast_path=False,
        )
        naive = [
            (s.peer_id, s.quality, s.novelty)
            for s in oracle.rank_detailed(context, max_peers)
        ]
        columns_plan, columns_stats = column_rank_detailed(
            context,
            aggregation,
            stopping,
            max_peers,
            quality_weighted=quality_weighted,
        )
        assert exact(columns_plan) == exact(naive)
        if not naive:
            return
        assert columns_stats.mode == "incremental"
        reference = oracle.last_stats
        assert (columns_stats.candidates, columns_stats.rounds) == (
            reference.candidates,
            reference.rounds,
        )
        assert columns_stats.naive_evaluations == reference.naive_evaluations
        assert columns_stats.novelty_evaluations <= (
            reference.naive_evaluations + reference.rounds
        )


def inactive_winner_context(spec_label, conjunctive=False):
    """Three posting peers ``p0``-``p2`` and two the kernels score inactive.

    ``p8`` posts a synopsis under ``cdf == 0`` for both terms (combined
    and per-term cardinality 0), ``p9`` only for ``t1``; ``p3``-``p7``
    post nothing, so the inactive peers hold the largest ids.  Ranked by
    novelty alone, every score ties at 0 once the active peers are in,
    and the largest peer id wins the tie: the inactive peers are picked,
    and the naive absorb unions their synopses into the reference.
    """
    covered = frozenset(range(0, 30))
    peers = [
        {"t0": (covered, "exact"), "t1": (frozenset(range(10, 40)), "exact")},
        {"t0": (frozenset(range(20, 45)), "exact"), "t1": (covered, "exact")},
        {"t0": (frozenset(range(5, 25)), "exact")},
    ]
    peers += [{} for _ in range(5)]
    peers.append(
        {
            "t0": (frozenset(range(100, 160)), "zero"),
            "t1": (frozenset(range(60, 90)), "zero"),
        }
    )
    peers.append({"t1": (frozenset(range(200, 260)), "zero")})
    return build_context(
        spec_label, ("t0", "t1"), peers, frozenset(range(0, 8)), conjunctive
    )


class TestInactiveWinners:
    @pytest.mark.parametrize("conjunctive", (False, True), ids=["disj", "conj"])
    @pytest.mark.parametrize("aggregation_cls", AGGREGATIONS, ids=["peer", "term"])
    @pytest.mark.parametrize("spec_label", SPEC_LABELS)
    def test_inactive_winners_absorb_like_the_oracle(
        self, spec_label, aggregation_cls, conjunctive
    ):
        context = inactive_winner_context(spec_label, conjunctive)
        oracle = IQNRouter(aggregation_cls(), quality_weighted=False, fast_path=False)
        naive = [
            (s.peer_id, s.quality, s.novelty) for s in oracle.rank_detailed(context, 10)
        ]
        columns_plan, _ = column_rank_detailed(
            context, aggregation_cls(), MaxPeers(10), 10, quality_weighted=False
        )
        assert exact(columns_plan) == exact(naive)
        assert "p8" in [peer_id for peer_id, _, _ in naive]


class TestColumnsTierBuildsNoObjects:
    @pytest.mark.parametrize("conjunctive", (False, True), ids=["disj", "conj"])
    @pytest.mark.parametrize("aggregation_cls", AGGREGATIONS, ids=["peer", "term"])
    @pytest.mark.parametrize("spec_label", SPEC_LABELS)
    def test_no_post_is_materialized(
        self, monkeypatch, spec_label, aggregation_cls, conjunctive
    ):
        context = inactive_winner_context(spec_label, conjunctive)
        expected, _ = column_rank_detailed(
            context, aggregation_cls(), MaxPeers(10), 10
        )

        def refuse(*args, **kwargs):
            raise AssertionError("the columns tier materialized a Post")

        context = inactive_winner_context(spec_label, conjunctive)
        monkeypatch.setattr(TermColumns, "post_fields", refuse)
        monkeypatch.setattr(PeerList, "get", refuse)
        plan, stats = column_rank_detailed(
            context, aggregation_cls(), MaxPeers(10), 10
        )
        assert stats.mode == "incremental"
        assert plan == expected
        assert {"p8", "p9"} <= {peer_id for peer_id, _, _ in plan}
