"""ColumnContextView: candidate order, scattered fields and ``|V_avg|``.

The view is checked against a reference built from plain dicts over the
same posts, and plans built on it against the naive loop.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.aggregation import PerPeerAggregation, PerTermAggregation
from repro.core.iqn import IQNRouter
from repro.datasets.queries import Query
from repro.minerva.posts import PeerList, Post
from repro.routing.base import LocalView, RoutingContext
from repro.routing.columns import ColumnContextView
from repro.synopses.columnstore import PeerIdTable
from repro.synopses.factory import SynopsisSpec

SPEC = SynopsisSpec.parse("bf-64")
TERMS = ("apple", "pear", "plum")

# Mixed-case, digit, non-ASCII and NUL names: the view must order by
# code point, as ``sorted`` does, and keep a trailing NUL.
names = st.text(alphabet="aZ0é中\x00", min_size=1, max_size=4)


def make_post(peer_id, term, cdf=1, term_space=10, synopsis=True):
    return Post(
        peer_id=peer_id,
        term=term,
        cdf=cdf,
        max_score=1.0,
        avg_score=0.5,
        term_space_size=term_space,
        synopsis=SPEC.build({len(peer_id), cdf}) if synopsis else None,
    )


def local_view(peer_id, terms):
    return LocalView(
        peer_id=peer_id,
        result_doc_ids=frozenset({1, 2}),
        doc_ids_by_term={term: frozenset({1}) for term in terms},
    )


@st.composite
def scenarios(draw):
    """Posts on one shared table, a query over some of the lists, and an
    initiator that posts in none, some or all of them."""
    list_order = draw(st.permutations(TERMS))
    query_terms = draw(
        st.lists(st.sampled_from(TERMS), min_size=1, max_size=3, unique=True)
    )
    fields = (
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=400),
        st.booleans(),
    )
    postings = draw(
        st.lists(
            st.tuples(names, st.sampled_from(TERMS), *fields),
            max_size=30,
            unique_by=lambda posting: posting[:2],
        )
    )
    initiator = draw(st.one_of(st.none(), names))
    if initiator is not None:
        # The initiator posts in none, some or all of the lists.
        posted = draw(st.sets(st.sampled_from(TERMS)))
        postings = [
            p for p in postings if not (p[0] == initiator and p[1] in posted)
        ]
        for term in sorted(posted):
            postings.append((initiator, term, *draw(st.tuples(*fields))))
    return list_order, tuple(query_terms), postings, initiator


def build_context(list_order, query_terms, postings, initiator, **kwargs):
    table = PeerIdTable()
    peer_lists = {term: PeerList(term=term, peer_table=table) for term in list_order}
    for peer, term, cdf, term_space, has_synopsis in postings:
        peer_lists[term].add(make_post(peer, term, cdf, term_space, has_synopsis))
    return RoutingContext(
        query=Query(0, query_terms),
        peer_lists=peer_lists,
        num_peers=len(postings) + 1,
        spec=SPEC,
        initiator=None if initiator is None else local_view(initiator, query_terms),
        **kwargs,
    )


@given(
    st.lists(st.tuples(names, st.sampled_from(TERMS[:2])), max_size=30),
    st.one_of(st.none(), names),
)
def test_candidates_strictly_ascend_by_peer_id(postings, initiator_id):
    # The kernels' tie-break (largest peer id last) reads this order.
    rows = [(peer, term, 1, 10, True) for peer, term in dict.fromkeys(postings)]
    context = build_context(TERMS[:2], TERMS[:2], rows, initiator_id)
    view = ColumnContextView.build(context)
    expected = sorted({peer_id for peer_id, _ in postings} - {initiator_id})
    peer_names = view.peer_names(np.arange(view.count))
    assert peer_names == expected
    assert all(a < b for a, b in zip(peer_names, peer_names[1:]))


@given(scenarios())
def test_view_matches_a_dict_reference(scenario):
    list_order, query_terms, postings, initiator = scenario
    posts = {(peer, term): rest for peer, term, *rest in postings}
    expected = sorted(
        {peer for peer, term in posts if term in query_terms} - {initiator}
    )
    # |V_avg|: every poster in any fetched list, initiator included,
    # sized by the last list holding it in dict order.
    sizes = {}
    for term in list_order:
        for (peer, posted_term), (_, term_space, _) in posts.items():
            if posted_term == term:
                sizes[peer] = term_space
    average = sum(sizes.values()) / len(sizes) if sizes else 1.0

    context = build_context(list_order, query_terms, postings, initiator)
    view = ColumnContextView.build(context)
    assert view.count == len(expected)
    assert view.peer_names(np.arange(view.count)) == expected
    assert [gather.term for gather in view.gathers] == list(query_terms)
    for gather in view.gathers:
        rows = [posts.get((peer, gather.term)) for peer in expected]
        assert gather.has_post.tolist() == [row is not None for row in rows]
        assert gather.cdf.tolist() == [row[0] if row else 0 for row in rows]
        assert gather.term_space.tolist() == [row[1] if row else 0 for row in rows]
        assert gather.has_synopsis.tolist() == [bool(row and row[2]) for row in rows]
    assert view.term_space_average.hex() == float(average).hex()
    assert context.average_term_space_size.hex() == float(average).hex()


@given(scenarios(), st.booleans(), st.sampled_from([PerPeerAggregation, PerTermAggregation]))
def test_plans_match_the_naive_loop(scenario, conjunctive, aggregation_cls):
    def plan(fast_path):
        router = IQNRouter(aggregation_cls(), fast_path=fast_path)
        context = build_context(*scenario, conjunctive=conjunctive)
        selected = router.rank_detailed(context, 6)
        return router.last_stats.mode, [
            (s.peer_id, s.quality.hex(), s.novelty.hex()) for s in selected
        ]

    fast_mode, fast_plan = plan(True)
    assert fast_mode in ("incremental", "empty")
    assert fast_plan == plan(False)[1]


def test_trailing_nul_peer_ids_stay_distinct():
    # ``'peer\x00'`` and ``'peer'`` are two peers; a NumPy ``<U`` array
    # of the names would strip the NUL and route to ``'peer'`` twice.
    postings = [
        ("peer\x00", "apple", 5, 10, True),
        ("peer", "apple", 3, 10, True),
    ]
    fast = IQNRouter(PerPeerAggregation())
    naive = IQNRouter(PerPeerAggregation(), fast_path=False)
    fast_plan = fast.rank(build_context(TERMS, ("apple",), postings, None), 5)
    naive_plan = naive.rank(build_context(TERMS, ("apple",), postings, None), 5)
    assert fast.last_stats.mode == "incremental"
    assert fast_plan == naive_plan
    assert sorted(fast_plan) == ["peer", "peer\x00"]


def test_no_rank_survives_a_write():
    table = PeerIdTable()
    peer_lists = {term: PeerList(term=term, peer_table=table) for term in TERMS}
    for index in range(12):
        for position, term in enumerate(TERMS):
            if (index + position) % 3:
                peer_lists[term].add(
                    make_post(f"p{index:02d}", term, cdf=index + 1, term_space=50 + index)
                )

    def route():
        context = RoutingContext(
            query=Query(0, ("apple", "pear")),
            peer_lists=peer_lists,
            num_peers=20,
            spec=SPEC,
            initiator=local_view("p03", ("apple", "pear")),
        )
        fast = IQNRouter(PerPeerAggregation())
        plan = fast.rank(context, 5)
        assert fast.last_stats.mode == "incremental"
        naive = IQNRouter(PerPeerAggregation(), fast_path=False)
        assert plan == naive.rank(context, 5)
        return plan

    first_plan = route()
    ranks = table.name_ranks()
    # A peer whose name sorts before every other, posting the strongest
    # list entry, and one post removed from a queried term.
    table.intern("a-first")
    peer_lists["apple"].add(make_post("a-first", "apple", cdf=90, term_space=5))
    del peer_lists["apple"].posts[first_plan[0]]
    second_plan = route()
    assert table.name_ranks() is not ranks
    assert table.name_ranks()[table.lookup("a-first")] == 0
    assert "a-first" in second_plan
