"""ColumnContextView: candidate order the routing kernels rely on."""

from hypothesis import given
from hypothesis import strategies as st

from repro.datasets.queries import Query
from repro.minerva.posts import PeerList, Post
from repro.routing.base import LocalView, RoutingContext
from repro.routing.columns import ColumnContextView
from repro.synopses.columnstore import PeerIdTable
from repro.synopses.factory import SynopsisSpec

SPEC = SynopsisSpec.parse("bf-64")
TERMS = ("apple", "pear")

# Mixed-case, digit and non-ASCII names: the view must order by code
# point, as ``sorted`` does.
names = st.text(alphabet="aZ0é中", min_size=1, max_size=4)


@given(
    st.lists(st.tuples(names, st.sampled_from(TERMS)), max_size=30),
    st.one_of(st.none(), names),
)
def test_candidates_strictly_ascend_by_peer_id(postings, initiator_id):
    # The kernels' tie-break (largest peer id last) reads this order.
    table = PeerIdTable()
    peer_lists = {term: PeerList(term=term, peer_table=table) for term in TERMS}
    for peer_id, term in postings:
        peer_lists[term].add(
            Post(
                peer_id=peer_id,
                term=term,
                cdf=1,
                max_score=1.0,
                avg_score=0.5,
                term_space_size=10,
                synopsis=SPEC.build({len(peer_id)}),
            )
        )
    initiator = (
        None
        if initiator_id is None
        else LocalView(
            peer_id=initiator_id,
            result_doc_ids=frozenset(),
            doc_ids_by_term={term: frozenset() for term in TERMS},
        )
    )
    context = RoutingContext(
        query=Query(0, TERMS),
        peer_lists=peer_lists,
        num_peers=len(postings) + 1,
        spec=SPEC,
        initiator=initiator,
    )
    view = ColumnContextView.build(context)
    expected = sorted({peer_id for peer_id, _ in postings} - {initiator_id})
    assert view.peer_names == expected
    assert all(a < b for a, b in zip(view.peer_names, view.peer_names[1:]))
