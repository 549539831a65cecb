"""Tests for peer churn: joins, departures, stale-post handling."""

import pytest

from repro.core.iqn import IQNRouter
from repro.datasets.queries import Query
from repro.ir.documents import Corpus, Document
from repro.minerva.engine import MinervaEngine
from repro.net.cost import MessageKinds
from repro.routing.cori import CoriSelector
from repro.synopses.factory import SynopsisSpec

SPEC = SynopsisSpec.parse("mips-16")
QUERY = Query(0, ("apple", "banana"))


def make_collections(count=4):
    docs = {
        i: Document.from_terms(i, ["apple"] * (1 + i % 3) + ["banana"])
        for i in range(20)
    }
    groups = [range(i * 4, i * 4 + 8) for i in range(count)]
    return [
        Corpus.from_documents(docs[i % 20] for i in group) for group in groups
    ]


@pytest.fixture
def engine():
    engine = MinervaEngine(make_collections(), spec=SPEC)
    engine.publish({"apple", "banana"})
    return engine


class TestJoin:
    def test_new_peer_becomes_routable(self, engine):
        newcomer = Corpus.from_documents(
            [Document.from_terms(100 + i, ["apple", "banana"]) for i in range(5)]
        )
        engine.add_peer("pnew", newcomer)
        context = engine.make_context(QUERY, initiator_id="p00", k=5)
        assert "pnew" in {c.peer_id for c in context.candidates()}

    def test_join_migrates_directory_keys(self, engine):
        """PeerLists remain resolvable after the ring reshuffles."""
        before = engine.directory.peer_list("apple").peer_ids
        engine.add_peer(
            "pnew",
            Corpus.from_documents([Document.from_terms(200, ["cherry"])]),
        )
        after = engine.directory.peer_list("apple").peer_ids
        assert before <= after

    def test_duplicate_id_rejected(self, engine):
        with pytest.raises(ValueError, match="already"):
            engine.add_peer("p00", Corpus())

    def test_reference_engine_rebuilt(self, engine):
        _ = engine.reference_index
        engine.add_peer(
            "pnew",
            Corpus.from_documents([Document.from_terms(500, ["apple"])]),
        )
        assert 500 in engine.reference_index.corpus

    def test_joined_peer_answers_queries(self, engine):
        engine.add_peer(
            "pnew",
            Corpus.from_documents(
                [Document.from_terms(300 + i, ["apple"]) for i in range(3)]
            ),
        )
        outcome = engine.run_query(QUERY, CoriSelector(), max_peers=4, k=10)
        assert outcome.final_recall > 0.0


class TestGracefulDeparture:
    def test_departed_peer_not_a_candidate(self, engine):
        engine.remove_peer("p01")
        context = engine.make_context(QUERY, initiator_id="p00", k=5)
        assert "p01" not in {c.peer_id for c in context.candidates()}

    def test_directory_still_resolves_after_departure(self, engine):
        engine.remove_peer("p02")
        peer_list = engine.directory.peer_list("apple")
        assert peer_list.peer_ids
        assert "p02" not in peer_list.peer_ids

    def test_queries_work_after_departure(self, engine):
        engine.remove_peer("p03")
        outcome = engine.run_query(QUERY, IQNRouter(), max_peers=2, k=10)
        assert outcome.selected
        assert "p03" not in outcome.selected

    def test_purge_counts_posts(self, engine):
        removed = engine.purge_posts_of("p01")
        assert removed == 2  # apple + banana


class TestCrashChurn:
    def test_stale_posts_select_dead_peer_costing_a_forward(self, engine):
        """Without purging, routing can pick the dead peer; the forward
        is paid and yields nothing — the realistic failure mode."""
        engine.remove_peer("p01", purge_posts=False)
        context = engine.make_context(QUERY, initiator_id="p00", k=5)
        candidate_ids = {c.peer_id for c in context.candidates()}
        assert "p01" in candidate_ids  # stale post still advertised
        before = engine.cost.snapshot()
        per_peer = engine.execute(QUERY, ["p01"], k=5)
        delta = engine.cost.snapshot() - before
        assert per_peer["p01"] == ()
        assert delta.messages(MessageKinds.QUERY_FORWARD) == 1
        assert delta.messages(MessageKinds.RESULT_RETURN) == 0

    def test_recall_degrades_gracefully_with_stale_posts(self, engine):
        engine.remove_peer("p01", purge_posts=False)
        outcome = engine.run_query(QUERY, CoriSelector(), max_peers=3, k=10)
        assert 0.0 <= outcome.final_recall <= 1.0


class TestReplicatedDirectoryChurn:
    def test_replicas_survive_owner_departure(self):
        """With replication factor 2, a PeerList survives its primary
        owner leaving (Section 4's availability argument)."""
        engine = MinervaEngine(make_collections(6), spec=SPEC, replicas=2)
        engine.publish({"apple"})
        owner_node = engine.ring.owner_of("apple").node_id
        owner_peer = next(
            pid
            for pid, nid in engine.directory._node_of_peer.items()
            if nid == owner_node
        )
        expected = engine.directory.peer_list("apple").peer_ids - {owner_peer}
        engine.remove_peer(owner_peer)
        surviving = engine.directory.peer_list("apple").peer_ids
        assert expected <= surviving


class TestStoredListOwner:
    def test_stored_list_is_the_routed_owners_list(self):
        # stored_list reads the owner off the ring instead of routing to
        # it; joins and leaves must not set the two apart.
        terms = [f"t{index:02d}" for index in range(24)]
        docs = [
            Document.from_terms(i, [terms[i % 24], terms[(i * 7) % 24]])
            for i in range(48)
        ]
        engine = MinervaEngine(
            [Corpus.from_documents(docs[i::6]) for i in range(6)], spec=SPEC
        )
        engine.publish(set(terms))
        directory = engine.directory

        def owners():
            stored = directory.stored_terms()
            assert len(stored) == len(terms)
            out = {}
            for term in stored:
                owner = directory.ring.lookup(term).owner
                assert directory.stored_list(term) is directory.list_at(owner, term)
                out[term] = owner
            return out

        before = owners()
        engine.add_peer(
            "pnew", Corpus.from_documents([Document.from_terms(900, terms[:5])])
        )
        joined = owners()
        engine.remove_peer("p01")
        left = owners()
        assert joined != before and left != joined
