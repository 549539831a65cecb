"""Tests for the assembled MINERVA engine."""

import pytest

from repro.core.iqn import IQNRouter
from repro.datasets.queries import Query
from repro.dht.hashing import chord_id
from repro.ir.documents import Corpus, Document
from repro.minerva.engine import MinervaEngine
from repro.net.cost import MessageKinds
from repro.routing.cori import CoriSelector
from repro.synopses.factory import SynopsisSpec

SPEC = SynopsisSpec.parse("mips-16")


def make_collections():
    """Three small overlapping collections with a known structure."""
    docs = {
        i: Document.from_terms(i, ["apple"] * (1 + i % 3) + ["banana"])
        for i in range(12)
    }
    groups = [range(0, 8), range(4, 12), range(0, 12, 2)]
    return [
        Corpus.from_documents(docs[i] for i in group) for group in groups
    ]


@pytest.fixture
def engine():
    engine = MinervaEngine(make_collections(), spec=SPEC)
    engine.publish({"apple", "banana"})
    return engine


QUERY = Query(0, ("apple", "banana"))


class TestConstruction:
    def test_peer_ids(self, engine):
        assert sorted(engine.peers) == ["p00", "p01", "p02"]

    def test_needs_collections(self):
        with pytest.raises(ValueError):
            MinervaEngine([], spec=SPEC)

    def test_index_count_mismatch_rejected(self):
        collections = make_collections()
        with pytest.raises(ValueError):
            MinervaEngine(collections, spec=SPEC, indexes=[])

    def test_ring_covers_peers(self, engine):
        assert len(engine.ring) == 3


    def test_node_ids_come_from_the_ring(self):
        # Twenty peers collide nowhere, so every node keeps the plain
        # ``chord_id`` the ring has always given it.
        docs = [Document.from_terms(i, ["apple"]) for i in range(20)]
        engine = MinervaEngine(
            [Corpus.from_documents([doc]) for doc in docs], spec=SPEC
        )
        assert len(engine.peers) == 20
        for peer_id in engine.peers:
            expected = chord_id(peer_id, salt="node")
            assert engine.directory._node_of_peer[peer_id] == expected
            assert engine.ring.node_id_of(peer_id) == expected


class TestPublish:
    def test_publish_counts(self):
        engine = MinervaEngine(make_collections(), spec=SPEC)
        published = engine.publish({"apple"})
        assert published == 3  # every peer holds "apple"

    def test_publish_skips_unknown_terms(self):
        engine = MinervaEngine(make_collections(), spec=SPEC)
        assert engine.publish({"zzz"}) == 0

    def test_publish_all_terms(self):
        engine = MinervaEngine(make_collections(), spec=SPEC)
        published = engine.publish()
        assert published == sum(
            len(p.index.vocabulary) for p in engine.peers.values()
        )

    def test_unpublished_query_rejected(self):
        engine = MinervaEngine(make_collections(), spec=SPEC)
        with pytest.raises(RuntimeError, match="never published"):
            engine.run_query(QUERY, CoriSelector(), max_peers=1)


class TestReferenceEngine:
    def test_reference_is_union(self, engine):
        assert len(engine.reference_index.corpus) == 12

    def test_reference_topk(self, engine):
        top = engine.reference_topk(QUERY, k=5)
        assert len(top) == 5
        assert top <= engine.reference_index.corpus.doc_ids


class TestContext:
    def test_context_shape(self, engine):
        context = engine.make_context(QUERY, initiator_id="p00", k=5)
        assert context.num_peers == 3
        assert set(context.peer_lists) == {"apple", "banana"}
        assert context.initiator.peer_id == "p00"
        assert context.initiator.result_doc_ids  # local result nonempty

    def test_candidates_exclude_initiator(self, engine):
        context = engine.make_context(QUERY, initiator_id="p00", k=5)
        ids = {c.peer_id for c in context.candidates()}
        assert ids == {"p01", "p02"}

    def test_unknown_initiator(self, engine):
        with pytest.raises(KeyError):
            engine.make_context(QUERY, initiator_id="nope")


class TestExecution:
    def test_execute_charges_messages(self, engine):
        before = engine.cost.snapshot()
        engine.execute(QUERY, ["p01", "p02"], k=5)
        delta = engine.cost.snapshot() - before
        assert delta.messages(MessageKinds.QUERY_FORWARD) == 2
        assert delta.messages(MessageKinds.RESULT_RETURN) == 2

    def test_execute_returns_per_peer_results(self, engine):
        per_peer = engine.execute(QUERY, ["p01"], k=5)
        assert set(per_peer) == {"p01"}
        assert all(r.score > 0 for r in per_peer["p01"])


class TestRunQuery:
    def test_outcome_shape(self, engine):
        outcome = engine.run_query(
            QUERY, CoriSelector(), initiator_id="p00", max_peers=2, k=8
        )
        assert outcome.initiator_id == "p00"
        assert len(outcome.selected) == 2
        assert len(outcome.recall_at) == 3  # local + 2 peers
        assert outcome.final_recall == outcome.recall_at[-1]

    def test_recall_monotone(self, engine):
        outcome = engine.run_query(QUERY, CoriSelector(), max_peers=2, k=8)
        for earlier, later in zip(outcome.recall_at, outcome.recall_at[1:]):
            assert later >= earlier

    def test_all_peers_reach_full_recall(self, engine):
        """Querying everyone must retrieve everything the centralized
        engine finds (same scoring scheme, peer_k defaults to k)."""
        outcome = engine.run_query(QUERY, CoriSelector(), max_peers=2, k=8)
        assert outcome.final_recall == pytest.approx(1.0)

    def test_default_initiator_rotates(self, engine):
        q0 = Query(0, ("apple",))
        q1 = Query(1, ("apple",))
        out0 = engine.run_query(q0, CoriSelector(), max_peers=1, k=5)
        out1 = engine.run_query(q1, CoriSelector(), max_peers=1, k=5)
        assert out0.initiator_id != out1.initiator_id

    def test_iqn_runs_end_to_end(self, engine):
        outcome = engine.run_query(QUERY, IQNRouter(), max_peers=2, k=8)
        assert len(outcome.selected) == 2

    def test_peer_k_limits_contributions(self, engine):
        outcome = engine.run_query(
            QUERY, CoriSelector(), max_peers=2, k=8, peer_k=1
        )
        assert all(len(r) <= 1 for r in outcome.per_peer_results.values())

    def test_peer_k_validation(self, engine):
        with pytest.raises(ValueError):
            engine.run_query(QUERY, CoriSelector(), max_peers=1, k=5, peer_k=0)

    def test_routing_stats_surfaced_for_iqn(self, engine):
        outcome = engine.run_query(QUERY, IQNRouter(), max_peers=2, k=8)
        stats = outcome.routing_stats
        assert stats is not None
        assert stats.mode == "incremental"
        assert stats.novelty_evaluations > 0
        assert stats.rounds == len(outcome.selected)

    def test_routing_stats_absent_for_plain_selectors(self, engine):
        outcome = engine.run_query(QUERY, CoriSelector(), max_peers=2, k=8)
        assert outcome.routing_stats is None

    def test_cost_delta_isolated_per_query(self, engine):
        out1 = engine.run_query(QUERY, CoriSelector(), max_peers=1, k=5)
        out2 = engine.run_query(QUERY, CoriSelector(), max_peers=1, k=5)
        assert (
            out1.cost.messages(MessageKinds.QUERY_FORWARD)
            == out2.cost.messages(MessageKinds.QUERY_FORWARD)
            == 1
        )
