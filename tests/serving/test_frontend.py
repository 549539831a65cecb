"""ServingFrontend: cache hits, churn invalidation, one-shot identity."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.churn import ChurnSchedule, ChurnService, MaintenanceConfig
from repro.churn.membership import MembershipEvent
from repro.core.iqn import IQNRouter
from repro.datasets.queries import Query, make_query_log
from repro.ir.documents import Corpus, Document
from repro.minerva.engine import MinervaEngine
from repro.minerva.peer import Peer
from repro.net.cost import MessageKinds
from repro.serving import ServingFrontend, plan_key
from repro.simnet.executor import SimNetExecutor
from repro.synopses.factory import SynopsisSpec
from tests.topology.conftest import make_topical_engine

SPEC = SynopsisSpec.parse("mips-16")
QUERY = Query(0, ("apple", "banana"))
INITIATOR = "p00"
HORIZON_MS = 6_000.0
MAINTENANCE = MaintenanceConfig.for_repost_interval(
    4_000.0, stabilize_interval_ms=2_000.0
)
KNOBS = dict(max_peers=2, k=10, fallback_spares=2)


def make_engine(num_peers: int = 6) -> MinervaEngine:
    docs = {
        i: Document.from_terms(i, ["apple"] * (1 + i % 3) + ["banana"])
        for i in range(4 * num_peers)
    }
    collections = [
        Corpus.from_documents(
            docs[i % len(docs)] for i in range(p * 4, p * 4 + 8)
        )
        for p in range(num_peers)
    ]
    engine = MinervaEngine(collections, spec=SPEC, replicas=2)
    engine.publish({"apple", "banana"})
    return engine


def make_frontend(host=None, **overrides) -> ServingFrontend:
    if host is None:
        host = SimNetExecutor(make_engine(), seed=3)
    return ServingFrontend(host, IQNRouter(), **{**KNOBS, **overrides})


def query_key(front: ServingFrontend):
    """QUERY's plan-cache key under this front end's configuration."""
    return plan_key(
        QUERY,
        front.selector,
        initiator_id=INITIATOR,
        max_peers=front.max_peers,
        fallback_spares=front.fallback_spares,
        conjunctive=front.conjunctive,
    )


def plan_peers() -> tuple[str, ...]:
    """The ranked plan (targets + spares) a cold serve of QUERY caches."""
    front = make_frontend()
    front.serve(QUERY, initiator_id=INITIATOR)
    front.run()
    plan = front.plan_cache.lookup(query_key(front))
    assert plan is not None
    return plan.ranked


def make_churn_frontend(events) -> ServingFrontend:
    service = ChurnService(
        make_engine(),
        ChurnSchedule(events, horizon_ms=HORIZON_MS),
        maintenance=MAINTENANCE,
        seed=3,
    )
    return make_frontend(host=service)


class TestServeBasics:
    def test_cold_serve_matches_the_one_shot_path(self):
        engine = make_engine()
        front = make_frontend(host=SimNetExecutor(engine, seed=3))
        future = front.serve(QUERY, initiator_id=INITIATOR)
        front.run()
        served = future.value
        reference = engine.run_query_networked(
            QUERY, IQNRouter(), initiator_id=INITIATOR, **KNOBS
        )
        assert not served.plan_hit
        assert served.topk == tuple(reference.merged[: KNOBS["k"]])
        assert served.queried == reference.selected
        assert not served.degraded

    def test_repeat_serve_hits_and_answers_identically(self):
        front = make_frontend()
        first = front.serve(QUERY, initiator_id=INITIATOR)
        front.run()
        second = front.serve(QUERY, initiator_id=INITIATOR)
        front.run()
        assert not first.value.plan_hit
        assert second.value.plan_hit
        assert second.value.topk == first.value.topk
        assert second.value.selected == first.value.selected
        assert front.plan_stats().hits == 1

    def test_hit_pays_no_directory_traffic(self):
        front = make_frontend()
        first = front.serve(QUERY, initiator_id=INITIATOR)
        front.run()
        second = front.serve(QUERY, initiator_id=INITIATOR)
        front.run()
        cold_kinds = first.value.cost.messages_by_kind
        hot_kinds = second.value.cost.messages_by_kind
        assert cold_kinds.get(MessageKinds.PEERLIST_FETCH, 0) > 0
        assert MessageKinds.PEERLIST_FETCH not in hot_kinds
        assert MessageKinds.DHT_HOP not in hot_kinds
        assert second.value.latency_ms <= first.value.latency_ms

    def test_initiator_answers_once_over_a_cold_and_a_hot_serve(
        self, monkeypatch
    ):
        engine = make_topical_engine()
        front = make_frontend(host=SimNetExecutor(engine, seed=3))
        query = Query(0, ("apple", "apricot"))
        answered = []
        answer_query = Peer.answer_query

        def counting(peer, terms, **knobs):
            if peer.peer_id == INITIATOR:
                answered.append(terms)
            return answer_query(peer, terms, **knobs)

        monkeypatch.setattr(Peer, "answer_query", counting)
        cold = front.serve(query, initiator_id=INITIATOR)
        front.run()
        hot = front.serve(query, initiator_id=INITIATOR)
        front.run()
        assert not cold.value.plan_hit
        assert hot.value.plan_hit
        assert hot.value.topk == cold.value.topk
        assert len(answered) == 1

    def test_distinct_initiators_do_not_share_plans(self):
        front = make_frontend()
        front.serve(QUERY, initiator_id="p00")
        front.run()
        front.serve(QUERY, initiator_id="p01")
        front.run()
        assert front.plan_stats().hits == 0
        assert front.plan_stats().size == 2

    def test_serve_log_is_deterministic(self):
        base = [Query(i, ("apple", "banana")) for i in range(4)]
        log = make_query_log(base, num_events=12, zipf_s=1.1, seed=7)
        outcomes = []
        for _ in range(2):
            front = make_frontend()
            outcomes.append(
                front.serve_log(log, interarrival_ms=200.0, seed=5)
            )
        assert outcomes[0] == outcomes[1]
        assert len(outcomes[0]) == 12
        assert any(served.plan_hit for served in outcomes[0])


class TestChurnInvalidation:
    def test_crash_of_a_plan_peer_repairs_the_cached_plan(self):
        ranked = plan_peers()
        victim = ranked[0]
        assert victim != INITIATOR
        front = make_churn_frontend(
            [MembershipEvent(at_ms=3_000.0, peer_id=victim, kind="crash")]
        )
        first = front.serve(QUERY, at_ms=0.0, initiator_id=INITIATOR)
        front.run(until_ms=2_999.0)
        assert first.done and victim in first.value.queried

        front.run(until_ms=3_500.0)  # past the crash, before stabilization
        assert front.plan_stats().repaired == 1
        repaired = front.plan_cache.lookup(query_key(front))
        assert repaired is not None
        assert victim not in repaired.ranked
        assert repaired.ranked == tuple(p for p in ranked if p != victim)

        second = front.serve(QUERY, initiator_id=INITIATOR)
        front.run()
        assert second.value.plan_hit
        assert victim not in second.value.queried
        assert not second.value.degraded

    def test_plan_survives_unrelated_churn(self):
        ranked = plan_peers()
        bystanders = sorted(
            set(make_engine().peers) - set(ranked) - {INITIATOR}
        )
        assert bystanders, "testbed too small: every peer is in the plan"
        front = make_churn_frontend(
            [
                MembershipEvent(
                    at_ms=3_000.0, peer_id=bystanders[0], kind="crash"
                )
            ]
        )
        first = front.serve(QUERY, at_ms=0.0, initiator_id=INITIATOR)
        front.run(until_ms=3_500.0)
        assert first.done

        stats = front.plan_stats()
        assert stats.repaired == 0
        assert stats.invalidated == 0
        second = front.serve(QUERY, initiator_id=INITIATOR)
        front.run()
        assert second.value.plan_hit
        assert second.value.selected == first.value.selected
        assert second.value.topk == first.value.topk

    def test_recovery_invalidates_plans_over_the_reposted_terms(self):
        ranked = plan_peers()
        victim = ranked[0]
        front = make_churn_frontend(
            [
                MembershipEvent(at_ms=1_000.0, peer_id=victim, kind="crash"),
                MembershipEvent(at_ms=3_000.0, peer_id=victim, kind="recover"),
            ]
        )
        front.serve(QUERY, at_ms=0.0, initiator_id=INITIATOR)
        front.run(until_ms=3_500.0)
        # The recovered peer reposted apple/banana fresh: the cached
        # ranking never considered it, so the plan must go cold.
        assert front.plan_cache.lookup(query_key(front)) is None
        epoch_after = front.synopsis_cache.epoch
        assert epoch_after >= 1


ENGINE = make_engine()
BIT_IDENTITY_QUERIES = [
    Query(0, ("apple", "banana")),
    Query(3, ("banana",)),
    Query(5, ("apple",)),
]


@settings(max_examples=25, deadline=None)
@given(
    query=st.sampled_from(BIT_IDENTITY_QUERIES),
    max_peers=st.integers(min_value=1, max_value=4),
    k=st.sampled_from([1, 3, 10]),
    peer_k=st.sampled_from([None, 20]),
    batch_size=st.sampled_from([None, 2]),
)
def test_cold_cache_serving_is_bit_identical(
    query, max_peers, k, peer_k, batch_size
):
    """Property: over any (query, knobs) the cold serving path answers
    exactly what ``run_query_networked`` answers — same top-k values and
    order, same peers queried."""
    front = ServingFrontend(
        SimNetExecutor(ENGINE, seed=3),
        IQNRouter(),
        max_peers=max_peers,
        k=k,
        peer_k=peer_k,
        batch_size=batch_size,
    )
    future = front.serve(query, initiator_id=INITIATOR)
    front.run()
    served = future.value
    reference = ENGINE.run_query_networked(
        query,
        IQNRouter(),
        initiator_id=INITIATOR,
        max_peers=max_peers,
        k=k,
        peer_k=peer_k,
    )
    assert not served.plan_hit
    assert served.topk == tuple(reference.merged[:k])
    assert served.queried == reference.selected
    assert not served.degraded
