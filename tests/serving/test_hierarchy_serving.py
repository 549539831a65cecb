"""Serving-layer additions riding with the topology tier: size-capped
LRU caches (eviction + counters) and per-cluster plan invalidation on
super-peer re-election."""

from __future__ import annotations

import pytest

from repro.churn import ChurnSchedule, ChurnService, MaintenanceConfig
from repro.churn.membership import MembershipEvent
from repro.core.iqn import IQNRouter
from repro.datasets.queries import Query
from repro.ir.documents import Corpus, Document
from repro.minerva.engine import MinervaEngine
from repro.net.cost import MessageKinds
from repro.serving import ServingFrontend, plan_key
from repro.serving.cache import (
    CachedPlan,
    ReferenceSynopsisCache,
    RoutingPlanCache,
)
from repro.simnet.executor import SimNetExecutor
from repro.simnet.faults import ChurnEvent, FaultPlan
from repro.synopses.factory import SynopsisSpec
from repro.topology import SuperPeerTopology

SPEC = SynopsisSpec.parse("mips-16")
QUERY = Query(0, ("apple", "banana"))
INITIATOR = "p00"
HORIZON_MS = 6_000.0
MAINTENANCE = MaintenanceConfig.for_repost_interval(
    4_000.0, stabilize_interval_ms=2_000.0
)
KNOBS = dict(max_peers=2, k=10, fallback_spares=2)


def key_for(terms, *, initiator="p00"):
    return plan_key(
        Query(0, tuple(terms)),
        IQNRouter(),
        initiator_id=initiator,
        max_peers=3,
        fallback_spares=1,
        conjunctive=False,
    )


def plan_for(*peers, terms=("a", "b")):
    return CachedPlan(
        ranked=tuple(peers),
        bounds={p: 1.0 for p in peers},
        terms=tuple(sorted(terms)),
        epoch=0,
    )


class TestPlanCacheLRU:
    def test_capacity_evicts_least_recently_used(self):
        cache = RoutingPlanCache(max_plans=2)
        cache.store(key_for(["a"]), plan_for("p01"))
        cache.store(key_for(["b"]), plan_for("p02"))
        cache.store(key_for(["c"]), plan_for("p03"))
        assert cache.lookup(key_for(["a"])) is None
        assert cache.lookup(key_for(["b"])) is not None
        assert cache.lookup(key_for(["c"])) is not None
        stats = cache.stats()
        assert stats.evicted == 1
        assert stats.size == 2

    def test_lookup_refreshes_recency(self):
        cache = RoutingPlanCache(max_plans=2)
        cache.store(key_for(["a"]), plan_for("p01"))
        cache.store(key_for(["b"]), plan_for("p02"))
        assert cache.lookup(key_for(["a"])) is not None
        cache.store(key_for(["c"]), plan_for("p03"))
        assert cache.lookup(key_for(["a"])) is not None
        assert cache.lookup(key_for(["b"])) is None

    def test_restore_of_existing_key_does_not_evict(self):
        cache = RoutingPlanCache(max_plans=2)
        cache.store(key_for(["a"]), plan_for("p01"))
        cache.store(key_for(["b"]), plan_for("p02"))
        cache.store(key_for(["a"]), plan_for("p09"))
        assert cache.stats().evicted == 0
        assert cache.lookup(key_for(["a"])).ranked == ("p09",)

    def test_uncapped_by_default(self):
        cache = RoutingPlanCache()
        for letter in "abcdefghij":
            cache.store(key_for([letter]), plan_for("p01"))
        assert cache.stats().size == 10
        assert cache.stats().evicted == 0

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            RoutingPlanCache(max_plans=0)

    def test_invalidate_peers_drops_every_touching_plan(self):
        cache = RoutingPlanCache()
        cache.store(key_for(["a"]), plan_for("p01", "p02"))
        cache.store(key_for(["b"]), plan_for("p02", "p03"))
        cache.store(key_for(["c"]), plan_for("p04"))
        dropped = cache.invalidate_peers(("p02", "p09"))
        assert dropped == 2
        assert cache.lookup(key_for(["a"])) is None
        assert cache.lookup(key_for(["b"])) is None
        assert cache.lookup(key_for(["c"])) is not None
        assert cache.stats().invalidated == 2

    def test_invalidate_peers_with_no_matches(self):
        cache = RoutingPlanCache()
        cache.store(key_for(["a"]), plan_for("p01"))
        assert cache.invalidate_peers(("p42",)) == 0
        assert cache.stats().invalidated == 0


class TestSynopsisCacheLRU:
    def test_capacity_evicts_oldest_entry(self):
        cache = ReferenceSynopsisCache(SPEC, max_entries=2)
        first = frozenset([1, 2])
        for ids in (first, frozenset([3, 4]), frozenset([5, 6])):
            cache.build(ids)
        hits_before = cache.stats().hits
        cache.build(first)  # evicted: rebuilt, not a hit
        assert cache.stats().hits == hits_before
        assert cache.stats().evicted >= 1

    def test_hit_refreshes_recency(self):
        cache = ReferenceSynopsisCache(SPEC, max_entries=2)
        first = frozenset([1, 2])
        cache.build(first)
        cache.build(frozenset([3, 4]))
        cache.build(first)  # refresh
        cache.build(frozenset([5, 6]))  # evicts {3,4}, not {1,2}
        hits_before = cache.stats().hits
        cache.build(first)
        assert cache.stats().hits == hits_before + 1

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            ReferenceSynopsisCache(SPEC, max_entries=0)


def make_super_engine() -> MinervaEngine:
    docs = {
        i: Document.from_terms(i, ["apple"] * (1 + i % 3) + ["banana"])
        for i in range(24)
    }
    collections = [
        Corpus.from_documents(docs[i % 24] for i in range(p * 4, p * 4 + 8))
        for p in range(6)
    ]
    engine = MinervaEngine(
        collections,
        spec=SPEC,
        replicas=2,
        topology=SuperPeerTopology(num_clusters=2, seed=0),
    )
    engine.publish({"apple", "banana"})
    return engine


class TestHierarchicalServing:
    def test_cold_serve_matches_one_shot_networked(self):
        engine = make_super_engine()
        front = ServingFrontend(
            SimNetExecutor(engine, seed=3), IQNRouter(), **KNOBS
        )
        future = front.serve(QUERY, initiator_id=INITIATOR)
        front.run()
        reference = make_super_engine().run_query_networked(
            QUERY, IQNRouter(), initiator_id=INITIATOR, **KNOBS
        )
        assert future.value.queried == reference.selected
        assert future.value.topk == tuple(reference.merged[: KNOBS["k"]])

    def test_one_seed_build_per_cold_serve(self, monkeypatch):
        # Cluster ranking and member ranking both seed from the
        # initiator through the front end's caching spec, so a cold
        # served query builds its seed once.
        engine = make_super_engine()
        engine.topology.ensure_clusters()
        front = ServingFrontend(
            SimNetExecutor(engine, seed=3), IQNRouter(), **KNOBS
        )
        builds = []
        original = SynopsisSpec.build

        def counting(spec, ids):
            builds.append(frozenset(ids))
            return original(spec, ids)

        monkeypatch.setattr(SynopsisSpec, "build", counting)
        future = front.serve(QUERY, initiator_id=INITIATOR)
        front.run()
        assert future.value.queried
        assert isinstance(front.executor.engine.topology, SuperPeerTopology)
        assert len(builds) == 1

    def test_cold_plan_that_skipped_a_cluster_is_not_cached(self):
        # The winning cluster's super-peer is down, so its member fetch
        # times out and the cluster is skipped.  No later re-election
        # could drop that plan (the skipped members are not in it), so
        # the front end must not cache it.
        engine = make_super_engine()
        topology = engine.topology
        probe = make_super_engine().run_query(
            QUERY,
            IQNRouter(),
            initiator_id=INITIATOR,
            max_peers=KNOBS["max_peers"],
        )
        (winner,) = probe.clusters_ranked
        victim = topology.super_of_cluster(winner)
        assert victim not in (INITIATOR, topology.super_peer_of(INITIATOR))
        executor = SimNetExecutor(
            engine,
            faults=FaultPlan(churn=(ChurnEvent(at_ms=0.0, peer_id=victim),)),
            seed=3,
        )
        front = ServingFrontend(executor, IQNRouter(), **KNOBS)
        cold = front.serve(QUERY, initiator_id=INITIATOR)
        front.run()
        assert not cold.value.plan_hit
        assert not set(cold.value.queried) & set(topology.members_of(winner))

        again = front.serve(QUERY, initiator_id=INITIATOR)
        front.run()
        assert not again.value.plan_hit
        assert front.plan_stats().size == 0

    def test_skipped_cluster_counts_as_degraded(self):
        # With the only winning cluster's super-peer down, the member
        # fetch never answers and neither path queries a single peer:
        # both must report the query as degraded.
        engine = make_super_engine()
        topology = engine.topology
        probe = make_super_engine().run_query(
            QUERY,
            IQNRouter(),
            initiator_id=INITIATOR,
            max_peers=KNOBS["max_peers"],
        )
        (winner,) = probe.clusters_ranked
        faults = FaultPlan(
            churn=(
                ChurnEvent(at_ms=0.0, peer_id=topology.super_of_cluster(winner)),
            )
        )
        front = ServingFrontend(
            SimNetExecutor(engine, faults=faults, seed=3), IQNRouter(), **KNOBS
        )
        served = front.serve(QUERY, initiator_id=INITIATOR)
        front.run()
        networked = make_super_engine().run_query_networked(
            QUERY,
            IQNRouter(),
            initiator_id=INITIATOR,
            faults=faults,
            **KNOBS,
        )
        for outcome in (served.value, networked):
            assert not outcome.selected
            assert not outcome.timed_out_peers and not outcome.failed_terms
            assert outcome.topology_fallbacks > 0
            assert outcome.degraded

    def test_hot_serve_skips_super_peer_traffic(self):
        front = ServingFrontend(
            SimNetExecutor(make_super_engine(), seed=3), IQNRouter(), **KNOBS
        )
        first = front.serve(QUERY, initiator_id=INITIATOR)
        front.run()
        second = front.serve(QUERY, initiator_id=INITIATOR)
        front.run()
        cold = first.value.cost.messages_by_kind
        hot = second.value.cost.messages_by_kind
        assert cold.get(MessageKinds.CLUSTER_FETCH, 0) == 1
        assert MessageKinds.CLUSTER_FETCH not in hot
        assert MessageKinds.MEMBER_FETCH not in hot
        assert second.value.plan_hit

    def test_super_crash_invalidates_cluster_plans(self):
        """Acceptance: a seeded super-peer crash re-elects
        deterministically and drops exactly the plans that touch the
        crashed cluster's members."""
        engine = make_super_engine()
        topology = engine.topology
        topology.ensure_clusters()
        super_peers = {
            c.label: c.super_peer for c in topology.clusters
        }
        # Crash the super of the cluster the cold plan routes into.
        front_probe = ServingFrontend(
            SimNetExecutor(make_super_engine(), seed=3), IQNRouter(), **KNOBS
        )
        probe = front_probe.serve(QUERY, initiator_id=INITIATOR)
        front_probe.run()
        target_cluster = topology.cluster_of(probe.value.queried[0])
        victim = super_peers[target_cluster]

        service = ChurnService(
            engine,
            ChurnSchedule(
                [MembershipEvent(at_ms=3_000.0, peer_id=victim, kind="crash")],
                horizon_ms=HORIZON_MS,
            ),
            maintenance=MAINTENANCE,
            seed=3,
        )
        front = ServingFrontend(service, IQNRouter(), **KNOBS)
        first = front.serve(QUERY, at_ms=0.0, initiator_id=INITIATOR)
        front.run(until_ms=2_999.0)
        assert first.done

        key = plan_key(
            QUERY,
            front.selector,
            initiator_id=INITIATOR,
            max_peers=front.max_peers,
            fallback_spares=front.fallback_spares,
            conjunctive=front.conjunctive,
        )
        assert front.plan_cache.lookup(key) is not None
        epoch_before = front.synopsis_cache.epoch
        front.run(until_ms=4_500.0)  # crash + stabilize tick (re-election)
        assert front.plan_cache.lookup(key) is None
        assert front.synopsis_cache.epoch > epoch_before

        second = front.serve(QUERY, initiator_id=INITIATOR)
        front.run()
        assert not second.value.plan_hit
        assert victim not in second.value.queried

    def test_reelection_is_deterministic_across_services(self):
        outcomes = []
        for _ in range(2):
            engine = make_super_engine()
            topology = engine.topology
            topology.ensure_clusters()
            victim = topology.clusters[0].super_peer
            service = ChurnService(
                engine,
                ChurnSchedule(
                    [
                        MembershipEvent(
                            at_ms=3_000.0, peer_id=victim, kind="crash"
                        )
                    ],
                    horizon_ms=HORIZON_MS,
                ),
                maintenance=MAINTENANCE,
                seed=3,
            )
            events = []
            service.subscribe(events.append)
            front = ServingFrontend(service, IQNRouter(), **KNOBS)
            front.serve(QUERY, at_ms=0.0, initiator_id=INITIATOR)
            front.run()
            outcomes.append(
                [
                    (e.kind, e.at_ms, e.peer_id, e.members)
                    for e in events
                    if e.kind == "reelect"
                ]
            )
        assert outcomes[0] and outcomes[0] == outcomes[1]
