"""Tests for two-phase super-peer routing (SuperPeerTopology)."""

from __future__ import annotations

import pytest

from repro.core.aggregation import PerPeerAggregation, PerTermAggregation
from repro.core.iqn import IQNRouter
from repro.datasets.queries import Query
from repro.ir.documents import Corpus, Document
from repro.net.cost import MessageKinds
from repro.net.latency import LatencyProfile
from repro.topology import SuperPeerTopology
from repro.minerva.posts import PeerList
from repro.synopses.factory import SynopsisSpec
from repro.topology.base import ReElection, ScopedLists

from .conftest import make_topical_engine

QUERY = Query(0, ("apple", "banana"))
INITIATOR = "p00"


def make_superpeer_engine(
    spec_label: str = "bf-512", *, num_clusters: int = 3, seed: int = 0, **kw
):
    return make_topical_engine(
        spec_label,
        topology=SuperPeerTopology(
            num_clusters=num_clusters, seed=seed, **kw
        ),
    )


class TestClusterState:
    def test_build_is_deterministic(self):
        first = make_superpeer_engine().topology
        second = make_superpeer_engine().topology
        assert first.ensure_clusters() == second.ensure_clusters()

    def test_every_peer_in_exactly_one_cluster(self):
        engine = make_superpeer_engine()
        clusters = engine.topology.ensure_clusters()
        seen = [p for c in clusters for p in c.members]
        assert sorted(seen) == sorted(engine.peers)

    def test_super_peer_is_a_member(self):
        for cluster in make_superpeer_engine().topology.ensure_clusters():
            assert cluster.super_peer in cluster.members

    def test_cache_signature_reflects_knobs(self):
        a = SuperPeerTopology(num_clusters=3, seed=0)
        b = SuperPeerTopology(num_clusters=4, seed=0)
        c = SuperPeerTopology(num_clusters=3, seed=1)
        assert len({a.cache_signature(), b.cache_signature(), c.cache_signature()}) == 3

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SuperPeerTopology(num_clusters=0)
        with pytest.raises(ValueError):
            SuperPeerTopology(cluster_budget=0)
        with pytest.raises(ValueError):
            SuperPeerTopology(refine_rounds=-1)


class TestBudgetSplit:
    def test_explicit_budget_wins(self):
        assert SuperPeerTopology(cluster_budget=7).resolve_cluster_budget(100) == 7

    def test_isqrt_of_max_peers(self):
        topo = SuperPeerTopology()
        assert topo.resolve_cluster_budget(16) == 4
        assert topo.resolve_cluster_budget(1) == 1

    def test_default_without_max_peers(self):
        assert SuperPeerTopology().resolve_cluster_budget(None) == 3


class TestRouting:
    def test_selected_come_from_winning_clusters(self):
        engine = make_superpeer_engine()
        outcome = engine.run_query(
            QUERY, IQNRouter(), initiator_id=INITIATOR, max_peers=3
        )
        topology = engine.topology
        assert outcome.clusters_ranked
        winners = set(outcome.clusters_ranked)
        for peer_id in outcome.selected:
            assert topology.cluster_of(peer_id) in winners

    def test_super_fetches_counted(self):
        engine = make_superpeer_engine()
        outcome = engine.run_query(
            QUERY, IQNRouter(), initiator_id=INITIATOR, max_peers=3
        )
        assert outcome.super_fetches == 1 + len(outcome.clusters_ranked)

    def test_charges_cluster_and_member_fetches_not_hops(self):
        engine = make_superpeer_engine()
        outcome = engine.run_query(
            QUERY, IQNRouter(), initiator_id=INITIATOR, max_peers=3
        )
        assert outcome.cost.messages(MessageKinds.CLUSTER_FETCH) == 1
        assert outcome.cost.messages(MessageKinds.MEMBER_FETCH) == len(
            outcome.clusters_ranked
        )
        assert outcome.cost.messages(MessageKinds.DHT_HOP) == 0
        assert outcome.cost.messages(MessageKinds.PEERLIST_FETCH) == 0

    def test_fewer_messages_than_flat(self):
        flat_outcome = make_topical_engine("bf-512").run_query(
            QUERY, IQNRouter(), initiator_id=INITIATOR, max_peers=3
        )
        super_outcome = make_superpeer_engine().run_query(
            QUERY, IQNRouter(), initiator_id=INITIATOR, max_peers=3
        )
        assert (
            super_outcome.cost.total_messages
            < flat_outcome.cost.total_messages
        )

    def test_peer_list_limit_unsupported(self):
        engine = make_superpeer_engine()
        with pytest.raises(ValueError, match="peer_list_limit"):
            engine.run_query(
                QUERY,
                IQNRouter(),
                initiator_id=INITIATOR,
                max_peers=3,
                peer_list_limit=2,
            )

    @pytest.mark.parametrize(
        "member_aggregation", (PerPeerAggregation, PerTermAggregation)
    )
    def test_one_seed_build_per_routed_query(self, monkeypatch, member_aggregation):
        # Both phases seed IQN's reference from the same initiator, so a
        # routed query builds each distinct seed synopsis exactly once.
        engine = make_superpeer_engine()
        topology = engine.topology
        topology.ensure_clusters()
        view = engine.local_view(QUERY, INITIATOR)
        builds = []
        original = SynopsisSpec.build

        def counting(spec, ids):
            builds.append(frozenset(ids))
            return original(spec, ids)

        monkeypatch.setattr(SynopsisSpec, "build", counting)
        plan = topology.route(
            QUERY,
            IQNRouter(member_aggregation()),
            3,
            requester=INITIATOR,
            initiator=view,
        )
        assert plan.selected
        seeds = {view.result_doc_ids}
        if member_aggregation is PerTermAggregation:
            seeds |= set(view.doc_ids_by_term.values())
        assert sorted(builds, key=sorted) == sorted(seeds, key=sorted)

    def test_one_seed_build_per_networked_query(self, monkeypatch):
        # The networked path ranks clusters and members in two contexts
        # too; they share one seed dict, so the seed is built once.
        engine = make_superpeer_engine()
        engine.topology.ensure_clusters()
        builds = []
        original = SynopsisSpec.build

        def counting(spec, ids):
            builds.append(frozenset(ids))
            return original(spec, ids)

        monkeypatch.setattr(SynopsisSpec, "build", counting)
        networked = engine.run_query_networked(
            QUERY, IQNRouter(), initiator_id=INITIATOR, max_peers=3
        )
        assert networked.outcome.selected
        assert networked.clusters_ranked
        assert len(builds) == 1

    def test_networked_matches_passive_without_faults(self):
        passive = make_superpeer_engine().run_query(
            QUERY, IQNRouter(), initiator_id=INITIATOR, max_peers=3
        )
        networked = make_superpeer_engine().run_query_networked(
            QUERY, IQNRouter(), initiator_id=INITIATOR, max_peers=3
        )
        assert networked.outcome.selected == passive.selected
        assert networked.clusters_ranked == passive.clusters_ranked
        assert networked.super_peer_fetches == passive.super_fetches
        assert networked.topology_fallbacks == 0


class TestChurnHooks:
    def test_member_down_rebuilds_without_reelection(self):
        engine = make_superpeer_engine()
        topology = engine.topology
        topology.ensure_clusters()
        label = topology.clusters[0].label
        victim = next(
            p
            for p in topology.members_of(label)
            if p != topology.super_of_cluster(label)
        )
        assert topology.handle_peer_down(victim) is None
        assert victim not in topology.live_members(label)

    def test_super_down_triggers_deterministic_reelection(self):
        results = []
        for _ in range(2):
            engine = make_superpeer_engine()
            topology = engine.topology
            topology.ensure_clusters()
            label = topology.clusters[0].label
            old_super = topology.super_of_cluster(label)
            reelection = topology.handle_peer_down(old_super)
            results.append(reelection)
        first, second = results
        assert isinstance(first, ReElection)
        assert first == second
        assert first.old_super != first.new_super
        assert first.old_super not in first.members
        assert first.new_super in first.members

    def test_down_peer_excluded_from_routing_scope(self):
        engine = make_superpeer_engine()
        topology = engine.topology
        outcome = engine.run_query(
            QUERY, IQNRouter(), initiator_id=INITIATOR, max_peers=3
        )
        victim = outcome.selected[0]
        topology.handle_peer_down(victim)
        after = engine.run_query(
            QUERY, IQNRouter(), initiator_id=INITIATOR, max_peers=3
        )
        assert victim not in after.selected

    def test_unknown_or_repeated_down_is_noop(self):
        engine = make_superpeer_engine()
        topology = engine.topology
        topology.ensure_clusters()
        assert topology.handle_peer_down("nobody") is None
        label = topology.clusters[0].label
        super_peer = topology.super_of_cluster(label)
        assert topology.handle_peer_down(super_peer) is not None
        assert topology.handle_peer_down(super_peer) is None

    def test_peer_up_restores_membership(self):
        engine = make_superpeer_engine()
        topology = engine.topology
        topology.ensure_clusters()
        label = topology.clusters[0].label
        victim = next(
            p
            for p in topology.members_of(label)
            if p != topology.super_of_cluster(label)
        )
        topology.handle_peer_down(victim)
        topology.handle_peer_up(victim)
        assert victim in topology.live_members(label)

    def test_member_posts_match_a_probe_of_live_members(self):
        # member_posts scans each term's posters; it must return exactly
        # what probing every live member in member order returns, before
        # and after members go down and come back.
        engine = make_superpeer_engine()
        terms = tuple(sorted(engine.directory.stored_terms())) + ("unknown",)
        for term in terms[:-1]:
            # Re-posting the first poster swap-moves the last one into its
            # row, so stored order no longer follows member order.
            stored = engine.directory.stored_list(term)
            first = next(iter(stored.posts))
            post = stored.get(first)
            del stored.posts[first]
            stored.add(post, retain=False)
        topology = engine.topology
        topology.ensure_clusters()

        def probed(label):
            out, bits = {}, 0
            for term in terms:
                stored = engine.directory.stored_list(term)
                posts = []
                for member in topology.live_members(label):
                    post = None if stored is None else stored.get(member)
                    if post is not None:
                        posts.append(post)
                        bits += post.size_in_bits
                out[term] = posts
            return out, bits

        def check():
            for cluster in topology.clusters:
                lists, bits = topology.member_posts(cluster.label, terms)
                # PeerList equality ignores row order; compare ordered posts.
                ordered = {term: list(lists[term]) for term in lists}
                assert (ordered, bits) == probed(cluster.label)
                assert bits == sum(pl.size_in_bits for pl in lists.values())

        check()
        downed = [cluster.members[0] for cluster in topology.clusters]
        downed.append(topology.clusters[0].members[-1])
        for peer_id in downed:
            topology.handle_peer_down(peer_id)
            check()
        for peer_id in downed:
            topology.handle_peer_up(peer_id)
            check()
        # A peer that joins after the build posts but belongs to no cluster.
        late = Corpus.from_documents([Document.from_terms(999, ["apple", "banana"])])
        engine.add_peer("late", late)
        assert engine.directory.stored_list("apple").get("late") is not None
        check()
        lists, bits = topology.member_posts("no-such-cluster", terms)
        assert {term: list(pl) for term, pl in lists.items()} == {
            term: [] for term in terms
        }
        assert bits == 0


def oracle_scoped_lists(engine, topology, winners, terms):
    """Phase two post by post: each winner's live members in member
    order, every Post materialized and re-added — the assembly the
    column gather replaces."""
    table = engine.directory.peer_table
    lists = {term: PeerList(term=term, peer_table=table) for term in terms}
    fetch_bits = []
    for label in winners:
        bits = 0
        for term in terms:
            stored = engine.directory.stored_list(term)
            for member in topology.live_members(label):
                post = None if stored is None else stored.get(member)
                if post is not None:
                    lists[term].add(post, retain=False)
                    bits += post.size_in_bits
        fetch_bits.append(bits)
    return lists, fetch_bits


class TestAssembleEquivalence:
    @pytest.mark.parametrize("spec_label", ["mips-16", "bf-512", "hs-32", "ll-128"])
    def test_gathered_assembly_matches_post_by_post_oracle(self, spec_label):
        engine = make_topical_engine(
            spec_label,
            peers_per_topic=4,
            topology=SuperPeerTopology(
                num_clusters=3, seed=0, cluster_budget=2
            ),
        )
        topology = engine.topology
        topology.ensure_clusters()
        queries = [
            Query(0, ("apple", "banana")),
            Query(1, ("cherry", "citrus", "apple")),
            Query(2, ("berry", "unknown")),
        ]

        def check():
            for query in queries:
                terms = tuple(dict.fromkeys(query.terms))
                before = engine.cost.snapshot()
                scoped = topology.assemble(query, max_peers=4)
                spent = engine.cost.snapshot() - before
                winners = scoped.clusters_ranked
                lists, fetch_bits = oracle_scoped_lists(
                    engine, topology, winners, terms
                )
                assert list(scoped.peer_lists) == list(terms)
                for term in terms:
                    assert list(scoped.peer_lists[term]) == list(lists[term])
                    assert (
                        scoped.peer_lists[term].size_in_bits
                        == lists[term].size_in_bits
                    )
                _, cluster_bits = topology.cluster_peer_lists(terms)
                assert spent.bits(MessageKinds.MEMBER_FETCH) == sum(fetch_bits)
                assert spent.messages(MessageKinds.MEMBER_FETCH) == len(winners)
                assert spent.bits(MessageKinds.CLUSTER_FETCH) == cluster_bits
                assert scoped.scope_size == sum(
                    len(topology.live_members(label)) for label in winners
                )
                context = topology.context_for(query, scoped)
                oracle_context = topology.context_for(
                    query, ScopedLists(peer_lists=lists)
                )
                assert IQNRouter().rank(context, 4) == IQNRouter(
                    fast_path=False
                ).rank(oracle_context, 4)

        check()
        downed = [cluster.members[-1] for cluster in topology.clusters]
        downed.append(topology.clusters[0].super_peer)
        for peer_id in downed:
            topology.handle_peer_down(peer_id)
            check()
        for peer_id in downed:
            topology.handle_peer_up(peer_id)
            check()

    def test_networked_assembly_matches_passive_after_churn(self):
        engine = make_superpeer_engine()
        topology = engine.topology
        topology.ensure_clusters()
        for cluster in topology.clusters:
            topology.handle_peer_down(cluster.members[-1])
        passive = engine.run_query(
            QUERY, IQNRouter(), initiator_id=INITIATOR, max_peers=3
        )
        networked = engine.run_query_networked(
            QUERY, IQNRouter(), initiator_id=INITIATOR, max_peers=3
        )
        assert networked.outcome.selected == passive.selected
        assert networked.clusters_ranked == passive.clusters_ranked
        for kind in (MessageKinds.CLUSTER_FETCH, MessageKinds.MEMBER_FETCH):
            assert networked.outcome.cost.bits(kind) == passive.cost.bits(kind)


class TestLatencyProfiles:
    def test_intra_vs_inter_cluster_profile(self):
        intra = LatencyProfile(per_message_ms=1.0, per_kilobit_ms=0.0)
        inter = LatencyProfile(per_message_ms=9.0, per_kilobit_ms=0.0)
        engine = make_topical_engine(
            "bf-512",
            topology=SuperPeerTopology(
                num_clusters=3, seed=0, intra_profile=intra, inter_profile=inter
            ),
        )
        topology = engine.topology
        topology.ensure_clusters()
        label = topology.clusters[0].label
        members = topology.members_of(label)
        assert topology.latency_profile_of(members[0], members[-1]) is intra
        other = next(
            c.members[0] for c in topology.clusters if c.label != label
        )
        assert topology.latency_profile_of(members[0], other) is inter

    def test_unknown_peers_fall_back_to_base(self):
        topology = SuperPeerTopology(
            intra_profile=LatencyProfile(per_message_ms=1.0)
        )
        assert topology.latency_profile_of("x", "y") is None
