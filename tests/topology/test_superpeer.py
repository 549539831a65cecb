"""Tests for two-phase super-peer routing (SuperPeerTopology)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.aggregation import PerPeerAggregation, PerTermAggregation
from repro.core.iqn import IQNRouter
from repro.datasets.queries import Query
from repro.datasets.scale import ScaledTestbed, ScaledTestbedConfig
from repro.ir.documents import Corpus, Document
from repro.minerva.posts import PeerList, Post
from repro.net.cost import CostModel, MessageKinds
from repro.net.latency import LatencyProfile
from repro.simnet.clock import spawn
from repro.simnet.executor import SimNetExecutor
from repro.synopses.factory import SynopsisSpec
from repro.topology import SuperPeerTopology
from repro.topology.base import MemberFetch, ReElection, ScopedLists, selection_list

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
        # member_posts groups each term's posters; its row selections,
        # copied out, must hold exactly what probing every live member in
        # member order returns, before and after members go down and come
        # back.  The rows select from the stored list itself.
        engine = make_superpeer_engine()
        terms = tuple(sorted(engine.directory.stored_terms())) + ("unknown",)
        for term in terms[:-1]:
            # Re-posting the first poster swap-moves the last one into its
            # row, so stored order no longer follows member order.
            stored = engine.directory.stored_list(term)
            first = next(iter(stored.posts))
            post = stored.get(first)
            stored.remove(first)
            stored.add(post)
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
                selections, bits = topology.member_posts(cluster.label, terms)
                lists = {
                    term: selection_list(term, selection)
                    for term, selection in selections.items()
                }
                # PeerList equality ignores row order; compare ordered posts.
                ordered = {term: list(lists[term]) for term in lists}
                assert (ordered, bits) == probed(cluster.label)
                assert bits == sum(pl.size_in_bits for pl in lists.values())
                for term, (source, _) in selections.items():
                    stored = engine.directory.stored_list(term)
                    if stored is not None:
                        assert source is stored

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
        selections, bits = topology.member_posts("no-such-cluster", terms)
        assert {
            term: list(selection_list(term, selection))
            for term, selection in selections.items()
        } == {term: [] for term in terms}
        assert bits == 0


def cluster_entries(topology, terms):
    """Every cluster list as ``{term: {label: fields}}``: floats as hex,
    packed synopsis rows as bytes (``None`` without a synopsis)."""
    lists, _ = topology.cluster_peer_lists(terms)
    out = {}
    for term, peer_list in lists.items():
        columns = peer_list.columns
        count = len(columns)
        column = columns.synopsis_column
        packed = None if column is None else column.rows(count)
        flags = columns.synopsis_flags()
        out[term] = {
            label: (
                int(columns.cdf_values()[row]),
                float(columns.max_scores()[row]).hex(),
                float(columns.avg_scores()[row]).hex(),
                int(columns.term_space_values()[row]),
                packed[row].tobytes() if flags[row] else None,
            )
            for row, label in enumerate(columns.table.names(columns.interned_ids()))
        }
    return out


class TestRefoldEqualsRebuild:
    """A cluster refolded by the churn hooks equals a fresh build's."""

    @pytest.mark.parametrize("spec_label", ["mips-16", "bf-256"])
    def test_moved_rows_then_down_and_up_match_a_fresh_build(self, spec_label):
        config = ScaledTestbedConfig(num_peers=600, num_topics=6, seed=5)
        testbed = ScaledTestbed(config, spec=SynopsisSpec.parse(spec_label, seed=2))
        topology = SuperPeerTopology(seed=1)
        topology.bind(testbed)
        clusters = topology.ensure_clusters()
        terms = tuple(sorted(testbed.directory.stored_terms()))
        # Move stored rows as a TTL expiry and a recovery repost do: each
        # removal swaps the last row into the hole, the repost appends,
        # so stored order drifts away from member order.
        for term in terms:
            stored = testbed.directory.stored_list(term)
            for peer_id in sorted(stored.peer_ids)[::3]:
                post = stored.get(peer_id)
                assert stored.remove(peer_id)
                stored.add(post)
        for cluster in clusters:
            topology.handle_peer_down(cluster.members[-1])
            topology.handle_peer_up(cluster.members[-1])
        fresh = SuperPeerTopology(seed=1)
        fresh.bind(testbed)
        assert fresh.ensure_clusters() == clusters
        assert cluster_entries(topology, terms) == cluster_entries(fresh, terms)

    def test_cluster_without_synopses_keeps_an_entry_without_one(self):
        engine = make_superpeer_engine()
        # Another topic's peers post "apple" without synopses; with no
        # synopsis their profiles, hence the clusters, stay the same.
        stored = engine.directory.stored_list("apple")
        strangers = sorted(set(engine.peers) - stored.peer_ids)[:2]
        for peer_id in strangers:
            stored.add(
                Post(
                    peer_id=peer_id,
                    term="apple",
                    cdf=3,
                    max_score=0.5,
                    avg_score=0.25,
                    term_space_size=10,
                )
            )
        topology = engine.topology
        terms = tuple(sorted(engine.directory.stored_terms()))
        posters = {topology.cluster_of(peer_id) for peer_id in stored.peer_ids}
        bare = {topology.cluster_of(peer_id) for peer_id in strangers}
        assert bare < posters
        entries = cluster_entries(topology, terms)["apple"]
        assert {label for label, fields in entries.items() if fields[4] is None} == bare
        for label in sorted(bare):
            member = topology.members_of(label)[-1]
            topology.handle_peer_down(member)
            topology.handle_peer_up(member)
        fresh = SuperPeerTopology(num_clusters=3, seed=0)
        fresh.bind(engine)
        assert cluster_entries(topology, terms) == cluster_entries(fresh, terms)

    def test_down_drops_and_up_restores_a_sole_posters_entry(self):
        engine = make_superpeer_engine()
        topology = engine.topology
        terms = tuple(sorted(engine.directory.stored_terms()))
        before = cluster_entries(topology, terms)
        label = topology.clusters[0].label
        for member in topology.members_of(label):
            topology.handle_peer_down(member)
        down = cluster_entries(topology, terms)
        assert all(label not in entries for entries in down.values())
        for member in topology.members_of(label):
            topology.handle_peer_up(member)
        assert cluster_entries(topology, terms) == before


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
                    lists[term].add(post)
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


def networked_assembly(executor, query, view, max_peers):
    """``query``'s assembly driven over simnet, and what it was charged."""
    cost = CostModel()
    job = spawn(
        executor.assemble(
            query,
            INITIATOR,
            cost,
            initiator=view,
            conjunctive=False,
            max_peers=max_peers,
            successor_fallback=False,
        )
    )
    executor.clock.run()
    return job.value, cost.snapshot()


def ordered_lists(scoped):
    return {term: list(peer_list) for term, peer_list in scoped.peer_lists.items()}


class TestNetworkedAssembly:
    """One merge serves both drivers; only a networked reply is copied."""

    QUERIES = (
        Query(0, ("apple", "banana")),
        Query(1, ("cherry", "citrus", "apple")),
        Query(2, ("berry", "unknown")),
    )

    def make_engine(self):
        engine = make_topical_engine(
            "bf-512",
            peers_per_topic=4,
            topology=SuperPeerTopology(num_clusters=3, seed=0, cluster_budget=2),
        )
        engine.topology.ensure_clusters()
        return engine

    def test_in_process_and_networked_merge_identically(self):
        engine = self.make_engine()
        topology = engine.topology
        for query in self.QUERIES:
            view = engine.local_view(query, INITIATOR)
            before = engine.cost.snapshot()
            passive = topology.assemble(
                query, requester=INITIATOR, initiator=view, max_peers=4
            )
            spent = engine.cost.snapshot() - before
            networked, cost = networked_assembly(
                SimNetExecutor(engine), query, view, 4
            )
            assert networked.clusters_ranked == passive.clusters_ranked
            assert ordered_lists(networked) == ordered_lists(passive)
            assert any(ordered_lists(passive).values())
            for term, peer_list in passive.peer_lists.items():
                assert networked.peer_lists[term].size_in_bits == peer_list.size_in_bits
            for kind in (MessageKinds.CLUSTER_FETCH, MessageKinds.MEMBER_FETCH):
                assert cost.bits(kind) == spent.bits(kind)
                assert cost.messages(kind) == spent.messages(kind)
            assert networked.scope_size == passive.scope_size
            assert networked.topology_fallbacks == 0

    def test_reply_holds_the_rows_answered_before_a_rewrite(self, monkeypatch):
        # Between the super-peer's answer and the reply's arrival, churn
        # rewrites the stored lists: each answered poster is removed
        # (swap-with-last re-points its row) and re-posted with another
        # cdf.  The merged lists must still hold the handler-time rows.
        engine = self.make_engine()
        topology = engine.topology
        query = self.QUERIES[1]
        view = engine.local_view(query, INITIATOR)
        expected = topology.assemble(
            query, requester=INITIATOR, initiator=view, max_peers=4
        )
        executor = SimNetExecutor(engine)
        rewritten = []
        original = topology.answer

        def rewrite(source, peer_id):
            post = source.get(peer_id)
            source.remove(peer_id)
            source.add(dataclasses.replace(post, cdf=post.cdf + 1000))
            rewritten.append((source.term, peer_id))

        def answer_then_rewrite(requests, node_id=None):
            replies = original(requests, node_id)
            for request, (reply, _) in zip(requests, replies):
                if not isinstance(request, MemberFetch):
                    continue
                for source, rows in reply.values():
                    if len(rows):
                        peer_id = source.peer_table.name(
                            int(source.columns.interned_ids()[rows[0]])
                        )
                        executor.clock.schedule(
                            0.0, lambda s=source, p=peer_id: rewrite(s, p)
                        )
            return replies

        monkeypatch.setattr(topology, "answer", answer_then_rewrite)
        networked, _ = networked_assembly(executor, query, view, 4)
        assert rewritten, "no answered poster was rewritten"
        for term, peer_id in rewritten:
            stored = engine.directory.stored_list(term)
            assert stored.get(peer_id).cdf >= 1000
            assert stored.get(peer_id) not in list(expected.peer_lists[term])
        assert networked.clusters_ranked == expected.clusters_ranked
        assert ordered_lists(networked) == ordered_lists(expected)


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
