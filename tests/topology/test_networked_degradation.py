"""Networked super-peer assembly under faults: both degradations.

An unreachable initiator super-peer degrades to the full flat fetch; a
winning cluster whose super-peer never answers its member fetch is
skipped.  Each counts as one topology fallback.
"""

from __future__ import annotations

from repro.core.iqn import IQNRouter
from repro.datasets.queries import Query
from repro.simnet.faults import ChurnEvent, FaultPlan
from repro.topology import FlatTopology, SuperPeerTopology

from .conftest import make_topical_engine

QUERY = Query(0, ("apple", "banana"))


def make_engine():
    return make_topical_engine(
        "bf-512", topology=SuperPeerTopology(num_clusters=3, seed=0)
    )


def crashed(peer_id: str) -> FaultPlan:
    return FaultPlan(churn=(ChurnEvent(at_ms=0.0, peer_id=peer_id),))


def term_owners(engine, terms) -> set[str]:
    """Peers whose ring nodes own ``terms`` (one replica per term)."""
    peer_of_node = {
        node_id: peer_id
        for peer_id, node_id in engine.directory._node_of_peer.items()
    }
    return {peer_of_node[engine.ring.lookup(term).owner] for term in terms}


def test_unreachable_super_peer_falls_back_to_the_flat_plan():
    engine = make_engine()
    topology = engine.topology
    owners = term_owners(engine, QUERY.terms)
    cluster = next(c for c in topology.clusters if c.super_peer not in owners)
    initiator = next(m for m in cluster.members if m != cluster.super_peer)

    networked = engine.run_query_networked(
        QUERY,
        IQNRouter(),
        faults=crashed(cluster.super_peer),
        initiator_id=initiator,
        max_peers=3,
    )
    flat = FlatTopology()
    flat.bind(engine)
    plan = flat.route(
        QUERY,
        IQNRouter(),
        3,
        requester=initiator,
        initiator=engine.local_view(QUERY, initiator),
    )

    assert networked.topology_fallbacks == 1
    assert networked.failed_terms == ()
    assert networked.clusters_ranked == ()
    assert networked.super_peer_fetches == 0
    assert networked.outcome.selected == plan.selected


def test_unreachable_winner_is_skipped():
    engine = make_engine()
    topology = engine.topology
    max_peers = 4  # a cluster budget of isqrt(4) = 2 winners
    initiator, winners, victim = next(
        (peer_id, outcome.clusters_ranked, label)
        for peer_id in sorted(engine.peers)
        for outcome in [
            make_engine().run_query(
                QUERY, IQNRouter(), initiator_id=peer_id, max_peers=max_peers
            )
        ]
        for label in outcome.clusters_ranked
        if topology.super_of_cluster(label)
        not in (peer_id, topology.super_peer_of(peer_id))
    )
    skipped = set(topology.members_of(victim))

    networked = engine.run_query_networked(
        QUERY,
        IQNRouter(),
        faults=crashed(topology.super_of_cluster(victim)),
        initiator_id=initiator,
        max_peers=max_peers,
    )

    assert len(winners) == 2
    assert networked.clusters_ranked == winners
    assert networked.topology_fallbacks == 1
    assert networked.super_peer_fetches == len(networked.clusters_ranked)
    assert networked.outcome.selected
    assert not skipped & set(networked.outcome.selected)
