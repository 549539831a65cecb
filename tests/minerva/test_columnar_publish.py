"""Columnar ``Directory.publish_batch`` against per-post publishing.

The oracle is a test-local copy of the historical ``publish_batch``:
look every post up, charge routing once per destination node, charge
each node's payload, then ``PeerList.add(post, retain=False)`` one post
at a time.  The columnar path must leave the same pickled store on
every node, the same peer-table order and the same cost snapshot — for
hand-built Post lists and for ``ScaledTestbed`` construction, whose
synopses come out of the batched builders already packed.
"""

from __future__ import annotations

import pickle
import random

import pytest

import repro.datasets.scale as scale
from repro.datasets.scale import ScaledTestbed, ScaledTestbedConfig
from repro.dht.ring import ChordRing
from repro.minerva.directory import Directory
from repro.minerva.posts import PeerList, Post, PostBatch
from repro.net.cost import MessageKinds
from repro.parallel.seeding import derive_seed
from repro.synopses import HashSketch, ScoreHistogramSynopsis, SynopsisSpec


def oracle_publish_batch(directory, posts):
    """``publish_batch`` as it was: one Post at a time into the columns."""
    by_owner = {}
    charged = set()
    for post in posts:
        lookup = directory.ring.lookup(
            post.term, start_node=directory._start_node(post.peer_id)
        )
        if lookup.owner not in charged:
            directory.cost.record(MessageKinds.DHT_HOP, count=lookup.hops)
            charged.add(lookup.owner)
        by_owner.setdefault(lookup.owner, []).append(post)
    messages = 0
    for owner_posts in by_owner.values():
        bits = sum(post.size_in_bits for post in owner_posts)
        directory.cost.record(
            MessageKinds.POST, bits=bits * directory.replicas, count=directory.replicas
        )
        messages += directory.replicas
        for post in owner_posts:
            key = directory.ring.key_id(post.term)
            for node in directory.ring.replica_nodes(post.term, directory.replicas):
                peer_list = node.store.get(key)
                if peer_list is None:
                    peer_list = PeerList(term=post.term, peer_table=directory.peer_table)
                    node.store[key] = peer_list
                peer_list.add(post, retain=False)
    return messages


def assert_same_directory(directory, oracle):
    assert directory.peer_table._names == oracle.peer_table._names
    assert directory.cost.snapshot() == oracle.cost.snapshot()
    for node_id in oracle.ring.node_ids:
        stored = directory.ring.node(node_id).store
        expected = oracle.ring.node(node_id).store
        assert list(stored) == list(expected)
        assert pickle.dumps(stored) == pickle.dumps(expected)


def make_directory(replicas=1):
    peers = [f"peer{i}" for i in range(6)]
    ring = ChordRing(peers + [f"n{i}" for i in range(4)], bits=16)
    node_of_peer = {peer: ring.node_id_of(peer) for peer in peers}
    return Directory(ring, replicas=replicas, node_of_peer=node_of_peer)


def mixed_posts(seed):
    """Posts over a few terms: repeats, None and foreign synopses,
    histograms, and peers with and without a ring node."""
    rng = random.Random(seed)
    specs = [SynopsisSpec.parse("bf-64"), SynopsisSpec.parse("mips-4")]
    posts = []
    for _ in range(40):
        ids = rng.sample(range(300), rng.randint(0, 12))
        choice = rng.randrange(5)
        if choice == 0:
            synopsis = None
        elif choice == 1:
            synopsis = HashSketch.from_ids(ids, num_bitmaps=2, bitmap_length=80)
        else:
            synopsis = specs[rng.randrange(2)].build(ids)
        histogram = None
        if rng.random() < 0.2:
            histogram = ScoreHistogramSynopsis.from_scored_ids(
                [(i, rng.random()) for i in ids], spec=specs[1], num_cells=2
            )
        posts.append(
            Post(
                peer_id=f"peer{rng.randrange(9)}",
                term=f"term{rng.randrange(5)}",
                cdf=len(ids),
                max_score=rng.random(),
                avg_score=rng.random() / 2,
                term_space_size=rng.randrange(1, 9),
                synopsis=synopsis,
                histogram=histogram,
            )
        )
    return posts


@pytest.mark.parametrize("replicas", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_post_lists_publish_as_one_at_a_time(seed, replicas):
    directory, oracle = make_directory(replicas), make_directory(replicas)
    for round_seed in (seed, seed + 10):
        posts = mixed_posts(round_seed)
        messages = directory.publish_batch(posts)
        assert messages == oracle_publish_batch(oracle, posts)
        assert_same_directory(directory, oracle)


def test_batch_and_post_list_publish_the_same():
    posts = mixed_posts(3)
    from_list, from_batch = make_directory(), make_directory()
    from_list.publish_batch(posts)
    from_batch.publish_batch(PostBatch.from_posts(posts))
    assert_same_directory(from_batch, from_list)


def test_mismatched_batch_columns_are_rejected():
    batch = PostBatch.from_posts(mixed_posts(4))
    with pytest.raises(ValueError, match="differ in length"):
        PostBatch(
            peer_ids=batch.peer_ids[:-1],
            terms=batch.terms,
            cdf=batch.cdf,
            max_score=batch.max_score,
            avg_score=batch.avg_score,
            term_space_size=batch.term_space_size,
            synopses=batch.synopses,
        )


# -- ScaledTestbed construction -----------------------------------------------


def oracle_testbed_directory(testbed, chunk):
    """The testbed's directory built the historical way: one Post (and
    one synopsis object) per (peer, term), chunk by chunk."""
    config = testbed.config
    ring = ChordRing(
        [f"n{i}" for i in range(config.directory_nodes)], bits=config.ring_bits
    )
    directory = Directory(ring)
    batch = []
    for index in range(config.num_peers):
        for term in testbed.peer_terms(index):
            ids = testbed.doc_ids(index, term)
            rng = random.Random(derive_seed(config.seed, f"scores:{index}:{term}"))
            max_score = 0.2 + 0.8 * rng.random()
            batch.append(
                Post(
                    peer_id=testbed.peer_id(index),
                    term=term,
                    cdf=len(ids),
                    max_score=max_score,
                    avg_score=max_score * (0.3 + 0.4 * rng.random()),
                    term_space_size=config.terms_per_topic + config.noise_terms,
                    synopsis=testbed.spec.build(ids),
                )
            )
        if index % chunk == chunk - 1:
            oracle_publish_batch(directory, batch)
            batch = []
    if batch:
        oracle_publish_batch(directory, batch)
    return directory


@pytest.mark.parametrize("label", ["bf-512", "mips-16", "hs-8", "ll-32"])
def test_scaled_testbed_matches_per_post_publishing(monkeypatch, label):
    # ~300 peers over two publish chunks, several hash blocks each.
    monkeypatch.setattr(scale, "_PUBLISH_CHUNK", 160)
    monkeypatch.setattr(scale, "_HASH_BLOCK", 48)
    config = ScaledTestbedConfig(num_peers=300, num_topics=6, seed=3)
    testbed = ScaledTestbed(config, spec=SynopsisSpec.parse(label, seed=4))
    assert_same_directory(testbed.directory, oracle_testbed_directory(testbed, 160))


def test_scaled_testbed_with_unpackable_synopses(monkeypatch):
    monkeypatch.setattr(scale, "_PUBLISH_CHUNK", 25)
    monkeypatch.setattr(scale, "_HASH_BLOCK", 10)
    spec = SynopsisSpec(kind="hash-sketch", parameter=4, bitmap_length=72)
    testbed = ScaledTestbed(ScaledTestbedConfig(num_peers=40, num_topics=3), spec=spec)
    assert_same_directory(testbed.directory, oracle_testbed_directory(testbed, 25))
