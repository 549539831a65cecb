"""Tests for the simulated Chord ring."""

import math

import pytest

from repro.dht.hashing import chord_id
from repro.dht.ring import ChordRing


@pytest.fixture
def ring():
    return ChordRing([f"peer-{i}" for i in range(32)], bits=16)


class TestConstruction:
    def test_needs_nodes(self):
        with pytest.raises(ValueError):
            ChordRing([])

    def test_node_count(self, ring):
        assert len(ring) == 32

    def test_sorted_ids(self, ring):
        assert ring.node_ids == sorted(ring.node_ids)

    def test_pointers_consistent(self, ring):
        ids = ring.node_ids
        for position, node_id in enumerate(ids):
            node = ring.node(node_id)
            assert node.successor == ids[(position + 1) % len(ids)]
            assert node.predecessor == ids[(position - 1) % len(ids)]

    def test_finger_table_full(self, ring):
        node = ring.node(ring.node_ids[0])
        assert len(node.fingers) == 16
        for i, finger in enumerate(node.fingers):
            assert finger == ring.successor_of(node.finger_start(i))


class TestOwnership:
    def test_owner_is_successor_of_key(self, ring):
        for key in ("apple", "banana", 123):
            owner = ring.owner_of(key)
            assert owner.node_id == ring.successor_of(ring.key_id(key))

    def test_every_key_owned_by_exactly_one_node(self, ring):
        owners = {ring.owner_of(f"term-{i}").node_id for i in range(200)}
        assert owners <= set(ring.node_ids)

    def test_replica_nodes_are_distinct_successors(self, ring):
        replicas = ring.replica_nodes("apple", 3)
        assert len({n.node_id for n in replicas}) == 3
        assert replicas[0].node_id == ring.owner_of("apple").node_id

    def test_replicas_capped_by_ring_size(self):
        ring = ChordRing(["a", "b"], bits=16)
        assert len(ring.replica_nodes("x", 10)) == 2

    def test_replicas_validation(self, ring):
        with pytest.raises(ValueError):
            ring.replica_nodes("x", 0)


class TestLookup:
    def test_lookup_finds_owner(self, ring):
        for i in range(50):
            key = f"term-{i}"
            result = ring.lookup(key)
            assert result.owner == ring.owner_of(key).node_id

    def test_lookup_from_any_start(self, ring):
        key = "query-term"
        expected = ring.owner_of(key).node_id
        for start in ring.node_ids:
            assert ring.lookup(key, start_node=start).owner == expected

    def test_lookup_hops_logarithmic(self, ring):
        """Greedy finger routing: hops <= ~2 log2(n) for all keys."""
        bound = 2 * math.log2(len(ring)) + 1
        hops = [ring.lookup(f"t{i}").hops for i in range(200)]
        assert max(hops) <= bound

    def test_lookup_unknown_start_rejected(self, ring):
        with pytest.raises(KeyError):
            ring.lookup("x", start_node=-1)

    def test_single_node_ring(self):
        ring = ChordRing(["solo"], bits=16)
        result = ring.lookup("anything")
        assert result.owner == ring.node_ids[0]
        assert result.hops == 0


class TestStorage:
    def test_put_get_roundtrip(self, ring):
        ring.put("apple", {"posts": 3})
        assert ring.get("apple") == {"posts": 3}

    def test_get_missing_is_none(self, ring):
        assert ring.get("never-stored") is None

    def test_put_with_replicas(self, ring):
        nodes = ring.put("pear", "v", replicas=3)
        key = ring.key_id("pear")
        assert all(n.store[key] == "v" for n in nodes)


class TestChurn:
    def test_add_node_migrates_keys(self):
        ring = ChordRing([f"p{i}" for i in range(8)], bits=16)
        for i in range(100):
            ring.put(f"k{i}", i)
        ring.add_node("newcomer")
        # Every key must still be resolvable at its (new) owner.
        for i in range(100):
            assert ring.get(f"k{i}") == i

    def test_remove_node_hands_keys_to_successor(self):
        ring = ChordRing([f"p{i}" for i in range(8)], bits=16)
        for i in range(100):
            ring.put(f"k{i}", i)
        victim = ring.owner_of("k0").node_id
        ring.remove_node(victim)
        for i in range(100):
            assert ring.get(f"k{i}") == i

    def test_remove_unknown_raises(self):
        ring = ChordRing(["a", "b"], bits=16)
        with pytest.raises(KeyError):
            ring.remove_node(123456)

    def test_cannot_remove_last_node(self):
        ring = ChordRing(["solo"], bits=16)
        with pytest.raises(ValueError):
            ring.remove_node(ring.node_ids[0])

    def test_lookup_still_correct_after_churn(self):
        ring = ChordRing([f"p{i}" for i in range(16)], bits=16)
        ring.add_node("x1")
        ring.remove_node(ring.node_ids[3])
        ring.add_node("x2")
        for i in range(50):
            key = f"term-{i}"
            assert ring.lookup(key).owner == ring.owner_of(key).node_id


class TestNodeIdCollisions:
    # At the default 32 bits these two names hash to the same node id.
    PAIR = ("peer-88174", "peer-92512")

    def test_pair_really_collides(self):
        first, second = self.PAIR
        assert chord_id(first, salt="node") == chord_id(second, salt="node")

    def test_later_name_is_resalted_deterministically(self):
        first, second = self.PAIR
        ring = ChordRing(self.PAIR)
        assert ring.node_id_of(first) == chord_id(first, salt="node")
        assert ring.node_id_of(second) == chord_id(second, salt="node#1")
        assert len(ring) == 2
        assert ChordRing(self.PAIR).node_ids == ring.node_ids

    def test_pair_joins_leaves_and_looks_up_consistently(self):
        first, second = self.PAIR
        ring = ChordRing([first, "other"])
        keys = [f"key-{i}" for i in range(40)]
        for key in keys:
            ring.put(key, key)
        joined = ring.add_node(second)
        assert joined.node_id == ring.node_id_of(second)
        assert joined.node_id != ring.node_id_of(first)
        for start in ring.node_ids:
            for key in keys:
                assert ring.lookup(key, start_node=start).owner == (
                    ring.owner_of(key).node_id
                )
        for key in keys:
            assert ring.get(key) == key
        ring.remove_node(ring.node_id_of(first))
        with pytest.raises(KeyError):
            ring.node_id_of(first)
        for key in keys:
            assert ring.get(key) == key
        # Rejoining takes the plain id again: it is free now.
        ring.add_node(first)
        assert ring.node_id_of(first) == chord_id(first, salt="node")
        for key in keys:
            assert ring.get(key) == key

    def test_crash_forgets_the_name(self):
        ring = ChordRing(self.PAIR)
        second = ring.node_id_of(self.PAIR[1])
        ring.crash_node(second)
        with pytest.raises(KeyError):
            ring.node_id_of(self.PAIR[1])
        assert ring.add_node(self.PAIR[1]).node_id == second

    def test_small_ring_with_forced_collisions_fills_up(self):
        names = [f"n{i}" for i in range(16)]
        plain = {chord_id(name, bits=4, salt="node") for name in names}
        assert len(plain) < len(names)  # collisions are forced
        ring = ChordRing(names, bits=4)
        assert ring.node_ids == list(range(16))
        assert sorted(ring.node_id_of(name) for name in names) == list(range(16))
        with pytest.raises(ValueError, match="all taken"):
            ring.add_node("one-too-many")

    def test_more_names_than_ids_rejected_up_front(self):
        with pytest.raises(ValueError, match="do not fit"):
            ChordRing([f"n{i}" for i in range(17)], bits=4)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="already on the ring"):
            ChordRing(["a", "b", "a"], bits=16)
        ring = ChordRing(["a"], bits=16)
        with pytest.raises(ValueError, match="already on the ring"):
            ring.add_node("a")
