"""The simulated Chord ring: lookups, routing hops, replication.

Implements the structural core of Chord (Stoica et al. 2001) that the
MINERVA directory needs:

- **key responsibility**: a key is owned by its *successor* — the first
  node clockwise from the key's ring id;
- **finger-table routing**: ``lookup`` walks greedy closest-preceding
  fingers, returning the hop count (``O(log n)`` w.h.p.), so the cost
  model can charge real routing work for directory operations;
- **replication**: "the responsibility for a term can be replicated
  across multiple peers" (Section 4) — ``replica_nodes`` returns the
  ``r`` immediate successors.

Churn is modeled by ``add_node`` / ``remove_node``, which re-derive the
affected finger tables and migrate stored keys to their new owners.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable

from .hashing import DEFAULT_ID_BITS, chord_id, in_interval
from .node import ChordNode

__all__ = ["ChordRing", "LookupResult"]


class LookupResult:
    """Outcome of a routed lookup: the owner node id and the path taken."""

    __slots__ = ("owner", "path")

    def __init__(self, owner: int, path: list[int]):
        self.owner = owner
        self.path = path

    @property
    def hops(self) -> int:
        """Number of network hops (path edges) the lookup traversed."""
        return max(0, len(self.path) - 1)

    def __repr__(self) -> str:
        return f"LookupResult(owner={self.owner}, hops={self.hops})"


class ChordRing:
    """A complete, consistent Chord ring over a set of nodes.

    A node's id is ``chord_id(name, salt="node")``; when that id is
    already taken the name is re-hashed with ``salt="node#1"``,
    ``"node#2"``, ... until a free id turns up, so colliding names still
    join deterministically (in join order).  The ring records which id
    each name got (:meth:`node_id_of`).
    """

    def __init__(self, node_names: Iterable[str | int], *, bits: int = DEFAULT_ID_BITS):
        self.bits = bits
        names = list(node_names)
        if len(names) > 1 << bits:
            raise ValueError(
                f"{len(names)} nodes do not fit a ring of 2**{bits} ids"
            )
        self._nodes: dict[int, ChordNode] = {}
        self._sorted_ids: list[int] = []
        self._id_of: dict[str | int, int] = {}
        self._name_of: dict[int, str | int] = {}
        for name in names:
            self._insert(name)
        if not self._nodes:
            raise ValueError("a Chord ring needs at least one node")
        self._rebuild_pointers()

    # -- membership --------------------------------------------------------

    def _insert(self, name: str | int) -> int:
        if name in self._id_of:
            raise ValueError(f"node {name!r} is already on the ring")
        if len(self._nodes) >= 1 << self.bits:
            raise ValueError(f"the ring's 2**{self.bits} ids are all taken")
        node_id = chord_id(name, bits=self.bits, salt="node")
        attempt = 0
        while node_id in self._nodes:
            attempt += 1
            node_id = chord_id(name, bits=self.bits, salt=f"node#{attempt}")
        self._nodes[node_id] = ChordNode(node_id=node_id, bits=self.bits)
        bisect.insort(self._sorted_ids, node_id)
        self._id_of[name] = node_id
        self._name_of[node_id] = name
        return node_id

    def _forget(self, node_id: int) -> ChordNode:
        departing = self._nodes.pop(node_id)
        self._sorted_ids.remove(node_id)
        del self._id_of[self._name_of.pop(node_id)]
        return departing

    def node_id_of(self, name: str | int) -> int:
        """The id ``name`` holds on the ring (``KeyError`` if absent)."""
        return self._id_of[name]

    def add_node(self, name: str | int) -> ChordNode:
        """Join a node, migrating the keys it now owns."""
        node_id = self._insert(name)
        self._rebuild_pointers()
        # The new node takes over keys between its predecessor and itself
        # from its successor.
        successor = self._nodes[self.successor_of(node_id + 1)]
        new_node = self._nodes[node_id]
        migrating = [
            key
            for key in successor.store
            if self.successor_of(key) == node_id
        ]
        for key in migrating:
            new_node.store[key] = successor.store.pop(key)
        return new_node

    def remove_node(self, node_id: int) -> None:
        """Gracefully leave: hand the departing node's keys to its successor."""
        if node_id not in self._nodes:
            raise KeyError(f"no node with id {node_id}")
        if len(self._nodes) == 1:
            raise ValueError("cannot remove the last node of the ring")
        departing = self._forget(node_id)
        self._rebuild_pointers()
        heir = self._nodes[self.successor_of(node_id)]
        heir.store.update(departing.store)

    def crash_node(self, node_id: int) -> int:
        """Abrupt failure: the node vanishes *with* its store (no handoff).

        This is the ``sim-crash`` semantics of dynamic Chord: the
        partition the node held is gone, and only replicas on other
        nodes (restored via :meth:`re_replicate`) — or fresh
        re-publication — can bring the lost keys back.  Pointers are
        repaired immediately (the state stabilization converges to);
        returns the number of keys lost with the node.
        """
        if node_id not in self._nodes:
            raise KeyError(f"no node with id {node_id}")
        if len(self._nodes) == 1:
            raise ValueError("cannot crash the last node of the ring")
        departing = self._forget(node_id)
        self._rebuild_pointers()
        return len(departing.store)

    def re_replicate(self, replicas: int) -> int:
        """Restore the replica invariant after membership changed.

        For every key stored anywhere, ensure a copy lives on exactly
        the key's current owner and its ``replicas - 1`` immediate
        successors — copying from any surviving holder and dropping
        copies from nodes no longer in the replica set (the key-range
        handoff that follows joins, leaves, and crash evictions).
        Holders are visited in ring order, so the surviving copy chosen
        is deterministic.  Returns the number of copies created.
        """
        if replicas <= 0:
            raise ValueError(f"replicas must be positive, got {replicas}")
        survivors: dict[int, Any] = {}
        for node_id in self._sorted_ids:
            for key, value in self._nodes[node_id].store.items():
                survivors.setdefault(key, value)
        copied = 0
        for key in sorted(survivors):
            targets = set(self.replica_ids_at(key, replicas))
            for node_id in self._sorted_ids:
                store = self._nodes[node_id].store
                if node_id in targets:
                    if key not in store:
                        store[key] = survivors[key]
                        copied += 1
                elif key in store:
                    del store[key]
        return copied

    def _rebuild_pointers(self) -> None:
        """Recompute successor/predecessor/finger tables for all nodes.

        The simulation rebuilds eagerly instead of running Chord's
        stabilization protocol; the resulting pointers are exactly the
        ones stabilization converges to.
        """
        ids = self._sorted_ids
        count = len(ids)
        for position, node_id in enumerate(ids):
            node = self._nodes[node_id]
            node.successor = ids[(position + 1) % count]
            node.predecessor = ids[(position - 1) % count]
            node.fingers = [
                self.successor_of(node.finger_start(i)) for i in range(self.bits)
            ]

    # -- key resolution ------------------------------------------------------

    def key_id(self, key: str | int) -> int:
        """Ring id of a directory key (term)."""
        return chord_id(key, bits=self.bits, salt="key")

    def successor_of(self, ring_position: int) -> int:
        """Id of the first node at or clockwise after ``ring_position``."""
        ring_position %= 1 << self.bits
        index = bisect.bisect_left(self._sorted_ids, ring_position)
        if index == len(self._sorted_ids):
            index = 0
        return self._sorted_ids[index]

    def owner_of(self, key: str | int) -> ChordNode:
        """The node responsible for ``key`` (no routing, no hops)."""
        return self._nodes[self.successor_of(self.key_id(key))]

    def replica_nodes(self, key: str | int, replicas: int) -> list[ChordNode]:
        """The key's owner plus its ``replicas - 1`` immediate successors."""
        return [
            self._nodes[node_id]
            for node_id in self.replica_ids_at(self.key_id(key), replicas)
        ]

    def replica_ids_at(self, ring_position: int, replicas: int) -> list[int]:
        """Node ids of the replica set for a raw ring position."""
        if replicas <= 0:
            raise ValueError(f"replicas must be positive, got {replicas}")
        replicas = min(replicas, len(self._sorted_ids))
        start = self._sorted_ids.index(self.successor_of(ring_position))
        return [
            self._sorted_ids[(start + i) % len(self._sorted_ids)]
            for i in range(replicas)
        ]

    # -- routed lookup ---------------------------------------------------------

    def lookup(self, key: str | int, *, start_node: int | None = None) -> LookupResult:
        """Route to the owner of ``key`` from ``start_node``, counting hops.

        Standard greedy Chord routing: at each node, if the key lies
        between the node and its successor, the successor is the owner;
        otherwise forward to the closest finger preceding the key.
        """
        key_position = self.key_id(key)
        current = self._sorted_ids[0] if start_node is None else start_node
        if current not in self._nodes:
            raise KeyError(f"start node {current} is not on the ring")
        path = [current]
        # n hops upper-bounds any correct greedy route; exceeding it means
        # the pointers are corrupt.
        for _ in range(len(self._nodes) + 1):
            node = self._nodes[current]
            if self.successor_of(key_position) == current:
                return LookupResult(owner=current, path=path)
            assert node.successor is not None
            if in_interval(
                key_position, current, node.successor, bits=self.bits
            ):
                path.append(node.successor)
                return LookupResult(owner=node.successor, path=path)
            next_hop = self._closest_preceding_finger(node, key_position)
            if next_hop == current:
                next_hop = node.successor
            path.append(next_hop)
            current = next_hop
        raise RuntimeError("Chord routing failed to converge; ring corrupt")

    def _closest_preceding_finger(self, node: ChordNode, key_position: int) -> int:
        for finger in reversed(node.fingers):
            if in_interval(
                finger, node.node_id, key_position, bits=self.bits, inclusive_end=False
            ):
                return finger
        return node.node_id

    # -- storage ------------------------------------------------------------

    def put(
        self, key: str | int, value: Any, *, replicas: int = 1
    ) -> list[ChordNode]:
        """Store ``value`` under ``key`` at the owner (and replicas)."""
        nodes = self.replica_nodes(key, replicas)
        key_position = self.key_id(key)
        for node in nodes:
            node.store[key_position] = value
        return nodes

    def get(self, key: str | int) -> Any:
        """Fetch the value stored under ``key`` from its owner."""
        return self.owner_of(key).store.get(self.key_id(key))

    # -- introspection ----------------------------------------------------------

    @property
    def node_ids(self) -> list[int]:
        return list(self._sorted_ids)

    def node(self, node_id: int) -> ChordNode:
        return self._nodes[node_id]

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return f"ChordRing(nodes={len(self._nodes)}, bits={self.bits})"
