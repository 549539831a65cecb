"""Tests for the columnar clustering kernels behind SuperPeerTopology."""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology.clustering import (
    cluster_peers,
    default_num_clusters,
    elect_super_peer,
    group_fold_synopses,
    peer_capacities,
    peer_profiles,
)

from .conftest import ALL_TERMS, TOPIC_TERMS, make_topical_engine


def stored_columns(engine):
    return [
        engine.directory.stored_list(term).columns
        for term in sorted(ALL_TERMS)
    ]


class TestDefaultNumClusters:
    def test_sqrt_heuristic(self):
        assert default_num_clusters(100) == 10
        assert default_num_clusters(10_000) == 100

    def test_floor_and_cap(self):
        assert default_num_clusters(0) == 1
        assert default_num_clusters(3) == 2
        assert default_num_clusters(10**7) == 512


class TestPeerProfiles:
    def test_profile_is_union_of_posted_synopses(self):
        """Row i of the profile matrix equals the family fold of every
        packed synopsis peer i posted, across all terms."""
        engine = make_topical_engine("bf-512")
        columns = stored_columns(engine)
        table = engine.directory.peer_table
        profiles, column = peer_profiles(columns, table)
        assert len(profiles) == len(table)
        for peer_id in sorted(engine.peers):
            interned = table.lookup(peer_id)
            acc = None
            for term_columns in columns:
                row = term_columns.row_for(interned)
                if row is None:
                    continue
                packed = term_columns.synopsis_column.rows(
                    len(term_columns)
                )[row]
                acc = packed if acc is None else np.bitwise_or(acc, packed)
            assert acc is not None
            assert np.array_equal(profiles[interned], acc)

    def test_mips_profile_folds_with_minimum(self):
        engine = make_topical_engine("mips-16")
        columns = stored_columns(engine)
        table = engine.directory.peer_table
        profiles, _ = peer_profiles(columns, table)
        interned = table.lookup("p00")
        rows = [
            tc.synopsis_column.rows(len(tc))[tc.row_for(interned)]
            for tc in columns
            if tc.row_for(interned) is not None
        ]
        assert np.array_equal(
            profiles[interned], np.minimum.reduce(rows)
        )


class TestPeerCapacities:
    def test_capacity_is_total_posted_cdf(self):
        engine = make_topical_engine()
        columns = stored_columns(engine)
        table = engine.directory.peer_table
        capacity = peer_capacities(columns, table)
        for peer_id in sorted(engine.peers):
            expected = sum(
                post.cdf
                for term in sorted(ALL_TERMS)
                for post in [
                    engine.directory.stored_list(term).get(peer_id)
                ]
                if post is not None
            )
            assert capacity[table.lookup(peer_id)] == expected


class TestClusterPeers:
    def test_deterministic_for_a_seed(self):
        engine = make_topical_engine("bf-512")
        profiles, column = peer_profiles(
            stored_columns(engine), engine.directory.peer_table
        )
        first = cluster_peers(profiles, 3, column, seed=7)
        second = cluster_peers(profiles, 3, column, seed=7)
        assert np.array_equal(first, second)

    def test_recovers_topical_communities(self):
        """Same-topic peers (overlapping documents) co-cluster; the
        three topics land in three distinct clusters."""
        engine = make_topical_engine("bf-512")
        table = engine.directory.peer_table
        profiles, column = peer_profiles(stored_columns(engine), table)
        assignment = cluster_peers(profiles, 3, column, seed=0)
        labels_by_topic = []
        for topic in range(len(TOPIC_TERMS)):
            members = [f"p{topic * 3 + rank:02d}" for rank in range(3)]
            labels = {
                assignment[table.lookup(peer_id)] for peer_id in members
            }
            assert len(labels) == 1, (topic, labels)
            labels_by_topic.append(labels.pop())
        assert len(set(labels_by_topic)) == 3

    def test_more_clusters_than_rows(self):
        engine = make_topical_engine()
        profiles, column = peer_profiles(
            stored_columns(engine), engine.directory.peer_table
        )
        assignment = cluster_peers(profiles, 50, column, seed=1)
        assert len(assignment) == len(profiles)
        assert assignment.max() < len(profiles)

    def test_rejects_nonpositive_cluster_count(self):
        engine = make_topical_engine()
        profiles, column = peer_profiles(
            stored_columns(engine), engine.directory.peer_table
        )
        with pytest.raises(ValueError, match="num_clusters"):
            cluster_peers(profiles, 0, column)


class TestElection:
    def test_highest_capacity_wins(self):
        capacity = {"a": 5, "b": 9, "c": 2}
        assert elect_super_peer(["a", "b", "c"], capacity.__getitem__) == "b"

    def test_ties_break_lexicographically(self):
        capacity = {"z": 4, "m": 4, "q": 4}
        assert elect_super_peer(["z", "m", "q"], capacity.__getitem__) == "m"

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            elect_super_peer([], lambda _: 0)


class TestGroupFold:
    def test_matches_per_group_reduce(self):
        engine = make_topical_engine("bf-512")
        term_columns = stored_columns(engine)[0]
        column = term_columns.synopsis_column
        rows = column.rows(len(term_columns))
        groups = np.arange(len(term_columns), dtype=np.int64) % 2
        merged = group_fold_synopses(column, rows, groups, 2)
        for group in (0, 1):
            members = rows[groups == group]
            assert np.array_equal(
                merged[group], np.bitwise_or.reduce(members)
            )

    def test_materialize_rows_round_trip(self):
        """A merged packed row materializes to the object union."""
        engine = make_topical_engine("bf-512")
        term_columns = stored_columns(engine)[0]
        column = term_columns.synopsis_column
        rows = column.rows(len(term_columns))
        merged = group_fold_synopses(
            column, rows, np.zeros(len(term_columns), dtype=np.int64), 1
        )
        union = term_columns.synopsis_at(0)
        for row in range(1, len(term_columns)):
            union = union.union(term_columns.synopsis_at(row))
        assert column.holding(merged).materialize(0) == union
