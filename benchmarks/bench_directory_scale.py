"""SCALE — 100k-peer directories on the packed column store.

Not a paper figure: this quantifies the columnar synopsis store
(:mod:`repro.synopses.columnstore`) end to end.  For each synopsis
family and directory size it builds one post per peer per term as a
columnar ``PostBatch`` — every synopsis from one batched build
(``SynopsisSpec.build_rows``), already packed — ingests it through
``Directory.publish_batch``, measures
the resident bytes per peer of the packed columns, times IQN routing
over the full directory — asserting the router attached to the stored
columns (``stats.mode == "incremental"``) — and verifies on a pinned
seeded grid that column-backed plans are bit-identical to the naive
loop, and that a private-table rebuild falls back to it.

Results land in ``benchmarks/results/BENCH_columnar.json`` (bytes/peer,
synopsis-build and ingest seconds, routing latency, peak RSS per cell)
alongside a readable
table in ``directory_scale.txt``.

CI runs this module with ``BENCH_DIRECTORY_SCALE_QUICK=1``, which caps
the sweep at 10k peers so every PR exercises the columnar attach at
scale in seconds; the full 100k sweep is a local/nightly run and must
stay under ~2 GB peak RSS for the Bloom and MIPs families.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

from repro.core.aggregation import PerPeerAggregation
from repro.core.iqn import IQNRouter
from repro.datasets.queries import Query
from repro.dht.ring import ChordRing
from repro.experiments.report import format_table
from repro.minerva.directory import Directory
from repro.minerva.posts import PeerList, Post, PostBatch
from repro.routing.base import LocalView, RoutingContext
from repro.synopses.columnstore import column_for
from repro.synopses.factory import SynopsisSpec

from _util import measure, peak_rss_bytes, save_result, update_json_result

QUICK = bool(os.environ.get("BENCH_DIRECTORY_SCALE_QUICK"))

SPEC_LABELS = ("bf-2048", "mips-64", "hs-32", "ll-128")
#: Families required to hold at 100k peers (acceptance: < ~2 GB RSS).
FULL_SCALE_LABELS = ("bf-2048", "mips-64")
SIZES = (1_000, 10_000) if QUICK else (1_000, 10_000, 100_000)
TERMS = ("apple", "pear")
MAX_PEERS = 25
RSS_CEILING_BYTES = 2 * 1024**3


def draw_posts(num_peers, *, seed=7):
    """One post per peer per term, deterministic in (size, seed): the
    posts' metadata columns and each post's doc ids as an array."""
    rng = random.Random(seed)
    universe = 50 * num_peers
    columns = {key: [] for key in ("peer_ids", "terms", "cdf", "max_score", "avg_score", "term_space_size")}
    id_arrays = []
    for index in range(num_peers):
        peer_id = f"p{index:06d}"
        base = rng.randrange(0, universe)
        doc_ids = frozenset(
            (base + rng.randrange(0, 500)) % universe
            for _ in range(rng.randrange(10, 40))
        )
        for term in TERMS:
            term_ids = frozenset(d for d in doc_ids if rng.random() < 0.7)
            columns["peer_ids"].append(peer_id)
            columns["terms"].append(term)
            columns["cdf"].append(max(1, len(term_ids)))
            columns["max_score"].append(rng.random())
            columns["avg_score"].append(rng.random() / 2)
            columns["term_space_size"].append(rng.randrange(50, 500))
            id_arrays.append(np.fromiter(term_ids, dtype=np.uint64, count=len(term_ids)))
    return columns, id_arrays


def make_batch(spec, drawn):
    """The drawn posts as a columnar batch: one batched synopsis build."""
    columns, id_arrays = drawn
    offsets = np.zeros(len(id_arrays) + 1, dtype=np.int64)
    np.cumsum([len(ids) for ids in id_arrays], out=offsets[1:])
    rows = spec.build_rows(np.concatenate(id_arrays), offsets)
    return PostBatch(
        peer_ids=columns["peer_ids"],
        terms=columns["terms"],
        cdf=np.array(columns["cdf"], dtype=np.int64),
        max_score=np.array(columns["max_score"], dtype=np.float64),
        avg_score=np.array(columns["avg_score"], dtype=np.float64),
        term_space_size=np.array(columns["term_space_size"], dtype=np.int64),
        synopses=column_for(spec.empty()).holding(rows),
    )


def posts_of(batch):
    """The batch as Post objects (synopses unpacked from their rows)."""
    return [
        Post(
            peer_id=batch.peer_ids[row],
            term=batch.terms[row],
            cdf=int(batch.cdf[row]),
            max_score=float(batch.max_score[row]),
            avg_score=float(batch.avg_score[row]),
            term_space_size=int(batch.term_space_size[row]),
            synopsis=batch.synopses.materialize(row),
        )
        for row in range(len(batch))
    ]


def build_directory(batch):
    ring = ChordRing([f"n{i}" for i in range(16)], bits=24)
    directory = Directory(ring)
    directory.publish_batch(batch)
    return directory


def stored_bytes(directory):
    """Resident bytes of the packed columns across all stored PeerLists."""
    total = 0
    for node_id in directory.ring.node_ids:
        for value in directory.ring.node(node_id).store.values():
            if not isinstance(value, PeerList):
                continue
            columns = value.columns
            for name in (
                "_peer_ids",
                "_cdf",
                "_max_score",
                "_avg_score",
                "_term_space",
                "_has_synopsis",
            ):
                total += getattr(columns, name).nbytes
            if columns.synopsis_column is not None:
                total += columns.synopsis_column._matrix.nbytes
    return total


def make_context(directory, spec, num_peers, *, seed=7):
    rng = random.Random(seed + 1)
    universe = 50 * num_peers
    peer_lists = directory.peer_lists(TERMS)
    seed_ids = frozenset(rng.randrange(0, universe) for _ in range(200))
    initiator = LocalView(
        peer_id="p000000",
        result_doc_ids=seed_ids,
        doc_ids_by_term={
            term: frozenset(x for x in seed_ids if rng.random() < 0.6)
            for term in TERMS
        },
    )
    return RoutingContext(
        query=Query(0, TERMS),
        peer_lists=peer_lists,
        num_peers=num_peers,
        spec=spec,
        initiator=initiator,
        conjunctive=False,
    )


def run_cell(spec_label, num_peers):
    """Ingest + route one (family, size) cell; returns a result-row dict."""
    spec = SynopsisSpec.parse(spec_label)
    drawn = draw_posts(num_peers)
    hashing = measure(lambda: make_batch(spec, drawn), warmup=0, repeats=1)
    batch = make_batch(spec, drawn)
    build = measure(lambda: build_directory(batch), warmup=0, repeats=1)
    directory = build_directory(batch)
    bytes_per_peer = stored_bytes(directory) / num_peers
    router = IQNRouter(PerPeerAggregation())
    context = make_context(directory, spec, num_peers)

    def route():
        fresh = make_context(directory, spec, num_peers)
        return router.rank(fresh, MAX_PEERS)

    routing = measure(route, warmup=1, repeats=3 if num_peers < 100_000 else 1)
    assert router.last_stats is not None
    assert (
        router.last_stats.mode == "incremental"
    ), f"{spec_label}@{num_peers}: routing fell off the columnar tier"
    plan = router.rank_detailed(context, MAX_PEERS)
    assert plan, f"{spec_label}@{num_peers}: empty plan"
    return {
        "spec": spec_label,
        "peers": num_peers,
        "posts": len(batch),
        "mode": router.last_stats.mode,
        "candidates": router.last_stats.candidates,
        "synopsis_build_s": hashing.median_s,
        "build_s": build.median_s,
        "bytes_per_peer": bytes_per_peer,
        "route_ms": routing.median_s * 1e3,
        "peak_rss_bytes": routing.peak_rss_bytes,
    }


def check_bit_identity(spec_label, *, num_peers=500, seed=13):
    """Column-backed plans == naive loop == private-table fallback, exactly."""
    spec = SynopsisSpec.parse(spec_label)
    batch = make_batch(spec, draw_posts(num_peers, seed=seed))
    directory = build_directory(batch)
    columnar_router = IQNRouter(PerPeerAggregation())
    columnar = columnar_router.rank_detailed(
        make_context(directory, spec, num_peers, seed=seed), MAX_PEERS
    )
    assert columnar_router.last_stats.mode == "incremental"
    # Same content rebuilt on per-list private tables: the columnar view
    # cannot attach, so the router runs the naive loop.
    private = {term: PeerList(term=term) for term in TERMS}
    for post in posts_of(batch):
        private[term_of(post)].add(post)
    private_router = IQNRouter(PerPeerAggregation())
    private_plan = private_router.rank_detailed(
        context_over(private, spec, num_peers, seed=seed), MAX_PEERS
    )
    assert private_router.last_stats.mode == "naive"
    naive = IQNRouter(PerPeerAggregation(), fast_path=False).rank_detailed(
        make_context(directory, spec, num_peers, seed=seed), MAX_PEERS
    )
    rows = lambda plan: [(s.peer_id, s.quality, s.novelty) for s in plan]
    assert rows(columnar) == rows(private_plan) == rows(naive), (
        f"plan divergence for {spec_label} at {num_peers} peers"
    )


def term_of(post):
    return post.term


def context_over(peer_lists, spec, num_peers, *, seed):
    rng = random.Random(seed + 1)
    universe = 50 * num_peers
    seed_ids = frozenset(rng.randrange(0, universe) for _ in range(200))
    initiator = LocalView(
        peer_id="p000000",
        result_doc_ids=seed_ids,
        doc_ids_by_term={
            term: frozenset(x for x in seed_ids if rng.random() < 0.6)
            for term in TERMS
        },
    )
    return RoutingContext(
        query=Query(0, TERMS),
        peer_lists=peer_lists,
        num_peers=num_peers,
        spec=spec,
        initiator=initiator,
        conjunctive=False,
    )


def cell_sizes(spec_label):
    if spec_label in FULL_SCALE_LABELS:
        return SIZES
    return tuple(size for size in SIZES if size <= 10_000)


@pytest.fixture(scope="module")
def sweep():
    rows = [
        run_cell(spec_label, size)
        for spec_label in SPEC_LABELS
        for size in cell_sizes(spec_label)
    ]
    table = format_table(
        [
            "synopsis",
            "peers",
            "posts",
            "mode",
            "synopses s",
            "ingest s",
            "B/peer",
            "route ms",
            "peak RSS MB",
        ],
        [
            [
                r["spec"],
                r["peers"],
                r["posts"],
                r["mode"],
                f"{r['synopsis_build_s']:.2f}",
                f"{r['build_s']:.2f}",
                f"{r['bytes_per_peer']:.0f}",
                f"{r['route_ms']:.1f}",
                f"{r['peak_rss_bytes'] / 1024**2:.0f}",
            ]
            for r in rows
        ],
    )
    suffix = "_quick" if QUICK else ""
    save_result(f"directory_scale{suffix}", table)
    update_json_result(
        "BENCH_columnar",
        "quick" if QUICK else "full",
        {
            "sizes": list(SIZES),
            "max_peers": MAX_PEERS,
            "cells": rows,
        },
    )
    return rows


def test_sweep_covers_every_family(sweep):
    assert {r["spec"] for r in sweep} == set(SPEC_LABELS)
    assert len(sweep) == sum(len(cell_sizes(label)) for label in SPEC_LABELS)


def test_routing_attaches_to_columns_everywhere(sweep):
    """run_cell already asserts attach == 'columns'; pin that it ran."""
    modes = {r["spec"]: r["mode"] for r in sweep}
    for label in SPEC_LABELS:
        assert modes[label] == "incremental"


@pytest.mark.parametrize("spec_label", SPEC_LABELS)
def test_plans_bit_identical_on_seeded_grid(spec_label):
    check_bit_identity(spec_label)


@pytest.mark.skipif(QUICK, reason="acceptance needs the 100k sweep")
def test_100k_peers_fit_under_memory_ceiling(sweep):
    """Acceptance: 100k-peer build + route under ~2 GB for Bloom & MIPs."""
    big = [r for r in sweep if r["peers"] == 100_000]
    assert {r["spec"] for r in big} == set(FULL_SCALE_LABELS)
    for row in big:
        assert row["peak_rss_bytes"] < RSS_CEILING_BYTES, row
    assert peak_rss_bytes() < RSS_CEILING_BYTES


@pytest.mark.skipif(QUICK, reason="acceptance needs the 100k sweep")
def test_columns_stay_compact_per_peer(sweep):
    """Packed storage stays within 4x the wire size of one synopsis."""
    for row in sweep:
        spec = SynopsisSpec.parse(row["spec"])
        wire_bits = spec.build(frozenset([1, 2, 3])).size_in_bits
        # Two terms per peer plus metadata and doubling-growth slack.
        ceiling = 4 * len(TERMS) * (wire_bits / 8 + 40)
        assert row["bytes_per_peer"] < ceiling, row
