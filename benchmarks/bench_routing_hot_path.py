"""HOT-PATH — vectorized routing vs the naive IQN loop.

Not a paper figure: this quantifies the routing fast path
(:mod:`repro.core.fastpath`).  For each synopsis family and candidate
count it runs the same Select-Best-Peer problem through the naive loop
and the fast path, records wall time and novelty-evaluation counts,
verifies the plans are bit-identical, and saves the comparison table
under ``benchmarks/results/routing_hot_path.txt``.

CI runs this module with ``BENCH_HOT_PATH_QUICK=1``, which shrinks the
candidate sweep so the fast path (all families) is exercised on every
change in seconds.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from repro.core.aggregation import PerPeerAggregation
from repro.core.iqn import IQNRouter
from repro.datasets.queries import Query
from repro.experiments.report import format_table
from repro.minerva.posts import PeerList, Post
from repro.routing.base import LocalView, RoutingContext
from repro.synopses.factory import SynopsisSpec

from _util import save_result

QUICK = bool(os.environ.get("BENCH_HOT_PATH_QUICK"))

SPEC_LABELS = ("bf-2048", "mips-64", "hs-32", "ll-128")
CANDIDATE_COUNTS = (50, 100) if QUICK else (50, 200, 800)
MAX_PEERS = 25
TERMS = ("apple", "pear")


def make_context(seed, *, num_peers, spec_label):
    """Clustered-overlap directory snapshot, ~100 docs universe per peer."""
    rng = random.Random(seed)
    spec = SynopsisSpec.parse(spec_label)
    universe = 100 * num_peers
    peer_lists = {term: PeerList(term=term) for term in TERMS}
    for i in range(num_peers):
        peer_id = f"p{i:04d}"
        base = rng.randrange(0, universe)
        size = rng.randrange(20, 400)
        doc_ids = set()
        for _ in range(size):
            if rng.random() < 0.6:
                doc_ids.add((base + rng.randrange(0, 300)) % universe)
            else:
                doc_ids.add(rng.randrange(0, universe))
        for term in TERMS:
            if rng.random() < 0.85:
                term_ids = {d for d in doc_ids if rng.random() < 0.7}
                if not term_ids:
                    continue
                peer_lists[term].add(
                    Post(
                        peer_id=peer_id,
                        term=term,
                        cdf=len(term_ids),
                        max_score=rng.random(),
                        avg_score=rng.random() / 2,
                        term_space_size=rng.randrange(50, 500),
                        synopsis=spec.build(term_ids),
                    )
                )
    seed_ids = frozenset(rng.randrange(0, universe) for _ in range(150))
    initiator = LocalView(
        peer_id="me",
        result_doc_ids=seed_ids,
        doc_ids_by_term={
            term: frozenset(x for x in seed_ids if rng.random() < 0.6)
            for term in TERMS
        },
    )
    return RoutingContext(
        query=Query(0, TERMS),
        peer_lists=peer_lists,
        num_peers=num_peers + 1,
        spec=spec,
        initiator=initiator,
        conjunctive=False,
    )


def run_once(spec_label, num_peers):
    """One naive-vs-fast comparison; returns a result-row dict."""
    naive = IQNRouter(PerPeerAggregation(), fast_path=False)
    fast = IQNRouter(PerPeerAggregation())
    context_naive = make_context(1, num_peers=num_peers, spec_label=spec_label)
    context_fast = make_context(1, num_peers=num_peers, spec_label=spec_label)
    t0 = time.perf_counter()
    plan_naive = naive.rank_detailed(context_naive, MAX_PEERS)
    naive_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    plan_fast = fast.rank_detailed(context_fast, MAX_PEERS)
    fast_seconds = time.perf_counter() - t0
    assert [(s.peer_id, s.quality, s.novelty) for s in plan_fast] == [
        (s.peer_id, s.quality, s.novelty) for s in plan_naive
    ], f"fast path diverged for {spec_label} at {num_peers} candidates"
    return {
        "spec": spec_label,
        "candidates": fast.last_stats.candidates,
        "mode": fast.last_stats.mode,
        "rounds": fast.last_stats.rounds,
        "naive_work": fast.last_stats.naive_evaluations,
        "naive_evals": naive.last_stats.novelty_evaluations,
        "fast_evals": fast.last_stats.novelty_evaluations,
        "eval_ratio": (
            naive.last_stats.novelty_evaluations
            / fast.last_stats.novelty_evaluations
        ),
        "naive_ms": naive_seconds * 1e3,
        "fast_ms": fast_seconds * 1e3,
        "speedup": naive_seconds / fast_seconds,
    }


@pytest.fixture(scope="module")
def comparison():
    rows = [
        run_once(spec_label, count)
        for spec_label in SPEC_LABELS
        for count in CANDIDATE_COUNTS
    ]
    table = format_table(
        [
            "synopsis",
            "candidates",
            "mode",
            "naive evals",
            "fast evals",
            "eval ratio",
            "naive ms",
            "fast ms",
            "speedup",
        ],
        [
            [
                r["spec"],
                r["candidates"],
                r["mode"],
                r["naive_evals"],
                r["fast_evals"],
                f"{r['eval_ratio']:.1f}x",
                f"{r['naive_ms']:.1f}",
                f"{r['fast_ms']:.1f}",
                f"{r['speedup']:.1f}x",
            ]
            for r in rows
        ],
    )
    suffix = "_quick" if QUICK else ""
    save_result(f"routing_hot_path{suffix}", table)
    return rows


def test_plans_identical_everywhere(comparison):
    """run_once already asserts equality; this pins that it actually ran
    across the whole sweep."""
    assert len(comparison) == len(SPEC_LABELS) * len(CANDIDATE_COUNTS)


def test_every_family_uses_its_fast_tier(comparison):
    modes = {r["spec"]: r["mode"] for r in comparison}
    for label in SPEC_LABELS:
        assert modes[label] == "incremental"


def test_evaluations_bounded_by_naive_plus_rounds(comparison):
    """The driver re-evaluates only rows an absorb touched, plus one
    absorb-time recompute per round: never more than the naive loop's
    work plus the round count, for every family and size."""
    for row in comparison:
        assert row["naive_work"] == row["naive_evals"], row
        assert row["fast_evals"] <= row["naive_work"] + row["rounds"], row


@pytest.mark.skipif(QUICK, reason="acceptance thresholds need the full sweep")
def test_wall_time_speedup_at_scale(comparison):
    """Acceptance: measurable wall-time speedup at >= 200 candidates for
    every synopsis family."""
    for row in comparison:
        if row["candidates"] >= 200:
            assert row["speedup"] > 1.0, row


@pytest.mark.parametrize("spec_label", SPEC_LABELS)
def test_rank_fast(benchmark, spec_label, comparison):
    count = CANDIDATE_COUNTS[-1]
    context = make_context(1, num_peers=count, spec_label=spec_label)
    router = IQNRouter(PerPeerAggregation())
    plan = benchmark(lambda: router.rank(context, MAX_PEERS))
    assert plan


@pytest.mark.parametrize("spec_label", SPEC_LABELS)
def test_rank_naive(benchmark, spec_label, comparison):
    count = CANDIDATE_COUNTS[-1]
    context = make_context(1, num_peers=count, spec_label=spec_label)
    router = IQNRouter(PerPeerAggregation(), fast_path=False)
    plan = benchmark(lambda: router.rank(context, MAX_PEERS))
    assert plan
