"""Command-line entry point to regenerate the paper's figures.

Usage::

    python -m repro.experiments fig2-left
    python -m repro.experiments fig2-right
    python -m repro.experiments fig3-left   [--quick]
    python -m repro.experiments fig3-right  [--quick]
    python -m repro.experiments matrix
    python -m repro.experiments load        [--quick]
    python -m repro.experiments netload     [--quick]
    python -m repro.experiments reposting   [--quick]
    python -m repro.experiments churn       [--quick]
    python -m repro.experiments serve       [--quick]

``--quick`` shrinks the corpus/workload so a figure renders in seconds
(for smoke-testing; the bench harness runs the calibrated full scale).

``--workers N`` fans the experiment's independent tasks out over N
worker processes; results are bit-identical at any worker count.
``--cache-dir DIR`` persists built setups (corpus + indexes + synopses
+ directory) content-addressed under DIR, so regenerating a figure —
or a different figure over the same testbed — skips the rebuild.
Without it nothing is written on a serial run; a pooled run hands its
setup to the workers through one temporary pickle.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from ..parallel import ExperimentRunner
from .config import (
    FIG3_CORPUS,
    FIG3_NUM_QUERIES,
    FIG3_PEER_K,
    FIG3_QUERY_POOL,
    FIG3_QUERY_POOL_OFFSET,
    FIG3_REFERENCE_K,
    SMALL_CORPUS,
)
from .fig2 import error_vs_collection_size, error_vs_overlap
from .fig3 import cached_testbed, run_recall_experiment
from .report import (
    format_capability_matrix,
    format_error_points,
    format_recall_curves,
)

__all__ = ["TARGETS", "run_target", "main"]

TARGETS = (
    "fig2-left",
    "fig2-right",
    "fig3-left",
    "fig3-right",
    "matrix",
    "load",
    "netload",
    "reposting",
    "churn",
    "serve",
    "hierarchy",
)


def _fig3_setup(quick: bool):
    if quick:
        config = dataclasses.replace(SMALL_CORPUS, topic_smear=1.0)
        return config, 4, 12, 0, 30, 10
    return (
        FIG3_CORPUS,
        FIG3_NUM_QUERIES,
        FIG3_QUERY_POOL,
        FIG3_QUERY_POOL_OFFSET,
        FIG3_REFERENCE_K,
        FIG3_PEER_K,
    )


def run_target(
    target: str,
    *,
    quick: bool = False,
    runs: int = 30,
    runner: ExperimentRunner | None = None,
) -> str:
    """Regenerate one figure and return its text rendering."""
    if runner is None:
        runner = ExperimentRunner(workers=1)
    if target == "fig2-left":
        points = error_vs_collection_size(
            runs=4 if quick else runs, runner=runner
        )
        return format_error_points(points, x_name="docs/collection")
    if target == "fig2-right":
        points = error_vs_overlap(runs=4 if quick else runs, runner=runner)
        return format_error_points(points, x_name="mutual overlap")
    if target == "matrix":
        return format_capability_matrix()
    if target == "hierarchy":
        from .hierarchy import hierarchy_sweep
        from .report import format_table

        points = hierarchy_sweep(
            (300, 1_000) if quick else (1_000, 10_000),
            num_queries=6 if quick else 20,
            spec_label="bf-512" if quick else "bf-2048",
            seed=11,
            runner=runner,
        )
        return format_table(
            [
                "peers",
                "topology",
                "recall",
                "msgs/q",
                "kbits/q",
                "hops/q",
                "super fetches/q",
                "scope",
            ],
            [
                [
                    p.num_peers,
                    p.topology,
                    round(p.mean_recall, 3),
                    round(p.mean_messages, 1),
                    round(p.mean_kbits, 1),
                    round(p.mean_dht_hops, 1),
                    round(p.mean_super_fetches, 1),
                    round(p.mean_scope, 1),
                ]
                for p in points
            ],
        )
    config, num_queries, pool, offset, k, peer_k = _fig3_setup(quick)
    if target == "reposting":
        from .report import format_table
        from .reposting import reposting_experiment

        rows = reposting_experiment(
            config,
            rounds=2 if quick else 4,
            num_peers=6 if quick else 12,
            num_queries=min(num_queries, 4),
            query_pool_size=pool if pool > 12 else 16,
            max_peers=3,
            k=k,
            peer_k=peer_k,
        )
        return format_table(
            ["policy", "round", "cumulative post bits", "mean recall"],
            [
                [r.policy, r.round_index, r.cumulative_post_bits, r.mean_recall]
                for r in rows
            ],
        )
    if target == "load":
        from ..core.iqn import IQNRouter
        from ..routing.cori import CoriSelector
        from .load import measure_load
        from .report import format_table

        handle = cached_testbed(
            runner,
            "sliding-window",
            config,
            num_queries=num_queries,
            query_pool_size=pool,
            query_pool_offset=offset,
            spec_labels=("mips-64",),
        )
        testbed = handle.value
        reports = measure_load(
            testbed.engines["mips-64"],
            testbed.queries,
            {"CORI": CoriSelector(), "IQN": IQNRouter()},
            max_peers=5,
            k=k,
            peer_k=peer_k,
            runner=runner,
        )
        return format_table(
            ["method", "forwards", "peers touched", "busiest share", "max/mean"],
            [
                [
                    r.method,
                    r.total_forwards,
                    r.peers_touched,
                    r.busiest_peer_share,
                    r.imbalance(),
                ]
                for r in reports
            ],
        )
    if target == "netload":
        from ..core.iqn import IQNRouter
        from .netload import simnet_load_sweep
        from .report import format_table

        handle = cached_testbed(
            runner,
            "combination",
            config,
            num_queries=num_queries,
            query_pool_size=pool,
            query_pool_offset=offset,
            spec_labels=("mips-64",),
        )
        testbed = handle.value
        points = simnet_load_sweep(
            testbed.engines["mips-64"],
            testbed.queries,
            IQNRouter,
            offered_qps=(2.0, 20.0) if quick else (2.0, 10.0, 50.0, 200.0),
            loss_rates=(0.0, 0.1),
            seed=17,
            max_peers=5,
            k=k,
            peer_k=peer_k,
            runner=runner,
        )
        return format_table(
            ["loss", "qps", "mean ms", "p95 ms", "recall", "retries"],
            [
                [
                    p.loss_rate,
                    p.offered_qps,
                    p.mean_latency_ms,
                    p.p95_latency_ms,
                    p.mean_recall,
                    p.forward_retries,
                ]
                for p in points
            ],
        )
    if target == "churn":
        from ..core.iqn import IQNRouter
        from .churn import churn_sweep
        from .report import format_table

        handle = cached_testbed(
            runner,
            "combination",
            config,
            num_queries=num_queries,
            query_pool_size=pool,
            query_pool_offset=offset,
            spec_labels=("mips-64",),
        )
        testbed = handle.value
        horizon_ms = 30_000.0 if quick else 60_000.0
        points = churn_sweep(
            testbed.engines["mips-64"],
            testbed.queries,
            IQNRouter,
            churn_rates=(1.0, 4.0) if quick else (0.5, 1.0, 2.0, 4.0),
            repost_intervals_ms=(
                (5_000.0, 15_000.0)
                if quick
                else (5_000.0, 15_000.0, 30_000.0)
            ),
            horizon_ms=horizon_ms,
            # Spread arrivals across the horizon so queries genuinely
            # race the membership events instead of finishing before
            # the first failure.
            interarrival_ms=horizon_ms / (len(testbed.queries) + 1),
            seed=23,
            max_peers=5,
            k=k,
            peer_k=peer_k,
            runner=runner,
        )
        return format_table(
            [
                "churn/min",
                "repost ms",
                "recall",
                "p95 ms",
                "query msgs",
                "maint msgs",
                "stale",
                "rescued",
            ],
            [
                [
                    p.churn_rate,
                    p.repost_interval_ms,
                    p.mean_recall,
                    p.p95_latency_ms,
                    p.query_messages,
                    p.maintenance_messages,
                    p.stale_routes,
                    p.fallback_successes,
                ]
                for p in points
            ],
        )
    if target == "serve":
        from ..core.iqn import IQNRouter
        from .report import format_table
        from .serve import serve_sweep

        handle = cached_testbed(
            runner,
            "combination",
            config,
            num_queries=num_queries,
            query_pool_size=pool,
            query_pool_offset=offset,
            spec_labels=("mips-64",),
        )
        testbed = handle.value
        points = serve_sweep(
            testbed.engines["mips-64"],
            testbed.queries,
            IQNRouter,
            offered_qps=(5.0, 20.0) if quick else (2.0, 10.0, 50.0),
            zipf_skews=(0.0, 1.1),
            churn_rates=(0.0,) if quick else (0.0, 2.0),
            num_events=24 if quick else 64,
            seed=29,
            max_peers=5,
            k=k,
            peer_k=peer_k,
            runner=runner,
        )
        return format_table(
            [
                "qps",
                "zipf",
                "churn/min",
                "hit rate",
                "bits/q",
                "full bits/q",
                "p95 ms",
                "full p95 ms",
                "identical",
            ],
            [
                [
                    p.qps,
                    p.zipf_s,
                    p.churn_rate,
                    round(p.plan_hit_rate, 3),
                    round(p.served_bits_per_query, 1),
                    round(p.full_bits_per_query, 1),
                    round(p.served_p95_ms, 2),
                    round(p.full_p95_ms, 2),
                    p.bit_identical if p.identity_checked else "n/a",
                ]
                for p in points
            ],
        )
    if target == "fig3-left":
        handle = cached_testbed(
            runner,
            "combination",
            config,
            num_queries=num_queries,
            query_pool_size=pool,
            query_pool_offset=offset,
        )
        curves = run_recall_experiment(
            handle.value,
            max_peers=7,
            k=k,
            peer_k=peer_k,
            runner=runner,
            testbed_handle=handle,
        )
        return format_recall_curves(curves)
    if target == "fig3-right":
        handle = cached_testbed(
            runner,
            "sliding-window",
            config,
            num_queries=num_queries,
            query_pool_size=pool,
            query_pool_offset=offset,
        )
        curves = run_recall_experiment(
            handle.value,
            max_peers=10,
            k=k,
            peer_k=peer_k,
            runner=runner,
            testbed_handle=handle,
        )
        return format_recall_curves(curves)
    raise ValueError(f"unknown target {target!r}; choose from {TARGETS}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate figures of the IQN routing paper.",
    )
    parser.add_argument("target", choices=TARGETS)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small corpus / few runs (seconds instead of minutes)",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=30,
        help="runs per Figure 2 data point (default 30)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for independent tasks (default 1 = serial; "
        "results are identical at any worker count)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persist built setups content-addressed under this directory "
        "and reuse them across runs",
    )
    args = parser.parse_args(argv)
    runner = ExperimentRunner(workers=args.workers, cache_dir=args.cache_dir)
    print(run_target(args.target, quick=args.quick, runs=args.runs, runner=runner))
    return 0


if __name__ == "__main__":
    sys.exit(main())
