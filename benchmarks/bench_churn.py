"""CHURN — the live-directory subsystem under membership turnover.

The acceptance scenario for :mod:`repro.churn`: a small (churn rate ×
repost interval) grid over a combination testbed, executed serially and
through the process pool, with three pinned properties:

- **bit-identity** — the pooled grid pickles to exactly the serial
  grid's bytes (cell seeds derive from sweep parameters, never from
  task position or worker count);
- **graceful degradation** — at least one cell rescues a query whose
  routed-to peer had crashed mid-query (``fallback_successes > 0``),
  i.e. the robustness path demonstrably fires;
- **the maintenance trade** — reposting more often costs strictly more
  maintenance messages at a fixed churn rate.

Timings and the grid summary land in
``benchmarks/results/BENCH_churn.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle

import pytest

from repro.core.iqn import IQNRouter
from repro.experiments.churn import churn_sweep
from repro.experiments.config import SMALL_CORPUS
from repro.experiments.fig3 import build_combination_testbed
from repro.parallel import ExperimentRunner

from _util import latency_summary, measure, update_json_result

CONFIG = dataclasses.replace(SMALL_CORPUS, topic_smear=1.0)
TESTBED_PARAMS = dict(
    num_queries=4,
    query_pool_size=12,
    query_pool_offset=0,
    spec_labels=("mips-64",),
)
CHURN_RATES = (1.0, 4.0)
REPOST_INTERVALS_MS = (5_000.0, 15_000.0)
HORIZON_MS = 30_000.0
SEED = 23
K, PEER_K = 30, 10


def run_sweep(workers: int):
    """The whole grid at a given worker count (fresh testbed + runner)."""
    testbed = build_combination_testbed(CONFIG, **TESTBED_PARAMS)
    return churn_sweep(
        testbed.engines["mips-64"],
        testbed.queries,
        IQNRouter,
        churn_rates=CHURN_RATES,
        repost_intervals_ms=REPOST_INTERVALS_MS,
        horizon_ms=HORIZON_MS,
        interarrival_ms=HORIZON_MS / (len(testbed.queries) + 1),
        seed=SEED,
        max_peers=5,
        k=K,
        peer_k=PEER_K,
        runner=ExperimentRunner(workers=workers),
    )


@pytest.fixture(scope="module")
def sweep_data():
    serial = run_sweep(1)
    serial_timing = measure(lambda: run_sweep(1), warmup=0, repeats=1)
    pooled = run_sweep(2)
    pooled_timing = measure(lambda: run_sweep(2), warmup=0, repeats=1)
    serial_digest = hashlib.sha256(pickle.dumps(serial)).hexdigest()
    pooled_digest = hashlib.sha256(pickle.dumps(pooled)).hexdigest()
    payload = {
        "grid": {
            "churn_rates_per_min": list(CHURN_RATES),
            "repost_intervals_ms": list(REPOST_INTERVALS_MS),
            "horizon_ms": HORIZON_MS,
            "seed": SEED,
        },
        "serial": serial_timing.as_dict(),
        "pooled_2_workers": pooled_timing.as_dict(),
        "serial_digest": serial_digest,
        "pooled_digest": pooled_digest,
        "identical_serial_vs_pooled": serial_digest == pooled_digest,
        "points": [dataclasses.asdict(point) for point in serial],
        "total_fallback_successes": sum(p.fallback_successes for p in serial),
        "total_stale_routes": sum(p.stale_routes for p in serial),
        "cell_p95_latency_summary_ms": latency_summary(
            point.p95_latency_ms for point in serial
        ),
    }
    update_json_result("BENCH_churn", "sweep", payload)
    return {"serial": serial, "pooled": pooled, "payload": payload}


def test_bit_identical_serial_vs_pooled(sweep_data):
    """Acceptance: the pooled grid is byte-for-byte the serial grid."""
    assert sweep_data["payload"]["identical_serial_vs_pooled"]
    assert pickle.dumps(sweep_data["pooled"]) == pickle.dumps(
        sweep_data["serial"]
    )


def test_queries_survive_crashed_routes(sweep_data):
    """Acceptance: some query succeeded despite a crash of a routed-to
    peer — the spare-substitution fallback demonstrably fired."""
    assert sweep_data["payload"]["total_fallback_successes"] > 0


def test_recall_stays_positive_under_churn(sweep_data):
    for point in sweep_data["serial"]:
        assert point.mean_recall > 0.0


def test_reposting_more_often_costs_more_maintenance(sweep_data):
    """At a fixed churn rate (same membership trace), a shorter repost
    interval must spend strictly more maintenance messages."""
    by_rate: dict[float, list] = {}
    for point in sweep_data["serial"]:
        by_rate.setdefault(point.churn_rate, []).append(point)
    for points in by_rate.values():
        ordered = sorted(points, key=lambda p: p.repost_interval_ms)
        for frequent, rare in zip(ordered, ordered[1:]):
            assert frequent.maintenance_messages > rare.maintenance_messages
            assert frequent.trace_digest == rare.trace_digest
