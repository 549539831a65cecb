"""SERVING — hot routing caches and streamed top-k vs. full forwarding.

The acceptance scenario for :mod:`repro.serving`: a Zipf-repeating
query log served at several offered loads over a small combination
testbed, with four pinned properties:

- **bit-identity of the answer** — on every churn-free cell the served
  top-k and queried peers equal ``run_query_networked``'s, per query
  (caches and early termination change bytes and latency, never
  results), and a dedicated cold-cache pass re-checks this query by
  query outside the sweep;
- **the caches earn their keep** — on the skewed log (Zipf ``s >= 1``)
  at a fixed qps, the plan-cache hit rate is at least 50% and the bytes
  per query are strictly below the full-forwarding path's;
- **latency does not regress** — served p95 is no worse than the
  uncached full-forwarding p95 on the same log and arrivals;
- **worker-count determinism** — the pooled sweep pickles to exactly
  the serial sweep's bytes.

Timings, the sweep table, and the acceptance numbers land in
``benchmarks/results/BENCH_serving.json``.  CI runs this module with
``BENCH_SERVING_QUICK=1``, which drops the highest-load column.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle

import pytest

from repro.core.iqn import IQNRouter
from repro.datasets.queries import make_query_log
from repro.experiments.config import SMALL_CORPUS
from repro.experiments.fig3 import build_combination_testbed
from repro.experiments.serve import serve_sweep
from repro.parallel import ExperimentRunner
from repro.serving import ServingFrontend
from repro.simnet.executor import SimNetExecutor

from _util import latency_summary, measure, update_json_result

QUICK = bool(os.environ.get("BENCH_SERVING_QUICK"))

CONFIG = dataclasses.replace(SMALL_CORPUS, topic_smear=1.0)
TESTBED_PARAMS = dict(
    num_queries=6,
    query_pool_size=16,
    query_pool_offset=0,
    spec_labels=("mips-64",),
)
OFFERED_QPS = (5.0, 20.0) if QUICK else (5.0, 20.0, 80.0)
ZIPF_SKEWS = (0.0, 1.1)
CHURN_RATES = (0.0, 2.0)
NUM_EVENTS = 48 if QUICK else 64
SEED = 29
MAX_PEERS, K, PEER_K, SPARES = 4, 20, 50, 2
#: The acceptance cell: skewed log (s >= 1.0) at the middle fixed qps.
ACCEPT_QPS, ACCEPT_SKEW = 20.0, 1.1


def run_sweep(workers: int):
    """The whole grid at a given worker count (fresh testbed + runner)."""
    testbed = build_combination_testbed(CONFIG, **TESTBED_PARAMS)
    return serve_sweep(
        testbed.engines["mips-64"],
        testbed.queries,
        IQNRouter,
        offered_qps=OFFERED_QPS,
        zipf_skews=ZIPF_SKEWS,
        churn_rates=CHURN_RATES,
        num_events=NUM_EVENTS,
        seed=SEED,
        max_peers=MAX_PEERS,
        k=K,
        peer_k=PEER_K,
        fallback_spares=SPARES,
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
            "offered_qps": list(OFFERED_QPS),
            "zipf_skews": list(ZIPF_SKEWS),
            "churn_rates_per_min": list(CHURN_RATES),
            "num_events": NUM_EVENTS,
            "seed": SEED,
            "max_peers": MAX_PEERS,
            "k": K,
            "peer_k": PEER_K,
        },
        "serial": serial_timing.as_dict(),
        "pooled_2_workers": pooled_timing.as_dict(),
        "serial_digest": serial_digest,
        "pooled_digest": pooled_digest,
        "identical_serial_vs_pooled": serial_digest == pooled_digest,
        "points": [
            {
                **dataclasses.asdict(point),
                "plan_hit_rate": point.plan_hit_rate,
                "served_bits_per_query": point.served_bits_per_query,
                "full_bits_per_query": point.full_bits_per_query,
                "bytes_saved_fraction": point.bytes_saved_fraction,
            }
            for point in serial
        ],
        "latency_vs_qps": {
            str(qps): {
                "served_p95_summary_ms": latency_summary(
                    p.served_p95_ms for p in serial if p.qps == qps
                ),
                "full_p95_summary_ms": latency_summary(
                    p.full_p95_ms for p in serial if p.qps == qps
                ),
            }
            for qps in OFFERED_QPS
        },
    }
    update_json_result("BENCH_serving", "sweep", payload)
    return {"serial": serial, "pooled": pooled, "payload": payload}


def _accept_cell(points):
    """The pinned acceptance cell: skewed log, fixed qps, no churn."""
    for point in points:
        if (
            point.qps == ACCEPT_QPS
            and point.zipf_s == ACCEPT_SKEW
            and point.churn_rate == 0.0
        ):
            return point
    raise AssertionError("acceptance cell missing from the sweep grid")


def test_bit_identical_serial_vs_pooled(sweep_data):
    """Acceptance: the pooled grid is byte-for-byte the serial grid."""
    assert sweep_data["payload"]["identical_serial_vs_pooled"]
    assert pickle.dumps(sweep_data["pooled"]) == pickle.dumps(
        sweep_data["serial"]
    )


def test_served_answers_match_one_shot_path(sweep_data):
    """Acceptance: every churn-free cell is per-query bit-identical to
    ``run_query_networked`` (the sweep checks topk and queried peers)."""
    checked = [p for p in sweep_data["serial"] if p.identity_checked]
    assert checked, "sweep has no churn-free cells"
    for point in checked:
        assert point.bit_identical


def test_plan_cache_hit_rate_on_skewed_log(sweep_data):
    """Acceptance: >= 50% plan-cache hits on the Zipf(s>=1) log."""
    point = _accept_cell(sweep_data["serial"])
    assert point.plan_hit_rate >= 0.5


def test_bytes_per_query_below_full_forwarding(sweep_data):
    """Acceptance: serving moves strictly fewer bits per query than the
    full-forwarding path, and streams strictly fewer result entries."""
    point = _accept_cell(sweep_data["serial"])
    assert point.served_bits_per_query < point.full_bits_per_query
    assert point.entries_streamed < point.entries_full


def test_served_p95_no_worse_than_uncached(sweep_data):
    """Acceptance: cached serving must not cost tail latency."""
    point = _accept_cell(sweep_data["serial"])
    assert point.served_p95_ms <= point.full_p95_ms


def test_cold_cache_bit_identity(sweep_data):
    """A fresh front end, one query at a time: every plan-cache miss
    must still produce exactly the one-shot path's answer (the cold
    path *is* the one-shot path plus streaming)."""
    del sweep_data  # ordering only: reuse the session after the sweep
    testbed = build_combination_testbed(CONFIG, **TESTBED_PARAMS)
    engine = testbed.engines["mips-64"]
    front = ServingFrontend(
        SimNetExecutor(engine, seed=SEED),
        IQNRouter(),
        max_peers=MAX_PEERS,
        k=K,
        peer_k=PEER_K,
        fallback_spares=SPARES,
    )
    cold = {}
    for query in testbed.queries:
        future = front.serve(query)
        front.run()
        cold[query.query_id] = future.value
    assert front.plan_stats().hits == 0  # every serve above was cold
    for query in testbed.queries:
        reference = engine.run_query_networked(
            query, IQNRouter(), max_peers=MAX_PEERS, k=K, peer_k=PEER_K
        )
        served = cold[query.query_id]
        assert served.topk == tuple(reference.merged[:K])
        assert served.queried == reference.selected
        assert not served.degraded


def test_log_is_reproducible(sweep_data):
    """The Zipf log is a pure function of (queries, events, skew, seed)."""
    del sweep_data
    testbed = build_combination_testbed(CONFIG, **TESTBED_PARAMS)
    first = make_query_log(
        testbed.queries, num_events=NUM_EVENTS, zipf_s=ACCEPT_SKEW, seed=SEED
    )
    second = make_query_log(
        testbed.queries, num_events=NUM_EVENTS, zipf_s=ACCEPT_SKEW, seed=SEED
    )
    assert first == second
