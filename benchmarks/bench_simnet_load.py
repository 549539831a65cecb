"""SIMNET-LOAD — throughput/latency vs. offered load and loss rate.

Section 8.2's efficiency argument measured on the discrete-event
network: the same IQN-routed workload is offered to the simulated
transport at increasing arrival rates and message-loss rates.  Latency
is *virtual* time (deterministic under the seed — the same seed always
regenerates the identical table), so the bench also doubles as the
reproducibility check for the simulator.
"""

from __future__ import annotations

import pytest

from repro.core.iqn import IQNRouter
from repro.experiments.netload import simnet_load_sweep
from repro.experiments.report import format_table
from repro.parallel import ExperimentRunner
from repro.simnet.executor import SimNetExecutor

from _util import latency_summary, measure, save_result, update_json_result

SPEC_LABEL = "mips-64"
OFFERED_QPS = (2.0, 10.0, 50.0, 200.0)
LOSS_RATES = (0.0, 0.05, 0.1)
MAX_PEERS = 5
SEED = 17


def run_sweep(testbed, fig3_params, **overrides):
    engine = testbed.engines[SPEC_LABEL]
    kwargs = dict(
        offered_qps=OFFERED_QPS,
        loss_rates=LOSS_RATES,
        seed=SEED,
        max_peers=MAX_PEERS,
        k=fig3_params["k"],
        peer_k=fig3_params["peer_k"],
    )
    kwargs.update(overrides)
    return simnet_load_sweep(engine, testbed.queries, IQNRouter, **kwargs)


@pytest.fixture(scope="module")
def figure_data(combination_testbed, fig3_params):
    points = run_sweep(combination_testbed, fig3_params)
    rows = [
        [
            point.loss_rate,
            point.offered_qps,
            point.mean_latency_ms,
            point.p95_latency_ms,
            point.max_latency_ms,
            point.mean_recall,
            point.forward_retries,
            point.timed_out_contacts,
            point.degraded_queries,
        ]
        for point in points
    ]
    save_result(
        "simnet_load",
        format_table(
            [
                "loss",
                "offered qps",
                "mean ms",
                "p95 ms",
                "max ms",
                "recall",
                "retries",
                "timeouts",
                "degraded",
            ],
            rows,
        ),
    )
    return points


def test_latency_grows_with_offered_load(figure_data):
    """The 'highly superlinear function of load': within each loss rate,
    saturating the network must not make queries faster."""
    lossless = [p for p in figure_data if p.loss_rate == 0.0]
    assert lossless[-1].mean_latency_ms > lossless[0].mean_latency_ms


def test_loss_costs_latency_and_retries(figure_data):
    """At equal offered load, loss converts into backoff waits and
    retry traffic."""
    by_loss = {
        loss: [p for p in figure_data if p.loss_rate == loss]
        for loss in LOSS_RATES
    }
    clean = by_loss[0.0][0].mean_latency_ms
    assert by_loss[0.1][0].mean_latency_ms > clean
    assert sum(p.forward_retries for p in by_loss[0.1]) > 0
    assert all(p.forward_retries == 0 for p in by_loss[0.0])


def test_no_fault_cells_reach_in_process_recall(
    figure_data, combination_testbed, fig3_params
):
    """Without faults the network changes *when*, not *what*: recall
    matches the in-process engine exactly."""
    engine = combination_testbed.engines[SPEC_LABEL]
    expected = []
    for query in combination_testbed.queries:
        outcome = engine.run_query(
            query,
            IQNRouter(),
            max_peers=MAX_PEERS,
            k=fig3_params["k"],
            peer_k=fig3_params["peer_k"],
        )
        expected.append(outcome.final_recall)
    mean_expected = sum(expected) / len(expected)
    for point in figure_data:
        if point.loss_rate == 0.0:
            assert point.mean_recall == pytest.approx(mean_expected)


def test_sweep_is_deterministic_under_the_seed(
    figure_data, combination_testbed, fig3_params
):
    """Acceptance: two runs with the same seed produce identical
    virtual-time latency numbers."""
    again = run_sweep(
        combination_testbed,
        fig3_params,
        offered_qps=(OFFERED_QPS[0], OFFERED_QPS[-1]),
        loss_rates=(0.0, LOSS_RATES[-1]),
    )
    matching = [
        p
        for p in figure_data
        if p.offered_qps in (OFFERED_QPS[0], OFFERED_QPS[-1])
        and p.loss_rate in (0.0, LOSS_RATES[-1])
    ]
    assert again == matching


def test_pooled_sweep_matches_serial_and_records_throughput(
    combination_testbed, fig3_params, figure_data
):
    """The sweep's cells are independent pool tasks: a pooled run must
    reproduce the serial sweep exactly, and its cell throughput joins
    the BENCH_parallel.json perf record."""
    reduced = dict(
        offered_qps=(OFFERED_QPS[0], OFFERED_QPS[1]),
        loss_rates=(0.0, LOSS_RATES[-1]),
    )
    serial_timing = measure(
        lambda: run_sweep(combination_testbed, fig3_params, **reduced),
        warmup=1,
        repeats=3,
    )
    serial_points = run_sweep(combination_testbed, fig3_params, **reduced)

    runner = ExperimentRunner(workers=2)
    pooled_timing = measure(
        lambda: run_sweep(combination_testbed, fig3_params, runner=runner, **reduced),
        warmup=1,
        repeats=3,
    )
    pooled_points = run_sweep(
        combination_testbed, fig3_params, runner=runner, **reduced
    )
    assert pooled_points == serial_points

    num_cells = len(reduced["offered_qps"]) * len(reduced["loss_rates"])
    update_json_result(
        "BENCH_parallel",
        "simnet",
        {
            "cells": num_cells,
            "workers": 2,
            "serial": serial_timing.as_dict(),
            "pooled": pooled_timing.as_dict(),
            "serial_cells_per_sec": num_cells / serial_timing.median_s,
            "pooled_cells_per_sec": num_cells / pooled_timing.median_s,
            "identical_to_serial": pooled_points == serial_points,
            "cell_mean_latency_summary_ms": latency_summary(
                point.mean_latency_ms for point in pooled_points
            ),
        },
    )


def test_networked_query_speed(benchmark, combination_testbed, fig3_params, figure_data):
    """Real-time cost of simulating one networked query end to end."""
    engine = combination_testbed.engines[SPEC_LABEL]
    query = combination_testbed.queries[0]

    def one_query():
        executor = SimNetExecutor(engine, seed=SEED)
        executor.submit(
            query,
            IQNRouter(),
            max_peers=MAX_PEERS,
            k=fig3_params["k"],
            peer_k=fig3_params["peer_k"],
        )
        return executor.run()[0]

    outcome = benchmark.pedantic(one_query, rounds=3, iterations=1)
    assert outcome.latency_ms > 0.0
