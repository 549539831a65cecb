"""Determinism of the experiment harnesses on the parallel engine.

The acceptance contract of :mod:`repro.parallel`: every harness produces
**byte-identical** results whether it runs serially in process
(``runner=None`` / ``--workers 1``), fanned out over a process pool
(``--workers 4``), or against a warm vs cold :class:`SetupCache`.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.iqn import IQNRouter
from repro.datasets.corpus import GovCorpusConfig
from repro.experiments.ablations import quality_novelty_ablation
from repro.experiments.fig2 import error_vs_collection_size
from repro.experiments.fig3 import cached_testbed, run_recall_experiment
from repro.experiments.load import measure_load
from repro.experiments.netload import simnet_load_sweep
from repro.parallel import ExperimentRunner
from repro.routing.cori import CoriSelector
from repro.synopses.factory import SynopsisSpec

TINY = GovCorpusConfig(
    num_docs=360,
    vocabulary_size=900,
    num_topics=4,
    topic_vocabulary_size=60,
    doc_length_mean=50,
    topic_assignment="blocked",
    topic_smear=0.8,
    seed=17,
)
TESTBED_PARAMS = dict(
    num_fragments=4,
    subset_size=2,
    spec_labels=("mips-16", "bf-256"),
    num_queries=3,
    query_pool_size=12,
    query_pool_offset=0,
)
MAX_PEERS, K, PEER_K = 3, 20, 10


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("setup-cache")


def make_runner(workers: int, cache_dir) -> ExperimentRunner:
    return ExperimentRunner(workers=workers, cache_dir=cache_dir)


def fig3_curves(runner: ExperimentRunner):
    handle = cached_testbed(runner, "combination", TINY, **TESTBED_PARAMS)
    return run_recall_experiment(
        handle.value,
        max_peers=MAX_PEERS,
        k=K,
        peer_k=PEER_K,
        runner=runner,
        testbed_handle=handle,
    )


class TestWorkerCountInvariance:
    """`--workers 1` vs `--workers 4` must be byte-for-byte identical."""

    def test_fig3_recall(self, cache_dir):
        serial = fig3_curves(make_runner(1, cache_dir))
        pooled = fig3_curves(make_runner(4, cache_dir))
        assert pickle.dumps(serial) == pickle.dumps(pooled)

    def test_fig2_error_sweep(self):
        kwargs = dict(
            sizes=(200, 400),
            specs=(SynopsisSpec.parse("mips-16"),),
            runs=3,
            seed=11,
        )
        serial = error_vs_collection_size(**kwargs)
        pooled = error_vs_collection_size(
            runner=ExperimentRunner(workers=4), **kwargs
        )
        assert pickle.dumps(serial) == pickle.dumps(pooled)

    def test_load_tally(self, cache_dir):
        serial_runner = make_runner(1, cache_dir)
        pooled_runner = make_runner(4, cache_dir)
        reports = []
        for runner in (serial_runner, pooled_runner):
            handle = cached_testbed(
                runner, "combination", TINY, **TESTBED_PARAMS
            )
            engine = handle.value.engines["mips-16"]
            reports.append(
                measure_load(
                    engine,
                    handle.value.queries,
                    {"CORI": CoriSelector(), "IQN": IQNRouter()},
                    max_peers=MAX_PEERS,
                    k=K,
                    peer_k=PEER_K,
                    initiators_per_query=2,
                    runner=runner,
                )
            )
        assert pickle.dumps(reports[0]) == pickle.dumps(reports[1])

    def test_netload_sweep(self, cache_dir):
        points = []
        for workers in (1, 4):
            runner = make_runner(workers, cache_dir)
            handle = cached_testbed(
                runner, "combination", TINY, **TESTBED_PARAMS
            )
            points.append(
                simnet_load_sweep(
                    handle.value.engines["mips-16"],
                    handle.value.queries,
                    IQNRouter,
                    offered_qps=(2.0, 50.0),
                    loss_rates=(0.0, 0.2),
                    seed=9,
                    max_peers=MAX_PEERS,
                    k=K,
                    runner=runner,
                )
            )
        assert pickle.dumps(points[0]) == pickle.dumps(points[1])

    def test_quality_novelty_ablation(self, cache_dir):
        curves = []
        for workers in (1, 4):
            runner = make_runner(workers, cache_dir)
            handle = cached_testbed(
                runner, "combination", TINY, **TESTBED_PARAMS
            )
            curves.append(
                quality_novelty_ablation(
                    handle.value,
                    spec_label="mips-16",
                    max_peers=MAX_PEERS,
                    k=K,
                    runner=runner,
                    testbed_handle=handle,
                )
            )
        assert pickle.dumps(curves[0]) == pickle.dumps(curves[1])


class TestCacheInvariance:
    """A warm cache must change wall-clock only, never the bytes."""

    def test_cold_vs_warm_setup_cache(self, tmp_path):
        cold_runner = ExperimentRunner(workers=1, cache_dir=tmp_path)
        cold = fig3_curves(cold_runner)
        assert cold_runner.cache.stats.misses == 1

        warm_runner = ExperimentRunner(workers=1, cache_dir=tmp_path)
        warm = fig3_curves(warm_runner)
        assert warm_runner.cache.stats.as_dict() == {"hits": 1, "misses": 0}
        assert pickle.dumps(cold) == pickle.dumps(warm)

    def test_pooled_warm_cache_matches_serial_cold(self, tmp_path):
        serial_cold = fig3_curves(
            ExperimentRunner(workers=1, cache_dir=tmp_path / "a")
        )
        pooled_cold = fig3_curves(
            ExperimentRunner(workers=4, cache_dir=tmp_path / "b")
        )
        pooled_warm = fig3_curves(
            ExperimentRunner(workers=4, cache_dir=tmp_path / "b")
        )
        reference = pickle.dumps(serial_cold)
        assert pickle.dumps(pooled_cold) == reference
        assert pickle.dumps(pooled_warm) == reference
