"""End-to-end tests for networked query execution.

The acceptance bar: no-fault networked runs return exactly what the
in-process engine returns; faulted runs degrade to partial results with
timed-out peers reported instead of raising; and everything is
deterministic under a fixed seed.
"""

import pytest

from repro.core.iqn import IQNRouter
from repro.ir.metrics import result_ids
from repro.simnet.executor import SimNetExecutor
from repro.simnet.faults import ChurnEvent, FaultPlan
from repro.simnet.rpc import RetryPolicy


class TestParity:
    def test_matches_in_process_engine_without_faults(self, tiny_engine, tiny_queries):
        for query in tiny_queries:
            inproc = tiny_engine.run_query(query, IQNRouter(), max_peers=3, k=20)
            networked = tiny_engine.run_query_networked(
                query, IQNRouter(), max_peers=3, k=20
            )
            assert networked.selected == inproc.selected
            assert result_ids(networked.merged) == result_ids(inproc.merged)
            assert networked.recall_at == inproc.recall_at
            assert networked.outcome.routing_stats is not None
            assert networked.outcome.routing_stats == inproc.routing_stats
            assert networked.timed_out_peers == ()
            assert networked.failed_terms == ()
            assert not networked.degraded
            assert networked.latency_ms > 0.0

    def test_outcome_records_network_work(self, tiny_engine, tiny_queries):
        networked = tiny_engine.run_query_networked(
            tiny_queries[0], IQNRouter(), max_peers=3, k=20
        )
        cost = networked.outcome.cost
        assert cost.messages("query_forward") == len(networked.selected)
        assert cost.messages("peerlist_fetch") == len(networked.query.terms)
        assert networked.directory_attempts == len(networked.query.terms)
        assert all(a == 1 for a in networked.attempts_by_peer.values())


class TestDeterminism:
    def run_workload(self, engine, queries, seed):
        executor = SimNetExecutor(engine, seed=seed)
        return executor.run_workload(
            queries, IQNRouter(), interarrival_ms=20.0, max_peers=3, k=20
        )

    def test_same_seed_same_virtual_latencies(self, tiny_engine, tiny_queries):
        first = self.run_workload(tiny_engine, tiny_queries, seed=11)
        second = self.run_workload(tiny_engine, tiny_queries, seed=11)
        assert [o.latency_ms for o in first] == [o.latency_ms for o in second]
        assert [o.finished_ms for o in first] == [o.finished_ms for o in second]
        assert [result_ids(o.merged) for o in first] == [
            result_ids(o.merged) for o in second
        ]

    def test_faulted_runs_are_deterministic_too(self, tiny_engine, tiny_queries):
        def run():
            executor = SimNetExecutor(
                tiny_engine,
                faults=FaultPlan(loss_rate=0.2),
                policy=RetryPolicy(timeout_ms=150.0, max_attempts=2),
                seed=23,
            )
            outcomes = executor.run_workload(
                tiny_queries, IQNRouter(), interarrival_ms=30.0, max_peers=3, k=20
            )
            return [
                (o.latency_ms, o.timed_out_peers, o.failed_terms, o.forward_retries)
                for o in outcomes
            ]

        assert run() == run()


class TestConcurrency:
    def test_load_inflates_latency(self, tiny_engine, tiny_queries):
        # Same workload, idle vs. saturating arrival rates: shared-link
        # queueing must make the loaded run slower on average.
        workload = tiny_queries * 5
        quiet = SimNetExecutor(tiny_engine, seed=3).run_workload(
            workload, IQNRouter(), interarrival_ms=5000.0, max_peers=3, k=20
        )
        stormy = SimNetExecutor(tiny_engine, seed=3).run_workload(
            workload, IQNRouter(), interarrival_ms=1.0, max_peers=3, k=20
        )
        mean = lambda outcomes: sum(o.latency_ms for o in outcomes) / len(outcomes)
        assert mean(stormy) > mean(quiet)

    def test_queries_overlap_in_virtual_time(self, tiny_engine, tiny_queries):
        executor = SimNetExecutor(tiny_engine, seed=3)
        outcomes = executor.run_workload(
            tiny_queries, IQNRouter(), interarrival_ms=1.0, max_peers=3, k=20
        )
        # With 1 ms gaps every query starts before the previous finished.
        starts = [o.started_ms for o in outcomes]
        finishes = [o.finished_ms for o in outcomes]
        assert starts[1] < finishes[0]
        assert len(outcomes) == len(tiny_queries)


class TestDegradation:
    def test_loss_yields_partial_results_not_exceptions(
        self, tiny_engine, tiny_queries
    ):
        executor = SimNetExecutor(
            tiny_engine,
            faults=FaultPlan(loss_rate=0.35),
            policy=RetryPolicy(timeout_ms=120.0, max_attempts=2),
            seed=5,
        )
        outcomes = executor.run_workload(
            tiny_queries, IQNRouter(), interarrival_ms=50.0, max_peers=4, k=20
        )
        assert len(outcomes) == len(tiny_queries)
        assert any(o.degraded for o in outcomes)
        for outcome in outcomes:
            assert 0.0 <= outcome.final_recall <= 1.0
            for peer_id in outcome.timed_out_peers:
                assert outcome.outcome.per_peer_results[peer_id] == ()

    def test_crashed_peer_reported_as_timed_out(self, tiny_engine, tiny_queries):
        query = tiny_queries[0]
        inproc = tiny_engine.run_query(query, IQNRouter(), max_peers=3, k=20)
        victim = inproc.selected[0]
        policy = RetryPolicy(timeout_ms=100.0, max_attempts=2)
        networked = tiny_engine.run_query_networked(
            query,
            IQNRouter(),
            faults=FaultPlan(churn=(ChurnEvent(at_ms=0.0, peer_id=victim),)),
            policy=policy,
            max_peers=3,
            k=20,
        )
        # Routing still selects the victim (its Posts are stale in the
        # directory), but it never answers.
        assert victim in networked.selected
        assert victim in networked.timed_out_peers
        assert networked.attempts_by_peer[victim] == policy.max_attempts
        assert networked.final_recall <= inproc.final_recall

    def test_mid_run_crash_degrades_later_queries_only(
        self, tiny_engine, tiny_queries
    ):
        query = tiny_queries[0]
        inproc = tiny_engine.run_query(query, IQNRouter(), max_peers=3, k=20)
        victim = inproc.selected[0]
        executor = SimNetExecutor(
            tiny_engine,
            faults=FaultPlan(churn=(ChurnEvent(at_ms=5000.0, peer_id=victim),)),
            policy=RetryPolicy(timeout_ms=100.0, max_attempts=2),
            seed=2,
        )
        early = executor.submit(query, IQNRouter(), at_ms=0.0, max_peers=3, k=20)
        late = executor.submit(query, IQNRouter(), at_ms=6000.0, max_peers=3, k=20)
        executor.run()
        assert victim not in early.value.timed_out_peers
        assert victim in late.value.timed_out_peers


class TestValidation:
    def test_unpublished_terms_rejected_at_submit(self, tiny_engine):
        from repro.datasets.queries import Query

        executor = SimNetExecutor(tiny_engine)
        with pytest.raises(RuntimeError, match="never published"):
            executor.submit(
                Query(query_id=0, terms=("neverseen",)), IQNRouter()
            )

    def test_unknown_initiator_rejected(self, tiny_engine, tiny_queries):
        executor = SimNetExecutor(tiny_engine)
        with pytest.raises(KeyError):
            executor.submit(
                tiny_queries[0], IQNRouter(), initiator_id="nope"
            )

    def test_bad_workload_parameters(self, tiny_engine, tiny_queries):
        executor = SimNetExecutor(tiny_engine)
        with pytest.raises(ValueError):
            executor.run_workload(
                tiny_queries, IQNRouter(), interarrival_ms=0.0
            )
        with pytest.raises(ValueError):
            executor.run_workload(
                tiny_queries, IQNRouter(), arrivals="bursty"
            )
