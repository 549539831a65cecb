"""The three query entry points — in-process, networked and served —
share one pipeline: one entry validation, one initiator seed per query,
one assemble -> context -> plan, one measure."""

from __future__ import annotations

import pytest

from repro.churn import ChurnSchedule, ChurnService, MembershipConfig
from repro.core.iqn import IQNRouter
from repro.minerva.peer import Peer
from repro.serving.frontend import ServingFrontend
from repro.simnet.executor import SimNetExecutor

from .conftest import make_topical_engine
from .test_superpeer import INITIATOR, QUERY, make_superpeer_engine

ENGINES = {"flat": make_topical_engine, "super": make_superpeer_engine}


@pytest.mark.parametrize("max_peers", [0, -1])
class TestNonPositiveMaxPeersRejected:
    def test_run_query(self, max_peers):
        with pytest.raises(ValueError, match="max_peers"):
            make_topical_engine().run_query(QUERY, IQNRouter(), max_peers=max_peers)

    def test_run_query_networked(self, max_peers):
        # Ranking max_peers + fallback_spares > 0 peers used to slip past
        # the selector's own check and return an empty selection.
        with pytest.raises(ValueError, match="max_peers"):
            make_topical_engine().run_query_networked(
                QUERY, IQNRouter(), max_peers=max_peers, fallback_spares=2
            )

    def test_serving_frontend(self, max_peers):
        with pytest.raises(ValueError, match="max_peers"):
            ServingFrontend(
                SimNetExecutor(make_topical_engine()),
                IQNRouter(),
                max_peers=max_peers,
                fallback_spares=2,
            )

    def test_churn_workload_raises_before_the_clock_runs(self, max_peers):
        engine = make_topical_engine()
        schedule = ChurnSchedule.generate(
            sorted(engine.peers),
            MembershipConfig.for_rate(6.0, horizon_ms=10_000.0),
            seed=1,
        )
        service = ChurnService(engine, schedule, seed=1)
        pending = service.clock.pending
        with pytest.raises(ValueError, match="max_peers"):
            service.run_workload([QUERY], IQNRouter(), max_peers=max_peers)
        assert service.clock.now == 0.0
        assert service.clock.pending == pending


@pytest.mark.parametrize("topology", sorted(ENGINES))
class TestInitiatorAnswersOnce:
    """The initiator's local top-k seeds routing and the merge alike, so
    each entry point computes it once per query."""

    @pytest.fixture
    def answers(self, monkeypatch):
        calls: list[str] = []
        original = Peer.answer_query

        def counting(peer, *args, **kwargs):
            calls.append(peer.peer_id)
            return original(peer, *args, **kwargs)

        monkeypatch.setattr(Peer, "answer_query", counting)
        return calls

    def test_run_query(self, topology, answers):
        engine = ENGINES[topology]()
        outcome = engine.run_query(
            QUERY, IQNRouter(), initiator_id=INITIATOR, max_peers=3
        )
        assert outcome.selected
        assert answers.count(INITIATOR) == 1

    def test_run_query_networked(self, topology, answers):
        engine = ENGINES[topology]()
        networked = engine.run_query_networked(
            QUERY, IQNRouter(), initiator_id=INITIATOR, max_peers=3
        )
        assert networked.selected
        assert answers.count(INITIATOR) == 1

    def test_cold_serve(self, topology, answers):
        front = ServingFrontend(
            SimNetExecutor(ENGINES[topology]()), IQNRouter(), max_peers=3
        )
        future = front.serve(QUERY, initiator_id=INITIATOR)
        front.run()
        assert not future.value.plan_hit
        assert future.value.queried
        assert answers.count(INITIATOR) == 1
