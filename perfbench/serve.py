"""Workload ``serve-churn``: a Zipf query log served under churn.

Set-up is the serving bench's testbed (``benchmarks/bench_serving.py``):
20 peers of the C(6,3) fragment placement over ``SMALL_CORPUS`` with
``topic_smear=1.0`` and MIPs-64 synopses, with 16 base queries.  As in
the route workloads, the testbed — and here the churn trace on it — is a
fixed scenario, and the run's seed draws the load: the log, the arrival
times, the initiators and the simulation's own seed.  Each pass serves
the same 1,024-event log on a fresh
engine through a :class:`~repro.serving.ServingFrontend` over a
:class:`~repro.churn.service.ChurnService` (2 departures per peer per
simulated minute; ``max_peers=5``, ``k=20``, ``peer_k=50``, two spares,
successor fallback).

The load is an open loop in virtual time: a Zipf(1.1) log over 16 base
queries arriving as a Poisson process at 10 queries per simulated
second.  Every event is submitted up front with
``serve(query, at_ms=due, initiator_id=<peer alive at due>)``, so the
generator is never late and each latency runs from the due instant.
The benchmark drives the clock itself in fixed ``run(until_ms=...)``
slices; a host probe brackets every slice and the slice's CPU is
normalized by it (:mod:`host`).  Queries interleave on one event loop,
so serving CPU is reported only as pass throughput, never per query;
the one per-call CPU figure is the selector's ``rank`` on plan-cache
misses, which runs synchronously.

This is the only workload through ``simnet``, churn maintenance
(directory writes beside reads), both serving caches and streamed
top-k; under churn its sim-clock latencies are set by retry ladders,
not CPU, so a pure CPU change leaves every deterministic figure
exactly as it was.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass

from repro.churn.maintenance import DirectoryMaintainer, MaintenanceConfig
from repro.churn.membership import ChurnSchedule, MembershipConfig
from repro.churn.service import ChurnService
from repro.core.iqn import IQNRouter
from repro.datasets.queries import Query, make_query_log
from repro.dht.ring import ChordRing
from repro.experiments.config import SMALL_CORPUS
from repro.experiments.fig3 import Testbed, build_combination_testbed
from repro.ir.index import InvertedIndex
from repro.ir.metrics import relative_recall, result_ids
from repro.minerva.engine import MinervaEngine
from repro.minerva.peer import Peer
from repro.net.cost import MessageKinds
from repro.parallel.seeding import derive_seed
from repro.serving import ServingFrontend
from repro.serving.cache import ReferenceSynopsisCache, RoutingPlanCache
from repro.simnet.rpc import RpcLayer

from common import KINDS, Outcome, digest, median, percentile, put_rank_stats
from host import HostProbe, cpu_ns, freeze_heap, normalize_ms
from tracing import TimedSelector, Tracer

SPEC_LABEL = "mips-64"
NUM_BASE_QUERIES = 16
NUM_EVENTS = 1_024
ZIPF_S = 1.1
QPS = 10.0
CHURN_PER_PEER_PER_MIN = 2.0
#: Membership and maintenance run until here; covers the ~102 s log.
HORIZON_MS = 120_000.0
MAX_PEERS, K, PEER_K, SPARES = 5, 20, 50, 2
REPLICAS = 2
#: Virtual milliseconds the clock runs between two host probes (about
#: 40 ms of CPU; see ``route.PROBE_EVERY_MS``).
SLICE_MS = 1_250.0
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: The churn trace belongs to the fixed scenario, like the testbed: with
#: 20 peers, which peer is down when moves traffic per query by ~5 %
#: from one trace to the next.
CHURN_SEED = 0


@dataclass
class ServeSetup:
    testbed: Testbed
    log: list[Query]
    due_ms: list[float]
    initiators: list[str]
    schedule: ChurnSchedule
    references: dict[int, frozenset[int]]
    simulation_seed: int


def set_up(seed: int, tracer: Tracer) -> ServeSetup:
    """The fixed testbed and churn trace; the log, arrivals and
    initiators drawn from ``seed``."""
    with tracer.span("setup.testbed"):
        testbed = build_combination_testbed(
            dataclasses.replace(SMALL_CORPUS, topic_smear=1.0),
            spec_labels=(SPEC_LABEL,),
            num_queries=NUM_BASE_QUERIES,
            query_pool_size=16,
            query_pool_offset=0,
        )
    log = make_query_log(
        testbed.queries,
        num_events=NUM_EVENTS,
        zipf_s=ZIPF_S,
        seed=derive_seed(seed, "perfbench:log"),
    )
    rng = random.Random(derive_seed(seed, "perfbench:arrivals"))
    due_ms: list[float] = []
    at_ms = 0.0
    for _ in log:
        due_ms.append(at_ms)
        at_ms += rng.expovariate(QPS / 1000.0)
    peers = sorted(testbed.engines[SPEC_LABEL].peers)
    schedule = ChurnSchedule.generate(
        peers,
        MembershipConfig.for_rate(CHURN_PER_PEER_PER_MIN, horizon_ms=HORIZON_MS),
        seed=CHURN_SEED,
    )
    initiators = [
        rng.choice(_live_at(schedule, peers, at_ms) or peers) for at_ms in due_ms
    ]
    engine = testbed.engines[SPEC_LABEL]
    references = {
        query.query_id: engine.reference_topk(query, k=K) for query in testbed.queries
    }
    return ServeSetup(
        testbed,
        log,
        due_ms,
        initiators,
        schedule,
        references,
        derive_seed(seed, "perfbench:simulation"),
    )


def _live_at(schedule: ChurnSchedule, peers: list[str], at_ms: float) -> list[str]:
    """Peers up at ``at_ms``: membership events at that instant fire
    before a query due then (they were scheduled first)."""
    down: set[str] = set()
    for event in schedule:
        if event.at_ms > at_ms:
            break
        if event.kind == "recover":
            down.discard(event.peer_id)
        else:
            down.add(event.peer_id)
    return [peer for peer in peers if peer not in down]


@dataclass
class PassResult:
    served: list
    #: Digest of every event's ``(selected, substituted, topk, latency_ms)``.
    digest: str
    slice_cpu_ms: list[float]
    slice_norm_ms: list[float]
    #: Normalized CPU of each ``rank`` call, in call order.
    rank_norm_ms: list[float]
    rank_stats: list
    events_fired: int
    front: ServingFrontend
    service: ChurnService


def serve_pass(setup: ServeSetup, probe: HostProbe, tracer: Tracer, tracing: bool) -> PassResult:
    """One pass over the log on a fresh engine (built outside timing)."""
    source = setup.testbed.engines[SPEC_LABEL]
    peers = list(source.peers.values())
    engine = MinervaEngine(
        [peer.corpus for peer in peers],
        spec=source.spec,
        indexes=[peer.index for peer in peers],
        replicas=REPLICAS,
    )
    engine.publish({term for query in setup.testbed.queries for term in query.terms})
    service = ChurnService(
        engine,
        setup.schedule,
        maintenance=MaintenanceConfig(),
        seed=setup.simulation_seed,
    )
    selector = TimedSelector(IQNRouter(), tracer)
    front = ServingFrontend(
        service,
        selector,
        max_peers=MAX_PEERS,
        k=K,
        peer_k=PEER_K,
        fallback_spares=SPARES,
        successor_fallback=True,
    )
    futures = [
        front.serve(query, at_ms=due, initiator_id=initiator)
        for query, due, initiator in zip(setup.log, setup.due_ms, setup.initiators)
    ]
    freeze_heap()
    clock = service.clock
    slice_cpu: list[float] = []
    slice_norm: list[float] = []
    rank_norm: list[float] = []
    fired = 0
    until = 0.0
    before = probe.sample()
    while clock.pending:
        until += SLICE_MS
        calls_before = len(selector.times_ns)
        tracer.enabled = tracing
        with tracer.span("simnet.run"):
            start = cpu_ns()
            fired += clock.run(until_ms=until)
            elapsed_ms = (cpu_ns() - start) / 1e6
        tracer.enabled = False
        after = probe.sample()
        slice_cpu.append(elapsed_ms)
        slice_norm.append(normalize_ms(elapsed_ms, before, after))
        rank_norm.extend(
            normalize_ms(ns / 1e6, before, after)
            for ns in selector.times_ns[calls_before:]
        )
        before = after
    served = [future.value if future.done else None for future in futures]
    return PassResult(
        served=served,
        digest=digest(
            None if s is None else (s.selected, s.substituted, s.topk, s.latency_ms)
            for s in served
        ),
        slice_cpu_ms=slice_cpu,
        slice_norm_ms=slice_norm,
        rank_norm_ms=rank_norm,
        rank_stats=list(selector.stats),
        events_fired=fired,
        front=front,
        service=service,
    )


def _check(outcome: Outcome, result: PassResult) -> None:
    """Every event completes with a sorted, duplicate-free top-k <= k."""
    for position, served in enumerate(result.served):
        if served is None:
            outcome.fail(f"event {position} never completed")
            continue
        topk = served.topk
        if len(topk) > K:
            outcome.fail(f"event {position}: {len(topk)} results > k={K}")
        if list(topk) != sorted(topk, reverse=True):
            outcome.fail(f"event {position}: top-k not sorted by score")
        if len({entry.doc_id for entry in topk}) != len(topk):
            outcome.fail(f"event {position}: duplicate documents in top-k")


def _trace_program(tracer: Tracer) -> dict[str, int]:
    """Wrap the program's public calls this workload goes through.

    RPC calls resolve later, on the clock, so they are counted (calls
    made and attempts they took) rather than spanned.
    """
    tracer.patch(InvertedIndex, "__init__", "ir.index_build")
    tracer.patch(Peer, "answer_query", "ir.answer")
    for name in ("lookup", "store", "drop_peer", "invalidate_terms", "invalidate_peers"):
        tracer.patch(RoutingPlanCache, name, f"serving.plan_cache.{name}")
    for name in ("build", "bump_epoch"):
        tracer.patch(ReferenceSynopsisCache, name, f"serving.synopsis_cache.{name}")
    for name in ("rejoin", "repost_detailed", "evict_crashed", "sweep_detailed", "forget_peer"):
        tracer.patch(DirectoryMaintainer, name, f"churn.maintainer.{name}")
    for name in ("add_node", "remove_node", "crash_node", "re_replicate"):
        tracer.patch(ChordRing, name, f"dht.ring.{name}")
    rpc = {"calls": 0, "attempts": 0}
    call = RpcLayer.call

    def count_attempts(done) -> None:
        rpc["attempts"] += done.value.attempts

    def counted_call(self, *args, **kwargs):
        future = call(self, *args, **kwargs)
        if tracer.enabled:
            rpc["calls"] += 1
            future.add_done_callback(count_attempts)
        return future

    tracer.substitute(RpcLayer, "call", counted_call)
    return rpc


def run(seed: int, seconds: float, trace: bool, tracer: Tracer) -> Outcome:
    outcome = Outcome()
    probe = HostProbe()
    rpc: dict[str, int] = {}
    if trace:
        rpc = _trace_program(tracer)
        tracer.enabled = True
    setup_cpu_s: list[float] = []
    setup: ServeSetup | None = None
    for _ in range(1 if trace else SETUPS):
        setup = None
        start = cpu_ns()
        setup = set_up(seed, tracer)
        setup_cpu_s.append((cpu_ns() - start) / 1e9)
    assert setup is not None
    tracer.enabled = False
    tracer.phase = "timed"

    passes: list[PassResult] = []
    traced_pass: list[bool] = []
    started = time.perf_counter()
    pass_wall: list[float] = []
    # Another pass while that ends nearer to ``seconds`` than stopping now.
    while len(passes) < 2 or time.perf_counter() - started + pass_wall[-1] / 2 <= seconds:
        tracing = trace and len(passes) % 2 == 1
        pass_start = time.perf_counter()
        result = serve_pass(setup, probe, tracer, tracing)
        pass_wall.append(time.perf_counter() - pass_start)
        if passes and (
            result.digest != passes[0].digest
            or len(result.rank_norm_ms) != len(passes[0].rank_norm_ms)
        ):
            outcome.fail(f"pass {len(passes)} differs from pass 0")
        if not passes:
            _check(outcome, result)
        passes.append(result)
        traced_pass.append(tracing)
        # Only the first pass's objects are read again; free the rest.
        if len(passes) > 1:
            result.served = []
    outcome.attempted = NUM_EVENTS * len(passes)

    first = passes[0]
    served = first.served
    untraced = [p for p, traced in zip(passes, traced_pass) if not traced]
    n = len(served)
    outcome.put("setup_s", median(setup_cpu_s), "s")
    outcome.put(
        "queries_per_cpu_s",
        median(n / (sum(p.slice_norm_ms) / 1e3) for p in untraced),
        "1/s",
    )
    calls = len(first.rank_norm_ms)
    per_call = [median(p.rank_norm_ms[i] for p in untraced) for i in range(calls)]
    outcome.put("route_cpu_ms_p50", percentile(per_call, 0.50), "ms")
    outcome.put("route_cpu_ms_p95", percentile(per_call, 0.95), "ms")
    outcome.put("messages_per_query", sum(s.cost.total_messages for s in served) / n, "count")
    outcome.put("kbits_per_query", sum(s.cost.total_bits for s in served) / n / 1e3, "kbit")
    outcome.put(
        "recall",
        sum(
            relative_recall(result_ids(s.topk), setup.references[s.query.query_id])
            for s in served
        )
        / n,
        "ratio",
    )

    # -- sim-clock and per-layer figures (reported by the traced run) ------
    latencies = [s.latency_ms for s in served]
    outcome.put("latency_sim_ms_p50", percentile(latencies, 0.50), "ms")
    outcome.put("latency_sim_ms_p99", percentile(latencies, 0.99), "ms")
    outcome.put("degraded_share", sum(1 for s in served if s.degraded) / n, "ratio")
    stats = first.service.stats
    outcome.put(
        "maintenance_kbits_per_sim_s",
        stats.maintenance_bits / 1e3 / (HORIZON_MS / 1e3),
        "kbit/s",
    )
    for field in ("crashes", "leaves", "recoveries", "reposts", "posts_expired",
                  "nodes_evicted", "keys_re_replicated"):
        outcome.put(f"churn.{field}", getattr(stats, field), "count")
    plan = first.front.plan_stats()
    synopsis = first.front.synopsis_stats()
    outcome.put("serving.plan_hit_rate", plan.hit_rate, "ratio")
    outcome.put("serving.plan_invalidated", plan.invalidated, "count")
    outcome.put("serving.plan_repaired", plan.repaired, "count")
    outcome.put("serving.plan_evicted", plan.evicted, "count")
    outcome.put("serving.synopsis_hit_rate", synopsis.hit_rate, "ratio")
    for name, attribute in (
        ("entries_streamed", "entries_streamed"),
        ("peers_skipped", "peers_skipped"),
        ("batch_rounds", "batch_rounds"),
    ):
        outcome.put(
            f"serving.{name}_per_query",
            sum(getattr(s, attribute) for s in served) / n,
            "count",
        )
    outcome.put(
        "serving.timed_out_peers_per_query",
        sum(len(s.timed_out_peers) for s in served) / n,
        "count",
    )
    outcome.put(
        "serving.substituted_per_query",
        sum(len(s.substituted) for s in served) / n,
        "count",
    )
    for kind in KINDS:
        outcome.put(
            f"net.messages_per_query.{kind}",
            sum(s.cost.messages(kind) for s in served) / n,
            "count",
        )
    lookups = sum(s.cost.messages(MessageKinds.PEERLIST_FETCH) for s in served)
    hops = sum(s.cost.messages(MessageKinds.DHT_HOP) for s in served)
    outcome.put("dht.hops_per_lookup", hops / lookups if lookups else 0.0, "count")
    transport = first.service.executor.transport.stats
    outcome.put("simnet.events_per_query", first.events_fired / n, "count")
    outcome.put(
        "simnet.dropped_share",
        transport.dropped / transport.sent if transport.sent else 0.0,
        "ratio",
    )
    put_rank_stats(outcome, first.rank_stats, n)
    outcome.put(
        "host.raw_queries_per_cpu_s",
        median(n / (sum(p.slice_cpu_ms) / 1e3) for p in untraced),
        "1/s",
    )
    outcome.put("host.probe_ms", median(probe.samples_ms), "ms")
    if trace:
        _put_traced(outcome, tracer, passes, traced_pass, rpc, n)
    outcome.notes.update(
        passes=len(passes),
        pass_wall_s=[round(w, 2) for w in pass_wall],
        setup_cpu_s=setup_cpu_s,
        digest=first.digest,
    )
    return outcome


def _put_traced(
    outcome: Outcome,
    tracer: Tracer,
    passes: list[PassResult],
    traced_pass: list[bool],
    rpc: dict[str, int],
    n: int,
) -> None:
    setup = tracer.totals("setup")
    timed = tracer.totals("timed")
    traced_events = n * sum(traced_pass)

    def per_query_ms(prefix: str, key: str = "total_s") -> float:
        total = sum(v[key] for name, v in timed.items() if name.startswith(prefix))
        return total * 1e3 / traced_events

    def calls_per_query(name: str) -> float:
        return timed.get(name, {}).get("calls", 0) / traced_events

    outcome.put("ir.index_build_cpu_s", setup.get("ir.index_build", {}).get("total_s", 0.0), "s")
    outcome.put("ir.answer_calls_per_query", calls_per_query("ir.answer"), "count")
    outcome.put("ir.answer_cpu_ms", per_query_ms("ir.answer"), "ms")
    outcome.put("core.rank_cpu_ms", per_query_ms("core.rank"), "ms")
    outcome.put("serving.cache_cpu_ms", per_query_ms("serving."), "ms")
    outcome.put("churn.maintenance_cpu_ms", per_query_ms("churn.maintainer."), "ms")
    outcome.put("dht.ring_update_cpu_ms", per_query_ms("dht.ring."), "ms")
    outcome.put("simnet.dispatch_self_cpu_ms", per_query_ms("simnet.run", "self_s"), "ms")
    outcome.put(
        "simnet.rpc_attempts_per_call",
        rpc["attempts"] / rpc["calls"] if rpc.get("calls") else 0.0,
        "count",
    )
    traced_ms = [sum(p.slice_norm_ms) for p, t in zip(passes, traced_pass) if t]
    plain_ms = [sum(p.slice_norm_ms) for p, t in zip(passes, traced_pass) if not t]
    outcome.put("trace.overhead", median(traced_ms) / median(plain_ms), "ratio")
