"""Workloads ``route-flat-10k`` and ``route-super-10k``: IQN routing CPU.

Set-up is the 10k-peer cell of ``experiments/hierarchy.py``: a
:class:`~repro.datasets.scale.ScaledTestbed` of 10,000 peers over 100
topics (``topic_pool=200``, ``docs_per_term=(10, 40)``, Bloom-2048
synopses) at the sweep's seed 0.  The testbed does not follow the run's
seed: how well the super-peer tier clusters differs from one testbed
seed to the next, enough to move its traffic and CPU per query by a
fifth between seeds, which would drown any regression.  The run's seed
draws the load on it instead.  The load is a closed loop with one
caller over 300 distinct topical queries (every topic with every two
of its three terms, so at least ten lie beyond the p95 rank) in a
seeded order, each from a seeded on-topic initiator, routed pass after
pass with ``IQNRouter(max_peers=10)`` through one topology:

- ``flat`` (:class:`~repro.topology.flat.FlatTopology`): the columnar
  IQN kernel does nearly all of the timed work; simnet, serving and
  churn are not on the path, so a serving change must not move it;
- ``super`` (:class:`~repro.topology.superpeer.SuperPeerTopology`,
  default clustering and budget): the only workload in which
  ``topology.superpeer`` and ``topology.clustering`` do their work,
  most of it two-phase assembly over a scope of a few thousand peers.

The timed region of a query is exactly its three calls into the
topology (``assemble``, ``context_for``, ``plan``).  Everything else —
initiator local views, cost snapshots, coverage recall, the naive
oracle — runs outside it.  A host probe brackets every block of
queries worth about 40 ms of timed CPU, and each query's CPU is
normalized by its block's probes (:mod:`host`).

Directory traffic is charged as ``experiments/hierarchy.py`` charges
it: what the topology charged to the directory's cost model, plus one
``query_forward`` and one ``result_return`` (20 entries) per selected
peer.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from repro.core.iqn import IQNRouter
from repro.datasets.queries import Query
from repro.datasets.scale import ScaledTestbed, ScaledTestbedConfig
from repro.minerva.directory import Directory
from repro.minerva.engine import QUERY_HEADER_BITS, QUERY_TERM_BITS, RESULT_ENTRY_BITS
from repro.net.cost import MessageKinds
from repro.parallel.seeding import derive_seed
from repro.routing.base import LocalView
from repro.synopses.factory import SynopsisSpec
from repro.topology.base import RoutingTopology
from repro.topology.flat import FlatTopology
from repro.topology.superpeer import SuperPeerTopology

from common import KINDS, Outcome, digest, median, percentile, put_rank_stats
from host import HostProbe, cpu_ns, freeze_heap, normalize_ms
from tracing import TimedSelector, Tracer

NUM_PEERS = 10_000
NUM_TOPICS = 100
TOPIC_POOL = 200
DOCS_PER_TERM = (10, 40)
SPEC_LABEL = "bf-2048"
MAX_PEERS = 10
#: Timed CPU between two host probes: the host changes speed on a scale
#: of 0.1 s, so blocks much longer than this track it worse.
PROBE_EVERY_MS = 40.0
#: Every ORACLE_EVERY-th plan is checked against the naive IQN loop.
ORACLE_EVERY = 10
#: Result entries each selected peer ships back (as in the hierarchy cell).
RESULT_K = 20
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 2
#: The hierarchy sweep's seed, for the testbed and the clustering.
TESTBED_SEED = 0



@dataclass
class RouteSetup:
    testbed: ScaledTestbed
    topology: RoutingTopology
    queries: list[Query]
    views: list[LocalView]


@dataclass(frozen=True)
class QueryRecord:
    """What one routed query produced: the deterministic outputs."""

    selected: tuple[str, ...]
    messages: int
    bits: int
    by_kind: tuple[int, ...]
    scope: int
    super_fetches: int


def make_inputs(testbed: ScaledTestbed, seed: int) -> tuple[list[Query], list[LocalView]]:
    """Every (topic, term pair) query once, in a seeded order, each with
    a seeded on-topic initiator.

    The query set is the same at every seed, so a percentile over it
    does not move with which queries a seed happened to draw.
    """
    rng = random.Random(derive_seed(seed, "perfbench:route-queries"))
    members: dict[int, list[int]] = {}
    for index in range(testbed.num_peers):
        members.setdefault(testbed.topic_of_peer(index), []).append(index)
    pairs = list(itertools.combinations(range(testbed.config.terms_per_topic), 2))
    combos = [(topic, pair) for topic in range(NUM_TOPICS) for pair in pairs]
    rng.shuffle(combos)
    queries: list[Query] = []
    views: list[LocalView] = []
    for query_id, (topic, pair) in enumerate(combos):
        terms = testbed.topic_terms(topic)
        query = Query(query_id, tuple(terms[j] for j in pair), topic=topic)
        queries.append(query)
        views.append(testbed.local_view(query, rng.choice(members[topic])))
    return queries, views


def set_up(kind: str, seed: int, tracer: Tracer) -> RouteSetup:
    config = ScaledTestbedConfig(
        num_peers=NUM_PEERS,
        num_topics=NUM_TOPICS,
        topic_pool=TOPIC_POOL,
        docs_per_term=DOCS_PER_TERM,
        seed=TESTBED_SEED,
    )
    spec = SynopsisSpec.parse(SPEC_LABEL, seed=TESTBED_SEED)
    with tracer.span("setup.testbed"):
        testbed = ScaledTestbed(config, spec=spec)
    topology: RoutingTopology
    if kind == "flat":
        topology = FlatTopology()
        topology.bind(testbed)
    else:
        topology = SuperPeerTopology(seed=TESTBED_SEED)
        topology.bind(testbed)
        with tracer.span("topology.ensure_clusters"):
            topology.ensure_clusters()
    queries, views = make_inputs(testbed, seed)
    return RouteSetup(testbed, topology, queries, views)


def _trace_setup(tracer: Tracer) -> None:
    """Wrap the program's calls that build the directory."""
    tracer.patch(Directory, "publish_batch", "directory.publish_batch")
    tracer.patch(SynopsisSpec, "build", "synopses.build", keep=False)


def _trace_topology(tracer: Tracer, topology: RoutingTopology) -> None:
    """Wrap the super-peer tier's two phases (called from ``assemble``)."""
    if isinstance(topology, SuperPeerTopology):
        tracer.patch(topology, "rank_clusters", "topology.rank_clusters")
        tracer.patch(topology, "member_posts", "topology.member_posts")


def run(kind: str, seed: int, seconds: float, trace: bool, tracer: Tracer) -> Outcome:
    outcome = Outcome()
    probe = HostProbe()
    if trace:
        _trace_setup(tracer)
        tracer.enabled = True
    setup_cpu_s: list[float] = []
    setup: RouteSetup | None = None
    for _ in range(1 if trace else SETUPS):
        setup = None  # drop the previous testbed before building the next
        start = cpu_ns()
        setup = set_up(kind, seed, tracer)
        setup_cpu_s.append((cpu_ns() - start) / 1e9)
    assert setup is not None
    tracer.enabled = False
    if trace:
        _trace_topology(tracer, setup.topology)
    testbed, topology, queries, views = (
        setup.testbed,
        setup.topology,
        setup.queries,
        setup.views,
    )
    selector = TimedSelector(IQNRouter(), tracer)

    records: list[QueryRecord] = []
    norm_ms_by_pass: list[list[float]] = []
    raw_ms_by_pass: list[list[float]] = []
    traced_pass: list[bool] = []
    pass_wall: list[float] = []
    tracer.phase = "timed"
    freeze_heap()
    started = time.perf_counter()
    # Another pass while that ends nearer to ``seconds`` than stopping now.
    while len(pass_wall) < 2 or (
        time.perf_counter() - started + pass_wall[-1] / 2 <= seconds
    ):
        pass_no = len(pass_wall)
        # Traced runs alternate untraced and traced passes, so the
        # tracing overhead is measured inside one process.
        tracing = trace and pass_no % 2 == 1
        pass_start = time.perf_counter()
        selector.reset()
        raw_ms, norm_ms, pass_records = _route_pass(setup, selector, probe, tracer, tracing)
        pass_wall.append(time.perf_counter() - pass_start)
        raw_ms_by_pass.append(raw_ms)
        norm_ms_by_pass.append(norm_ms)
        traced_pass.append(tracing)
        if pass_no == 0:
            records = pass_records
            rank_stats = list(selector.stats)
        elif pass_records != records:
            outcome.fail(f"pass {pass_no} routed differently from pass 0")
    outcome.attempted = len(queries) * len(norm_ms_by_pass)

    # -- correctness gate, outside the timed passes ------------------------
    tracer.phase = "gate"
    recall = [
        testbed.coverage_recall(record.selected, query)
        for record, query in zip(records, queries)
    ]
    for index in range(0, len(queries), ORACLE_EVERY):
        _check_oracle(outcome, topology, queries[index], views[index], records[index].selected)

    n = len(queries)
    untraced = [i for i, traced in enumerate(traced_pass) if not traced]
    per_query = [median(norm_ms_by_pass[p][i] for p in untraced) for i in range(n)]
    outcome.put("setup_s", median(setup_cpu_s), "s")
    outcome.put(
        "queries_per_cpu_s",
        median(n / (sum(norm_ms_by_pass[p]) / 1e3) for p in untraced),
        "1/s",
    )
    outcome.put("route_cpu_ms_p50", percentile(per_query, 0.50), "ms")
    outcome.put("route_cpu_ms_p95", percentile(per_query, 0.95), "ms")
    outcome.put("messages_per_query", sum(r.messages for r in records) / n, "count")
    outcome.put("kbits_per_query", sum(r.bits for r in records) / n / 1e3, "kbit")
    outcome.put("recall", sum(recall) / n, "ratio")

    # -- per-layer diagnostics (reported by the traced run) ---------------
    outcome.put(
        "host.raw_queries_per_cpu_s",
        median(n / (sum(raw_ms_by_pass[p]) / 1e3) for p in untraced),
        "1/s",
    )
    outcome.put("host.probe_ms", median(probe.samples_ms), "ms")
    for position, kind_ in enumerate(KINDS):
        outcome.put(
            f"net.messages_per_query.{kind_}",
            sum(r.by_kind[position] for r in records) / n,
            "count",
        )
    lookups = sum(r.by_kind[KINDS.index(MessageKinds.PEERLIST_FETCH)] for r in records)
    hops = sum(r.by_kind[KINDS.index(MessageKinds.DHT_HOP)] for r in records)
    outcome.put("dht.hops_per_lookup", hops / lookups if lookups else 0.0, "count")
    outcome.put("topology.scope_peers", sum(r.scope for r in records) / n, "count")
    put_rank_stats(outcome, rank_stats, n)
    directory = testbed.directory
    outcome.put(
        "directory.posts_published",
        sum(len(directory.stored_list(term)) for term in directory.stored_terms()),
        "count",
    )
    if isinstance(topology, SuperPeerTopology):
        clusters = topology.clusters
        outcome.put(
            "topology.super_fetches_per_query",
            sum(r.super_fetches for r in records) / n,
            "count",
        )
        outcome.put(
            "topology.largest_cluster_share",
            max(len(c.members) for c in clusters) / testbed.num_peers,
            "ratio",
        )
    if trace:
        _put_traced(outcome, tracer, norm_ms_by_pass, traced_pass, n)
    outcome.notes.update(
        passes=len(norm_ms_by_pass),
        setup_cpu_s=setup_cpu_s,
        pass_wall_s=[round(w, 2) for w in pass_wall],
        digest=digest(r.selected for r in records),
    )
    return outcome


def _route_pass(
    setup: RouteSetup,
    selector: TimedSelector,
    probe: HostProbe,
    tracer: Tracer,
    tracing: bool,
) -> tuple[list[float], list[float], list[QueryRecord]]:
    """Route every query once: raw and normalized CPU ms, and outputs."""
    topology, cost = setup.topology, setup.testbed.directory.cost
    raw_ms: list[float] = []
    norm_ms: list[float] = []
    records: list[QueryRecord] = []
    block_raw: list[float] = []
    before = probe.sample()
    for position, (query, view) in enumerate(zip(setup.queries, setup.views)):
        snapshot = cost.snapshot()
        tracer.enabled = tracing
        with tracer.span("route", query.query_id):
            start = cpu_ns()
            with tracer.span("topology.assemble", query.query_id):
                scoped = topology.assemble(
                    query, requester=view.peer_id, initiator=view, max_peers=MAX_PEERS
                )
            with tracer.span("topology.context_for", query.query_id):
                context = topology.context_for(query, scoped, initiator=view)
            with tracer.span("topology.plan", query.query_id):
                plan = topology.plan(context, scoped, selector, MAX_PEERS)
            block_raw.append((cpu_ns() - start) / 1e6)
        tracer.enabled = False
        query_bits = QUERY_HEADER_BITS + QUERY_TERM_BITS * len(query.terms)
        for _ in plan.selected:
            cost.record(MessageKinds.QUERY_FORWARD, bits=query_bits)
            cost.record(MessageKinds.RESULT_RETURN, bits=RESULT_ENTRY_BITS * RESULT_K)
        delta = cost.snapshot() - snapshot
        records.append(
            QueryRecord(
                selected=plan.selected,
                messages=delta.total_messages,
                bits=delta.total_bits,
                by_kind=tuple(delta.messages(kind) for kind in KINDS),
                scope=(
                    plan.scope_size
                    if plan.scope_size is not None
                    else selector.stats[-1].candidates
                ),
                super_fetches=plan.super_fetches,
            )
        )
        if sum(block_raw) >= PROBE_EVERY_MS or position == len(setup.queries) - 1:
            after = probe.sample()
            raw_ms.extend(block_raw)
            norm_ms.extend(normalize_ms(ms, before, after) for ms in block_raw)
            block_raw, before = [], after
    return raw_ms, norm_ms, records


def _check_oracle(
    outcome: Outcome,
    topology: RoutingTopology,
    query: Query,
    view: LocalView,
    selected: tuple[str, ...],
) -> None:
    """The naive IQN loop must choose exactly the timed plan."""
    scoped = topology.assemble(query, requester=view.peer_id, initiator=view, max_peers=MAX_PEERS)
    context = topology.context_for(query, scoped, initiator=view)
    oracle = topology.plan(context, scoped, IQNRouter(fast_path=False), MAX_PEERS)
    if oracle.selected != selected:
        outcome.fail(
            f"query {query.query_id}: plan {selected} != naive oracle {oracle.selected}"
        )


def _put_traced(
    outcome: Outcome,
    tracer: Tracer,
    norm_ms_by_pass: list[list[float]],
    traced_pass: list[bool],
    n: int,
) -> None:
    setup = tracer.totals("setup")
    timed = tracer.totals("timed")
    traced_queries = n * sum(traced_pass)

    def setup_s(name: str) -> float:
        return setup.get(name, {}).get("total_s", 0.0)

    def per_query_ms(name: str) -> float:
        return timed.get(name, {}).get("total_s", 0.0) * 1e3 / traced_queries

    outcome.put("directory.publish_cpu_s", setup_s("directory.publish_batch"), "s")
    outcome.put("synopses.build_cpu_s", setup_s("synopses.build"), "s")
    outcome.put("topology.cluster_build_cpu_s", setup_s("topology.ensure_clusters"), "s")
    outcome.put("topology.assemble_cpu_ms", per_query_ms("topology.assemble"), "ms")
    outcome.put("topology.rank_clusters_cpu_ms", per_query_ms("topology.rank_clusters"), "ms")
    outcome.put("topology.member_posts_cpu_ms", per_query_ms("topology.member_posts"), "ms")
    outcome.put("core.rank_cpu_ms", per_query_ms("core.rank"), "ms")
    traced_ms = [sum(ms) for ms, traced in zip(norm_ms_by_pass, traced_pass) if traced]
    plain_ms = [sum(ms) for ms, traced in zip(norm_ms_by_pass, traced_pass) if not traced]
    outcome.put("trace.overhead", median(traced_ms) / median(plain_ms), "ratio")
