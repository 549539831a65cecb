"""Property-based tests on IQN routing invariants.

For arbitrary networks of candidate peers (random per-term document
sets), the router must uphold structural invariants: plans contain no
duplicates, never exceed the candidate pool, are deterministic, and the
reference-synopsis discount makes an exact clone of an already-selected
peer (near-)worthless.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import PerPeerAggregation, PerTermAggregation
from repro.core.iqn import IQNRouter
from repro.datasets.queries import Query
from repro.minerva.posts import PeerList, Post
from repro.routing.base import LocalView, RoutingContext
from repro.synopses.factory import SynopsisSpec

SPEC = SynopsisSpec.parse("mips-16")

# A network blueprint: per peer, per term, a doc-id block (start, size).
peer_blueprints = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=50),  # term-a block start (x100)
        st.integers(min_value=0, max_value=40),  # term-a size
        st.integers(min_value=0, max_value=50),  # term-b block start (x100)
        st.integers(min_value=0, max_value=40),  # term-b size
    ),
    min_size=1,
    max_size=8,
)


def build_context(blueprints, *, conjunctive=False, seed_docs=frozenset()):
    list_a = PeerList(term="a")
    list_b = PeerList(term="b")
    for index, (a_start, a_size, b_start, b_size) in enumerate(blueprints):
        peer_id = f"p{index:02d}"
        ids_a = list(range(a_start * 100, a_start * 100 + a_size))
        ids_b = list(range(b_start * 100, b_start * 100 + b_size))
        if ids_a:
            list_a.add(_post(peer_id, "a", ids_a))
        if ids_b:
            list_b.add(_post(peer_id, "b", ids_b))
    return RoutingContext(
        query=Query(0, ("a", "b")),
        peer_lists={"a": list_a, "b": list_b},
        num_peers=len(blueprints) + 1,
        spec=SPEC,
        initiator=LocalView(
            peer_id="me",
            result_doc_ids=frozenset(seed_docs),
            doc_ids_by_term={"a": frozenset(seed_docs), "b": frozenset()},
        ),
        conjunctive=conjunctive,
    )


def _post(peer_id, term, ids):
    return Post(
        peer_id=peer_id,
        term=term,
        cdf=len(ids),
        max_score=1.0,
        avg_score=0.5,
        term_space_size=100,
        synopsis=SPEC.build(ids),
    )


class TestPlanInvariants:
    @given(peer_blueprints, st.integers(min_value=1, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_no_duplicates_and_bounded(self, blueprints, max_peers):
        context = build_context(blueprints)
        plan = IQNRouter().rank(context, max_peers)
        assert len(plan) == len(set(plan))
        candidates = {c.peer_id for c in context.candidates()}
        assert set(plan) <= candidates
        assert len(plan) <= min(max_peers, len(candidates))

    @given(peer_blueprints)
    @settings(max_examples=30, deadline=None)
    def test_deterministic(self, blueprints):
        context_one = build_context(blueprints)
        context_two = build_context(blueprints)
        assert IQNRouter().rank(context_one, 5) == IQNRouter().rank(
            context_two, 5
        )

    @given(peer_blueprints)
    @settings(max_examples=30, deadline=None)
    def test_novelties_nonnegative(self, blueprints):
        context = build_context(blueprints)
        for selection in IQNRouter().rank_detailed(context, 5):
            assert selection.novelty >= 0.0
            assert selection.quality > 0.0

    @given(peer_blueprints, st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_per_term_strategy_same_invariants(self, blueprints, conjunctive):
        context = build_context(blueprints, conjunctive=conjunctive)
        plan = IQNRouter(PerTermAggregation()).rank(context, 4)
        assert len(plan) == len(set(plan))


class TestCloneDiscount:
    @given(
        st.integers(min_value=20, max_value=200),
        st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=25, deadline=None)
    def test_clones_of_selected_peer_lose_novelty(self, size, clone_count):
        """N identical peers: after the first is absorbed, the others'
        novelty collapses, regardless of set size or clone count."""
        ids = list(range(size))
        list_a = PeerList(term="a")
        for i in range(clone_count):
            list_a.add(_post(f"clone{i}", "a", ids))
        context = RoutingContext(
            query=Query(0, ("a",)),
            peer_lists={"a": list_a},
            num_peers=clone_count + 1,
            spec=SPEC,
            initiator=LocalView(peer_id="me"),
        )
        selections = IQNRouter().rank_detailed(context, clone_count)
        assert selections[0].novelty > 0.5 * size
        for later in selections[1:]:
            assert later.novelty <= 0.25 * selections[0].novelty + 1.0


class TestSeedDiscount:
    @given(st.integers(min_value=10, max_value=300))
    @settings(max_examples=25, deadline=None)
    def test_initiator_duplicates_discounted(self, size):
        """A peer that only mirrors the initiator's local result is
        dominated by an equally-sized novel peer."""
        seed = frozenset(range(size))
        list_a = PeerList(term="a")
        list_a.add(_post("mirror", "a", sorted(seed)))
        list_a.add(_post("fresh", "a", range(100_000, 100_000 + size)))
        context = RoutingContext(
            query=Query(0, ("a",)),
            peer_lists={"a": list_a},
            num_peers=3,
            spec=SPEC,
            initiator=LocalView(
                peer_id="me",
                result_doc_ids=seed,
                doc_ids_by_term={"a": seed},
            ),
        )
        plan = IQNRouter(PerPeerAggregation()).rank(context, 1)
        assert plan == ["fresh"]


class TestFastPathEquivalence:
    @given(peer_blueprints, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_fast_plan_matches_naive(self, blueprints, conjunctive):
        """The vectorized fast path is an *exact* reimplementation: for
        arbitrary networks the plans agree peer for peer, float for
        float."""
        naive = IQNRouter(fast_path=False)
        fast = IQNRouter()
        plan_naive = naive.rank_detailed(build_context(blueprints, conjunctive=conjunctive), 6)
        plan_fast = fast.rank_detailed(build_context(blueprints, conjunctive=conjunctive), 6)
        assert [(s.peer_id, s.quality, s.novelty) for s in plan_fast] == [
            (s.peer_id, s.quality, s.novelty) for s in plan_naive
        ]


class TestNoveltyMonotonicity:
    """Novelty can only shrink as the reference grows: trivially for
    exact sets, and provably for Bloom estimates (absorbing ORs bits in,
    so ``cand AND NOT ref`` loses bits and the linear-counting inversion
    is increasing in the popcount).  A synopsis property worth pinning
    on its own; the routing driver does not rely on it."""

    absorb_sequences = st.lists(
        st.sets(st.integers(min_value=0, max_value=2_000), max_size=150),
        min_size=1,
        max_size=6,
    )
    candidate_sets = st.sets(
        st.integers(min_value=0, max_value=2_000), min_size=1, max_size=150
    )

    @given(candidate_sets, absorb_sequences)
    @settings(max_examples=50, deadline=None)
    def test_exact_set_novelty_non_increasing(self, candidate, absorbed):
        reference = set()
        previous = len(candidate)
        for addition in absorbed:
            reference |= addition
            novelty = len(candidate - reference)
            assert novelty <= previous
            previous = novelty

    @given(candidate_sets, absorb_sequences)
    @settings(max_examples=50, deadline=None)
    def test_bloom_novelty_non_increasing(self, candidate, absorbed):
        from repro.core.novelty import estimate_novelty
        from repro.synopses.factory import SynopsisSpec as _Spec

        spec = _Spec.parse("bf-512")
        candidate_synopsis = spec.build(candidate)
        reference_ids = set()
        previous = float("inf")
        for addition in absorbed:
            reference_ids |= addition
            novelty = estimate_novelty(
                candidate_synopsis,
                spec.build(reference_ids),
                candidate_cardinality=float(len(candidate)),
            )
            assert novelty <= previous
            previous = novelty
