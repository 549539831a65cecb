"""Tests for local top-k query execution."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir.documents import Corpus, Document
from repro.ir.index import InvertedIndex, Posting
from repro.ir.topk import ScoredDocument, execute_query


@pytest.fixture
def index():
    return InvertedIndex(
        Corpus.from_documents(
            [
                Document.from_terms(1, ["forest", "fire", "fire"]),
                Document.from_terms(2, ["forest", "park"]),
                Document.from_terms(3, ["fire", "safety"]),
                Document.from_terms(4, ["park", "ranger"]),
            ]
        )
    )


class TestDisjunctive:
    def test_matches_any_term(self, index):
        results = execute_query(index, ("forest", "fire"), k=10)
        assert {r.doc_id for r in results} == {1, 2, 3}

    def test_multi_term_doc_ranks_first(self, index):
        results = execute_query(index, ("forest", "fire"), k=10)
        assert results[0].doc_id == 1

    def test_k_truncates(self, index):
        assert len(execute_query(index, ("forest", "fire"), k=2)) == 2

    def test_duplicate_terms_counted_once(self, index):
        once = execute_query(index, ("fire",), k=10)
        twice = execute_query(index, ("fire", "fire"), k=10)
        assert once == twice

    def test_scores_descending(self, index):
        results = execute_query(index, ("forest", "fire", "park"), k=10)
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)


class TestConjunctive:
    def test_requires_all_terms(self, index):
        results = execute_query(index, ("forest", "fire"), k=10, conjunctive=True)
        assert {r.doc_id for r in results} == {1}

    def test_no_match_is_empty(self, index):
        assert (
            execute_query(index, ("forest", "ranger"), k=10, conjunctive=True) == []
        )

    def test_single_term_same_as_disjunctive(self, index):
        a = execute_query(index, ("park",), k=10)
        b = execute_query(index, ("park",), k=10, conjunctive=True)
        assert a == b


class TestEdges:
    def test_empty_terms(self, index):
        assert execute_query(index, (), k=5) == []

    def test_unknown_terms(self, index):
        assert execute_query(index, ("zzz",), k=5) == []

    def test_invalid_k(self, index):
        with pytest.raises(ValueError):
            execute_query(index, ("fire",), k=0)

    def test_deterministic_tie_break(self, index):
        results = execute_query(index, ("park",), k=10)
        # Both docs contain "park" once with equal length-independent
        # tf-idf scores; higher doc_id wins the tie (reverse tuple sort).
        assert [r.doc_id for r in results] == sorted(
            [r.doc_id for r in results],
            key=lambda d: (-dict((x.doc_id, x.score) for x in results)[d], -d),
        )

    def test_result_type(self, index):
        results = execute_query(index, ("fire",), k=1)
        assert isinstance(results[0], ScoredDocument)


class ListIndex:
    """An index stand-in serving fixed index lists."""

    def __init__(self, lists):
        self.lists = lists

    def index_list(self, term):
        return self.lists.get(term, ())


class TestTopKSelection:
    """The top ``k`` are the head of the full descending sort."""

    # Few distinct scores force ties between documents, in the per-term
    # scores and in their sums.
    index_lists = st.dictionaries(
        st.sampled_from("abc"),
        st.dictionaries(
            st.integers(min_value=0, max_value=15),
            st.sampled_from([0.0, 0.25, 0.5, 1.0]),
            max_size=12,
        ),
        max_size=3,
    )

    @given(
        index_lists,
        st.lists(st.sampled_from("abcd"), min_size=1, max_size=4),
        st.integers(min_value=1, max_value=20),
        st.booleans(),
    )
    def test_matches_the_sorted_head(self, lists, terms, k, conjunctive):
        index = ListIndex(
            {
                term: tuple(Posting(score, doc_id) for doc_id, score in docs.items())
                for term, docs in lists.items()
            }
        )
        unique_terms = list(dict.fromkeys(terms))
        sums: dict[int, float] = {}
        matched: dict[int, int] = {}
        for term in unique_terms:
            for doc_id, score in lists.get(term, {}).items():
                sums[doc_id] = sums.get(doc_id, 0.0) + score
                matched[doc_id] = matched.get(doc_id, 0) + 1
        full = sorted(
            (
                ScoredDocument(score, doc_id)
                for doc_id, score in sums.items()
                if not conjunctive or matched[doc_id] == len(unique_terms)
            ),
            reverse=True,
        )
        assert execute_query(index, tuple(terms), k=k, conjunctive=conjunctive) == (
            full[:k]
        )


class TestHashSeedIndependence:
    SCRIPT = """
import random
from repro.ir.documents import Corpus, Document
from repro.ir.index import InvertedIndex
from repro.ir.topk import execute_query

rng = random.Random(7)
vocabulary = [f"t{i}" for i in range(12)]
corpus = Corpus.from_documents(
    [
        Document.from_terms(
            doc_id, [rng.choice(vocabulary) for _ in range(rng.randrange(5, 40))]
        )
        for doc_id in range(300)
    ]
)
index = InvertedIndex(corpus)
for conjunctive in (False, True):
    terms = tuple(vocabulary[:6]) if not conjunctive else tuple(vocabulary[:2])
    for entry in execute_query(index, terms, k=50, conjunctive=conjunctive):
        print(entry.score.hex(), entry.doc_id)
"""

    def run(self, hash_seed):
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            env=env,
            check=True,
            capture_output=True,
            text=True,
        ).stdout

    def test_scores_and_order_independent_of_hash_seed(self):
        # Per-term scores are summed in query-term order, so score bits
        # and tie order cannot depend on string hashing.
        outputs = {self.run(seed) for seed in (0, 1, 2, 3)}
        assert len(outputs) == 1
        assert next(iter(outputs)).count("\n") > 50
