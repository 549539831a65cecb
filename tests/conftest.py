"""Shared fixtures: small corpora, engines, and deterministic RNGs.

Everything here is sized for speed (whole-suite runtime, not realism);
the benchmarks run the paper-scale configurations.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings

from repro.datasets.corpus import GovCorpusConfig, build_gov_corpus
from repro.datasets.partition import (
    combination_collections,
    corpora_from_doc_id_sets,
    fragment_corpus,
)
from repro.datasets.queries import make_workload
from repro.minerva.engine import MinervaEngine
from repro.synopses.factory import SynopsisSpec

# Property tests draw the same examples on every run, so the suite passes
# or fails reproducibly.  HYPOTHESIS_PROFILE=explore restores randomized
# generation (plus the example database) for bug-hunting.
settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None
)
settings.register_profile("explore", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def tiny_config() -> GovCorpusConfig:
    return GovCorpusConfig(
        num_docs=400,
        vocabulary_size=1200,
        num_topics=4,
        topic_vocabulary_size=80,
        doc_length_mean=60,
        topic_assignment="blocked",
        topic_smear=0.8,
        seed=99,
    )


@pytest.fixture(scope="session")
def tiny_corpus(tiny_config):
    return build_gov_corpus(tiny_config)


@pytest.fixture(scope="session")
def tiny_queries(tiny_config):
    return make_workload(
        tiny_config, num_queries=4, pool_size=12, pool_offset=0, seed=5
    )


@pytest.fixture(scope="session")
def tiny_engine(tiny_corpus, tiny_queries):
    """A published 10-peer engine over C(5, 2) collections."""
    fragments = fragment_corpus(tiny_corpus, 5)
    collections = corpora_from_doc_id_sets(
        tiny_corpus, combination_collections(fragments, 2)
    )
    engine = MinervaEngine(collections, spec=SynopsisSpec.parse("mips-32"))
    engine.publish({t for q in tiny_queries for t in q.terms})
    return engine
