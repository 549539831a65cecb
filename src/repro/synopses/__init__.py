"""Compact set synopses (Section 3): Bloom filters, hash sketches, MIPs.

The public surface of this package is:

- :class:`~repro.synopses.base.SetSynopsis` — the shared interface;
- the three concrete families the paper studies;
- :class:`~repro.synopses.factory.SynopsisSpec` — named, budget-aware
  configurations ("mips-64", "bf-2048", "hs-32");
- exact set measures and their estimator algebra
  (:mod:`repro.synopses.measures`);
- :class:`~repro.synopses.histogram.ScoreHistogramSynopsis` — the
  score-conscious composite of Section 7.1.
"""

from .base import (
    IncompatibleSynopsesError,
    SetSynopsis,
    SynopsisError,
    UnsupportedOperationError,
)
from .bloom import BloomFilter, optimal_num_hashes
from .factory import KINDS, SynopsisSpec
from .hashing import LinearHashFamily, LinearPermutation, splitmix64, uniform_hash
from .hashsketch import HashSketch
from .loglog import LOGLOG_ALPHA, LogLogCounter
from .histogram import ScoreHistogramSynopsis, cell_index
from .measures import (
    containment,
    containment_from_resemblance,
    novelty,
    novelty_from_resemblance,
    novelty_from_union,
    overlap,
    overlap_from_containment,
    overlap_from_resemblance,
    resemblance,
    resemblance_from_containment,
)
from .mips import BITS_PER_POSITION, MIPS_MODULUS, MinWisePermutations

__all__ = [
    "SetSynopsis",
    "SynopsisError",
    "IncompatibleSynopsesError",
    "UnsupportedOperationError",
    "BloomFilter",
    "optimal_num_hashes",
    "HashSketch",
    "LogLogCounter",
    "LOGLOG_ALPHA",
    "MinWisePermutations",
    "MIPS_MODULUS",
    "BITS_PER_POSITION",
    "ScoreHistogramSynopsis",
    "cell_index",
    "SynopsisSpec",
    "KINDS",
    "LinearHashFamily",
    "LinearPermutation",
    "splitmix64",
    "uniform_hash",
    "overlap",
    "containment",
    "resemblance",
    "novelty",
    "overlap_from_resemblance",
    "overlap_from_containment",
    "resemblance_from_containment",
    "containment_from_resemblance",
    "novelty_from_resemblance",
    "novelty_from_union",
]
