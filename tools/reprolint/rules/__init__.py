"""Built-in reprolint rules.

Importing this package registers every rule with the global registry:

==========  =============================================  ==========================
id          name                                           scope
==========  =============================================  ==========================
RPRL001     mutating-method-must-invalidate-cache          everywhere
RPRL002     no-unseeded-randomness                         ``src/repro``
RPRL003     no-wall-clock-in-simulation                    ``repro/{simnet,churn,serving,topology}``
RPRL004     no-float-equality                              ``repro/synopses``, ``repro/core``
RPRL005     public-api-hygiene (``__all__``)               ``src/repro``
RPRL006     worker-entrypoints-take-seed                   ``src/repro``
RPRL007     churn-event-streams-take-seed                  ``repro/churn``
RPRL008     columnar-stays-packed                          ``repro/synopses/columnstore``, ``repro/core/fastpath``
RPRL009     hypothesis-stays-deterministic                 ``tests/``
==========  =============================================  ==========================
"""

from __future__ import annotations

from .caches import MutatingMethodMustInvalidateCache
from .randomness import NoUnseededRandomness
from .wallclock import NoWallClockInSimulation
from .floats import NoFloatEquality
from .api import PublicApiHygiene
from .workers import WorkerEntrypointsTakeSeed
from .churn import ChurnEventStreamsTakeSeed
from .columnar import ColumnarStaysPacked
from .hypothesis_profile import HypothesisStaysDeterministic

__all__ = [
    "MutatingMethodMustInvalidateCache",
    "NoUnseededRandomness",
    "NoWallClockInSimulation",
    "NoFloatEquality",
    "PublicApiHygiene",
    "WorkerEntrypointsTakeSeed",
    "ChurnEventStreamsTakeSeed",
    "ColumnarStaysPacked",
    "HypothesisStaysDeterministic",
]
