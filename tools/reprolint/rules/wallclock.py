"""RPRL003 — no wall-clock time in code that runs on the ``SimClock``.

The simulator is discrete-event: every timestamp must flow through
``SimClock`` so that a run's event order is a pure function of its
inputs.  One ``time.time()`` (or a blocking ``time.sleep``) smuggles
host-machine state into virtual time and destroys both reproducibility
and the ability to run simulated hours in milliseconds.  That holds for
everything the clock drives: the simulator itself (``repro/simnet``),
churn and maintenance timers (``repro/churn``), the serving front end
(``repro/serving``) and topology assembly, which runs inside the
networked driver (``repro/topology``).

The rule flags *references* (not just calls) to wall-clock functions —
passing ``time.monotonic`` as a callback is as much a violation as
calling it — and flags ``from time import time``-style imports at the
import site.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding
from ..registry import Rule, register_rule
from ._imports import ImportMap

__all__ = ["NoWallClockInSimulation"]

#: time-module members that read the host clock or block on it.
_TIME_FUNCTIONS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "sleep",
    }
)

#: Canonical dotted names that read the host clock via datetime.
_DATETIME_FUNCTIONS = frozenset(
    {
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register_rule
class NoWallClockInSimulation(Rule):
    rule_id = "RPRL003"
    name = "no-wall-clock-in-simulation"
    rationale = (
        "the simulation is discrete-event: virtual time must flow through "
        "SimClock; host-clock reads make simulated runs irreproducible."
    )
    scope_fragments = (
        "repro/simnet",
        "repro/churn",
        "repro/serving",
        "repro/topology",
    )

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        imports = ImportMap.from_tree(tree)

        # Flag banned from-imports at the import statement itself:
        # ``from time import monotonic`` severs the attribute chain, so
        # the use sites below could not see it.
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ImportFrom)
                and not node.level
                and node.module == "time"
            ):
                for alias in node.names:
                    if alias.name in _TIME_FUNCTIONS:
                        yield self._finding(
                            node,
                            path,
                            f"'from time import {alias.name}' imports a "
                            "wall-clock function; use SimClock virtual time",
                        )

        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            canonical = imports.resolve(node)
            if canonical is None:
                continue
            if canonical in _DATETIME_FUNCTIONS:
                yield self._finding(
                    node,
                    path,
                    f"'{canonical}' reads the host clock; simulated time "
                    "must come from SimClock",
                )
                continue
            parts = canonical.split(".")
            if parts[0] == "time" and len(parts) == 2 and parts[1] in _TIME_FUNCTIONS:
                yield self._finding(
                    node,
                    path,
                    f"'{canonical}' reads (or blocks on) the host clock; "
                    "simulated time must come from SimClock",
                )

    def _finding(self, node: ast.AST, path: str, message: str) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )
