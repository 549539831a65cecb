"""RPRL007 — churn membership event streams take explicit seeds.

``repro.churn`` turns the directory into a live service: membership
events and maintenance timers fire on the simnet ``SimClock`` (RPRL003
keeps wall-clock reads out of the package).  Any public callable that
generates a membership event stream (``generate*``, ``*_events``,
``*_schedule``) must take an explicit ``seed`` parameter, so the trace
is a pure function of its inputs and bit-identical at any worker count.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding
from ..registry import Rule, register_rule

__all__ = ["ChurnEventStreamsTakeSeed"]

#: Name shapes of public callables that produce membership event streams.
_EVENT_STREAM_SUFFIXES = ("_events", "_schedule")
_EVENT_STREAM_PREFIXES = ("generate",)


def _is_event_stream_name(name: str) -> bool:
    if name.startswith("_"):
        return False
    return name.startswith(_EVENT_STREAM_PREFIXES) or name.endswith(
        _EVENT_STREAM_SUFFIXES
    )


def _has_seed_parameter(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    args = fn.args
    named = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    return any(arg.arg == "seed" for arg in named)


@register_rule
class ChurnEventStreamsTakeSeed(Rule):
    rule_id = "RPRL007"
    name = "churn-event-streams-take-seed"
    rationale = (
        "membership event streams must take an explicit seed, or churn "
        "traces stop being reproducible."
    )
    scope_fragments = ("repro/churn",)

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _is_event_stream_name(node.name):
                continue
            if _has_seed_parameter(node):
                continue
            yield self._finding(
                node,
                path,
                f"event-stream callable '{node.name}' takes no explicit "
                "'seed' parameter; membership traces must be a pure "
                "function of (inputs, seed) to stay bit-identical",
            )

    def _finding(self, node: ast.AST, path: str, message: str) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )
