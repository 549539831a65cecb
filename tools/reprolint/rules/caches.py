"""RPRL001 — mutating methods must invalidate memo caches.

The synopsis classes memoize derived quantities (``_cardinality``,
``_bit_count``) in dedicated slots, populated lazily by
``estimate_cardinality`` / ``bit_count``; the peer-id table memoizes its
name ranks (``_rank_memo``), which the routing view sorts candidates by.  The fast-path/naive plan
equivalence that PR 2 established holds only while those memos can
never go stale: any method that assigns to *other* instance state after
construction must reset every memo slot to ``None`` in the same method.

The rule triggers on any class that carries a recognized memo slot —
declared either in ``__slots__`` or by assignment in ``__init__`` — so
future synopsis families inherit the contract automatically.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from ..engine import Finding
from ..registry import Rule, register_rule

__all__ = ["MutatingMethodMustInvalidateCache", "MEMO_SLOT_NAMES"]

#: Instance attributes treated as memo caches of derived state.
MEMO_SLOT_NAMES = frozenset(
    {"_cardinality", "_bit_count", "_stats_memo", "_rank_memo"}
)

#: Methods allowed to assign state without invalidation: constructors
#: and copy/pickle plumbing that rebuilds instances from scratch.
_CONSTRUCTION_METHODS = frozenset(
    {"__init__", "__new__", "__setstate__", "__init_subclass__"}
)


def _literal_strings(node: ast.expr) -> list[str]:
    """Best-effort extraction of string literals from a ``__slots__`` value."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        out: list[str] = []
        for element in node.elts:
            out.extend(_literal_strings(element))
        return out
    return []


def _self_name(func: ast.FunctionDef | ast.AsyncFunctionDef) -> str | None:
    """Name of the instance parameter, or None for static/class methods."""
    for decorator in func.decorator_list:
        if isinstance(decorator, ast.Name) and decorator.id in (
            "staticmethod",
            "classmethod",
        ):
            return None
    args = func.args.posonlyargs + func.args.args
    if not args:
        return None
    return args[0].arg


def _stored_attrs(func: ast.FunctionDef | ast.AsyncFunctionDef, self_name: str) -> set[str]:
    """Instance attributes written by ``func`` (``self.x = ...`` and friends)."""
    stored: set[str] = set()
    for node in ast.walk(func):
        targets: Sequence[ast.expr] = ()
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = (node.target,)
        elif isinstance(node, ast.Delete):
            targets = node.targets
        for target in targets:
            # self.attr = ... / del self.attr
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == self_name
            ):
                stored.add(target.attr)
            # self.attr[i] = ... mutates the object held in the slot
            elif (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Attribute)
                and isinstance(target.value.value, ast.Name)
                and target.value.value.id == self_name
            ):
                stored.add(target.value.attr)
    return stored


def _memo_resets(func: ast.FunctionDef | ast.AsyncFunctionDef, self_name: str) -> set[str]:
    """Memo slots explicitly reset to ``None`` inside ``func``."""
    resets: set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        if not (isinstance(node.value, ast.Constant) and node.value.value is None):
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == self_name
            ):
                resets.add(target.attr)
    return resets


def _memo_slots_of_class(cls: ast.ClassDef) -> set[str]:
    """Memo slot names the class carries (``__slots__`` or ``__init__``)."""
    memo: set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    memo.update(
                        name
                        for name in _literal_strings(stmt.value)
                        if name in MEMO_SLOT_NAMES
                    )
        elif isinstance(stmt, ast.AnnAssign):
            if (
                isinstance(stmt.target, ast.Name)
                and stmt.target.id == "__slots__"
                and stmt.value is not None
            ):
                memo.update(
                    name
                    for name in _literal_strings(stmt.value)
                    if name in MEMO_SLOT_NAMES
                )
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if stmt.name != "__init__":
                continue
            self_name = _self_name(stmt)
            if self_name is None:
                continue
            memo.update(_stored_attrs(stmt, self_name) & MEMO_SLOT_NAMES)
    return memo


@register_rule
class MutatingMethodMustInvalidateCache(Rule):
    rule_id = "RPRL001"
    name = "mutating-method-must-invalidate-cache"
    rationale = (
        "A method that mutates synopsis state on a memo-carrying class must "
        "reset the memo slot(s) to None, or cached cardinalities go stale and "
        "fast-path/naive plan equivalence silently breaks."
    )
    scope_fragments = ()  # the memo-slot convention is repo-wide

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            memo_slots = _memo_slots_of_class(cls)
            if not memo_slots:
                continue
            for stmt in cls.body:
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if stmt.name in _CONSTRUCTION_METHODS:
                    continue
                self_name = _self_name(stmt)
                if self_name is None:
                    continue
                mutated = _stored_attrs(stmt, self_name) - memo_slots
                if not mutated:
                    continue
                missing = memo_slots - _memo_resets(stmt, self_name)
                if missing:
                    yield Finding(
                        rule_id=self.rule_id,
                        path=path,
                        line=stmt.lineno,
                        col=stmt.col_offset,
                        message=(
                            f"method '{cls.name}.{stmt.name}' mutates state "
                            f"({', '.join(sorted(mutated))}) without resetting "
                            f"memo slot(s) {', '.join(sorted(missing))} to None"
                        ),
                    )
