"""RPRL009 — property tests stay on the deterministic hypothesis profile.

``tests/conftest.py`` loads a derandomized profile with no example
database, so every ``@given`` test draws the same examples on every run
and the suite passes or fails reproducibly; ``HYPOTHESIS_PROFILE=explore``
is the one explicit opt-in to random generation.  A test escapes that
profile with:

- ``settings(derandomize=...)`` set to anything but the literal ``True``;
- ``settings(database=...)`` set to anything but ``None`` — a stored
  example database replays whatever earlier runs failed on;
- ``settings.load_profile`` / ``settings.register_profile`` anywhere but
  ``tests/conftest.py``, which switch the profile of the whole session
  depending on import order.

Scope is test code (path fragment ``tests/``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding
from ..registry import Rule, normalize_path, register_rule
from ._imports import ImportMap

__all__ = ["HypothesisStaysDeterministic"]

_SETTINGS = "hypothesis.settings"
_PROFILE_CALLS = (f"{_SETTINGS}.load_profile", f"{_SETTINGS}.register_profile")
_CONFTEST = "tests/conftest.py"


def _is_constant(node: ast.expr, value: object) -> bool:
    return isinstance(node, ast.Constant) and node.value is value


@register_rule
class HypothesisStaysDeterministic(Rule):
    rule_id = "RPRL009"
    name = "hypothesis-stays-deterministic"
    rationale = (
        "Property tests must run under the derandomized, database-free "
        "profile tests/conftest.py loads, or the suite stops being "
        "reproducible from run to run."
    )
    scope_fragments = ("tests/",)

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        imports = ImportMap.from_tree(tree)
        in_conftest = normalize_path(path).endswith(_CONFTEST)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = imports.resolve(node.func)
            if target == _SETTINGS:
                for keyword in node.keywords:
                    if keyword.arg == "derandomize" and not _is_constant(
                        keyword.value, True
                    ):
                        yield self._finding(
                            path,
                            keyword.value,
                            "settings(derandomize=...) other than True draws "
                            "random examples; keep the conftest profile",
                        )
                    elif keyword.arg == "database" and not _is_constant(
                        keyword.value, None
                    ):
                        yield self._finding(
                            path,
                            keyword.value,
                            "settings(database=...) other than None replays "
                            "examples stored by earlier runs; keep database=None",
                        )
            elif target in _PROFILE_CALLS and not in_conftest:
                yield self._finding(
                    path,
                    node,
                    f"{target.rsplit('.', 1)[-1]}() outside {_CONFTEST} "
                    "switches the hypothesis profile of the whole session",
                )

    def _finding(self, path: str, node: ast.expr, message: str) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=path,
            line=node.lineno,
            col=node.col_offset,
            message=message,
        )
