"""RPRL008 — columnar hot paths stay packed and vectorized.

The column store (:mod:`repro.synopses.columnstore`), the routing
kernels that attach to it (:mod:`repro.core.fastpath`) and the
super-peer tier's cluster fold (:mod:`repro.topology.superpeer`) exist
to remove per-peer Python work from the query and maintenance paths.
Two regressions quietly destroy that guarantee while keeping every test
green:

- **object-dtype arrays** — ``np.empty(n, dtype=object)`` stores boxed
  Python objects behind a numpy facade; every access re-enters the
  interpreter and the "packed" matrix is packed in name only;
- **per-element loops over peer axes** — a ``for`` loop iterating a
  packed column attribute (``self._rows``, ``self._cards``, ...)
  reintroduces an O(peers) interpreter loop exactly where the columnar
  design promises array ops.

Loops over per-peer *objects* at ingest time (packing) are fine — the
whole point is to pay that cost once — so the rule bans only iteration
over the packed column attributes themselves.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding
from ..registry import Rule, register_rule

__all__ = ["ColumnarStaysPacked"]

#: Attribute names holding packed per-peer arrays; iterating one of
#: these element-by-element is an O(peers) interpreter loop on the hot
#: path.
_COLUMN_ATTRS = frozenset(
    {
        "_rows",
        "_matrix",
        "_merged",
        "_bits",
        "_cards",
        "_matches",
        "_first_zero",
        "_rho_sums",
        "_zero_counts",
        "_register_sums",
        "_peer_ids",
        "_cdf",
        "_max_score",
        "_avg_score",
        "_term_space",
        "_has_synopsis",
    }
)


def _is_object_dtype(value: ast.expr) -> bool:
    """``dtype=object`` / ``dtype=np.object_`` / ``dtype="object"``."""
    if isinstance(value, ast.Name) and value.id == "object":
        return True
    if isinstance(value, ast.Attribute) and value.attr in ("object_", "object"):
        return True
    if isinstance(value, ast.Constant) and value.value in ("object", "O"):
        return True
    return False


def _column_attr_in(node: ast.expr) -> str | None:
    """The first packed-column attribute referenced inside ``node``."""
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and child.attr in _COLUMN_ATTRS:
            return child.attr
    return None


@register_rule
class ColumnarStaysPacked(Rule):
    rule_id = "RPRL008"
    name = "columnar-stays-packed"
    rationale = (
        "column-store matrices must hold unboxed numeric dtypes and be "
        "consumed by array ops; dtype=object arrays and per-element Python "
        "loops over peer axes silently reintroduce the O(peers) interpreter "
        "cost the columnar design removes."
    )
    scope_fragments = (
        "repro/synopses/columnstore",
        "repro/core/fastpath",
        "repro/topology/superpeer",
    )

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if keyword.arg == "dtype" and _is_object_dtype(
                        keyword.value
                    ):
                        yield self._finding(
                            keyword.value,
                            path,
                            "dtype=object array in columnar code; packed "
                            "columns must use unboxed numeric dtypes",
                        )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                attr = _column_attr_in(node.iter)
                if attr is not None:
                    yield self._finding(
                        node,
                        path,
                        f"for loop iterates packed column '{attr}' "
                        "element-by-element; peer-axis work must be a "
                        "vectorized array op",
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    attr = _column_attr_in(generator.iter)
                    if attr is not None:
                        yield self._finding(
                            node,
                            path,
                            f"comprehension iterates packed column '{attr}' "
                            "element-by-element; peer-axis work must be a "
                            "vectorized array op",
                        )

    def _finding(self, node: ast.AST, path: str, message: str) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )
