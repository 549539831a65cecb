"""RPRL101 — whole-program determinism taint.

Every guarantee the reproduction makes (bit-identical plans across the
columnar/fastpath/naive tiers, serial-vs-pooled equality, seed-stable
churn traces) assumes no nondeterminism reaches a result, fingerprint,
or wire surface.  The per-file rules catch a ``time.time()`` *in situ*;
this rule follows the value across module boundaries.

**Sources** (detected per function, import-alias aware):

- wall clock: ``time.time/.time_ns/.monotonic/.perf_counter``,
  ``datetime.datetime.now/utcnow``, ``datetime.date.today``
- process entropy: global-RNG calls (``random.random``,
  ``numpy.random.rand``), unseeded seedable constructors
  (``random.Random()``, ``numpy.random.default_rng()``),
  ``os.urandom``, ``uuid.uuid1/uuid4``, ``secrets.*``
- salted hashing: builtin ``hash()`` applied to str/bytes (per-process
  ``PYTHONHASHSEED`` salt)
- unordered iteration: consuming the iteration order of a ``set`` /
  ``frozenset`` value, or an unsorted ``os.listdir`` / ``glob.glob`` /
  ``Path.iterdir/rglob`` listing

**Propagation**: a tainted expression taints the names it is assigned
to; a function whose ``return``/``yield`` carries taint becomes a
*tainted producer*, and calls to it are tainted at every call site —
iterated to a fixed point over the call graph.  ``sorted(...)`` is the
sanitizer for ordering taint (and, deliberately coarsely, for the
rest: a sorted value has a deterministic order even if its elements
were hash-salted — elements themselves remain the caller's problem).

**Findings**:

- a *result sink* (``repro.experiments.*``) whose return value is
  tainted, anchored at the tainted return;
- an *ingest sink* (``fingerprint_parts``, ``SetupCache.get_or_build``,
  ``SetupCache.spill``) receiving a tainted argument, anchored at the call.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from ..engine import Finding
from ..rules.randomness import _SEEDABLE, _is_seeded_call
from .base import ProjectRule, register_project_rule
from .callgraph import walk_pruned
from .resolver import FunctionInfo

if TYPE_CHECKING:
    from .analyzer import ProjectContext

__all__ = ["DeterminismTaint", "TaintWitness"]

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_ENTROPY = frozenset(
    {
        "os.urandom",
        "os.getpid",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbits",
        "secrets.randbelow",
    }
)

_FS_LISTING = frozenset({"os.listdir", "os.scandir", "glob.glob", "glob.iglob"})

#: Receiver-attribute heuristics for pathlib listings (``p.iterdir()``).
_FS_LISTING_ATTRS = frozenset({"iterdir", "rglob"})

#: Calls whose result is deterministic regardless of argument taint.
_SANITIZERS = frozenset({"sorted", "len", "bool", "isinstance"})


@dataclass(frozen=True)
class TaintWitness:
    """Where taint entered, and the call chain it travelled."""

    reason: str
    path: str
    line: int
    col: int
    via: tuple[str, ...] = ()

    def describe(self) -> str:
        origin = f"{self.reason} at {self.path}:{self.line}"
        if self.via:
            return f"{origin} (via {' -> '.join(self.via)})"
        return origin


@dataclass
class _LocalResult:
    returns_witness: TaintWitness | None = None
    returns_line: int | None = None
    sink_calls: list[tuple[ast.Call, str, TaintWitness]] = field(
        default_factory=list
    )


class _FunctionAnalysis:
    """One pass of intra-procedural taint over a function body."""

    def __init__(
        self,
        rule: "DeterminismTaint",
        project: "ProjectContext",
        info: FunctionInfo,
        producers: dict[str, TaintWitness],
    ) -> None:
        self.rule = rule
        self.project = project
        self.info = info
        self.producers = producers
        self.tainted: dict[str, TaintWitness] = {}
        self.unordered: set[str] = set()
        self.result = _LocalResult()
        self._str_params = _str_typed_params(info)

    def run(self) -> _LocalResult:
        self._visit_body(self.info.node.body)
        self._check_sink_calls()
        return self.result

    # -- statement walk ----------------------------------------------------

    def _visit_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._visit_stmt(stmt)

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(stmt, ast.Assign):
            self._handle_assign(stmt.targets, stmt.value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._handle_assign([stmt.target], stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            witness = self._expr_taint(stmt.value)
            if witness is not None and isinstance(stmt.target, ast.Name):
                self.tainted[stmt.target.id] = witness
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            witness = self._expr_taint(stmt.value)
            if witness is not None and self.result.returns_witness is None:
                self.result.returns_witness = witness
                self.result.returns_line = stmt.lineno
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Yield):
            inner = stmt.value.value
            witness = None if inner is None else self._expr_taint(inner)
            if witness is not None and self.result.returns_witness is None:
                self.result.returns_witness = witness
                self.result.returns_line = stmt.lineno
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._handle_for(stmt)
        # Recurse into compound-statement bodies.
        for attr in ("body", "orelse", "finalbody"):
            children = getattr(stmt, attr, None)
            if isinstance(children, list) and not isinstance(
                stmt, (ast.For, ast.AsyncFor)
            ):
                self._visit_body(
                    [c for c in children if isinstance(c, ast.stmt)]
                )
        for handler in getattr(stmt, "handlers", []):
            self._visit_body(handler.body)

    def _handle_assign(self, targets: list[ast.expr], value: ast.expr) -> None:
        witness = self._expr_taint(value)
        names = _target_names(targets)
        if witness is not None:
            for name in names:
                self.tainted[name] = witness
        if self._is_unordered(value):
            self.unordered.update(names)

    def _handle_for(self, stmt: ast.For | ast.AsyncFor) -> None:
        iter_witness = self._expr_taint(stmt.iter)
        target_names = _target_names([stmt.target])
        if iter_witness is not None:
            for name in target_names:
                self.tainted[name] = iter_witness
        if self._is_unordered(stmt.iter):
            witness = TaintWitness(
                reason="iteration order of an unordered set",
                path=self.info.path,
                line=stmt.iter.lineno,
                col=stmt.iter.col_offset,
            )
            # The loop's visit order is nondeterministic, so anything
            # accumulated inside the body inherits ordering taint.
            for name in _names_written_in(stmt.body):
                self.tainted[name] = witness
        self._visit_body(stmt.body)
        self._visit_body(stmt.orelse)

    # -- expression taint --------------------------------------------------

    def _expr_taint(self, expr: ast.expr) -> TaintWitness | None:
        if isinstance(expr, ast.Call):
            callee_name = _plain_name(expr.func)
            if callee_name in _SANITIZERS:
                return None
            source = self._source_witness(expr)
            if source is not None:
                return source
            resolved = self.project.index.resolve_expr(
                self.info.module, expr.func
            ) or self.project.graph.resolve_callee(self.info, expr)
            if resolved is not None and resolved in self.producers:
                inner = self.producers[resolved]
                return TaintWitness(
                    reason=inner.reason,
                    path=inner.path,
                    line=inner.line,
                    col=inner.col,
                    via=(resolved,) + inner.via,
                )
            if callee_name in ("list", "tuple", "iter") and expr.args:
                if self._is_unordered(expr.args[0]):
                    return TaintWitness(
                        reason="iteration order of an unordered set",
                        path=self.info.path,
                        line=expr.lineno,
                        col=expr.col_offset,
                    )
        if isinstance(expr, ast.Name):
            return self.tainted.get(expr.id)
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp, ast.SetComp, ast.DictComp)):
            for generator in expr.generators:
                if self._is_unordered(generator.iter) and not isinstance(
                    expr, (ast.SetComp,)
                ):
                    return TaintWitness(
                        reason="iteration order of an unordered set",
                        path=self.info.path,
                        line=generator.iter.lineno,
                        col=generator.iter.col_offset,
                    )
                witness = self._expr_taint(generator.iter)
                if witness is not None:
                    return witness
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, (ast.expr, ast.keyword)):
                inner = (
                    child.value if isinstance(child, ast.keyword) else child
                )
                witness = self._expr_taint(inner)
                if witness is not None:
                    return witness
        return None

    def _source_witness(self, call: ast.Call) -> TaintWitness | None:
        reason = self._source_reason(call)
        if reason is None:
            return None
        return TaintWitness(
            reason=reason,
            path=self.info.path,
            line=call.lineno,
            col=call.col_offset,
        )

    def _source_reason(self, call: ast.Call) -> str | None:
        canonical = self.project.index.resolve_expr(
            self.info.module, call.func
        )
        if canonical is not None:
            if canonical in _WALL_CLOCK:
                return f"wall-clock '{canonical}()'"
            if canonical in _ENTROPY:
                return f"process entropy '{canonical}()'"
            if canonical in _FS_LISTING:
                return f"unsorted filesystem listing '{canonical}()'"
            if canonical in _SEEDABLE:
                if not _is_seeded_call(call):
                    return f"unseeded '{canonical}()'"
                return None
            if canonical.startswith("random.") or canonical.startswith(
                "numpy.random."
            ):
                return f"global-RNG call '{canonical}()'"
        if (
            isinstance(call.func, ast.Name)
            and call.func.id == "hash"
            and call.args
            and self._is_str_like(call.args[0])
        ):
            return "salted builtin 'hash()' of str/bytes"
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _FS_LISTING_ATTRS
        ):
            return f"unsorted filesystem listing '.{call.func.attr}()'"
        return None

    def _is_str_like(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Constant):
            return isinstance(expr.value, (str, bytes))
        if isinstance(expr, ast.JoinedStr):
            return True
        if isinstance(expr, ast.Call):
            name = _plain_name(expr.func)
            return name in ("str", "repr", "format")
        if isinstance(expr, ast.Name):
            return self._str_params.get(expr.id, False)
        return False

    def _is_unordered(self, expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in self.unordered
        if isinstance(expr, ast.Call):
            name = _plain_name(expr.func)
            if name in ("set", "frozenset"):
                return True
            if isinstance(expr.func, ast.Attribute) and expr.func.attr in (
                "union",
                "intersection",
                "difference",
                "symmetric_difference",
            ):
                return self._is_unordered(expr.func.value)
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
            return self._is_unordered(expr.left) or self._is_unordered(expr.right)
        return False

    # -- ingest sinks ------------------------------------------------------

    def _check_sink_calls(self) -> None:
        for stmt in self.info.node.body:
            for node in walk_pruned(stmt):
                if not isinstance(node, ast.Call):
                    continue
                resolved = self.project.index.resolve_expr(
                    self.info.module, node.func
                ) or self.project.graph.resolve_callee(self.info, node)
                if resolved is None or not self.project.contracts.is_ingest_sink(
                    resolved
                ):
                    continue
                for arg in list(node.args) + [k.value for k in node.keywords]:
                    witness = self._expr_taint(arg)
                    if witness is not None:
                        self.result.sink_calls.append((node, resolved, witness))
                        break


def _plain_name(expr: ast.expr) -> str | None:
    return expr.id if isinstance(expr, ast.Name) else None


def _target_names(targets: list[ast.expr]) -> list[str]:
    names: list[str] = []
    for target in targets:
        if isinstance(target, ast.Name):
            names.append(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            names.extend(_target_names(list(target.elts)))
        elif isinstance(target, ast.Starred):
            names.extend(_target_names([target.value]))
    return names


def _names_written_in(body: list[ast.stmt]) -> set[str]:
    """Names whose value becomes *order-dependent* inside a loop body.

    Sequence-forming accumulation (``append``/``extend``/``insert``,
    ``+=``, plain reassignment) inherits the loop's visit order.
    Commutative lattice operations do not — ``|=``/``&=``/``^=`` and
    ``set.add`` produce the same value whatever the order — so a Bloom
    bit-OR fold over a set stays clean.
    """
    written: set[str] = set()
    for stmt in body:
        for node in walk_pruned(stmt):
            if isinstance(node, ast.Assign):
                written.update(_target_names(node.targets))
            elif isinstance(node, ast.AnnAssign):
                written.update(_target_names([node.target]))
            elif isinstance(node, ast.AugAssign) and not isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.BitXor)
            ):
                written.update(_target_names([node.target]))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("append", "extend", "insert", "update")
                and isinstance(node.func.value, ast.Name)
            ):
                written.add(node.func.value.id)
    return written


def _str_typed_params(info: FunctionInfo) -> dict[str, bool]:
    typed: dict[str, bool] = {}
    args = info.node.args
    for param in args.posonlyargs + args.args + args.kwonlyargs:
        annotation = param.annotation
        typed[param.arg] = (
            isinstance(annotation, ast.Name) and annotation.id in ("str", "bytes")
        )
    return typed


@register_project_rule
class DeterminismTaint(ProjectRule):
    rule_id = "RPRL101"
    name = "determinism-taint"
    rationale = (
        "Nondeterminism sources (wall clock, unseeded RNG, salted hash(), "
        "set iteration order) must not flow through returns and call edges "
        "into experiment results, cache fingerprints, or wire encodings."
    )

    def check(self, project: "ProjectContext") -> Iterator[Finding]:
        producers = self._fixed_point(project)
        seen: set[tuple[str, int, str]] = set()
        for info in sorted(
            project.index.functions.values(), key=lambda f: (f.path, f.line)
        ):
            analysis = _FunctionAnalysis(self, project, info, producers).run()
            if (
                project.contracts.is_result_sink(info.qualname)
                and analysis.returns_witness is not None
            ):
                witness = analysis.returns_witness
                message = (
                    f"experiment-result function '{info.qualname}' returns a "
                    f"value derived from {witness.describe()}; thread a "
                    "seeded/deterministic value instead"
                )
                key = (info.path, analysis.returns_line or info.line, message)
                if key not in seen:
                    seen.add(key)
                    yield Finding(
                        rule_id=self.rule_id,
                        path=info.path,
                        line=analysis.returns_line or info.line,
                        col=0,
                        message=message,
                    )
            for call, sink, witness in analysis.sink_calls:
                message = (
                    f"'{sink}' receives an argument derived from "
                    f"{witness.describe()}; fingerprints and wire bytes must "
                    "be deterministic"
                )
                key = (info.path, call.lineno, message)
                if key not in seen:
                    seen.add(key)
                    yield Finding(
                        rule_id=self.rule_id,
                        path=info.path,
                        line=call.lineno,
                        col=call.col_offset,
                        message=message,
                    )

    def _fixed_point(
        self, project: "ProjectContext"
    ) -> dict[str, TaintWitness]:
        producers: dict[str, TaintWitness] = {}
        changed = True
        while changed:
            changed = False
            for info in project.index.functions.values():
                if info.qualname in producers:
                    continue
                analysis = _FunctionAnalysis(
                    self, project, info, producers
                ).run()
                if analysis.returns_witness is not None:
                    producers[info.qualname] = analysis.returns_witness
                    changed = True
        return producers
