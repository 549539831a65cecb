"""Project-rule base class, registry, and the shared contract config.

A :class:`ProjectRule` sees the whole program — the symbol table and
call graph — rather than one AST, so it gets its own small registry
parallel to the per-file one in :mod:`reprolint.registry`.  Rule ids
live in the ``RPRL1xx`` block to keep the two families visually
distinct in reports and suppressions (inline ``# reprolint:
disable=RPRL101`` comments work identically).

:class:`ProjectContracts` is the declarative configuration the three
rule families share: which qualified names count as nondeterminism
sinks, which modules form the columnar boundary, which calls dispatch
pickled task payloads.  Defaults describe the ``repro`` package;
fixtures and tests construct their own.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import TYPE_CHECKING, Iterable, Iterator, Type

if TYPE_CHECKING:
    from ..engine import Finding
    from .analyzer import ProjectContext

__all__ = [
    "ProjectContracts",
    "ProjectRule",
    "register_project_rule",
    "all_project_rules",
    "project_rule_ids",
]


def _match_any(qualname: str, patterns: Iterable[str]) -> bool:
    return any(fnmatchcase(qualname, pattern) for pattern in patterns)


@dataclass(frozen=True)
class ProjectContracts:
    """Declarative surface definitions the project rules check against."""

    #: Functions whose *return value* is a reproducibility surface:
    #: experiment results, anything compared across serial/pooled runs.
    result_sinks: tuple[str, ...] = (
        "repro.experiments.*",
        "repro.serving.*",
        "repro.topology.*",
    )
    #: Callables whose *arguments* become fingerprints or cached setup
    #: artifacts; a tainted argument here corrupts a content-addressed
    #: cache key.
    ingest_sinks: tuple[str, ...] = (
        "repro.parallel.cache.fingerprint_parts",
        "repro.parallel.cache.SetupCache.get_or_build",
        "repro.parallel.cache.SetupCache.spill",
        "repro.parallel.runner.ExperimentRunner.setup",
    )
    #: Modules forming the packed-array boundary; arrays crossing
    #: between any two of them must carry declared dtypes.
    columnar_modules: tuple[str, ...] = (
        "repro.synopses.columnstore",
        "repro.routing.columns",
        "repro.core.fastpath",
    )
    #: Methods that pickle their payload into worker processes.
    dispatch_methods: tuple[str, ...] = (
        "*.TaskPool.map",
        "*.ExperimentRunner.map",
    )
    #: Classes that must never ride inside a task payload (unpicklable
    #: or meaningless across a process boundary).
    unpicklable_classes: tuple[str, ...] = (
        "*.simnet.clock.SimClock",
        "*.simnet.transport.Transport",
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Event",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
    )

    def is_result_sink(self, qualname: str) -> bool:
        return _match_any(qualname, self.result_sinks)

    def is_ingest_sink(self, qualname: str) -> bool:
        return _match_any(qualname, self.ingest_sinks)

    def is_columnar_module(self, module: str) -> bool:
        return _match_any(module, self.columnar_modules)

    def is_dispatch(self, qualname: str) -> bool:
        return _match_any(qualname, self.dispatch_methods)

    def is_unpicklable_class(self, qualname: str) -> bool:
        return _match_any(qualname, self.unpicklable_classes)


class ProjectRule(abc.ABC):
    """One whole-program invariant over an analyzed project."""

    rule_id: str = ""
    name: str = ""
    rationale: str = ""

    @abc.abstractmethod
    def check(self, project: "ProjectContext") -> Iterator["Finding"]:
        """Yield findings over the resolved project."""


_PROJECT_REGISTRY: dict[str, Type[ProjectRule]] = {}


def register_project_rule(cls: Type[ProjectRule]) -> Type[ProjectRule]:
    if not cls.rule_id:
        raise ValueError(f"project rule {cls.__name__} has no rule_id")
    existing = _PROJECT_REGISTRY.get(cls.rule_id)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"duplicate project rule id {cls.rule_id}: "
            f"{existing.__name__} vs {cls.__name__}"
        )
    _PROJECT_REGISTRY[cls.rule_id] = cls
    return cls


def all_project_rules(select: Iterable[str] | None = None) -> list[ProjectRule]:
    if select is None:
        ids = sorted(_PROJECT_REGISTRY)
    else:
        ids = sorted(set(select))
        unknown = [i for i in ids if i not in _PROJECT_REGISTRY]
        if unknown:
            raise KeyError(f"unknown project rule id(s): {', '.join(unknown)}")
    return [_PROJECT_REGISTRY[i]() for i in ids]


def project_rule_ids() -> list[str]:
    return sorted(_PROJECT_REGISTRY)
