"""In-memory spans around calls into the program's public functions.

The benchmark never edits the program to trace it: a traced run wraps
the public methods it names (on a class, or on one object) with a
function that records a span — name, CPU start and end, parent span,
the run phase and, where the benchmark knows it, the query id — and
calls through.  Spans nest because
the program is single-threaded; a span's *self* time is its duration
minus the time its child spans cover.

Calls that happen tens of thousands of times per set-up (one synopsis
build per post) are wrapped with ``keep=False``: they are timed and
counted, and their time is subtracted from their parent's self time,
but no span is stored for them.

Spans are kept in memory and written out as JSON lines when the run
ends (:meth:`Tracer.write`).
"""

from __future__ import annotations

import functools
import json
import pathlib
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from host import cpu_ns

# Span record layout: [name, start_ns, end_ns, parent, qid, phase, child_ns]
_NAME, _START, _END, _PARENT, _QID, _PHASE, _CHILD = range(7)


class Tracer:
    """Records spans while :attr:`enabled`; a pass-through otherwise."""

    def __init__(self) -> None:
        self.enabled = False
        self.phase = "setup"
        self.spans: list[list[Any]] = []
        #: (phase, name) -> [calls, total_ns] for ``keep=False`` wrappers.
        self.unkept: dict[tuple[str, str], list[int]] = {}
        self._stack: list[list[Any]] = []
        self._patched: list[tuple[object, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, qid: Any) -> list[Any]:
        parent = self._stack[-1] if self._stack else None
        record = [name, cpu_ns(), 0, parent, qid, self.phase, 0]
        self._stack.append(record)
        return record

    def _close(self, record: list[Any], keep: bool) -> None:
        record[_END] = cpu_ns()
        self._stack.pop()
        duration = record[_END] - record[_START]
        parent = record[_PARENT]
        if parent is not None:
            parent[_CHILD] += duration
        if keep:
            self.spans.append(record)
        else:
            entry = self.unkept.setdefault((record[_PHASE], record[_NAME]), [0, 0])
            entry[0] += 1
            entry[1] += duration

    @contextmanager
    def span(self, name: str, qid: Any = None) -> Iterator[None]:
        """A span around a block of benchmark code (no-op when disabled)."""
        if not self.enabled:
            yield
            return
        record = self._open(name, qid)
        try:
            yield
        finally:
            self._close(record, keep=True)

    def wrap(self, fn: Callable[..., Any], name: str, *, keep: bool = True) -> Callable[..., Any]:
        """``fn`` with a span around every call made while enabled."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            record = self._open(name, None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record, keep)

        return traced

    def patch(self, owner: object, attribute: str, name: str, *, keep: bool = True) -> None:
        """Replace ``owner.attribute`` by its traced wrapper until
        :meth:`unpatch_all`.  ``owner`` is a class (every instance) or
        one object."""
        current = getattr(owner, attribute)
        self.substitute(owner, attribute, self.wrap(current, name, keep=keep))

    def substitute(self, owner: object, attribute: str, replacement: Any) -> None:
        """Set ``owner.attribute`` to ``replacement`` until :meth:`unpatch_all`."""
        original = owner.__dict__.get(attribute) if isinstance(owner, type) else None
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def unpatch_all(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            if original is not None:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._patched.clear()

    # -- reading -----------------------------------------------------------

    def totals(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name in ``phase``: calls, total and self CPU seconds."""
        out: dict[str, dict[str, float]] = {}
        for record in self.spans:
            if record[_PHASE] != phase:
                continue
            entry = out.setdefault(
                record[_NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            duration = record[_END] - record[_START]
            entry["calls"] += 1
            entry["total_s"] += duration / 1e9
            entry["self_s"] += (duration - record[_CHILD]) / 1e9
        for (span_phase, name), (calls, total_ns) in self.unkept.items():
            if span_phase != phase:
                continue
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += calls
            entry["total_s"] += total_ns / 1e9
            entry["self_s"] += total_ns / 1e9
        return out

    def write(self, path: pathlib.Path) -> None:
        """All stored spans as JSON lines: one object per span."""
        index = {id(record): position for position, record in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for position, record in enumerate(self.spans):
                parent = record[_PARENT]
                handle.write(
                    json.dumps(
                        {
                            "id": position,
                            "name": record[_NAME],
                            "start_ns": record[_START],
                            "end_ns": record[_END],
                            "self_ns": record[_END] - record[_START] - record[_CHILD],
                            "parent": None if parent is None else index.get(id(parent)),
                            "qid": record[_QID],
                            "phase": record[_PHASE],
                        }
                    )
                    + "\n"
                )


class TimedSelector:
    """A peer selector that times every ``rank`` call into the one it wraps.

    Each call's CPU nanoseconds and routing statistics are kept in call
    order (the order is deterministic, so passes line up call by call);
    while the tracer is enabled the call is also a ``core.rank`` span
    tagged with the query id.  Everything else is delegated, so the plan
    cache keys on the wrapped selector's signature.
    """

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.times_ns: list[int] = []
        self.stats: list[Any] = []

    def rank(self, context: Any, max_peers: int) -> list[str]:
        tracer = self.tracer
        record = tracer._open("core.rank", context.query.query_id) if tracer.enabled else None
        start = cpu_ns()
        try:
            ranked = self.inner.rank(context, max_peers)
        finally:
            elapsed = cpu_ns() - start
            if record is not None:
                tracer._close(record, keep=True)
        self.times_ns.append(elapsed)
        self.stats.append(self.inner.last_stats)
        return ranked

    @property
    def last_stats(self) -> Any:
        return self.inner.last_stats

    @property
    def name(self) -> str:
        return self.inner.name

    def cache_signature(self) -> str:
        return self.inner.cache_signature()

    def reset(self) -> None:
        self.times_ns.clear()
        self.stats.clear()
