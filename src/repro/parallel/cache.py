"""Content-addressed persistence for expensive experiment setups.

Grid experiments rebuild the identical corpus, per-peer indexes,
synopses, and directory Posts for every cell — by far the dominant cost
once query execution itself is pooled.  ``SetupCache`` makes each
distinct setup a build-once artifact:

- the **key** is a SHA-256 fingerprint of the setup's declared
  ingredients (corpus config, scorer, synopsis family/size, seed, any
  builder parameters), canonicalized so dataclasses, tuples, sets, and
  nested mappings fingerprint identically across processes and runs;
- the **value** is the built object pickled to
  ``<cache_dir>/<kind>-<digest>.pkl`` with an atomic rename, so a
  crashed build never leaves a half-written artifact behind;
- **invalidation** is purely key-driven: any ingredient change produces
  a new digest, and builder-code changes are covered by bumping
  :data:`SETUP_SCHEMA_VERSION` (mixed into every fingerprint).  Nothing
  is mutated in place, so stale entries are merely unreferenced files.

Without a cache directory ``get_or_build`` pickles nothing: setups are
memoized in process only and carry no artifact path.  A pooled map
hands such a setup to its workers through ``spill``, which writes into
an ephemeral temp directory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

__all__ = ["CacheStats", "SetupCache", "fingerprint_parts"]

#: Bump when a builder's output format changes without any ingredient
#: changing — every fingerprint mixes this in, invalidating en masse.
SETUP_SCHEMA_VERSION = 1


def _canonicalize(value: Any) -> Any:
    """Reduce a setup ingredient to a JSON-stable structure."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            field.name: _canonicalize(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
        return {"__dataclass__": type(value).__qualname__, **fields}
    if isinstance(value, Mapping):
        return {str(key): _canonicalize(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonicalize(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_canonicalize(item) for item in value)
    if isinstance(value, float):
        # repr round-trips exactly; JSON's float formatting may not.
        return {"__float__": repr(value)}
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, type):
        return f"{value.__module__}.{value.__qualname__}"
    raise TypeError(
        f"cannot fingerprint a {type(value).__name__!r} ingredient; "
        "pass dataclasses, primitives, or containers of them"
    )


def fingerprint_parts(parts: Mapping[str, Any]) -> str:
    """A stable hex digest of a setup's declared ingredients."""
    canonical = json.dumps(
        {"__schema__": SETUP_SCHEMA_VERSION, **_canonicalize(dict(parts))},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class CacheStats:
    """Hit/miss counters, exposed for benchmarks and tests."""

    hits: int = 0
    misses: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}


class SetupCache:
    """Build-once storage for pickled setups, addressed by fingerprint."""

    #: Setups memoized in process (a grid's cells share one testbed;
    #: only the first cell should pay the unpickle).
    MEMO_SIZE = 4

    def __init__(self, cache_dir: str | Path | None = None):
        #: Where ``get_or_build`` persists setups; ``None`` persists none.
        self.persist_dir = None if cache_dir is None else Path(cache_dir)
        self._temp_dir: tempfile.TemporaryDirectory[str] | None = None
        self.stats = CacheStats()
        self._memo: OrderedDict[str, Any] = OrderedDict()

    @property
    def cache_dir(self) -> Path:
        """The artifact directory (an ephemeral temp dir if none given)."""
        if self.persist_dir is not None:
            self.persist_dir.mkdir(parents=True, exist_ok=True)
            return self.persist_dir
        if self._temp_dir is None:
            self._temp_dir = tempfile.TemporaryDirectory(
                prefix="repro-setup-cache-"
            )
        return Path(self._temp_dir.name)

    @staticmethod
    def _artifact_name(kind: str, digest: str) -> str:
        if not kind or any(ch in kind for ch in "/\\"):
            raise ValueError(f"invalid setup kind {kind!r}")
        return f"{kind}-{digest}.pkl"

    def path_for(self, kind: str, digest: str) -> Path:
        return self.cache_dir / self._artifact_name(kind, digest)

    def get_or_build(
        self,
        kind: str,
        parts: Mapping[str, Any],
        builder: Callable[[], Any],
    ) -> tuple[Any, Path | None]:
        """Return ``(setup, artifact_path)``, building at most once.

        A hit returns the in-process memoized object (grid cells share
        setups; only the first pays the unpickle) or unpickles the
        existing artifact; a miss (including an unreadable/corrupt
        artifact, which is silently rebuilt) calls ``builder`` and, when
        a cache directory was given, persists its result atomically.
        Without one the artifact path is ``None`` and nothing is written.
        Cached setups are shared — treat them as immutable.
        """
        name = self._artifact_name(kind, fingerprint_parts(parts))
        path = None if self.persist_dir is None else self.cache_dir / name
        if name in self._memo:
            self._memo.move_to_end(name)
            self.stats.hits += 1
            return self._memo[name], path
        if path is not None and path.exists():
            try:
                with open(path, "rb") as handle:
                    value = pickle.load(handle)
            except (pickle.UnpicklingError, EOFError, OSError, ValueError):
                pass  # corrupt artifact: fall through to a rebuild
            else:
                self.stats.hits += 1
                self._memoize(name, value)
                return value, path
        value = builder()
        self.stats.misses += 1
        if path is not None:
            self._write_atomic(
                path, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            )
        self._memoize(name, value)
        return value, path

    def _memoize(self, memo_key: str, value: Any) -> None:
        self._memo[memo_key] = value
        self._memo.move_to_end(memo_key)
        while len(self._memo) > self.MEMO_SIZE:
            self._memo.popitem(last=False)

    def spill(self, kind: str, value: Any) -> Path:
        """Persist an already-built object, addressed by its own bytes.

        Used to hand ad-hoc setups (built outside :meth:`get_or_build`)
        to pool workers; identical objects dedupe to one artifact.
        """
        data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(data).hexdigest()[:16]
        path = self.path_for(kind, digest)
        if not path.exists():
            self._write_atomic(path, data)
        return path

    def _write_atomic(self, path: Path, data: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, temp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
