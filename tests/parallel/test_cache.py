"""Tests for the content-addressed SetupCache and its fingerprints."""

from __future__ import annotations

import dataclasses
import pickle
import tempfile

import pytest

from repro.parallel import SetupCache, fingerprint_parts
from repro.parallel.cache import SETUP_SCHEMA_VERSION


@dataclasses.dataclass(frozen=True)
class FakeConfig:
    vocab: int
    smear: float


class TestFingerprint:
    def test_stable_across_calls(self):
        parts = {"config": FakeConfig(100, 0.5), "seed": 7}
        assert fingerprint_parts(parts) == fingerprint_parts(parts)

    def test_key_order_is_irrelevant(self):
        assert fingerprint_parts({"a": 1, "b": 2}) == fingerprint_parts(
            {"b": 2, "a": 1}
        )

    def test_any_ingredient_change_changes_the_digest(self):
        base = {"config": FakeConfig(100, 0.5), "seed": 7, "k": 30}
        digest = fingerprint_parts(base)
        for variant in (
            {**base, "seed": 8},
            {**base, "k": 31},
            {**base, "config": FakeConfig(100, 0.6)},
            {**base, "config": FakeConfig(101, 0.5)},
        ):
            assert fingerprint_parts(variant) != digest

    def test_dataclass_type_is_part_of_the_key(self):
        @dataclasses.dataclass(frozen=True)
        class OtherConfig:
            vocab: int
            smear: float

        assert fingerprint_parts(
            {"config": FakeConfig(1, 0.0)}
        ) != fingerprint_parts({"config": OtherConfig(1, 0.0)})

    def test_containers_and_types_fingerprint(self):
        parts = {
            "sizes": (1, 2, 3),
            "labels": {"b", "a"},
            "selector": FakeConfig,
            "nested": {"x": [1.5, None, True]},
        }
        assert fingerprint_parts(parts) == fingerprint_parts(dict(parts))

    def test_floats_distinguish_close_values(self):
        # 0.1 + 0.2 != 0.3; a %.6g-style canonicalization would collide.
        assert fingerprint_parts({"x": 0.1 + 0.2}) != fingerprint_parts(
            {"x": 0.3}
        )

    def test_unfingerprintable_ingredient_is_rejected(self):
        with pytest.raises(TypeError, match="fingerprint"):
            fingerprint_parts({"fn": lambda: None})

    def test_schema_version_is_mixed_in(self):
        # The digest must change if SETUP_SCHEMA_VERSION is bumped; pin
        # the mechanism by checking the version is part of the canonical
        # payload (a direct bump test would mutate module state).
        assert isinstance(SETUP_SCHEMA_VERSION, int)
        assert fingerprint_parts({}) != fingerprint_parts(
            {"__schema__": SETUP_SCHEMA_VERSION + 1}
        )


class TestSetupCache:
    def test_builds_once_then_hits(self, tmp_path):
        cache = SetupCache(tmp_path)
        builds = []

        def builder():
            builds.append(1)
            return {"built": len(builds)}

        parts = {"seed": 1}
        first, path = cache.get_or_build("testbed", parts, builder)
        second, path_again = cache.get_or_build("testbed", parts, builder)
        assert builds == [1]
        assert first == second == {"built": 1}
        assert path == path_again
        assert path.exists()
        assert cache.stats.as_dict() == {"hits": 1, "misses": 1}

    def test_distinct_parts_build_distinct_artifacts(self, tmp_path):
        cache = SetupCache(tmp_path)
        _, path_a = cache.get_or_build("t", {"seed": 1}, lambda: "a")
        _, path_b = cache.get_or_build("t", {"seed": 2}, lambda: "b")
        assert path_a != path_b
        assert cache.stats.misses == 2

    def test_persists_across_cache_instances(self, tmp_path):
        SetupCache(tmp_path).get_or_build("t", {"s": 1}, lambda: "warm me")
        fresh = SetupCache(tmp_path)
        value, _ = fresh.get_or_build(
            "t", {"s": 1}, lambda: pytest.fail("must not rebuild")
        )
        assert value == "warm me"
        assert fresh.stats.as_dict() == {"hits": 1, "misses": 0}

    def test_corrupt_artifact_is_rebuilt(self, tmp_path):
        cache = SetupCache(tmp_path)
        _, path = cache.get_or_build("t", {"s": 1}, lambda: "good")
        path.write_bytes(b"not a pickle")
        fresh = SetupCache(tmp_path)
        value, _ = fresh.get_or_build("t", {"s": 1}, lambda: "rebuilt")
        assert value == "rebuilt"
        assert fresh.stats.as_dict() == {"hits": 0, "misses": 1}
        assert pickle.loads(path.read_bytes()) == "rebuilt"

    def test_without_a_cache_dir_nothing_is_written(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        cache = SetupCache()
        built, path = cache.get_or_build("t", {"s": 1}, lambda: {"big": True})
        again, path_again = cache.get_or_build(
            "t", {"s": 1}, lambda: pytest.fail("must not rebuild")
        )
        assert path is None and path_again is None
        assert again is built  # memoized in process all the same
        assert cache.stats.as_dict() == {"hits": 1, "misses": 1}
        assert list(tmp_path.iterdir()) == []

    def test_memo_serves_the_same_object_without_reloading(self, tmp_path):
        cache = SetupCache(tmp_path)
        built, _ = cache.get_or_build("t", {"s": 1}, lambda: {"big": True})
        again, _ = cache.get_or_build(
            "t", {"s": 1}, lambda: pytest.fail("must not rebuild")
        )
        assert again is built  # memo hit, not an unpickled copy

    def test_memo_evicts_beyond_capacity(self, tmp_path):
        cache = SetupCache(tmp_path)
        for index in range(SetupCache.MEMO_SIZE + 1):
            cache.get_or_build("t", {"s": index}, lambda index=index: index)
        evicted, _ = cache.get_or_build(
            "t", {"s": 0}, lambda: pytest.fail("artifact hit, not rebuild")
        )
        assert evicted == 0
        assert cache.stats.misses == SetupCache.MEMO_SIZE + 1

    def test_spill_dedupes_identical_objects(self, tmp_path):
        cache = SetupCache(tmp_path)
        value = {"engine": [1, 2, 3]}
        path_a = cache.spill("engine", value)
        path_b = cache.spill("engine", {"engine": [1, 2, 3]})
        path_c = cache.spill("engine", {"engine": [1, 2, 4]})
        assert path_a == path_b
        assert path_a != path_c
        assert pickle.loads(path_a.read_bytes()) == value

    def test_default_cache_dir_is_ephemeral_temp(self):
        cache = SetupCache()
        assert cache.cache_dir.exists()
        assert "repro-setup-cache-" in cache.cache_dir.name

    def test_invalid_kind_is_rejected(self, tmp_path):
        cache = SetupCache(tmp_path)
        with pytest.raises(ValueError):
            cache.path_for("", "abc")
        with pytest.raises(ValueError):
            cache.path_for("../escape", "abc")
