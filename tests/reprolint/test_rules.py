"""Per-rule tests: each rule fires on a minimal violation, stays quiet
on the compliant twin, and honors inline suppressions.

All fixtures go through :func:`reprolint.engine.check_source` with a
fake path chosen to match (or miss) the rule's scope fragments, so the
tests also pin the scoping behavior.
"""

import textwrap

from reprolint.engine import PARSE_ERROR_ID, check_source
from reprolint.registry import all_rules, get_rule, rule_ids


def lint(source, path, only=None):
    """Lint dedented ``source`` at ``path``, optionally with one rule.

    Restricting to the rule under test keeps fixtures minimal (a
    ``src/repro`` fixture without ``__all__`` would otherwise drag
    RPRL005 into every assertion); scoping still applies because
    ``check_source`` filters the explicit rule list through
    ``applies_to``.
    """
    rules = None if only is None else [get_rule(only)]
    return check_source(textwrap.dedent(source), path, rules=rules)


def ids(findings):
    return [f.rule_id for f in findings]


IN_SCOPE = {
    "RPRL001": "scripts/anywhere.py",
    "RPRL002": "src/repro/experiments/run.py",
    "RPRL003": "src/repro/simnet/clock.py",
    "RPRL004": "src/repro/synopses/estimator.py",
    "RPRL005": "src/repro/util.py",
    "RPRL006": "src/repro/experiments/sweep.py",
    "RPRL007": "src/repro/churn/membership.py",
    "RPRL008": "src/repro/synopses/columnstore.py",
    "RPRL009": "tests/synopses/test_props.py",
}


class TestRegistry:
    def test_registered_rules_have_stable_ids(self):
        assert rule_ids() == [
            "RPRL001",
            "RPRL002",
            "RPRL003",
            "RPRL004",
            "RPRL005",
            "RPRL006",
            "RPRL007",
            "RPRL008",
            "RPRL009",
        ]

    def test_every_rule_documents_itself(self):
        for rule in all_rules():
            assert rule.name
            assert rule.rationale

    def test_scope_matching_uses_path_fragments(self):
        rule = get_rule("RPRL004")
        assert rule.applies_to("src/repro/synopses/bloom.py")
        assert rule.applies_to("src/repro/core/iqn.py")
        assert not rule.applies_to("src/repro/simnet/node.py")
        assert not rule.applies_to("tests/synopses/test_bloom.py")


class TestMutatingMethodMustInvalidateCache:
    """RPRL001 — applies to every file (scope-free)."""

    VIOLATION = """
        class Sketch:
            __slots__ = ("_registers", "_cardinality")

            def __init__(self, registers):
                self._registers = registers
                self._cardinality = None

            def merge(self, other):
                self._registers = [max(a, b) for a, b in zip(self._registers, other._registers)]
        """

    def test_mutation_without_reset_fires(self):
        findings = lint(self.VIOLATION, IN_SCOPE["RPRL001"])
        assert ids(findings) == ["RPRL001"]
        assert "Sketch.merge" in findings[0].message
        assert "_cardinality" in findings[0].message

    COMPLIANT = """
        class Sketch:
            __slots__ = ("_registers", "_cardinality")

            def __init__(self, registers):
                self._registers = registers
                self._cardinality = None

            def merge(self, other):
                self._registers = [max(a, b) for a, b in zip(self._registers, other._registers)]
                self._cardinality = None
        """

    def test_mutation_with_reset_is_clean(self):
        assert lint(self.COMPLIANT, IN_SCOPE["RPRL001"]) == []

    def test_interning_without_a_rank_reset_fires(self):
        source = """
            class Table:
                __slots__ = ("_names", "_rank_memo")

                def __init__(self):
                    self._names = []
                    self._rank_memo = None

                def intern(self, name):
                    self._names.append(name)
                    self._names = list(self._names)
            """
        findings = lint(source, IN_SCOPE["RPRL001"])
        assert ids(findings) == ["RPRL001"]
        assert "_rank_memo" in findings[0].message

    def test_memo_slot_detected_from_init_without_slots(self):
        source = """
            class Counter:
                def __init__(self):
                    self._buckets = []
                    self._cardinality = None

                def absorb(self, other):
                    self._buckets = other._buckets
            """
        assert ids(lint(source, IN_SCOPE["RPRL001"])) == ["RPRL001"]

    def test_subscript_store_counts_as_mutation(self):
        source = """
            class Counter:
                __slots__ = ("_buckets", "_cardinality")

                def bump(self, index):
                    self._buckets[index] += 1
            """
        assert ids(lint(source, IN_SCOPE["RPRL001"])) == ["RPRL001"]

    def test_construction_methods_are_exempt(self):
        source = """
            class Counter:
                __slots__ = ("_buckets", "_cardinality")

                def __init__(self, buckets):
                    self._buckets = buckets
                    self._cardinality = None

                def __setstate__(self, state):
                    self._buckets = state["buckets"]
                    self._cardinality = state["cardinality"]
            """
        assert lint(source, IN_SCOPE["RPRL001"]) == []

    def test_class_without_memo_slots_is_ignored(self):
        source = """
            class Plain:
                def update(self, value):
                    self.value = value
            """
        assert lint(source, IN_SCOPE["RPRL001"]) == []


class TestNoUnseededRandomness:
    """RPRL002 — scope src/repro."""

    def test_global_rng_call_fires(self):
        source = """
            import random

            def jitter():
                return random.random()
            """
        findings = lint(source, IN_SCOPE["RPRL002"], only="RPRL002")
        assert ids(findings) == ["RPRL002"]
        assert "random.random" in findings[0].message

    def test_unseeded_constructor_fires(self):
        source = """
            import random

            rng = random.Random()
            """
        assert ids(lint(source, IN_SCOPE["RPRL002"], only="RPRL002")) == ["RPRL002"]

    def test_seeded_constructor_is_clean(self):
        source = """
            import random

            rng = random.Random(7)
            """
        assert lint(source, IN_SCOPE["RPRL002"], only="RPRL002") == []

    def test_numpy_alias_is_resolved(self):
        source = """
            import numpy as np

            unseeded = np.random.default_rng()
            seeded = np.random.default_rng(1234)
            globals_call = np.random.rand(3)
            """
        findings = lint(source, IN_SCOPE["RPRL002"], only="RPRL002")
        assert ids(findings) == ["RPRL002", "RPRL002"]
        assert {f.line for f in findings} == {4, 6}

    def test_from_import_binding_is_resolved(self):
        source = """
            from random import Random

            rng = Random()
            """
        assert ids(lint(source, IN_SCOPE["RPRL002"], only="RPRL002")) == ["RPRL002"]

    def test_out_of_scope_path_is_ignored(self):
        source = """
            import random

            value = random.random()
            """
        assert lint(source, "benchmarks/bench_setup.py", only="RPRL002") == []


class TestNoWallClockInSimnet:
    """RPRL003 — scope repro/simnet, repro/churn, repro/serving, repro/topology."""

    def test_time_call_fires(self):
        source = """
            import time

            def stamp():
                return time.monotonic()
            """
        findings = lint(source, IN_SCOPE["RPRL003"], only="RPRL003")
        assert ids(findings) == ["RPRL003"]
        assert "time.monotonic" in findings[0].message

    def test_bare_reference_fires_without_a_call(self):
        source = """
            import time

            CLOCK_SOURCE = time.perf_counter
            """
        assert ids(lint(source, IN_SCOPE["RPRL003"], only="RPRL003")) == ["RPRL003"]

    def test_from_import_flagged_at_import_site(self):
        source = """
            from time import sleep
            """
        findings = lint(source, IN_SCOPE["RPRL003"], only="RPRL003")
        assert ids(findings) == ["RPRL003"]
        assert findings[0].line == 2
        assert "from time import sleep" in findings[0].message

    def test_datetime_now_fires(self):
        source = """
            import datetime

            def stamp():
                return datetime.datetime.now()
            """
        assert ids(lint(source, IN_SCOPE["RPRL003"], only="RPRL003")) == ["RPRL003"]

    def test_virtual_time_is_clean(self):
        source = """
            def stamp(clock):
                return clock.now()
            """
        assert lint(source, IN_SCOPE["RPRL003"], only="RPRL003") == []

    def test_out_of_scope_path_is_ignored(self):
        source = """
            import time

            started = time.time()
            """
        assert lint(source, "src/repro/experiments/harness.py", only="RPRL003") == []

    def test_churn_wall_clock_read_fires(self):
        source = """
            import time

            def repost_tick():
                return time.monotonic()
            """
        findings = lint(source, "src/repro/churn/membership.py", only="RPRL003")
        assert ids(findings) == ["RPRL003"]
        assert "time.monotonic" in findings[0].message
        assert "SimClock" in findings[0].message

    def test_churn_from_import_is_flagged(self):
        source = """
            from time import sleep
            """
        findings = lint(source, "src/repro/churn/membership.py", only="RPRL003")
        assert ids(findings) == ["RPRL003"]
        assert "from time import sleep" in findings[0].message

    def test_churn_datetime_now_fires(self):
        source = """
            import datetime

            def stamp():
                return datetime.datetime.now()
            """
        assert ids(
            lint(source, "src/repro/churn/membership.py", only="RPRL003")
        ) == ["RPRL003"]

    def test_serving_and_topology_are_in_scope(self):
        source = """
            import time

            started = time.perf_counter()
            """
        for path in ("src/repro/serving/frontend.py", "src/repro/topology/base.py"):
            assert ids(lint(source, path, only="RPRL003")) == ["RPRL003"]


class TestNoFloatEquality:
    """RPRL004 — scope repro/synopses + repro/core."""

    def test_float_equality_fires(self):
        source = """
            def is_quarter(x):
                return x == 0.25
            """
        findings = lint(source, IN_SCOPE["RPRL004"], only="RPRL004")
        assert ids(findings) == ["RPRL004"]
        assert "0.25" in findings[0].message

    def test_float_inequality_operator_fires(self):
        source = """
            def differs(x):
                return x != 1.0
            """
        assert ids(lint(source, IN_SCOPE["RPRL004"], only="RPRL004")) == ["RPRL004"]

    def test_negative_literal_fires(self):
        source = """
            def check(x):
                return -1.0 == x
            """
        assert ids(lint(source, IN_SCOPE["RPRL004"], only="RPRL004")) == ["RPRL004"]

    def test_ordering_comparisons_are_clean(self):
        source = """
            def clamp(x):
                if x <= 0.0:
                    return 0.0
                return min(x, 1.0)
            """
        assert lint(source, IN_SCOPE["RPRL004"], only="RPRL004") == []

    def test_integer_equality_is_clean(self):
        source = """
            def is_empty(count):
                return count == 0
            """
        assert lint(source, IN_SCOPE["RPRL004"], only="RPRL004") == []

    def test_out_of_scope_path_is_ignored(self):
        source = """
            def is_quarter(x):
                return x == 0.25
            """
        assert lint(source, "src/repro/routing/greedy.py", only="RPRL004") == []


class TestPublicApiHygiene:
    """RPRL005 — scope src/repro."""

    def test_missing_dunder_all_fires(self):
        source = """
            def helper():
                return 1
            """
        findings = lint(source, IN_SCOPE["RPRL005"], only="RPRL005")
        assert ids(findings) == ["RPRL005"]
        assert "__all__" in findings[0].message

    def test_declared_and_defined_is_clean(self):
        source = """
            __all__ = ["helper"]

            def helper():
                return 1
            """
        assert lint(source, IN_SCOPE["RPRL005"], only="RPRL005") == []

    def test_ghost_entry_fires_with_its_name(self):
        source = """
            __all__ = ["helper", "ghost"]

            def helper():
                return 1
            """
        findings = lint(source, IN_SCOPE["RPRL005"], only="RPRL005")
        assert ids(findings) == ["RPRL005"]
        assert "'ghost'" in findings[0].message

    def test_reexported_import_satisfies_entry(self):
        source = """
            from math import isclose

            __all__ = ["isclose"]
            """
        assert lint(source, IN_SCOPE["RPRL005"], only="RPRL005") == []

    def test_dynamic_dunder_all_is_not_guessed_at(self):
        source = """
            import math

            __all__ = sorted(["helper"])

            def helper():
                return 1
            """
        assert lint(source, IN_SCOPE["RPRL005"], only="RPRL005") == []

    def test_out_of_scope_path_is_ignored(self):
        source = """
            def helper():
                return 1
            """
        assert lint(source, "tools/reprolint/helper.py", only="RPRL005") == []


class TestWorkerEntrypointsTakeSeed:
    """RPRL006 — scope src/repro, pool-importing modules only."""

    def test_seedless_entrypoint_fires(self):
        source = """
            from ..parallel import ExperimentRunner

            __all__ = ["recall_task"]

            def recall_task(task):
                return task
            """
        findings = lint(source, IN_SCOPE["RPRL006"], only="RPRL006")
        assert ids(findings) == ["RPRL006"]
        assert "'recall_task'" in findings[0].message
        assert "seed" in findings[0].message

    def test_entrypoint_with_seed_is_clean(self):
        source = """
            from repro.parallel import TaskPool

            def recall_task(task, seed):
                del seed
                return task
            """
        assert lint(source, IN_SCOPE["RPRL006"], only="RPRL006") == []

    def test_absolute_multiprocessing_import_counts(self):
        source = """
            import multiprocessing.pool

            def fan_out_task(item):
                return item
            """
        assert ids(lint(source, IN_SCOPE["RPRL006"], only="RPRL006")) == [
            "RPRL006"
        ]

    def test_concurrent_futures_import_counts(self):
        source = """
            from concurrent.futures import ProcessPoolExecutor

            def fan_out_task(item):
                return item
            """
        assert ids(lint(source, IN_SCOPE["RPRL006"], only="RPRL006")) == [
            "RPRL006"
        ]

    def test_module_without_pool_imports_is_ignored(self):
        source = """
            def cleanup_task(item):
                return item
            """
        assert lint(source, IN_SCOPE["RPRL006"], only="RPRL006") == []

    def test_private_helpers_and_non_task_names_are_ignored(self):
        source = """
            import multiprocessing

            def _run_packed_task(packed):
                return packed

            def build_testbed(config):
                return config
            """
        assert lint(source, IN_SCOPE["RPRL006"], only="RPRL006") == []

    def test_nested_functions_are_not_entrypoints(self):
        source = """
            from ..parallel import TaskPool

            def launch(pool):
                def local_task(item):
                    return item
                return local_task
            """
        assert lint(source, IN_SCOPE["RPRL006"], only="RPRL006") == []

    def test_out_of_scope_path_is_ignored(self):
        source = """
            import multiprocessing

            def orphan_task(item):
                return item
            """
        assert lint(source, "benchmarks/bench_pool.py", only="RPRL006") == []


class TestChurnOnVirtualClock:
    """RPRL007 — scope repro/churn."""

    def test_wall_clock_is_left_to_rprl003(self):
        source = """
            import time

            def repost_tick():
                return time.monotonic()
            """
        assert lint(source, IN_SCOPE["RPRL007"], only="RPRL007") == []

    def test_seedless_event_stream_fires(self):
        source = """
            class ChurnSchedule:
                @classmethod
                def generate(cls, peer_ids, config):
                    return cls()
            """
        findings = lint(source, IN_SCOPE["RPRL007"], only="RPRL007")
        assert ids(findings) == ["RPRL007"]
        assert "'generate'" in findings[0].message
        assert "seed" in findings[0].message

    def test_seedless_events_suffix_fires(self):
        source = """
            def membership_events(peer_ids, rate):
                return []
            """
        assert ids(lint(source, IN_SCOPE["RPRL007"], only="RPRL007")) == [
            "RPRL007"
        ]

    def test_seeded_event_stream_is_clean(self):
        source = """
            class ChurnSchedule:
                @classmethod
                def generate(cls, peer_ids, config, *, seed):
                    return cls()

            def membership_events(peer_ids, rate, seed):
                return []
            """
        assert lint(source, IN_SCOPE["RPRL007"], only="RPRL007") == []

    def test_private_and_unrelated_names_are_ignored(self):
        source = """
            def _generate_internal(rng):
                return []

            def sweep(now_ms):
                return []
            """
        assert lint(source, IN_SCOPE["RPRL007"], only="RPRL007") == []

    def test_virtual_clock_scheduling_is_clean(self):
        source = """
            def schedule_ticks(clock, interval_ms, horizon_ms):
                at = interval_ms
                while at <= horizon_ms:
                    clock.call_at(at, lambda: None)
                    at += interval_ms
            """
        assert lint(source, IN_SCOPE["RPRL007"], only="RPRL007") == []

    def test_out_of_scope_path_is_ignored(self):
        source = """
            import time

            def membership_events(peer_ids):
                return time.time()
            """
        assert (
            lint(source, "src/repro/parallel/runner.py", only="RPRL007") == []
        )


class TestColumnarStaysPacked:
    """RPRL008 — scope repro/synopses/columnstore, repro/core/fastpath and
    repro/topology/superpeer."""

    def test_object_dtype_keyword_fires(self):
        source = """
            import numpy as np

            def make_rows(count):
                return np.empty(count, dtype=object)
            """
        findings = lint(source, IN_SCOPE["RPRL008"], only="RPRL008")
        assert ids(findings) == ["RPRL008"]
        assert "dtype=object" in findings[0].message

    def test_np_object_attribute_fires(self):
        source = """
            import numpy as np

            def make_rows(count):
                return np.zeros(count, dtype=np.object_)
            """
        assert ids(lint(source, IN_SCOPE["RPRL008"], only="RPRL008")) == [
            "RPRL008"
        ]

    def test_string_object_dtype_fires(self):
        source = """
            import numpy as np

            def make_rows(count):
                return np.zeros(count, dtype="object")
            """
        assert ids(lint(source, IN_SCOPE["RPRL008"], only="RPRL008")) == [
            "RPRL008"
        ]

    def test_loop_over_column_attribute_fires(self):
        source = """
            class Column:
                def total(self):
                    acc = 0.0
                    for card in self._cards:
                        acc += card
                    return acc
            """
        findings = lint(source, IN_SCOPE["RPRL008"], only="RPRL008")
        assert ids(findings) == ["RPRL008"]
        assert "'_cards'" in findings[0].message

    def test_loop_over_sliced_column_fires(self):
        source = """
            class Column:
                def scan(self):
                    return [int(row) for row in self._rows[:10]]
            """
        assert ids(lint(source, IN_SCOPE["RPRL008"], only="RPRL008")) == [
            "RPRL008"
        ]

    def test_loop_over_tolist_of_column_fires(self):
        source = """
            class Column:
                def names(self):
                    out = []
                    for value in self._peer_ids.tolist():
                        out.append(value)
                    return out
            """
        assert ids(lint(source, IN_SCOPE["RPRL008"], only="RPRL008")) == [
            "RPRL008"
        ]

    def test_numeric_dtypes_and_vector_ops_are_clean(self):
        source = """
            import numpy as np

            class Column:
                def __init__(self, count):
                    self._cards = np.zeros(count, dtype=np.float64)
                    self._rows = np.zeros((count, 4), dtype=np.uint64)

                def total(self):
                    return float(self._cards.sum())
            """
        assert lint(source, IN_SCOPE["RPRL008"], only="RPRL008") == []

    def test_ingest_loop_over_objects_is_clean(self):
        source = """
            def pack(synopses, matrix):
                for index, synopsis in enumerate(synopses):
                    matrix[index] = synopsis.raw_bits
            """
        assert lint(source, IN_SCOPE["RPRL008"], only="RPRL008") == []

    def test_fastpath_is_in_scope(self):
        source = """
            class Kernel:
                def rescore(self):
                    return [float(c) for c in self._cards]
            """
        assert ids(
            lint(source, "src/repro/core/fastpath.py", only="RPRL008")
        ) == ["RPRL008"]

    def test_superpeer_is_in_scope(self):
        # The cluster fold must stay on the packed columns, not regress
        # to a per-row loop over a stored list.
        source = """
            def fold(stored, groups):
                totals = {}
                for row, cdf in enumerate(stored._cdf):
                    totals[groups[row]] = totals.get(groups[row], 0) + cdf
                return totals
            """
        findings = lint(source, "src/repro/topology/superpeer.py", only="RPRL008")
        assert ids(findings) == ["RPRL008"]
        assert "'_cdf'" in findings[0].message

    def test_out_of_scope_path_is_ignored(self):
        source = """
            import numpy as np

            def make_rows(count):
                return np.empty(count, dtype=object)
            """
        assert (
            lint(source, "src/repro/synopses/bloom.py", only="RPRL008") == []
        )


class TestSuppressions:
    def test_line_directive_suppresses_that_line_only(self):
        source = """
            def check(x, y):
                first = x == 0.25  # reprolint: disable=RPRL004
                second = y == 0.5
                return first or second
            """
        findings = lint(source, IN_SCOPE["RPRL004"], only="RPRL004")
        assert ids(findings) == ["RPRL004"]
        assert findings[0].line == 4

    def test_line_directive_with_all_keyword(self):
        source = """
            def check(x):
                return x == 0.25  # reprolint: disable=all
            """
        assert lint(source, IN_SCOPE["RPRL004"], only="RPRL004") == []

    def test_file_directive_suppresses_whole_file(self):
        source = """
            # reprolint: disable-file=RPRL005

            def helper():
                return 1
            """
        assert lint(source, IN_SCOPE["RPRL005"], only="RPRL005") == []

    def test_directive_for_other_rule_does_not_suppress(self):
        source = """
            def check(x):
                return x == 0.25  # reprolint: disable=RPRL001
            """
        assert ids(lint(source, IN_SCOPE["RPRL004"], only="RPRL004")) == ["RPRL004"]


class TestMultipleRules:
    def test_findings_from_several_rules_sort_by_location(self):
        source = """
            def check(x):
                return x == 0.25
            """
        findings = lint(source, "src/repro/core/combined.py")
        assert ids(findings) == ["RPRL005", "RPRL004"]
        assert findings[0].line <= findings[1].line


class TestParseErrors:
    def test_syntax_error_yields_rprl000(self):
        findings = lint("def broken(:\n    pass\n", "src/repro/broken.py")
        assert ids(findings) == [PARSE_ERROR_ID]
        assert "syntax error" in findings[0].message

    def test_rprl000_is_not_suppressible(self):
        source = "# reprolint: disable-file=all\ndef broken(:\n    pass\n"
        assert ids(lint(source, "src/repro/broken.py")) == [PARSE_ERROR_ID]


class TestFindingFormat:
    def test_text_and_dict_round_trip_the_location(self):
        source = """
            def check(x):
                return x == 0.25
            """
        (finding,) = lint(source, IN_SCOPE["RPRL004"], only="RPRL004")
        assert finding.format_text().startswith(
            f"{IN_SCOPE['RPRL004']}:{finding.line}:{finding.col}: RPRL004 "
        )
        payload = finding.as_dict()
        assert payload["rule"] == "RPRL004"
        assert payload["path"] == IN_SCOPE["RPRL004"]
        assert payload["line"] == finding.line


class TestHypothesisStaysDeterministic:
    """RPRL009 — scope tests/."""

    def test_derandomize_false_fires(self):
        source = """
            from hypothesis import given, settings, strategies as st

            @settings(derandomize=False)
            @given(st.integers())
            def test_roundtrip(value):
                assert value == value
            """
        findings = lint(source, IN_SCOPE["RPRL009"], only="RPRL009")
        assert ids(findings) == ["RPRL009"]
        assert "derandomize" in findings[0].message
        assert findings[0].line == 4

    def test_non_none_database_fires(self):
        source = """
            import hypothesis
            from hypothesis.database import InMemoryExampleDatabase

            @hypothesis.settings(database=InMemoryExampleDatabase())
            def test_it():
                pass
            """
        findings = lint(source, IN_SCOPE["RPRL009"], only="RPRL009")
        assert ids(findings) == ["RPRL009"]
        assert "database" in findings[0].message

    def test_profile_calls_outside_the_root_conftest_fire(self):
        source = """
            from hypothesis import settings as hs

            hs.register_profile("fast", max_examples=5)
            hs.load_profile("fast")
            """
        for path in (IN_SCOPE["RPRL009"], "tests/reprolint/conftest.py"):
            findings = lint(source, path, only="RPRL009")
            assert ids(findings) == ["RPRL009", "RPRL009"]
            assert {f.line for f in findings} == {4, 5}

    def test_root_conftest_may_define_and_load_profiles(self):
        source = """
            import os
            from hypothesis import settings

            settings.register_profile(
                "deterministic", derandomize=True, database=None, deadline=None
            )
            settings.register_profile("explore", deadline=None)
            settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))
            """
        assert lint(source, "tests/conftest.py", only="RPRL009") == []

    def test_deterministic_settings_are_clean(self):
        source = """
            from hypothesis import given, settings, strategies as st

            @settings(max_examples=20, derandomize=True, database=None, deadline=None)
            @given(st.integers())
            def test_roundtrip(value):
                assert value == value
            """
        assert lint(source, IN_SCOPE["RPRL009"], only="RPRL009") == []

    def test_unrelated_settings_name_is_ignored(self):
        source = """
            from myproject import settings

            settings(derandomize=False, database="db")
            settings.load_profile("x")
            """
        assert lint(source, IN_SCOPE["RPRL009"], only="RPRL009") == []

    def test_out_of_scope_path_is_ignored(self):
        source = """
            from hypothesis import settings

            settings.load_profile("explore")
            """
        assert lint(source, "benchmarks/bench_props.py", only="RPRL009") == []

    def test_inline_suppression(self):
        source = """
            from hypothesis import settings

            settings.load_profile("explore")  # reprolint: disable=RPRL009
            """
        assert lint(source, IN_SCOPE["RPRL009"], only="RPRL009") == []
