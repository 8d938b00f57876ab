"""Utility and metrics helpers."""

import pytest

from repro.metrics import Collector, format_table
from repro.util import IdFactory, clamp, derive_seed, make_rng, slugify, word_wrap


class TestRng:
    def test_derive_seed_stable(self):
        assert derive_seed(7, "a", 1) == derive_seed(7, "a", 1)

    def test_derive_seed_varies_with_labels(self):
        seeds = {derive_seed(7), derive_seed(7, "a"), derive_seed(7, "b"),
                 derive_seed(8, "a")}
        assert len(seeds) == 4

    def test_make_rng_streams_independent(self):
        a = make_rng(1, "x")
        b = make_rng(1, "y")
        assert [a.random() for _ in range(3)] != [b.random() for _ in range(3)]

    def test_make_rng_reproducible(self):
        assert make_rng(1, "x").random() == make_rng(1, "x").random()


class TestIds:
    def test_sequence_and_padding(self):
        factory = IdFactory("t", width=3)
        assert [factory.next() for _ in range(3)] == ["t000", "t001", "t002"]

    def test_peek_does_not_advance(self):
        factory = IdFactory("t")
        factory.next()
        assert factory.peek_count() == 1
        assert factory.next() == "t00001"

    def test_skip_past_resumes_after_largest_own_id(self):
        factory = IdFactory("t", width=3)
        factory.skip_past(["t007", "t002", "team999", "tx", "u500"])
        assert factory.next() == "t008"
        factory.skip_past(["t001"])  # never moves backwards
        assert factory.next() == "t009"

    def test_width_validated(self):
        with pytest.raises(ValueError):
            IdFactory("t", width=0)


class TestText:
    def test_slugify(self):
        assert slugify("Hello, World! 42") == "hello-world-42"
        assert slugify("---") == ""

    def test_clamp(self):
        assert clamp(5, 0, 1) == 1
        assert clamp(-5, 0, 1) == 0
        assert clamp(0.5, 0, 1) == 0.5
        with pytest.raises(ValueError):
            clamp(1, 2, 0)

    def test_word_wrap(self):
        lines = word_wrap("aa bb cc dd", width=5)
        assert lines == ["aa bb", "cc dd"]

    def test_word_wrap_long_word_gets_own_line(self):
        assert word_wrap("tiny enormousword x", width=6) == [
            "tiny", "enormousword", "x",
        ]

    def test_word_wrap_width_validated(self):
        with pytest.raises(ValueError):
            word_wrap("x", width=0)


class TestCollector:
    def test_counters(self):
        collector = Collector()
        collector.count("tasks")
        collector.count("tasks", 2)
        assert collector.counters["tasks"] == 3

    def test_timers(self):
        collector = Collector()
        with collector.timer("work"):
            pass
        with collector.timer("work"):
            pass
        assert len(collector.timers["work"]) == 2
        assert collector.timer_total("work") >= 0
        assert collector.timer_mean("missing") == 0.0

    def test_series(self):
        collector = Collector()
        collector.record("q", 0.5)
        collector.record("q", 1.0)
        assert collector.series_mean("q") == 0.75

    def test_summary_shape(self):
        collector = Collector()
        collector.count("n")
        with collector.timer("t"):
            pass
        collector.record("s", 2.0)
        summary = collector.summary()
        assert summary["n"] == 1
        assert "t_total_s" in summary and "s_mean" in summary


class TestCounterRecords:
    def test_keys_follow_field_order(self):
        from repro.core.platform import PlatformStats
        from repro.cylog import EngineStats
        from repro.storage.cache import CacheStats

        assert list(CacheStats().as_dict()) == [
            "hits",
            "misses",
            "invalidations",
            "evictions",
        ]
        assert list(PlatformStats().as_dict()) == [
            "rounds",
            "eligibility_tasks_full",
            "eligibility_tasks_partial",
            "eligibility_tasks_skipped",
            "eligibility_pairs_checked",
            "eligibility_pairs_skipped",
            "eligibility_revoked",
            "assignment_attempts",
            "assignments_skipped",
            "cross_checks",
        ]
        engine = EngineStats().as_dict()
        assert "plans" not in engine
        assert list(engine)[:3] == ["full_runs", "incremental_runs", "rounds"]

    def test_absorb_record_or_mapping_and_collect(self):
        from repro.storage.cache import CacheStats

        stats = CacheStats(hits=1)
        stats.absorb(CacheStats(hits=2, evictions=1))
        stats.absorb({"misses": 4})
        assert stats.as_dict() == {
            "hits": 3,
            "misses": 4,
            "invalidations": 0,
            "evictions": 1,
        }
        collector = Collector()
        stats.to_collector(collector)
        stats.to_collector(collector, prefix="page")
        assert collector.counters["query_cache.hits"] == 3
        assert collector.counters["page.misses"] == 4


class TestFormatTable:
    def test_alignment_and_floats(self):
        table = format_table(("name", "value"), [("a", 1.23456), ("bb", 7)],
                             float_digits=2)
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert "1.23" in table and "7" in table

    def test_title_underlined(self):
        table = format_table(("x",), [(1,)], title="T")
        assert table.splitlines()[0] == "T"
        assert table.splitlines()[1] == "="

    def test_bools_rendered_as_words(self):
        assert "yes" in format_table(("x",), [(True,)])

    def test_stats_table_surfaces_engine_counters(self):
        """The engine's counters must reach bench reports through the
        generic counters table."""
        from repro.cylog.engine import EngineStats
        from repro.metrics import format_stats_table

        table = format_stats_table({"cylog_engine": EngineStats().as_dict()})
        for counter in (
            "rounds",
            "tuples_retracted",
            "tuples_copied",
        ):
            assert counter in table, counter
