"""Multi-key index maintenance and engine statistics."""

from repro.cylog import EngineStats, SemiNaiveEngine, parse_program
from repro.cylog.engine import Relation
from repro.cylog.indexes import MultiKeyHashIndex, TupleIndexSet
from repro.metrics import Collector


class TestMultiKeyHashIndex:
    def test_add_and_bucket(self):
        index = MultiKeyHashIndex()
        index.add(("a",), (1,))
        index.add(("a",), (2,))
        index.add(("b",), (3,))
        assert index.bucket(("a",)) == {(1,), (2,)}
        assert index.bucket(("missing",)) == frozenset()
        assert len(index) == 3
        assert index.key_count == 2

    def test_discard_removes_empty_buckets(self):
        index = MultiKeyHashIndex()
        index.add(("k",), 1)
        index.discard(("k",), 1)
        assert index.key_count == 0
        index.discard(("k",), 1)  # absent key is a no-op
        assert len(index) == 0

    def test_keys_iteration(self):
        index = MultiKeyHashIndex()
        index.add((1,), "x")
        index.add((2,), "y")
        assert sorted(index.keys()) == [(1,), (2,)]


class TestTupleIndexSet:
    def test_ensure_backfills_and_insert_maintains(self):
        indexes = TupleIndexSet()
        indexes.ensure((0,), [(1, "a"), (2, "b")])
        assert indexes.rows((0,), (1,)) == {(1, "a")}
        indexes.insert((1, "c"))
        assert indexes.rows((0,), (1,)) == {(1, "a"), (1, "c")}

    def test_ensure_is_idempotent(self):
        indexes = TupleIndexSet()
        indexes.ensure((0,), [(1,)])
        indexes.ensure((0,), [])  # must not wipe the backfilled rows
        assert indexes.rows((0,), (1,)) == {(1,)}
        assert indexes.index_count == 1
        assert indexes.specs() == ((0,),)

    def test_multiple_keys_maintained_together(self):
        indexes = TupleIndexSet()
        indexes.ensure((0,), [])
        indexes.ensure((1,), [])
        indexes.insert((1, "a"))
        assert indexes.rows((0,), (1,)) == {(1, "a")}
        assert indexes.rows((1,), ("a",)) == {(1, "a")}


class TestRelationIndexes:
    def test_registered_specs_maintained_from_empty(self):
        relation = Relation(2, index_specs=[(1,)])
        relation.add((1, "x"))
        relation.add((2, "x"))
        assert relation.lookup((1,), ("x",)) == {(1, "x"), (2, "x")}

    def test_unregistered_lookup_builds_lazily_then_maintains(self):
        relation = Relation(2)
        relation.add((1, "x"))
        assert relation.lookup((0,), (1,)) == {(1, "x")}
        relation.add((1, "y"))
        assert relation.lookup((0,), (1,)) == {(1, "x"), (1, "y")}

    def test_empty_positions_scan_everything(self):
        relation = Relation(1)
        relation.add((1,))
        relation.add((2,))
        assert relation.lookup((), ()) == {(1,), (2,)}


class TestEngineStats:
    SOURCE = """
        edge(1, 2). edge(2, 3). edge(3, 4).
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- path(X, Z), edge(Z, Y).
    """

    def test_counters_populated_by_a_run(self):
        engine = SemiNaiveEngine(parse_program(self.SOURCE))
        engine.run()
        stats = engine.stats
        assert stats.full_runs == 1
        assert stats.rules_fired > 0
        assert stats.tuples_derived == 6  # |path| for a 4-node chain
        assert stats.index_hits > 0
        assert stats.rounds >= 1
        assert stats.plans  # chosen plans are exposed for observability

    def test_incremental_run_counted(self):
        engine = SemiNaiveEngine(parse_program(self.SOURCE))
        engine.run()
        engine.add_facts("edge", [(4, 5)])
        engine.run()
        assert engine.stats.incremental_runs == 1
        assert engine.stats.full_runs == 1

    def test_to_collector_exports_every_counter(self):
        engine = SemiNaiveEngine(parse_program(self.SOURCE))
        engine.run()
        collector = Collector()
        engine.stats.to_collector(collector)
        expected = {f"cylog_engine.{name}" for name in EngineStats().as_dict()}
        assert expected <= set(collector.counters)
        assert collector.counters["cylog_engine.full_runs"] == 1
