"""Unit tests for the interval hierarchy index and its engine wiring.

Covers the edge cases the diff oracles can only hit probabilistically:
retractions that split a tree into a forest, re-attachment under the same
run, the churn-threshold label rebuild, sound disable on every non-forest
shape, and the planner/pretty-print/stats surface of the ``interval``
access path.
"""

from __future__ import annotations

import pytest

from repro.cylog import (
    IntervalHierarchyIndex,
    SemiNaiveEngine,
    compile_program,
    explain_program,
    parse_program,
)
from repro.metrics import format_stats_table

TC_SOURCE = """
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- tc(X, Y), edge(Y, Z).
"""


def closure(edges: list[tuple]) -> set[tuple]:
    """Reference transitive closure by naive fixpoint."""
    pairs = set(edges)
    while True:
        new = {(a, d) for a, b in pairs for c, d in pairs if b == c} - pairs
        if not new:
            return pairs
        pairs |= new


def build(edges: list[tuple]) -> IntervalHierarchyIndex:
    index = IntervalHierarchyIndex()
    assert index.rebuild(edges)
    return index


class TestIntervalIndex:
    def test_build_annotations_and_closure(self):
        #      1            7
        #     / \           |
        #    2   3          8
        #       / \
        #      4   5
        edges = [(1, 2), (1, 3), (3, 4), (3, 5), (7, 8)]
        index = build(edges)
        assert len(index) == 7
        assert index.edge_count == 5
        assert index.level(1) == 0 and index.level(4) == 2 and index.level(8) == 1
        assert index.subtree_size(1) == 5 and index.subtree_size(3) == 3
        assert index.is_ancestor(1, 5) and not index.is_ancestor(1, 8)
        assert not index.is_ancestor(4, 4)  # strict
        assert sorted(index.descendants(3), key=repr) == [4, 5]
        assert set(index.pairs()) == closure(edges)

    def test_interval_containment(self):
        index = build([(1, 2), (2, 3)])
        lo1, hi1 = index.interval(1)
        lo2, hi2 = index.interval(2)
        lo3, hi3 = index.interval(3)
        assert lo1 < lo2 < lo3 < hi3 < hi2 < hi1
        assert index.interval("missing") is None

    def test_attach_returns_exact_gained_pairs(self):
        index = build([(1, 2), (3, 4)])
        gained = index.attach(2, 3)
        # {2, 1} x {3, 4}
        assert sorted(gained) == [(1, 3), (1, 4), (2, 3), (2, 4)]
        assert set(index.pairs()) == closure([(1, 2), (3, 4), (2, 3)])
        assert index.attach(2, 3) == []  # already indexed: no-op

    def test_detach_splits_into_forest_and_stays_valid(self):
        edges = [(1, 2), (2, 3), (3, 4), (3, 5)]
        index = build(edges)
        lost = index.detach(2, 3)
        # {2, 1} x {3, 4, 5}
        assert sorted(lost) == [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]
        assert index.valid  # two trees now: still a forest
        assert set(index.pairs()) == closure([(1, 2), (3, 4), (3, 5)])
        assert index.level(3) == 0  # detached subtree re-rooted
        assert index.subtree_size(3) == 3

    def test_reattach_after_detach_same_run(self):
        edges = [(1, 2), (2, 3), (3, 4)]
        index = build(edges)
        index.detach(1, 2)
        # 2's subtree was detached with 3 and 4 still inside it, so
        # re-attaching 2 under its own descendant 4 would form a cycle.
        gained = index.attach(4, 2)
        assert gained is None  # cycle refused
        assert not index.valid
        assert index.rebuild([(1, 2), (2, 3), (3, 4)])
        index.detach(2, 3)
        gained = index.attach(1, 3)  # legal re-attach elsewhere
        assert sorted(gained) == [(1, 3), (1, 4)]
        assert set(index.pairs()) == closure([(1, 2), (1, 3), (3, 4)])

    @pytest.mark.parametrize(
        "edges",
        [
            [(1, 1)],  # self-loop
            [(1, 2), (3, 2)],  # second parent
            [(1, 2), (2, 3), (3, 1)],  # rootless cycle
        ],
    )
    def test_rebuild_refuses_non_forest(self, edges):
        index = IntervalHierarchyIndex()
        assert not index.rebuild(edges)
        assert not index.valid
        assert len(index) == 0 and index.edge_count == 0

    def test_attach_refuses_non_forest(self):
        index = build([(1, 2), (2, 3)])
        assert index.attach(4, 4) is None  # self-loop
        index = build([(1, 2), (2, 3)])
        assert index.attach(4, 3) is None  # second parent
        index = build([(1, 2), (2, 3)])
        assert index.attach(3, 1) is None  # cycle
        assert not index.valid

    def test_detach_unknown_edge_refuses(self):
        index = build([(1, 2)])
        assert index.detach(2, 1) is None

    def test_bool_int_conflation_matches_python_equality(self):
        # 1 == True in Python but the index must keep them distinct nodes,
        # exactly like relation rows do.
        index = build([(True, 1), (1, 0), (0, False)])
        assert set(index.pairs()) == closure([(True, 1), (1, 0), (0, False)])
        assert index.level(True) == 0 and index.level(False) == 3

    def test_gap_allocation_keeps_appends_cheap(self):
        # After a build every node's interval has GAP slack, so attaching
        # one fresh leaf under each existing node relabels nothing beyond
        # the leaf itself.
        index = build([(i, i + 1) for i in range(50)])
        for i in range(50):
            assert index.attach(i, 1000 + i) is not None
        assert index.renumbers == 0
        assert index.rebuilds == 1  # only the initial build

    def test_churn_threshold_triggers_rebuild(self):
        # Repeatedly moving a large subtree between two tiny anchors burns
        # label slack until cumulative churn crosses REBUILD_CHURN x nodes.
        index = build([(0, 1), (0, 2)] + [(3, i) for i in range(4, 30)])
        index.attach(1, 3)
        moves = 0
        while index.rebuilds < 2 and moves < 200:
            src, dst = (1, 2) if moves % 2 == 0 else (2, 1)
            assert index.detach(src, 3) is not None
            assert index.attach(dst, 3) is not None
            moves += 1
        assert index.rebuilds >= 2  # churn-triggered full relabel happened
        assert set(index.descendants(0)) == set(range(1, 30))

    def test_descendants_is_a_single_range_scan(self):
        index = build([(0, i) for i in range(1, 10)])
        before = index.scans
        index.descendants(0)
        assert index.scans == before + 1


class TestEngineWiring:
    def test_planner_detects_and_annotates_interval(self):
        compiled = compile_program(parse_program(TC_SOURCE))
        assert set(compiled.interval_specs) == {"tc"}
        spec = compiled.interval_specs["tc"]
        assert spec.edge == "edge"
        rendered = explain_program(compiled)
        assert "interval" in rendered

    def test_interval_knob_off_disables_detection(self):
        compiled = compile_program(parse_program(TC_SOURCE), interval=False)
        assert compiled.interval_specs == {}
        assert "interval" not in explain_program(compiled)

    def test_ineligible_shapes_not_detected(self):
        for source in (
            "tc(X, Y) :- edge(X, Y).",  # no recursive rule
            TC_SOURCE + "tc(X, X) :- node(X).",  # third rule
            # non-linear recursion
            "tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- tc(X, Y), tc(Y, Z).",
            # edge fed from the same stratum as the closure
            "edge(X, Y) :- tc(X, Y), flag(X).\n" + TC_SOURCE,
        ):
            compiled = compile_program(parse_program(source))
            assert compiled.interval_specs == {}, source

    def test_stats_counters_reported(self):
        engine = SemiNaiveEngine(parse_program(TC_SOURCE))
        engine.add_facts("edge", [(i, i + 1) for i in range(10)])
        engine.run()
        stats = engine.stats.as_dict()
        assert stats["interval_scans"] > 0
        assert "interval_renumbers" in stats
        table = format_stats_table({"cylog_engine": stats})
        assert "interval_scans" in table

    def test_forest_split_keeps_interval_path(self):
        engine = SemiNaiveEngine(parse_program(TC_SOURCE))
        engine.add_facts("edge", [(1, 2), (2, 3), (3, 4)])
        engine.run()
        scans = engine.stats.interval_scans
        engine.retract_facts("edge", [(2, 3)])
        result = engine.run()
        assert engine.stats.interval_scans > scans  # still interval-answered
        assert sorted(result.removed("tc"), key=repr) == [
            (1, 3),
            (1, 4),
            (2, 3),
            (2, 4),
        ]

    def test_non_forest_falls_back_and_recovers(self):
        program = parse_program(TC_SOURCE)
        engine = SemiNaiveEngine(program)
        engine.add_facts("edge", [(1, 2), (2, 3)])
        engine.run()
        engine.add_facts("edge", [(3, 1)])  # cycle
        cycled = engine.run()
        oracle = SemiNaiveEngine(program, interval=False)
        oracle.add_facts("edge", [(1, 2), (2, 3), (3, 1)])
        assert cycled.facts("tc") == oracle.run().facts("tc")
        engine.retract_facts("edge", [(3, 1)])  # heal
        scans = engine.stats.interval_scans
        healed = engine.run()
        assert engine.stats.interval_scans > scans  # path re-engaged
        assert healed.facts("tc") == frozenset({(1, 2), (1, 3), (2, 3)})
