"""Support-index memory budget: bounded provenance, identical results.

A budgeted engine drops derivation records once the index reaches its
cap; correctness is preserved because dropped provenance can only make a
derived tuple wrongly *survive* a deletion — and the engine compensates
by recomputing degraded strata whenever removal work reaches them.  The
tests drive a budgeted and an unbudgeted engine through the same
add/retract churn and require identical snapshots throughout, while
asserting the budget actually bit (evictions observed, fallback
recomputes triggered, index size bounded).
"""

from __future__ import annotations

import pytest

from repro.config import RuntimeConfig
from repro.cylog import CyLogProcessor, SemiNaiveEngine, parse_program
from repro.cylog.incremental import SupportIndex

_PROGRAM = """
edge("a","b"). edge("b","c"). edge("c","d"). edge("d","e").
path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y), edge(Y,Z).
blocked(X) :- node(X), not path("a", X).
"""

_CHURN = [
    ("add", "edge", [("e", "f"), ("f", "g")]),
    ("add", "node", [("b",), ("g",), ("z",)]),
    ("retract", "edge", [("b", "c")]),
    ("add", "edge", [("b", "x"), ("x", "c")]),
    ("retract", "edge", [("a", "b")]),
    ("add", "edge", [("a", "b")]),
    ("retract", "edge", [("c", "d"), ("e", "f")]),
    ("retract", "node", [("z",)]),
]


def _drive(engine: SemiNaiveEngine) -> list[dict]:
    snapshots = [engine.run().relations]
    for kind, predicate, rows in _CHURN:
        if kind == "add":
            engine.add_facts(predicate, rows)
        else:
            engine.retract_facts(predicate, rows)
        snapshots.append(engine.run().relations)
    return snapshots


def _counted_supports(engine: SemiNaiveEngine) -> int:
    """The support count recomputed from the index's entries, independent
    of the running size the budget trusts."""
    return sum(len(keys) for keys in engine._supports._supports.values())


class TestSupportIndexBudget:
    def test_admission_cap_and_degradation(self):
        index = SupportIndex(budget=2)
        assert index.add("p", (1,), (0, ()))
        assert index.add("p", (2,), (0, ()))
        assert len(index) == 2
        assert not index.add("q", (3,), (0, ()))  # refused at budget
        assert index.evicted == 1
        assert index.degraded_any({"q"})
        assert not index.degraded_any({"p"})
        index.drop("p", (1,), (0, ()))
        assert len(index) == 1
        assert index.add("q", (3,), (0, ()))  # room again
        index.clear_degraded({"q"})
        assert not index.degraded_any({"q"})

    def test_discard_tuple_releases_budget(self):
        index = SupportIndex(budget=2)
        index.add("p", (1,), (0, (("b", (1,)),)))
        index.add("p", (1,), (1, (("b", (1,)),)))
        index.discard_tuple("p", (1,))
        assert len(index) == 0
        assert index.add("p", (2,), (0, ()))

    def test_duplicate_add_is_not_an_eviction(self):
        index = SupportIndex(budget=1)
        assert index.add("p", (1,), (0, ()))
        assert not index.add("p", (1,), (0, ()))  # duplicate, under budget
        assert index.evicted == 0


class TestBudgetedEngineLockstep:
    # Interval pinned off throughout: the ``path`` closure is
    # interval-eligible, and interval-owned rows carry no supports — the
    # budget these tests exist to exercise would never fill.
    def test_snapshots_identical_and_budget_bites(self):
        program = parse_program(_PROGRAM)
        reference = SemiNaiveEngine(program, interval=False)
        budgeted = SemiNaiveEngine(
            program, interval=False, support_budget=3
        )
        assert _drive(reference) == _drive(budgeted)
        assert budgeted.stats.supports_evicted > 0
        assert budgeted.stats.stratum_recomputes > 0
        assert reference.stats.supports_evicted == 0
        assert reference.stats.stratum_recomputes == 0
        # The invariant the budget exists for: bounded provenance.
        assert len(budgeted._supports) <= 3
        # The running size stays exact through the add/retract stream.
        for engine in (reference, budgeted):
            assert len(engine._supports) == _counted_supports(engine)
        assert len(reference._supports) > 3

    def test_zero_budget_disables_provenance_entirely(self):
        program = parse_program(_PROGRAM)
        reference = SemiNaiveEngine(program, interval=False)
        budgeted = SemiNaiveEngine(
            program, interval=False, support_budget=0
        )
        assert _drive(reference) == _drive(budgeted)
        assert len(budgeted._supports) == 0

    @pytest.mark.parametrize("budget", [1, 5, 25])
    def test_budget_sweep(self, budget):
        program = parse_program(_PROGRAM)
        reference = SemiNaiveEngine(program, interval=False)
        budgeted = SemiNaiveEngine(
            program, interval=False, support_budget=budget
        )
        assert _drive(reference) == _drive(budgeted)
        assert len(budgeted._supports) <= budget

    def test_full_run_resets_index_but_not_cumulative_evictions(self):
        program = parse_program(_PROGRAM)
        engine = SemiNaiveEngine(
            program, interval=False, support_budget=3
        )
        _drive(engine)
        evicted_before = engine.stats.supports_evicted
        assert evicted_before > 0
        engine.run(full=True)
        assert engine.stats.supports_evicted >= evicted_before

    def test_processor_level_budget(self):
        source = """
        open translate(seg: text, out: text) key (seg) asking "t {seg}".
        segment("a"). segment("b"). segment("c").
        translated(S, T) :- segment(S), translate(S, T).
        """
        unbudgeted = CyLogProcessor(source)
        budgeted = CyLogProcessor(source, config=RuntimeConfig(support_budget=1))
        for processor in (unbudgeted, budgeted):
            for seg in ("a", "b"):
                processor.supply_answer(
                    processor.request_for("translate", (seg,)), {"out": seg.upper()}
                )
        assert budgeted.facts("translated") == unbudgeted.facts("translated")
        assert budgeted.engine.stats.supports_evicted > 0
