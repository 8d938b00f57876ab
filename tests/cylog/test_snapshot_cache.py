"""Cached relation snapshots: results stay true snapshots, clean runs copy
nothing, and incremental runs copy only the relations they changed.
"""

from __future__ import annotations

from repro.cylog import CyLogProcessor, SemiNaiveEngine, parse_program

PROGRAM = parse_program(
    """
    reach(X, Y) :- edge(X, Y).
    reach(X, Z) :- edge(X, Y), reach(Y, Z).
    isolated(X) :- node(X), not has_edge(X).
    has_edge(X) :- edge(X, _).
    degree(X, count<Y>) :- edge(X, Y).
    """
)

def _engine() -> SemiNaiveEngine:
    engine = SemiNaiveEngine(PROGRAM)
    engine.add_facts("node", [(n,) for n in range(8)])
    engine.add_facts("edge", [(0, 1), (1, 2), (2, 3), (4, 5)])
    return engine


def _frozen(result) -> dict[str, set]:
    return {name: set(rows) for name, rows in result.relations.items()}


def test_held_result_survives_later_runs():
    engine = _engine()
    held = engine.run()
    contents = _frozen(held)
    engine.add_facts("edge", [(3, 4), (6, 7)])
    engine.retract_facts("edge", [(0, 1)])
    engine.add_facts("node", [(9,)])
    later = engine.run()
    assert later.changed_predicates()
    assert _frozen(held) == contents
    assert later.facts("reach") != held.facts("reach")
    # The retracted and the added rows move the later result only.
    assert (0, 1) in held.facts("edge") and (0, 1) not in later.facts("edge")
    assert (6, 7) not in held.facts("edge") and (6, 7) in later.facts("edge")
    # A run that only retracts must rebuild the snapshots it shrank.
    held_later = _frozen(later)
    engine.retract_facts("edge", [(6, 7)])
    last = engine.run()
    assert (6, 7) not in last.facts("edge")
    assert (6, 7) not in last.facts("reach")
    assert _frozen(later) == held_later


def test_clean_runs_share_snapshots():
    engine = _engine()
    engine.run()
    first = engine.run()
    second = engine.run()
    assert first.relations.keys() == second.relations.keys()
    for name, rows in first.relations.items():
        assert second.relations[name] is rows
        assert engine.facts(name) is rows
    # An incremental run replaces exactly the relations it changed.
    engine.add_facts("node", [(8,)])
    third = engine.run()
    for name, rows in second.relations.items():
        if name in third.changed_predicates():
            assert third.relations[name] is not rows
        else:
            assert third.relations[name] is rows


def test_tuples_copied_counts_only_changed_relations():
    engine = _engine()
    engine.run()
    copied = engine.stats.tuples_copied
    assert copied > 0  # the first run copies the whole fixpoint
    engine.run()
    engine.facts("reach")
    engine.store.snapshot()
    assert engine.stats.tuples_copied == copied
    engine.add_facts("edge", [(5, 6)])
    engine.retract_facts("edge", [(2, 3)])
    result = engine.run()
    changed = result.changed_predicates()
    step = engine.stats.tuples_copied - copied
    assert 0 < step <= sum(result.count(name) for name in changed)
    assert "node" not in changed


def test_processor_reads_copy_nothing():
    processor = CyLogProcessor(
        """
        open translate(seg: text, out: text) key (seg) asking "Translate {seg}".
        segment("s1"). segment("s2").
        translated(S, T) :- segment(S), translate(S, T).
        """
    )
    processor.pending_requests()
    copied = processor.stats.tuples_copied
    processor.pending_requests()
    processor.request_for("translate", ("s1",))
    processor.facts("segment")
    processor.facts("translated")
    assert processor.stats.tuples_copied == copied
    processor.supply_answer(
        processor.request_for("translate", ("s1",)), {"out": "S1"}
    )
    assert processor.facts("translated") == {("s1", "S1")}
    # Two changed relations of one row each; "segment" is not copied again.
    assert processor.stats.tuples_copied - copied == 2
