"""The Eligible/InterestedIn/Undertakes ledger and its invariants."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.relationships import RelationshipLedger, RelationshipStatus
from repro.errors import RelationshipError
from repro.storage import Database


@pytest.fixture
def ledger(db):
    return RelationshipLedger(db)


class TestPaperInvariant:
    """'A (worker,task) pair can go into [Undertakes] only when the worker
    is Eligible for that task.'"""

    def test_undertake_requires_eligibility(self, ledger):
        with pytest.raises(RelationshipError, match="not eligible"):
            ledger.undertake("w", "t")

    def test_undertake_after_eligible(self, ledger):
        ledger.mark_eligible("w", "t")
        ledger.undertake("w", "t")
        assert ledger.status("w", "t") is RelationshipStatus.UNDERTAKES

    def test_undertake_after_interest(self, ledger):
        ledger.mark_eligible("w", "t")
        ledger.declare_interest("w", "t")
        ledger.undertake("w", "t")
        assert ledger.status("w", "t") is RelationshipStatus.UNDERTAKES

    def test_undertake_from_declined_rejected(self, ledger):
        ledger.mark_eligible("w", "t")
        ledger.decline("w", "t")
        with pytest.raises(RelationshipError):
            ledger.undertake("w", "t")

    def test_interest_requires_eligibility(self, ledger):
        with pytest.raises(RelationshipError, match="not eligible"):
            ledger.declare_interest("w", "t")


class TestTransitions:
    def test_eligible_idempotent(self, ledger):
        ledger.mark_eligible("w", "t")
        ledger.mark_eligible("w", "t")
        assert ledger.status("w", "t") is RelationshipStatus.ELIGIBLE

    def test_mark_eligible_does_not_demote(self, ledger):
        ledger.mark_eligible("w", "t")
        ledger.declare_interest("w", "t")
        ledger.mark_eligible("w", "t")  # no-op
        assert ledger.status("w", "t") is RelationshipStatus.INTERESTED

    def test_declined_can_reconsider(self, ledger):
        ledger.mark_eligible("w", "t")
        ledger.decline("w", "t")
        ledger.declare_interest("w", "t")
        assert ledger.status("w", "t") is RelationshipStatus.INTERESTED

    def test_undertakes_can_revert_to_interested(self, ledger):
        # team dissolution path (§2.2.1 re-execution)
        ledger.mark_eligible("w", "t")
        ledger.undertake("w", "t")
        ledger.declare_interest("w", "t")
        assert ledger.status("w", "t") is RelationshipStatus.INTERESTED

    def test_complete_requires_undertakes(self, ledger):
        ledger.mark_eligible("w", "t")
        with pytest.raises(RelationshipError):
            ledger.complete("w", "t")

    def test_completed_is_terminal(self, ledger):
        ledger.mark_eligible("w", "t")
        ledger.undertake("w", "t")
        ledger.complete("w", "t")
        with pytest.raises(RelationshipError):
            ledger.decline("w", "t")


class TestQueries:
    def test_workers_by_status(self, ledger):
        for worker in ("a", "b", "c"):
            ledger.mark_eligible(worker, "t1")
        ledger.declare_interest("a", "t1")
        assert ledger.interested_workers("t1") == ["a"]
        assert ledger.workers_with_status("t1", RelationshipStatus.ELIGIBLE) == [
            "b", "c",
        ]

    def test_eligible_workers_includes_rooted_states(self, ledger):
        ledger.mark_eligible("a", "t")
        ledger.mark_eligible("b", "t")
        ledger.declare_interest("b", "t")
        ledger.mark_eligible("c", "t")
        ledger.undertake("c", "t")
        assert ledger.eligible_workers("t") == ["a", "b", "c"]

    def test_tasks_for_worker(self, ledger):
        ledger.mark_eligible("w", "t1")
        ledger.mark_eligible("w", "t2")
        ledger.declare_interest("w", "t2")
        assert ledger.tasks_with_status("w", RelationshipStatus.INTERESTED) == ["t2"]

    def test_counts_for_task(self, ledger):
        ledger.mark_eligible("a", "t")
        ledger.mark_eligible("b", "t")
        ledger.declare_interest("a", "t")
        counts = ledger.counts_for_task("t")
        assert counts["eligible"] == 1 and counts["interested"] == 1

    def test_persistence_across_instances(self, db):
        first = RelationshipLedger(db)
        first.mark_eligible("w", "t")
        first.declare_interest("w", "t")
        second = RelationshipLedger(db)
        assert second.status("w", "t") is RelationshipStatus.INTERESTED


# -- property: arbitrary action sequences never break the paper invariant ----

actions = st.lists(
    st.tuples(
        st.sampled_from(["eligible", "interest", "undertake", "decline",
                         "complete"]),
        st.sampled_from(["w1", "w2"]),
        st.sampled_from(["t1", "t2"]),
    ),
    max_size=40,
)


@given(actions)
@settings(max_examples=60, deadline=None)
def test_ledger_never_reaches_undertakes_without_eligibility(sequence):
    """Fuzz the ledger: Undertakes is only reachable through Eligible."""
    ledger = RelationshipLedger(Database())
    ever_eligible: set[tuple[str, str]] = set()
    for action, worker, task in sequence:
        try:
            if action == "eligible":
                ledger.mark_eligible(worker, task)
                ever_eligible.add((worker, task))
            elif action == "interest":
                ledger.declare_interest(worker, task)
            elif action == "undertake":
                ledger.undertake(worker, task)
            elif action == "decline":
                ledger.decline(worker, task)
            else:
                ledger.complete(worker, task)
        except RelationshipError:
            continue
        if ledger.status(worker, task) is RelationshipStatus.UNDERTAKES:
            assert (worker, task) in ever_eligible


def _index_state(db: Database) -> dict:
    """Every secondary index of the three platform tables: its columns,
    uniqueness and buckets (in bucket order)."""
    state = {}
    for name in ("relationship", "task", "team"):
        table = db.table(name)
        for index in (*table._unique_indexes, *table._hash_indexes.values()):
            state[(name, index.columns, index.unique)] = {
                key: list(bucket) for key, bucket in index._buckets.items()
            }
    return state


def test_reopened_tables_rebuild_their_indexes(tmp_path):
    """Indexes are not persisted: ledger, pool and registry must rebuild
    theirs over a reopened WAL database, or every lookup and index-backed
    query silently scans."""
    from repro.core.tasks import TaskKind, TaskPool
    from repro.core.teams import TeamRegistry
    from repro.storage import open_database

    def platform_tables(db: Database) -> None:
        RelationshipLedger(db)
        TaskPool(db)
        TeamRegistry(db)

    db = open_database(tmp_path / "wal", backend="wal")
    ledger = RelationshipLedger(db)
    pool = TaskPool(db)
    teams = TeamRegistry(db)
    task = pool.create("p1", TaskKind.OPEN_FILL, "write")
    for worker in ("w1", "w2", "w3"):
        ledger.mark_eligible(worker, task.id)
    ledger.declare_interest("w2", task.id)
    teams.propose(task.id, ("w2",), 0.5, "greedy", 0.0, None)
    before = _index_state(db)
    db.close()

    reopened = open_database(tmp_path / "wal", backend="wal")
    platform_tables(reopened)
    fresh = Database()
    platform_tables(fresh)
    assert set(_index_state(reopened)) == set(_index_state(fresh)) == set(before)
    assert _index_state(reopened) == before
    reopened.close()
