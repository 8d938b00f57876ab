"""Index-backed selections: ``Query.scan(...).where(col == literal)`` reads
one hash-index bucket instead of the table, and must return exactly the
scan's rows in the scan's order.

The oracle is the same predicate over ``Query.from_rows``, which has no
table and so always filters every row.  The work-bound tests pin that a
pushed-down selection evaluates its predicate on the bucket's rows only.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.relationships import RelationshipLedger
from repro.errors import ReproError
from repro.storage import Column, ColumnType, Database, Query, TableSchema, col, lit
from repro.storage.expr import Expr

#: Values that collide under hashing (1/True/1.0), NULL, and look-alikes.
VALUES = (0, 1, True, False, 1.0, 0.0, None, "1", "x")
#: Literals a predicate may compare with, unhashable ones included.
LITERALS = VALUES + ([1], {"k": 1}, (1,))
COLUMNS = ("a", "b", "u", "c")


def _schema() -> TableSchema:
    return TableSchema(
        "t",
        [
            Column("id", ColumnType.INT),
            Column("a", ColumnType.JSON, nullable=True),
            Column("b", ColumnType.TEXT, nullable=True),
            Column("u", ColumnType.INT, nullable=True),
            Column("c", ColumnType.JSON, nullable=True),
        ],
        primary_key=("id",),
        unique=(("u",),),
    )


#: Inserted rows take their op's position as ``id``; updates may move it.
rows = st.fixed_dictionaries(
    {
        "a": st.sampled_from(VALUES),
        "b": st.sampled_from(("x", "y", None)),
        # mostly NULL, which never conflicts, so rows accumulate
        "u": st.sampled_from((None, None, None, 0, 1, 2)),
        "c": st.sampled_from(VALUES + ([1], ["x"])),
    }
)
changes = st.fixed_dictionaries(
    {},
    optional={
        "id": st.integers(0, 40),
        "a": st.sampled_from(VALUES),
        "b": st.sampled_from(("x", "y", None)),
        # mostly 0 or 1, so updates often collide with a live row
        "u": st.sampled_from((0, 1, None)),
        "c": st.sampled_from(VALUES),
    },
)

#: (kind, payload), inserts drawn most; updates and deletes name a row by
#: position.  Updates that would duplicate ``id`` or ``u`` are refused.
ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), rows),
        st.tuples(st.just("insert"), rows),
        st.tuples(st.just("update"), st.tuples(st.integers(0, 20), changes)),
        st.tuples(st.just("update"), st.tuples(st.integers(0, 20), changes)),
        st.tuples(st.just("delete"), st.integers(0, 20)),
        st.tuples(st.sampled_from(("truncate", "begin", "commit", "rollback")), st.none()),
    ),
    min_size=10,
    max_size=40,
)


comparisons = st.one_of(
    st.builds(
        lambda c, v: col(c) == v, st.sampled_from(COLUMNS), st.sampled_from(LITERALS)
    ),
    st.builds(
        lambda c, v: lit(v) == col(c), st.sampled_from(COLUMNS), st.sampled_from(LITERALS)
    ),
    st.builds(
        lambda c, v: col(c) != v, st.sampled_from(COLUMNS), st.sampled_from(LITERALS)
    ),
    st.builds(
        lambda c, vs: col(c).in_(vs),
        st.sampled_from(COLUMNS),
        st.lists(st.sampled_from(LITERALS), max_size=3),
    ),
    st.builds(lambda c: col(c).is_null(), st.sampled_from(COLUMNS)),
)
predicates = st.recursive(
    comparisons,
    lambda inner: st.one_of(
        st.builds(lambda l, r: l & r, inner, inner),
        st.builds(lambda l, r: l | r, inner, inner),
        st.builds(lambda e: ~e, inner),
    ),
    max_leaves=5,
)
#: Mostly a bound index column up top, so most predicates push down.
pushable = st.one_of(
    predicates,
    st.builds(
        lambda v, rest: (col("a") == v) & rest, st.sampled_from(LITERALS), predicates
    ),
    st.builds(
        lambda a, b, rest: rest & (col("b") == b) & (col("a") == a),
        st.sampled_from(LITERALS),
        st.sampled_from(("x", "y", None)),
        predicates,
    ),
    st.builds(lambda u: col("u") == u, st.sampled_from((None, 0, 1, 2, True))),
)

#: One bare probe of every bucket each index can hold.
EVERY_BUCKET = (
    [col("a") == v for v in VALUES]
    + [(col("a") == v) & (col("b") == b) for v in VALUES for b in ("x", "y", None)]
    + [col("u") == u for u in (None, 0, 1, 2)]
)


def _apply(db: Database, op, step: int) -> None:
    kind, payload = op
    table = db.table("t")
    try:
        if kind == "insert":
            db.insert("t", {"id": step, **payload})
        elif kind in ("update", "delete"):
            pks = list(table.pks())
            if not pks:
                return
            position = payload[0] if kind == "update" else payload
            pk = pks[position % len(pks)]
            if kind == "update":
                db.update("t", pk, payload[1])
            else:
                db.delete("t", pk)
        elif kind == "truncate":
            table.truncate()
        elif kind == "begin" and not db.in_transaction:
            db.begin()
        elif kind == "commit" and db.in_transaction:
            db.commit()
        elif kind == "rollback" and db.in_transaction:
            db.rollback()
    except ReproError:
        pass  # duplicate keys are refused; the table stays consistent


@given(ops, st.integers(0, 40), st.lists(pushable, min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_pushdown_returns_the_scans_rows_in_scan_order(history, index_at, preds):
    db = Database()
    table = db.create_table(_schema())
    for step, op in enumerate(history):
        if step == index_at:
            table.create_index(("a",))
            table.create_index(("a", "b"))
        _apply(db, op, step)
    if index_at >= len(history):
        table.create_index(("a",))
        table.create_index(("a", "b"))
    oracle_rows = list(table.rows())
    for predicate in [*preds, *EVERY_BUCKET]:
        got = Query.scan(db, "t").where(predicate).execute()
        expected = Query.from_rows(oracle_rows).where(predicate).execute()
        # repr keeps 1, True and 1.0 apart, which dict equality does not
        assert repr(got) == repr(expected), predicate


def test_refused_update_keeps_bucket_order():
    """A unique-key refusal must not move the row's pk in any bucket."""
    db = Database()
    table = db.create_table(_schema())
    table.create_index(("a",))
    for row_id, u in ((1, 0), (2, 1), (3, 2)):
        db.insert("t", {"id": row_id, "a": "k", "u": u})
    with pytest.raises(ReproError):
        db.update("t", (1,), {"u": 2})
    got = Query.scan(db, "t").where(col("a") == "k").scalars("id")
    assert got == [1, 2, 3]


def _ledger(workers: int, tasks: int) -> Database:
    db = Database()
    ledger = RelationshipLedger(db)
    for t in range(tasks):
        for w in range(workers):
            ledger.mark_eligible(f"w{w:03d}", f"t{t:03d}")
    ledger.declare_interest("w007", "t003")
    return db


def _counting(predicate: Expr) -> tuple[Expr, list[int]]:
    calls = [0]
    evaluate = predicate.evaluate

    def counted(row):
        calls[0] += 1
        return evaluate(row)

    predicate.evaluate = counted  # shadows the method on this node only
    return predicate, calls


def test_worker_selection_evaluates_only_that_workers_rows():
    """50 workers x 20 tasks: a ``worker_id == w`` selection tests w's 20
    ledger rows, not all 1000."""
    db = _ledger(workers=50, tasks=20)
    predicate, calls = _counting(col("worker_id") == "w007")
    rows = db.query("relationship").where(predicate).project("task_id").execute()
    assert [row["task_id"] for row in rows] == [f"t{t:03d}" for t in range(20) if t != 3] + [
        "t003"
    ]  # t003's update moved it to the end of the table and of the bucket
    assert calls[0] == 20


def test_residual_conjuncts_filter_the_bucket():
    db = _ledger(workers=50, tasks=20)
    predicate, calls = _counting(
        (col("worker_id") == "w007") & col("status").in_(("interested", "undertakes"))
    )
    assert db.query("relationship").where(predicate).scalars("task_id") == ["t003"]
    assert calls[0] == 20


def test_selection_not_on_a_bare_scan_filters_every_row():
    db = _ledger(workers=8, tasks=4)
    predicate, calls = _counting(col("worker_id") == "w001")
    rows = db.query("relationship").order_by("task_id").where(predicate).execute()
    assert len(rows) == 4
    assert calls[0] == 32
