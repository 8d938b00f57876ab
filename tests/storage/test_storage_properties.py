"""Property-based storage-engine invariants (hypothesis)."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.storage import (
    Column,
    ColumnType,
    Database,
    TableSchema,
    dump_canonical,
    open_database,
)
from repro.storage.table import Table

ids = st.integers(min_value=0, max_value=30)
texts = st.text(alphabet="abcdef ", max_size=8)


def _schema() -> TableSchema:
    return TableSchema(
        "t",
        [
            Column("id", ColumnType.INT),
            Column("name", ColumnType.TEXT),
            Column("score", ColumnType.FLOAT, nullable=True),
        ],
        primary_key=("id",),
    )


#: op = (kind, id, name) — applied in order, duplicates/missing ignored.
operations = st.lists(
    st.tuples(st.sampled_from(["insert", "update", "delete"]), ids, texts),
    max_size=60,
)


@given(operations)
@settings(max_examples=60, deadline=None)
def test_table_matches_model_dict(ops):
    """The table behaves exactly like a dict keyed by primary key."""
    table = Table(_schema())
    model: dict[int, str] = {}
    for kind, row_id, name in ops:
        if kind == "insert":
            if row_id in model:
                continue
            table.insert({"id": row_id, "name": name})
            model[row_id] = name
        elif kind == "update":
            if row_id not in model:
                continue
            table.update((row_id,), {"name": name})
            model[row_id] = name
        else:
            if row_id not in model:
                continue
            table.delete((row_id,))
            del model[row_id]
    assert len(table) == len(model)
    for row_id, name in model.items():
        assert table.get((row_id,))["name"] == name


@given(operations)
@settings(max_examples=40, deadline=None)
def test_index_agrees_with_scan(ops):
    """Index lookups always equal a full scan's answer."""
    table = Table(_schema())
    index = table.create_index(("name",))
    seen: set[int] = set()
    for kind, row_id, name in ops:
        if kind == "insert" and row_id not in seen:
            table.insert({"id": row_id, "name": name})
            seen.add(row_id)
        elif kind == "update" and row_id in seen:
            table.update((row_id,), {"name": name})
        elif kind == "delete" and row_id in seen:
            table.delete((row_id,))
            seen.discard(row_id)
    names = {row["name"] for row in table.rows()}
    for name in names:
        scan = {row["id"] for row in table.rows() if row["name"] == name}
        via_index = {pk[0] for pk in index.lookup(name)}
        assert via_index == scan


@given(
    st.lists(
        st.tuples(ids, texts, st.one_of(st.none(), st.floats(
            min_value=-100, max_value=100, allow_nan=False))),
        max_size=25,
        unique_by=lambda t: t[0],
    )
)
@settings(max_examples=40, deadline=None)
def test_persistence_roundtrip(rows):
    """WAL snapshot → reopen preserves every row and every type."""
    import shutil
    import tempfile

    target = tempfile.mkdtemp(prefix="repro-snap-")
    try:
        db = open_database(target, backend="wal")
        db.create_table(_schema())
        for row_id, name, score in rows:
            db.insert("t", {"id": row_id, "name": name, "score": score})
        db.backend.compact()
        reference = dump_canonical(db)
        db.close()
        loaded = open_database(target, backend="wal")
        assert dump_canonical(loaded) == reference
        loaded.close()
    finally:
        shutil.rmtree(target)


@given(operations)
@settings(max_examples=40, deadline=None)
def test_transaction_rollback_is_identity(ops):
    """A rolled-back batch leaves the table exactly as before."""
    table_db = Database()
    table_db.create_table(_schema())
    for row_id in range(5):
        table_db.insert("t", {"id": row_id, "name": "base"})
    before = sorted(table_db.table("t").rows(), key=lambda r: r["id"])
    table_db.begin()
    seen = {row["id"] for row in before}
    for kind, row_id, name in ops:
        if kind == "insert" and row_id not in seen:
            table_db.insert("t", {"id": row_id, "name": name})
            seen.add(row_id)
        elif kind == "update" and row_id in seen:
            table_db.update("t", (row_id,), {"name": name})
        elif kind == "delete" and row_id in seen:
            table_db.delete("t", (row_id,))
            seen.discard(row_id)
    table_db.rollback()
    after = sorted(table_db.table("t").rows(), key=lambda r: r["id"])
    assert before == after
