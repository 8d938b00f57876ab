"""Table-level integrity: PK, unique, not-null, defaults, indexes."""

import pytest

from repro.storage import Column, ColumnType, TableSchema
from repro.storage.errors import (
    DuplicateKeyError,
    NotNullViolation,
    StorageError,
    TypeMismatchError,
    UnknownColumnError,
)
from repro.storage.table import Table


@pytest.fixture
def table(worker_table_schema) -> Table:
    return Table(worker_table_schema)


class TestInsert:
    def test_insert_returns_copy(self, table):
        row = table.insert({"id": "a", "age": 30})
        row["age"] = 99
        assert table.get(("a",))["age"] == 30

    def test_defaults_applied(self, table):
        row = table.insert({"id": "a", "age": 30})
        assert row["active"] is True

    def test_nullable_defaults_to_none(self, table):
        assert table.insert({"id": "a", "age": 1})["score"] is None

    def test_duplicate_pk_rejected(self, table):
        table.insert({"id": "a", "age": 1})
        with pytest.raises(DuplicateKeyError):
            table.insert({"id": "a", "age": 2})

    def test_not_null_enforced(self, table):
        with pytest.raises(NotNullViolation):
            table.insert({"id": "a", "age": None})

    def test_missing_required_column(self, table):
        with pytest.raises(NotNullViolation):
            table.insert({"id": "a"})

    def test_unknown_column_rejected(self, table):
        with pytest.raises(UnknownColumnError):
            table.insert({"id": "a", "age": 1, "bogus": 2})

    def test_type_coercion(self, table):
        row = table.insert({"id": "a", "age": 1, "score": 3})
        assert isinstance(row["score"], float)

    def test_type_mismatch_rejected(self, table):
        with pytest.raises(TypeMismatchError):
            table.insert({"id": "a", "age": "thirty"})


class TestUniqueConstraint:
    def test_unique_enforced(self):
        schema = TableSchema(
            "u",
            [Column("id", ColumnType.INT), Column("email", ColumnType.TEXT)],
            primary_key=("id",),
            unique=[("email",)],
        )
        table = Table(schema)
        table.insert({"id": 1, "email": "a@x"})
        with pytest.raises(DuplicateKeyError):
            table.insert({"id": 2, "email": "a@x"})

    def test_null_never_conflicts(self):
        schema = TableSchema(
            "u",
            [Column("id", ColumnType.INT),
             Column("email", ColumnType.TEXT, nullable=True)],
            primary_key=("id",),
            unique=[("email",)],
        )
        table = Table(schema)
        table.insert({"id": 1, "email": None})
        table.insert({"id": 2, "email": None})  # no conflict
        assert len(table) == 2

    def test_failed_insert_leaves_indexes_clean(self):
        schema = TableSchema(
            "u",
            [Column("id", ColumnType.INT), Column("email", ColumnType.TEXT)],
            primary_key=("id",),
            unique=[("email",)],
        )
        table = Table(schema)
        table.insert({"id": 1, "email": "a@x"})
        with pytest.raises(DuplicateKeyError):
            table.insert({"id": 2, "email": "a@x"})
        table.insert({"id": 2, "email": "b@x"})  # id=2 must still be insertable
        assert len(table) == 2


class TestUpdateDelete:
    def test_update_changes_row(self, table):
        table.insert({"id": "a", "age": 1})
        updated = table.update(("a",), {"age": 2})
        assert updated["age"] == 2
        assert table.get(("a",))["age"] == 2

    def test_update_missing_row(self, table):
        with pytest.raises(StorageError):
            table.update(("zzz",), {"age": 2})

    def test_update_can_move_pk(self, table):
        table.insert({"id": "a", "age": 1})
        table.update(("a",), {"id": "b"})
        assert table.get(("a",)) is None
        assert table.get(("b",))["age"] == 1

    def test_update_pk_collision_rejected(self, table):
        table.insert({"id": "a", "age": 1})
        table.insert({"id": "b", "age": 2})
        with pytest.raises(DuplicateKeyError):
            table.update(("a",), {"id": "b"})
        assert table.get(("a",))["age"] == 1  # untouched

    def test_delete_returns_row(self, table):
        table.insert({"id": "a", "age": 5})
        assert table.delete(("a",))["age"] == 5
        assert table.get(("a",)) is None

    def test_delete_missing_raises(self, table):
        with pytest.raises(StorageError):
            table.delete(("a",))

    def test_truncate(self, table):
        table.insert({"id": "a", "age": 1})
        table.insert({"id": "b", "age": 2})
        assert table.truncate() == 2
        assert len(table) == 0


class TestIndexes:
    def test_lookup_without_index_scans(self, table):
        table.insert({"id": "a", "age": 30})
        table.insert({"id": "b", "age": 30})
        table.insert({"id": "c", "age": 31})
        assert {r["id"] for r in table.lookup(("age",), (30,))} == {"a", "b"}

    def test_index_used_and_maintained(self, table):
        index = table.create_index(("age",))
        table.insert({"id": "a", "age": 30})
        table.insert({"id": "b", "age": 30})
        assert index.lookup(30) == {("a",), ("b",)}
        table.update(("a",), {"age": 31})
        assert index.lookup(30) == {("b",)}
        table.delete(("b",))
        assert index.lookup(30) == set()

    def test_index_built_over_existing_rows(self, table):
        table.insert({"id": "a", "age": 30})
        index = table.create_index(("age",))
        assert index.lookup(30) == {("a",)}

    def test_create_index_idempotent(self, table):
        assert table.create_index(("age",)) is table.create_index(("age",))

    def test_rows_iteration_gives_copies(self, table):
        table.insert({"id": "a", "age": 1})
        for row in table.rows():
            row["age"] = 99
        assert table.get(("a",))["age"] == 1
