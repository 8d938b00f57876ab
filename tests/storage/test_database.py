"""Database-level behaviour: catalogue, FKs, transactions."""

import pytest

from repro.storage import Column, ColumnType, Database, ForeignKey, TableSchema
from repro.storage.errors import (
    DuplicateKeyError,
    ForeignKeyError,
    NotNullViolation,
    SchemaError,
    StorageError,
    TransactionError,
    TypeMismatchError,
    UnknownColumnError,
    UnknownTableError,
)
from repro.storage.table import Table
from repro.storage.transactions import transaction


def _users_schema():
    return TableSchema(
        "users",
        [Column("id", ColumnType.TEXT), Column("name", ColumnType.TEXT)],
        primary_key=("id",),
    )


def _posts_schema():
    return TableSchema(
        "posts",
        [
            Column("id", ColumnType.INT),
            Column("author", ColumnType.TEXT),
            Column("editor", ColumnType.TEXT, nullable=True),
        ],
        primary_key=("id",),
        foreign_keys=[
            ForeignKey(("author",), "users", ("id",)),
            ForeignKey(("editor",), "users", ("id",)),
        ],
    )


@pytest.fixture
def linked_db():
    db = Database()
    db.create_table(_users_schema())
    db.create_table(_posts_schema())
    db.insert("users", {"id": "u1", "name": "Ann"})
    return db


class TestCatalogue:
    def test_duplicate_table_rejected(self, db):
        db.create_table(_users_schema())
        with pytest.raises(SchemaError):
            db.create_table(_users_schema())

    def test_unknown_table(self, db):
        with pytest.raises(UnknownTableError):
            db.table("nope")

    def test_fk_target_must_exist(self, db):
        with pytest.raises(SchemaError):
            db.create_table(_posts_schema())

    def test_drop_blocked_by_references(self, linked_db):
        with pytest.raises(SchemaError):
            linked_db.drop_table("users")

    def test_drop_works_in_dependency_order(self, linked_db):
        linked_db.drop_table("posts")
        linked_db.drop_table("users")
        assert linked_db.table_names == ()


class TestForeignKeys:
    def test_insert_checks_fk(self, linked_db):
        linked_db.insert("posts", {"id": 1, "author": "u1"})
        with pytest.raises(ForeignKeyError):
            linked_db.insert("posts", {"id": 2, "author": "ghost"})

    def test_null_fk_component_allowed(self, linked_db):
        linked_db.insert("posts", {"id": 1, "author": "u1", "editor": None})

    def test_update_checks_fk(self, linked_db):
        linked_db.insert("posts", {"id": 1, "author": "u1"})
        with pytest.raises(ForeignKeyError):
            linked_db.update("posts", (1,), {"author": "ghost"})

    def test_delete_blocked_while_referenced(self, linked_db):
        linked_db.insert("posts", {"id": 1, "author": "u1"})
        with pytest.raises(ForeignKeyError):
            linked_db.delete("users", ("u1",))

    def test_delete_after_referers_removed(self, linked_db):
        linked_db.insert("posts", {"id": 1, "author": "u1"})
        linked_db.delete("posts", (1,))
        linked_db.delete("users", ("u1",))
        assert len(linked_db.table("users")) == 0

    def test_pk_move_blocked_while_referenced(self, linked_db):
        linked_db.insert("posts", {"id": 1, "author": "u1"})
        with pytest.raises(ForeignKeyError):
            linked_db.update("users", ("u1",), {"id": "u2"})


class TestOneNormalisationPerWrite:
    """The Database validates a row once and hands it to the table."""

    def _counting(self, monkeypatch) -> list:
        calls = []
        normalise = Table._normalise

        def counted(table, values):
            calls.append(table.schema.name)
            return normalise(table, values)

        monkeypatch.setattr(Table, "_normalise", counted)
        return calls

    def test_insert_and_update_normalise_once(self, linked_db, monkeypatch):
        calls = self._counting(monkeypatch)
        linked_db.insert("posts", {"id": 1, "author": "u1"})
        assert calls == ["posts"]
        row = linked_db.update("posts", (1,), {"editor": "u1"})
        assert calls == ["posts", "posts"]
        assert row == {"id": 1, "author": "u1", "editor": "u1"}
        assert linked_db.table("posts").get((1,)) == row

    @pytest.mark.parametrize(
        "write, error",
        [
            (lambda db: db.insert("posts", {"id": 1, "author": "u1", "x": 0}),
             UnknownColumnError),
            (lambda db: db.insert("posts", {"id": "one", "author": "u1"}),
             TypeMismatchError),
            (lambda db: db.insert("posts", {"id": 1}), NotNullViolation),
            (lambda db: db.insert("posts", {"id": 1, "author": "ghost"}),
             ForeignKeyError),
            (lambda db: db.insert("users", {"id": "u1", "name": "Bo"}),
             DuplicateKeyError),
            (lambda db: db.insert("users", {"id": "u2", "name": "Ann"}),
             DuplicateKeyError),
            (lambda db: db.update("users", ("u1",), {"nick": "A"}),
             UnknownColumnError),
            (lambda db: db.update("users", ("u1",), {"name": None}),
             NotNullViolation),
            (lambda db: db.update("posts", (7,), {"author": "u1"}), StorageError),
        ],
    )
    def test_every_check_still_refuses(self, write, error):
        db = Database()
        users = _users_schema()
        db.create_table(
            TableSchema("users", users.columns, primary_key=("id",),
                        unique=[("name",)])
        )
        db.create_table(_posts_schema())
        db.insert("users", {"id": "u1", "name": "Ann"})
        def rows():
            return {name: list(db.table(name).rows()) for name in db.table_names}

        before = rows()
        with pytest.raises(error):
            write(db)
        assert rows() == before


class TestTransactions:
    def test_rollback_reverts_insert(self, linked_db):
        try:
            with transaction(linked_db):
                linked_db.insert("users", {"id": "u2", "name": "Bob"})
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert linked_db.table("users").get(("u2",)) is None

    def test_rollback_reverts_update_and_delete(self, linked_db):
        linked_db.insert("posts", {"id": 1, "author": "u1"})
        try:
            with transaction(linked_db):
                linked_db.update("users", ("u1",), {"name": "Changed"})
                linked_db.delete("posts", (1,))
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert linked_db.table("users").get(("u1",))["name"] == "Ann"
        assert linked_db.table("posts").get((1,))["author"] == "u1"

    def test_commit_keeps_changes(self, linked_db):
        with transaction(linked_db):
            linked_db.insert("users", {"id": "u2", "name": "Bob"})
        assert linked_db.table("users").get(("u2",))["name"] == "Bob"

    def test_nested_rollback_reverts_inner_commit(self, linked_db):
        try:
            with transaction(linked_db):
                with transaction(linked_db):
                    linked_db.insert("users", {"id": "u2", "name": "Bob"})
                raise RuntimeError("outer boom")
        except RuntimeError:
            pass
        assert linked_db.table("users").get(("u2",)) is None

    def test_commit_without_begin(self, db):
        with pytest.raises(TransactionError):
            db.commit()

    def test_rollback_without_begin(self, db):
        with pytest.raises(TransactionError):
            db.rollback()

    def test_rollback_restores_indexes(self, linked_db):
        table = linked_db.table("users")
        index = table.create_index(("name",))
        try:
            with transaction(linked_db):
                linked_db.insert("users", {"id": "u2", "name": "Bob"})
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert index.lookup("Bob") == set()
        assert index.lookup("Ann") == {("u1",)}

    def test_table_created_inside_transaction_gets_sink(self, db):
        db.begin()
        db.create_table(_users_schema())
        db.insert("users", {"id": "u1", "name": "Ann"})
        db.rollback()
        # the table survives (DDL is not transactional) but the row is gone
        assert len(db.table("users")) == 0

    def test_counts(self, linked_db):
        assert linked_db.counts() == {"users": 1, "posts": 0}
