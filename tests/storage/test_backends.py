"""Storage-backend contract: attach/adopt/restore, WAL mechanics and the
``open_database`` entry point."""

from __future__ import annotations

import json

import pytest

from repro.storage import (
    Column,
    ColumnType,
    Database,
    ForeignKey,
    SchemaError,
    TableSchema,
    dump_canonical,
    open_database,
)
from repro.storage.backends import WalBackend
from repro.storage.errors import StorageError


def _worker_schema() -> TableSchema:
    return TableSchema(
        "worker",
        [
            Column("id", ColumnType.TEXT),
            Column("skill", ColumnType.FLOAT),
            Column("tags", ColumnType.JSON, nullable=True),
        ],
        primary_key=("id",),
    )


def _relationship_schema() -> TableSchema:
    return TableSchema(
        "relationship",
        [
            Column("worker_id", ColumnType.TEXT),
            Column("task_id", ColumnType.TEXT),
            Column("status", ColumnType.TEXT),
            Column("updated_at", ColumnType.FLOAT),
        ],
        primary_key=("worker_id", "task_id"),
        foreign_keys=[ForeignKey(("worker_id",), "worker", ("id",))],
    )


def _drive(db: Database) -> None:
    db.create_table(_worker_schema())
    db.create_table(_relationship_schema())
    for i in range(8):
        db.insert("worker", {"id": f"w{i}", "skill": i / 10, "tags": ["a", i]})
    for i in range(8):
        db.insert(
            "relationship",
            {
                "worker_id": f"w{i}",
                "task_id": f"t{i % 3}",
                "status": "eligible",
                "updated_at": float(i),
            },
        )
    db.update("worker", ("w0",), {"skill": 0.99})
    db.update("relationship", ("w1", "t1"), {"status": "undertakes"})
    db.delete("relationship", ("w2", "t2"))
    db.begin()
    db.insert("worker", {"id": "tx", "skill": 0.1})
    db.rollback()


class TestRegistry:
    """The backend names ``open_database`` accepts: ``memory`` and ``wal``."""

    def test_every_registered_backend_resolves(self, tmp_path):
        memory = open_database()
        assert memory.backend is None  # in memory: no backend attached
        wal = open_database(tmp_path / "d", backend="wal")
        assert isinstance(wal.backend, WalBackend)
        wal.close()

    def test_unknown_backend_rejected(self, tmp_path):
        for name in ("etcd", "sqlite"):
            with pytest.raises(StorageError, match="unknown storage backend"):
                open_database(tmp_path / "x", backend=name)

    def test_memory_backend_takes_no_path(self, tmp_path):
        with pytest.raises(StorageError, match="no path"):
            open_database(tmp_path / "x", backend="memory")
        with pytest.raises(StorageError, match="no path or options"):
            open_database(backend="memory", compact_every=3)

    def test_durable_backends_require_path(self):
        with pytest.raises(StorageError, match="requires a path"):
            open_database(backend="wal")


class TestAttachHandshake:
    def test_attach_is_exclusive(self, tmp_path):
        db = Database(WalBackend(tmp_path / "a"))
        with pytest.raises(StorageError, match="already has"):
            db.attach_backend(WalBackend(tmp_path / "b"))
        db.close()

    def test_attach_inside_transaction_rejected(self, tmp_path):
        db = Database()
        db.begin()
        with pytest.raises(StorageError, match="transaction"):
            db.attach_backend(WalBackend(tmp_path / "a"))
        db.rollback()

    @pytest.mark.parametrize("name", ["wal"])
    def test_adopt_bootstraps_persistence(self, tmp_path, name):
        # A populated in-memory database gains durability after the fact:
        # attaching a fresh backend adopts the current contents as its
        # first snapshot — rows, insertion order and version counters.
        db = Database()
        _drive(db)
        target = tmp_path / "adopted"
        db.attach_backend(WalBackend(target))
        db.insert("worker", {"id": "late", "skill": 0.2})  # logged after adoption
        reference = dump_canonical(db)
        order = list(db.table("relationship")._rows)
        db.close()
        reopened = open_database(target, backend=name)
        assert dump_canonical(reopened) == reference
        assert list(reopened.table("relationship")._rows) == order
        assert reopened.counts() == {"worker": 9, "relationship": 7}
        reopened.close()

    def test_restore_into_populated_database_rejected(self, tmp_path):
        db = open_database(tmp_path / "d", backend="wal")
        db.create_table(_worker_schema())
        db.insert("worker", {"id": "w0", "skill": 0.5})
        db.close()
        populated = Database()
        populated.create_table(_worker_schema())
        # Restoring collides on the catalogue (same table name) or, with
        # disjoint names, trips the non-empty guard — either way it raises
        # instead of silently merging persisted and live state.
        with pytest.raises((StorageError, SchemaError)):
            populated.attach_backend(WalBackend(tmp_path / "d"))


class TestWalBackend:
    def test_round_trip_restores_versions_and_order(self, tmp_path):
        db = open_database(tmp_path / "d", backend="wal")
        _drive(db)
        reference = dump_canonical(db)
        versions = {n: db.table(n).version for n in db.table_names}
        order = list(db.table("relationship")._rows)
        db.close()
        reopened = open_database(tmp_path / "d", backend="wal")
        assert dump_canonical(reopened) == reference
        assert {n: reopened.table(n).version for n in reopened.table_names} == versions
        assert list(reopened.table("relationship")._rows) == order
        reopened.close()

    def test_compaction_preserves_state_and_truncates_log(self, tmp_path):
        db = open_database(tmp_path / "d", backend="wal", compact_every=5)
        _drive(db)
        reference = dump_canonical(db)
        assert (tmp_path / "d" / "snapshot" / "catalog.json").exists()
        # The log only holds the records since the last automatic compaction.
        wal_lines = (tmp_path / "d" / "wal.jsonl").read_text().splitlines()
        assert len(wal_lines) < 5
        db.close()
        reopened = open_database(tmp_path / "d", backend="wal")
        assert dump_canonical(reopened) == reference
        reopened.close()

    def test_explicit_compact_then_more_mutations(self, tmp_path):
        db = open_database(tmp_path / "d", backend="wal")
        db.create_table(_worker_schema())
        db.insert("worker", {"id": "w0", "skill": 0.5})
        db.backend.compact()
        db.insert("worker", {"id": "w1", "skill": 0.6})
        reference = dump_canonical(db)
        db.close()
        reopened = open_database(tmp_path / "d", backend="wal")
        assert dump_canonical(reopened) == reference
        reopened.close()

    def test_torn_tail_record_is_dropped(self, tmp_path):
        db = open_database(tmp_path / "d", backend="wal")
        db.create_table(_worker_schema())
        db.insert("worker", {"id": "w0", "skill": 0.5})
        committed = dump_canonical(db)
        db.backend.flush()
        wal = tmp_path / "d" / "wal.jsonl"
        with wal.open("a", encoding="utf-8") as handle:
            handle.write('{"lsn": 99, "op": "insert", "t": "worker", "ro')
        torn_size = wal.stat().st_size
        reopened = open_database(tmp_path / "d", backend="wal")
        assert dump_canonical(reopened) == committed
        assert wal.stat().st_size < torn_size  # tail truncated away
        reopened.close()

    def test_drop_table_survives_restart(self, tmp_path):
        db = open_database(tmp_path / "d", backend="wal")
        db.create_table(_worker_schema())
        db.create_table(_relationship_schema())
        db.drop_table("relationship")
        db.close()
        reopened = open_database(tmp_path / "d", backend="wal")
        assert reopened.table_names == ("worker",)
        reopened.close()

    def test_marker_mismatch_rejected(self, tmp_path):
        open_database(tmp_path / "d", backend="wal").close()
        with pytest.raises(StorageError, match="not a WAL"):
            (tmp_path / "d" / "backend.json").write_text(
                json.dumps({"backend": "other", "format_version": 1})
            )
            open_database(tmp_path / "d", backend="wal")

    def test_compact_every_validated(self, tmp_path):
        with pytest.raises(StorageError, match="compact_every"):
            WalBackend(tmp_path / "d", compact_every=0)

    def test_replace_moves_row_to_end_like_dict_reinsert(self, tmp_path):
        mem = Database()
        db = open_database(tmp_path / "d", backend="wal")
        for d in (mem, db):
            d.create_table(_worker_schema())
            for i in range(4):
                d.insert("worker", {"id": f"w{i}", "skill": 0.1})
            d.update("worker", ("w1",), {"skill": 0.9})
            d.update("worker", ("w2",), {"id": "w9"})  # primary-key move
        db.close()
        reopened = open_database(tmp_path / "d", backend="wal")
        assert list(reopened.table("worker")._rows) == list(mem.table("worker")._rows)
        reopened.close()


def _records_since_compact(target) -> int:
    db = open_database(target, backend="wal")
    count = db.backend.describe()["records_since_compact"]
    db.close()
    return count


class TestRecordsSinceCompact:
    """Recovery counts the log records it replays: after a reopen,
    ``records_since_compact`` equals the records written since the last
    compaction, so the auto-compaction cadence survives restarts."""

    def test_without_snapshot(self, tmp_path):
        db = open_database(tmp_path / "d", backend="wal")
        _drive(db)
        written = db.backend.describe()["records_since_compact"]
        assert written == len((tmp_path / "d" / "wal.jsonl").read_text().splitlines())
        db.close()
        assert not (tmp_path / "d" / "snapshot").exists()
        assert _records_since_compact(tmp_path / "d") == written

    def test_with_snapshot(self, tmp_path):
        db = open_database(tmp_path / "d", backend="wal")
        _drive(db)
        db.backend.compact()
        db.insert("worker", {"id": "a", "skill": 0.1})
        db.update("worker", ("a",), {"skill": 0.2})
        db.delete("worker", ("a",))
        assert db.backend.describe()["records_since_compact"] == 3
        db.close()
        assert _records_since_compact(tmp_path / "d") == 3

    def test_after_torn_tail(self, tmp_path):
        db = open_database(tmp_path / "d", backend="wal")
        db.create_table(_worker_schema())
        db.backend.compact()
        db.insert("worker", {"id": "w0", "skill": 0.5})
        db.insert("worker", {"id": "w1", "skill": 0.6})
        db.close()
        with (tmp_path / "d" / "wal.jsonl").open("a", encoding="utf-8") as handle:
            handle.write('{"lsn": 99, "op": "insert", "t": "worker", "ro')
        assert _records_since_compact(tmp_path / "d") == 2


class TestFkOrderRestore:
    @pytest.mark.parametrize("name", ["wal"])
    def test_fk_dependent_catalog_restores(self, tmp_path, name):
        # relationship references worker; restore must create worker first
        # even though catalogue iteration order could say otherwise.
        db = open_database(tmp_path / "d", backend=name)
        db.create_table(_worker_schema())
        db.create_table(_relationship_schema())
        db.insert("worker", {"id": "w0", "skill": 0.5})
        db.insert(
            "relationship",
            {
                "worker_id": "w0",
                "task_id": "t0",
                "status": "eligible",
                "updated_at": 0.0,
            },
        )
        reference = dump_canonical(db)
        db.close()
        reopened = open_database(tmp_path / "d", backend=name)
        assert dump_canonical(reopened) == reference
        with pytest.raises(SchemaError, match="referenced"):
            reopened.drop_table("worker")
        reopened.close()
