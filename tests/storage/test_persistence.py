"""Snapshot round-trips through the WAL backend's on-disk form.

Each test writes through a :class:`WalBackend`, compacts (so recovery
reads the ``snapshot/`` catalogue and row files, not just the log),
closes, and reopens.
"""

import json

import pytest

from repro.storage import (
    Column,
    ColumnType,
    Database,
    ForeignKey,
    TableSchema,
    dump_canonical,
    open_database,
)
from repro.storage.backends import WalBackend
from repro.storage.errors import SchemaError, StorageError
from repro.storage.persistence import schema_from_dict, topological_order


@pytest.fixture
def populated(tmp_path):
    db = Database(WalBackend(tmp_path / "snap"))
    db.create_table(TableSchema(
        "users",
        [Column("id", ColumnType.TEXT), Column("meta", ColumnType.JSON)],
        primary_key=("id",),
    ))
    db.create_table(TableSchema(
        "posts",
        [Column("id", ColumnType.INT), Column("author", ColumnType.TEXT)],
        primary_key=("id",),
        foreign_keys=[ForeignKey(("author",), "users", ("id",))],
    ))
    db.insert("users", {"id": "u1", "meta": {"langs": ["en", "fr"]}})
    db.insert("posts", {"id": 1, "author": "u1"})
    db.backend.compact()
    yield db
    db.close()


def _reopen(db: Database, tmp_path) -> Database:
    db.close()
    return open_database(tmp_path / "snap", backend="wal")


class TestRoundTrip:
    def test_rows_survive(self, populated, tmp_path):
        counts = populated.counts()
        loaded = _reopen(populated, tmp_path)
        assert loaded.counts() == counts
        assert loaded.table("users").get(("u1",))["meta"] == {"langs": ["en", "fr"]}
        loaded.close()

    def test_schema_survives(self, populated, tmp_path):
        loaded = _reopen(populated, tmp_path)
        schema = loaded.table("posts").schema
        assert schema.foreign_keys[0].ref_table == "users"
        assert schema.column("id").type is ColumnType.INT
        loaded.close()

    def test_fk_order_respected_on_load(self, populated, tmp_path):
        # posts reference users; restoring must create/insert users first
        # even though 'posts' sorts before 'users' alphabetically.
        reference = dump_canonical(populated)
        loaded = _reopen(populated, tmp_path)
        assert len(loaded.table("posts")) == 1
        assert dump_canonical(loaded) == reference
        loaded.close()

    def test_save_mutate_load_cached_query(self, populated, tmp_path):
        """snapshot → mutate → reopen → cached query: the recovered
        database serves the snapshot's rows plus the logged mutation, and
        its caching stays invalidation-correct through further mutations."""
        from repro.storage import col

        populated.insert("posts", {"id": 2, "author": "u1"})  # post-snapshot
        loaded = _reopen(populated, tmp_path)
        query = loaded.query("posts").where(col("author") == "u1").project("id")
        assert sorted(row["id"] for row in query.execute_cached()) == [1, 2]
        assert sorted(row["id"] for row in query.execute_cached()) == [1, 2]
        assert loaded.query_cache.stats.hits == 1
        loaded.insert("posts", {"id": 3, "author": "u1"})
        rows = sorted(row["id"] for row in query.execute_cached())
        assert rows == [1, 2, 3]  # the version bump invalidated the entry
        loaded.close()

    def test_snapshot_without_catalog_falls_back_to_old(self, populated, tmp_path):
        # A crash between compaction's two renames leaves ``snapshot/``
        # without a catalogue and the previous snapshot as
        # ``snapshot.old``; recovery must use the old one plus the log.
        populated.insert("posts", {"id": 2, "author": "u1"})
        reference = dump_canonical(populated)
        populated.close()
        root = tmp_path / "snap"
        (root / "snapshot").rename(root / "snapshot.old")
        (root / "snapshot").mkdir()
        loaded = open_database(root, backend="wal")
        assert dump_canonical(loaded) == reference
        loaded.close()

    def test_bad_version_rejected(self, populated, tmp_path):
        populated.close()
        marker = tmp_path / "snap" / "backend.json"
        info = json.loads(marker.read_text())
        info["format_version"] = 999
        marker.write_text(json.dumps(info))
        with pytest.raises(StorageError):
            open_database(tmp_path / "snap", backend="wal")

    def test_cyclic_fk_rejected_on_load(self):
        catalog = [
            {
                "name": "a",
                "columns": [{"name": "id", "type": "int"},
                            {"name": "b_ref", "type": "int"}],
                "primary_key": ["id"],
                "unique": [],
                "foreign_keys": [{"columns": ["b_ref"], "ref_table": "b",
                                  "ref_columns": ["id"]}],
            },
            {
                "name": "b",
                "columns": [{"name": "id", "type": "int"},
                            {"name": "a_ref", "type": "int"}],
                "primary_key": ["id"],
                "unique": [],
                "foreign_keys": [{"columns": ["a_ref"], "ref_table": "a",
                                  "ref_columns": ["id"]}],
            },
        ]
        with pytest.raises(SchemaError):
            topological_order([schema_from_dict(entry) for entry in catalog])
