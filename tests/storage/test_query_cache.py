"""Table versions, secondary-index consistency through rollback, and the
invalidation-correct query/result cache."""

from __future__ import annotations

import pytest

from repro.storage import (
    Column,
    ColumnType,
    Database,
    Query,
    QueryCache,
    TableSchema,
    col,
)


def _make_db() -> Database:
    db = Database()
    db.create_table(
        TableSchema(
            "item",
            [
                Column("id", ColumnType.TEXT),
                Column("color", ColumnType.TEXT),
                Column("size", ColumnType.INT),
            ],
            primary_key=("id",),
        )
    )
    return db


@pytest.fixture
def db() -> Database:
    return _make_db()


class TestTableVersions:
    def test_every_mutation_bumps(self, db):
        table = db.table("item")
        v0 = table.version
        db.insert("item", {"id": "a", "color": "red", "size": 1})
        v1 = table.version
        db.update("item", ("a",), {"size": 2})
        v2 = table.version
        db.delete("item", ("a",))
        v3 = table.version
        assert v0 < v1 < v2 < v3

    def test_rollback_bumps_version(self, db):
        """The undo path must advance versions too, or caches would serve
        pre-rollback results as current."""
        table = db.table("item")
        db.insert("item", {"id": "a", "color": "red", "size": 1})
        before = table.version
        db.begin()
        db.update("item", ("a",), {"color": "blue"})
        db.rollback()
        assert table.version > before

    def test_truncate_with_indexes(self, db):
        """Regression: truncate used to raise AttributeError on any table
        with a hash index (MultiKeyHashIndex had no ``clear``)."""
        table = db.table("item")
        hash_index = table.create_index(("color",))
        db.insert("item", {"id": "a", "color": "red", "size": 1})
        db.insert("item", {"id": "b", "color": "red", "size": 2})
        before = table.version
        assert table.truncate() == 2
        assert table.version > before
        assert len(table) == 0
        assert hash_index.lookup("red") == set()


class TestIndexRollbackSync:
    def test_pk_change_update_rolls_back_indexes(self, db):
        """Satellite regression: update the PK and an indexed column inside
        a transaction, roll back, and query through the index."""
        table = db.table("item")
        index = table.create_index(("color",))
        db.insert("item", {"id": "a", "color": "red", "size": 1})
        db.begin()
        db.update("item", ("a",), {"id": "b", "color": "blue"})
        assert index.lookup("blue") == {("b",)}
        db.rollback()
        assert index.lookup("red") == {("a",)}
        assert index.lookup("blue") == set()
        assert table.lookup(("color",), ("red",)) == [
            {"id": "a", "color": "red", "size": 1}
        ]

    def test_delete_rollback_restores_index(self, db):
        table = db.table("item")
        index = table.create_index(("color",))
        db.insert("item", {"id": "a", "color": "red", "size": 1})
        db.begin()
        db.delete("item", ("a",))
        assert index.lookup("red") == set()
        db.rollback()
        assert index.lookup("red") == {("a",)}


class TestQueryCache:
    def _query(self, db) -> Query:
        return (
            db.query("item")
            .where(col("color") == "red")
            .order_by("id")
            .project("id", "size")
        )

    def test_hit_after_miss(self, db):
        db.insert("item", {"id": "a", "color": "red", "size": 1})
        stats = db.query_cache.stats
        assert self._query(db).execute_cached() == [{"id": "a", "size": 1}]
        assert (stats.misses, stats.hits) == (1, 0)
        assert self._query(db).execute_cached() == [{"id": "a", "size": 1}]
        assert (stats.misses, stats.hits) == (1, 1)

    def test_mutation_invalidates(self, db):
        db.insert("item", {"id": "a", "color": "red", "size": 1})
        self._query(db).execute_cached()
        db.insert("item", {"id": "b", "color": "red", "size": 2})
        result = self._query(db).execute_cached()
        assert [r["id"] for r in result] == ["a", "b"]
        assert db.query_cache.stats.invalidations == 1

    def test_rollback_invalidates(self, db):
        db.insert("item", {"id": "a", "color": "red", "size": 1})
        db.begin()
        db.insert("item", {"id": "b", "color": "red", "size": 2})
        assert len(self._query(db).execute_cached()) == 2
        db.rollback()
        assert [r["id"] for r in self._query(db).execute_cached()] == ["a"]

    def test_returned_rows_are_copies(self, db):
        db.insert("item", {"id": "a", "color": "red", "size": 1})
        first = self._query(db).execute_cached()
        first[0]["size"] = 999
        assert self._query(db).execute_cached()[0]["size"] == 1

    def test_join_invalidated_by_either_side(self, db):
        db.create_table(
            TableSchema(
                "stock",
                [Column("item_id", ColumnType.TEXT), Column("qty", ColumnType.INT)],
                primary_key=("item_id",),
            )
        )
        db.insert("item", {"id": "a", "color": "red", "size": 1})
        db.insert("stock", {"item_id": "a", "qty": 3})

        def joined():
            return (
                db.query("item")
                .join(db.query("stock"), on=(("id", "item_id"),))
                .order_by("id")
                .execute_cached()
            )

        assert joined()[0]["qty"] == 3
        hits_before = db.query_cache.stats.hits
        joined()
        assert db.query_cache.stats.hits == hits_before + 1
        db.update("stock", ("a",), {"qty": 7})  # right side only
        assert joined()[0]["qty"] == 7

    def test_equivalent_exprs_share_an_entry(self, db):
        db.insert("item", {"id": "a", "color": "red", "size": 1})
        q1 = db.query("item").where(col("size") > 0)
        q2 = db.query("item").where(col("size") > 0)  # distinct Expr objects
        q1.execute_cached()
        q2.execute_cached()
        assert db.query_cache.stats.hits == 1

    def test_from_rows_bypasses_cache(self, db):
        query = Query.from_rows([{"x": 1}, {"x": 2}])
        assert not query.cacheable
        assert query.execute_cached() == [{"x": 1}, {"x": 2}]
        assert db.query_cache.stats.fetches == 0

    def test_opaque_callables_key_by_identity(self, db):
        db.insert("item", {"id": "a", "color": "red", "size": 1})

        def red(row):
            return row["color"] == "red"

        db.query("item").where(red).execute_cached()
        db.query("item").where(red).execute_cached()
        assert db.query_cache.stats.hits == 1
        # A different function object is a different plan.
        db.query("item").where(lambda row: row["color"] == "red").execute_cached()
        assert db.query_cache.stats.misses == 2

    def test_aggregate_pipeline_is_cacheable(self, db):
        db.insert("item", {"id": "a", "color": "red", "size": 1})
        db.insert("item", {"id": "b", "color": "red", "size": 3})

        def grouped():
            return (
                db.query("item")
                .group_by("color")
                .aggregate(n=("count", None), total=("sum", "size"))
                .execute_cached()
            )

        assert grouped() == [{"color": "red", "n": 2, "total": 4}]
        grouped()
        assert db.query_cache.stats.hits == 1

    def test_lru_eviction(self):
        cache = QueryCache(maxsize=2)
        db = _make_db()
        db.query_cache = cache
        db.insert("item", {"id": "a", "color": "red", "size": 1})
        for color in ("c0", "c1", "c2"):
            db.query("item").where(col("color") == color).execute_cached()
        assert len(cache) == 2
        assert cache.stats.evictions == 1

    def test_drop_and_recreate_does_not_serve_stale_rows(self):
        """Version counters restart at zero on recreation; drop_table must
        flush the cache so same-plan/same-version entries cannot collide."""
        db = _make_db()
        for i in range(3):
            db.insert("item", {"id": f"a{i}", "color": "red", "size": i})
        old = db.query("item").order_by("id").execute_cached()
        assert len(old) == 3
        db.drop_table("item")
        db.create_table(
            TableSchema(
                "item",
                [
                    Column("id", ColumnType.TEXT),
                    Column("color", ColumnType.TEXT),
                    Column("size", ColumnType.INT),
                ],
                primary_key=("id",),
            )
        )
        for i in range(3):
            db.insert("item", {"id": f"b{i}", "color": "blue", "size": i})
        fresh = db.query("item").order_by("id").execute_cached()
        assert [r["id"] for r in fresh] == ["b0", "b1", "b2"]
