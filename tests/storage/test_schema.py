"""Schema validation: columns, keys, constraints."""

import pytest

from repro.storage.errors import SchemaError, UnknownColumnError
from repro.storage.schema import Column, ForeignKey, TableSchema
from repro.storage.types import ColumnType


def _schema(**kwargs):
    base = dict(
        name="t",
        columns=[Column("id", ColumnType.INT), Column("x", ColumnType.TEXT)],
        primary_key=("id",),
    )
    base.update(kwargs)
    return TableSchema(base["name"], base["columns"], base["primary_key"],
                       base.get("unique", ()), base.get("foreign_keys", ()))


class TestColumn:
    def test_rejects_bad_name(self):
        with pytest.raises(SchemaError):
            Column("not a name", ColumnType.INT)

    def test_default_sentinel(self):
        assert not Column("a", ColumnType.INT).has_default
        assert Column("a", ColumnType.INT, default=None).has_default

    def test_callable_default_resolves(self):
        column = Column("a", ColumnType.INT, default=lambda: 42)
        assert column.resolve_default() == 42


class TestTableSchema:
    def test_requires_primary_key(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", ColumnType.INT)], primary_key=())

    def test_pk_must_exist(self):
        with pytest.raises(UnknownColumnError):
            _schema(primary_key=("missing",))

    def test_pk_not_nullable(self):
        with pytest.raises(SchemaError):
            TableSchema(
                "t",
                [Column("id", ColumnType.INT, nullable=True)],
                primary_key=("id",),
            )

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema(
                "t",
                [Column("a", ColumnType.INT), Column("a", ColumnType.TEXT)],
                primary_key=("a",),
            )

    def test_unique_columns_must_exist(self):
        with pytest.raises(UnknownColumnError):
            _schema(unique=[("missing",)])

    def test_empty_unique_rejected(self):
        with pytest.raises(SchemaError):
            _schema(unique=[()])

    def test_fk_arity_mismatch(self):
        with pytest.raises(SchemaError):
            ForeignKey(("a", "b"), "other", ("c",))

    def test_fk_columns_must_exist(self):
        with pytest.raises(UnknownColumnError):
            _schema(foreign_keys=[ForeignKey(("missing",), "other", ("id",))])

    def test_pk_tuple_extraction(self):
        schema = _schema()
        assert schema.pk_tuple({"id": 7, "x": "a"}) == (7,)

    def test_column_lookup(self):
        schema = _schema()
        assert schema.column("x").type is ColumnType.TEXT
        with pytest.raises(UnknownColumnError):
            schema.column("nope")

    def test_column_names_ordered(self):
        assert _schema().column_names == ("id", "x")
