"""Embedded relational storage engine.

This package is the data-management substrate of the Crowd4U reproduction:
the rules store, task pool, worker human-factor tables and task results all
live in :class:`~repro.storage.database.Database` relations, mirroring the
architecture of Figure 2 in the paper.

The engine is deliberately small but real: typed schemas, primary-key /
unique / foreign-key / not-null enforcement, hash and sorted secondary
indexes, a relational-algebra query builder (selection, projection, joins,
grouping/aggregation, ordering), undo-log transactions and an optional
write-ahead-logged durability mirror (:mod:`repro.storage.backends`).

Quick tour:

>>> from repro.storage import Column, ColumnType, Database, TableSchema, col
>>> db = Database()
>>> _ = db.create_table(TableSchema(
...     "worker",
...     [Column("id", ColumnType.TEXT), Column("skill", ColumnType.FLOAT)],
...     primary_key=("id",),
... ))
>>> _ = db.insert("worker", {"id": "w1", "skill": 0.9})
>>> db.query("worker").where(col("skill") > 0.5).execute()
[{'id': 'w1', 'skill': 0.9}]
"""

from repro.storage.backends import Mutation, open_database
from repro.storage.cache import CacheStats, QueryCache
from repro.storage.database import Database
from repro.storage.errors import (
    ConstraintViolation,
    DuplicateKeyError,
    ForeignKeyError,
    NotNullViolation,
    SchemaError,
    TypeMismatchError,
    UnknownColumnError,
    UnknownTableError,
)
from repro.storage.expr import Expr, col, lit
from repro.storage.persistence import dump_canonical
from repro.storage.query import Query
from repro.storage.schema import Column, ForeignKey, TableSchema
from repro.storage.table import Table
from repro.storage.types import ColumnType

__all__ = [
    "CacheStats",
    "Column",
    "ColumnType",
    "ConstraintViolation",
    "Database",
    "DuplicateKeyError",
    "Expr",
    "ForeignKey",
    "ForeignKeyError",
    "Mutation",
    "NotNullViolation",
    "Query",
    "QueryCache",
    "SchemaError",
    "Table",
    "TableSchema",
    "TypeMismatchError",
    "UnknownColumnError",
    "UnknownTableError",
    "col",
    "dump_canonical",
    "lit",
    "open_database",
]
