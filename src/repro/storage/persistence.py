"""Catalogue serialisation and the canonical dump.

:func:`schema_to_dict` / :func:`schema_from_dict` are the JSON form of a
table schema, used by the WAL backend's snapshot catalogue and its
``create_table`` records; :func:`topological_order` orders a restored
catalogue so every foreign-key target exists before its referrer; and
:func:`dump_canonical` is the byte-equality yardstick every durability
test compares against.  The on-disk layout itself belongs to
:mod:`repro.storage.backends.wal`.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from repro.storage.errors import SchemaError
from repro.storage.schema import NO_DEFAULT, Column, ForeignKey, TableSchema
from repro.storage.types import ColumnType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.database import Database

_FORMAT_VERSION = 1


def schema_to_dict(schema: TableSchema) -> dict[str, Any]:
    columns = []
    for column in schema.columns:
        entry: dict[str, Any] = {
            "name": column.name,
            "type": column.type.value,
            "nullable": column.nullable,
        }
        if column.has_default and not callable(column.default):
            entry["default"] = column.default
        columns.append(entry)
    return {
        "name": schema.name,
        "columns": columns,
        "primary_key": list(schema.primary_key),
        "unique": [list(u) for u in schema.unique],
        "foreign_keys": [
            {
                "columns": list(fk.columns),
                "ref_table": fk.ref_table,
                "ref_columns": list(fk.ref_columns),
            }
            for fk in schema.foreign_keys
        ],
    }


def schema_from_dict(payload: dict[str, Any]) -> TableSchema:
    columns = [
        Column(
            name=entry["name"],
            type=ColumnType(entry["type"]),
            nullable=entry.get("nullable", False),
            default=entry.get("default", NO_DEFAULT),
        )
        for entry in payload["columns"]
    ]
    foreign_keys = [
        ForeignKey(
            columns=tuple(fk["columns"]),
            ref_table=fk["ref_table"],
            ref_columns=tuple(fk["ref_columns"]),
        )
        for fk in payload.get("foreign_keys", [])
    ]
    return TableSchema(
        payload["name"],
        columns,
        primary_key=tuple(payload["primary_key"]),
        unique=[tuple(u) for u in payload.get("unique", [])],
        foreign_keys=foreign_keys,
    )


def topological_order(schemas: list[TableSchema]) -> list[TableSchema]:
    """Order schemas so every FK target precedes its referrer."""
    by_name = {schema.name: schema for schema in schemas}
    ordered: list[TableSchema] = []
    state: dict[str, str] = {}  # name -> "visiting" | "done"

    def visit(name: str) -> None:
        status = state.get(name)
        if status == "done":
            return
        if status == "visiting":
            raise SchemaError(f"cyclic foreign keys involving table {name!r}")
        state[name] = "visiting"
        for fk in by_name[name].foreign_keys:
            if fk.ref_table in by_name and fk.ref_table != name:
                visit(fk.ref_table)
        state[name] = "done"
        ordered.append(by_name[name])

    for schema in schemas:
        visit(schema.name)
    return ordered


def dump_canonical(db: "Database") -> bytes:
    """Serialise the whole database to canonical, order-independent bytes.

    Two databases holding the same schemas, rows and ``Table.version``
    counters produce byte-identical output regardless of row insertion
    order — the equality yardstick of the backend-diff oracle and the
    crash-recovery tests.  Rows are sorted by the ``repr`` of their primary
    key (total order even for mixed-type keys); all JSON is emitted with
    sorted keys and fixed separators.
    """
    tables = []
    for name in sorted(db.table_names):
        table = db.table(name)
        rows = [
            row
            for _, row in sorted(table._rows.items(), key=lambda kv: repr(kv[0]))
        ]
        entry = schema_to_dict(table.schema)
        entry["version"] = table.version
        entry["rows"] = rows
        tables.append(entry)
    payload = {"format_version": _FORMAT_VERSION, "tables": tables}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
