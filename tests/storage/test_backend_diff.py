"""Randomized differential check of the durable storage backend.

An in-memory and a WAL-backed database take one op stream: inserts,
updates (including primary-key moves), deletes, truncates, transactions
that commit or roll back, table creation/drop and (WAL side) mid-stream
close-and-reopen.  After every op the canonical dumps — schemas, rows,
insertion order *and* ``Table.version`` counters — must be
byte-identical, and one final reopen must reproduce the same bytes.

The CI ``backend-diff`` job runs this module with
``BACKEND_DIFF_EXAMPLES=40``; the local default keeps tier-1 fast.
"""

from __future__ import annotations

import os
import tempfile

import oracle
import pytest
from oracle import CYLOG, ELIGIBLE_FR, Leg, Op, PlatformLeg

from repro.core import Crowd4U
from repro.storage import (
    Column,
    ColumnType,
    Database,
    TableSchema,
    dump_canonical,
    open_database,
)

EXAMPLES = int(os.environ.get("BACKEND_DIFF_EXAMPLES", "6"))
OPS_PER_SCENARIO = int(os.environ.get("BACKEND_DIFF_OPS", "120"))

pytestmark = pytest.mark.backend_diff

#: ``Database`` method names, weighted like a write-heavy workload.
KINDS = ("insert",) * 6 + ("update",) * 3 + ("move",) + ("delete",) * 3 + (
    "create_table", "commit", "rollback", "truncate", "drop_table", "reopen",
)


def _schema(name: str) -> TableSchema:
    return TableSchema(
        name,
        [
            Column("k", ColumnType.TEXT),
            Column("n", ColumnType.INT),
            Column("status", ColumnType.TEXT),
            Column("payload", ColumnType.JSON, nullable=True),
        ],
        primary_key=("k",),
    )


def _row(key: str, value: int) -> dict:
    return {
        "k": key,
        "n": value * 37 % 1000,
        "status": ("eligible", "interested", "declined", "completed")[value % 4],
        "payload": (None, ["x", value % 5], {"a": 1})[value % 3],
    }


class DatabaseLeg(Leg):
    def __init__(self, name: str, db: Database):
        self.name, self.db = name, db

    def resolve(self, op: Op):
        db, kind, pick, value = self.db, op.kind, op.pick, op.value
        tables = sorted(db.table_names)
        if kind == "create_table" or not tables:
            name = f"t{pick % 4}"
            return None if db.has_table(name) else ("create_table", _schema(name))
        table = tables[pick % len(tables)]
        pks = sorted(db.table(table).pks())
        key = f"k{value % 40}"
        if kind == "insert":
            return None if (key,) in pks else ("insert", table, _row(key, value))
        if kind in ("commit", "rollback"):
            keys = {f"tx{(value + 11 * i) % 40}" for i in range(1 + pick % 3)}
            rows = [_row(k, value) for k in sorted(keys) if (k,) not in pks]
            return kind, table, rows
        if kind == "drop_table":
            return (kind, table) if len(tables) > 1 else None
        if kind in ("truncate", "reopen"):
            return kind, table
        if not pks:
            return None
        pk = pks[value % len(pks)]
        if kind == "delete":
            return "delete", table, pk
        changes = {"n": value * 13 % 1000}
        if kind == "move" and (key,) not in pks:
            changes["k"] = key
        return "update", table, pk, changes

    def apply(self, op) -> None:
        kind, *args = op
        if kind == "reopen":
            self.reopen()
        elif kind == "truncate":
            self.db.table(args[0]).truncate()
        elif kind in ("commit", "rollback"):
            # Rollbacks replay through the undo log, which must stream to
            # the backend exactly like forward mutations.
            table, rows = args
            self.db.begin()
            for row in rows:
                self.db.insert(table, row)
            getattr(self.db, kind)()
        else:
            getattr(self.db, kind)(*args)

    def reopen(self) -> None:  # a clean restart: nothing to do in memory
        pass

    def state(self) -> dict:
        return {"dump": dump_canonical(self.db)}


class WalLeg(DatabaseLeg):
    def __init__(self, path):
        self.path = path
        super().__init__("wal", open_database(path, backend="wal", compact_every=37))

    def reopen(self) -> None:
        self.db.close()
        self.db = open_database(self.path, backend="wal", compact_every=37)


@pytest.mark.parametrize("seed", range(EXAMPLES))
def test_backends_byte_identical_under_random_streams(tmp_path, seed):
    def replay(ops):
        with tempfile.TemporaryDirectory(dir=tmp_path) as scratch:
            legs = [DatabaseLeg("memory", Database()), WalLeg(scratch)]
            oracle.lockstep(legs, ops, ("dump",))
            # One final restart: recovery must reproduce the same bytes again.
            legs[1].reopen()
            oracle.agree(legs, ("dump",), "after the final reopen")
            legs[1].db.close()

    oracle.check(oracle.op_stream(KINDS, size=OPS_PER_SCENARIO), replay, seed)


@pytest.mark.parametrize("backend", ["wal"])
def test_platform_scenario_round_trips(tmp_path, backend):
    """A platform session on the durable backend matches one in memory op
    for op, and survives a restart byte-for-byte."""
    durable = Crowd4U(seed=3, db=open_database(tmp_path / "platform", backend=backend))
    legs = [PlatformLeg("memory", Crowd4U(seed=3)), PlatformLeg(backend, durable)]
    for leg in legs:
        leg.platform.register_project("p", "r", CYLOG + ELIGIBLE_FR)
    oracle.lockstep(legs, oracle.seeded_stream(3), ("dump",))
    reference = dump_canonical(durable.db)
    durable.close()
    reopened = open_database(tmp_path / "platform", backend=backend)
    assert dump_canonical(reopened) == reference
    reopened.close()
