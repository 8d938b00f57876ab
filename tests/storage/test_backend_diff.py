"""Randomized differential check of the durable storage backend.

Two databases — in-memory and WAL-backed — receive the *same* randomized
mutation stream: inserts, updates (including primary-key moves),
deletes, truncates, transactions that commit or roll back, table
creation/drop and (for the WAL side) mid-stream close-and-reopen
"restarts".  After every scenario the canonical dump — schemas, rows,
insertion order *and* ``Table.version`` counters — must be
byte-identical across both, and reopening the WAL database one final
time must reproduce the same bytes again.

The CI ``backend-diff`` job runs this module with
``BACKEND_DIFF_EXAMPLES=40``, mirroring the engine/platform diff
oracle gates; the local default keeps the tier-1 suite fast.
"""

from __future__ import annotations

import os
import random

import pytest

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

_STATUSES = ("eligible", "interested", "undertakes", "declined", "completed")


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


class _Lockstep:
    """The two databases under test, mutated in lockstep."""

    def __init__(self, tmp_path):
        self.wal_dir = tmp_path / "wal"
        self.mem = Database()
        self.wal = open_database(self.wal_dir, backend="wal", compact_every=37)

    @property
    def all(self):
        return (self.mem, self.wal)

    def reopen_durable(self):
        """Simulate a clean restart of the durable database."""
        self.wal.close()
        self.wal = open_database(self.wal_dir, backend="wal", compact_every=37)

    def close(self):
        self.wal.close()


def _apply_random_op(rng: random.Random, dbs: _Lockstep, tables: list[str]) -> None:
    op = rng.random()
    if not tables or op < 0.06:
        name = f"t{len(tables)}"
        if name not in tables:
            for db in dbs.all:
                db.create_table(_schema(name))
            tables.append(name)
        return
    table = rng.choice(tables)
    if op < 0.45:
        key = f"k{rng.randrange(40)}"
        if not dbs.mem.table(table).contains((key,)):
            row = {
                "k": key,
                "n": rng.randrange(1000),
                "status": rng.choice(_STATUSES),
                "payload": rng.choice((None, ["x", rng.randrange(5)], {"a": 1})),
            }
            for db in dbs.all:
                db.insert(table, row)
    elif op < 0.65:
        pks = list(dbs.mem.table(table).pks())
        if pks:
            pk = rng.choice(sorted(pks))
            changes: dict = {"n": rng.randrange(1000)}
            if rng.random() < 0.25:
                new_key = f"k{rng.randrange(40)}"
                if not dbs.mem.table(table).contains((new_key,)):
                    changes["k"] = new_key
            for db in dbs.all:
                db.update(table, pk, changes)
    elif op < 0.80:
        pks = list(dbs.mem.table(table).pks())
        if pks:
            pk = rng.choice(sorted(pks))
            for db in dbs.all:
                db.delete(table, pk)
    elif op < 0.86:
        # A transaction that inserts a couple of rows, then commits or
        # rolls back — rollbacks replay through the undo log, which must
        # stream to the backends exactly like forward mutations.
        commit = rng.random() < 0.5
        rows = [
            {
                "k": f"tx{rng.randrange(40)}",
                "n": rng.randrange(1000),
                "status": rng.choice(_STATUSES),
                "payload": None,
            }
            for _ in range(rng.randrange(1, 4))
        ]
        for db in dbs.all:
            db.begin()
            for row in rows:
                if not db.table(table).contains((row["k"],)):
                    db.insert(table, row)
            if commit:
                db.commit()
            else:
                db.rollback()
    elif op < 0.90:
        for db in dbs.all:
            db.table(table).truncate()
    elif op < 0.94 and len(tables) > 1:
        victim = rng.choice(tables)
        tables.remove(victim)
        for db in dbs.all:
            db.drop_table(victim)
    else:
        dbs.reopen_durable()


@pytest.mark.parametrize("seed", range(EXAMPLES))
def test_backends_byte_identical_under_random_streams(tmp_path, seed):
    rng = random.Random(0xBACD + seed)
    dbs = _Lockstep(tmp_path)
    tables: list[str] = []
    for step in range(OPS_PER_SCENARIO):
        _apply_random_op(rng, dbs, tables)
        if step % 30 == 29:
            assert dump_canonical(dbs.wal) == dump_canonical(dbs.mem)
    reference = dump_canonical(dbs.mem)
    assert dump_canonical(dbs.wal) == reference
    # One final restart: recovery must reproduce the same bytes again.
    dbs.reopen_durable()
    assert dump_canonical(dbs.wal) == reference
    dbs.close()


@pytest.mark.parametrize("backend", ["wal"])
def test_platform_scenario_round_trips(tmp_path, backend):
    """A real platform session — workers, a project, a full round — must
    survive a restart byte-for-byte on the durable backend."""
    from repro.core import Crowd4U, HumanFactors

    target = tmp_path / f"platform-{backend}"
    db = open_database(target, backend=backend)
    platform = Crowd4U(seed=3, db=db)
    for i in range(4):
        platform.register_worker(
            f"w{i}",
            HumanFactors(
                native_languages=frozenset({"en"}),
                languages={"fr": 0.9 if i % 2 else 0.3},
                skills={"translation": 0.5 + 0.1 * i},
                reliability=0.9,
            ),
        )
    platform.register_project(
        name="p",
        requester="r",
        cylog_source="""
            open translate(seg: text, out: text) key (seg) asking "t {seg}".
            segment("s1"). segment("s2").
            eligible(W) :- worker_language(W, "fr", P), P >= 0.5.
            translated(S, T) :- segment(S), translate(S, T).
        """,
    )
    platform.step()
    reference = dump_canonical(platform.db)
    platform.close()
    reopened = open_database(target, backend=backend)
    assert dump_canonical(reopened) == reference
    reopened.close()
