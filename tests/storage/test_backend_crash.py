"""Kill-and-recover: a hard process death must lose nothing committed.

A child process opens a WAL-backed database, applies a mutation stream,
dumps the canonical state it reached, and dies via ``os._exit`` — no
``close()``, no atexit handlers, no flush beyond what each mutation
already guarantees.  The parent then recovers and asserts byte-for-byte
equality with the child's last committed state, including the
``Table.version`` counters.

The tests additionally simulate dying *mid-append*:
the bytes of a half-written record are tacked onto the log (exactly what
a kill between ``write`` and the trailing newline leaves behind), and
recovery must truncate it away and restore the committed prefix.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.storage import dump_canonical, open_database

pytestmark = pytest.mark.backend_diff

_CHILD = """
import os, sys
sys.path.insert(0, {src!r})
from repro.storage import (
    Column, ColumnType, TableSchema, dump_canonical, open_database,
)

db = open_database({target!r}, backend={backend!r})
db.create_table(TableSchema(
    "events",
    [Column("id", ColumnType.INT), Column("kind", ColumnType.TEXT)],
    primary_key=("id",),
))
for i in range(60):
    db.insert("events", {{"id": i, "kind": f"e{{i % 5}}"}})
    if i % 7 == 3:
        db.update("events", (i,), {{"kind": "edited"}})
    if i % 11 == 8:
        db.delete("events", (i - 1,))
with open({dump!r}, "wb") as fh:
    fh.write(dump_canonical(db))
os._exit(1)  # hard death: no close(), no flush, no atexit
"""

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _crash_child(target: Path, backend: str, dump: Path) -> None:
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            _CHILD.format(
                src=_SRC, target=str(target), backend=backend, dump=str(dump)
            ),
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert dump.exists(), proc.stderr


@pytest.mark.parametrize("backend", ["wal"])
def test_hard_kill_recovers_committed_state(tmp_path, backend):
    target = tmp_path / f"crash-{backend}"
    dump = tmp_path / "committed.bin"
    _crash_child(target, backend, dump)
    recovered = open_database(target, backend=backend)
    assert dump_canonical(recovered) == dump.read_bytes()
    recovered.close()


def test_wal_kill_mid_append_restores_committed_prefix(tmp_path):
    target = tmp_path / "crash-wal"
    dump = tmp_path / "committed.bin"
    _crash_child(target, "wal", dump)
    # The kill landed between write() and the record's newline: the log
    # ends in half a record.  Recovery must drop exactly that tail.
    wal = target / "wal.jsonl"
    original = wal.read_bytes()
    with wal.open("ab") as handle:
        handle.write(b'{"lsn": 100000, "op": "insert", "t": "events", "pk": [9')
    recovered = open_database(target, backend="wal")
    assert dump_canonical(recovered) == dump.read_bytes()
    recovered.close()
    # And the recovery truncated the file back to the committed prefix,
    # so the *next* recovery starts from a clean log.
    assert os.path.getsize(wal) <= len(original)
    recovered_again = open_database(target, backend="wal")
    assert dump_canonical(recovered_again) == dump.read_bytes()
    recovered_again.close()


def test_wal_repeated_crashes_converge(tmp_path):
    """Crash, recover, mutate, crash again: each recovery must see the
    previous generation's committed state plus its own mutations."""
    target = tmp_path / "crash-wal"
    dump = tmp_path / "committed.bin"
    _crash_child(target, "wal", dump)
    db = open_database(target, backend="wal")
    db.insert("events", {"id": 1000, "kind": "post-crash"})
    state = dump_canonical(db)
    db.backend.flush()
    # Another hard death: simply never close; the appended record is
    # already on disk (the WAL flushes after every record).
    del db
    recovered = open_database(target, backend="wal")
    assert dump_canonical(recovered) == state
    recovered.close()
