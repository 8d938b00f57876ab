"""Write-ahead-logged durability for the in-memory store.

Layout of a WAL-backed database directory::

    <dir>/backend.json     # {"backend": "wal", "format_version": 1}
    <dir>/snapshot/        # last compaction: catalog.json + <table>.jsonl
    <dir>/wal.jsonl        # one JSON record per physical mutation since

Every physical mutation of every table — inserts, deletes, replaces,
truncates, catalogue changes and the undo log's rollback operations —
appends one JSONL record carrying a global LSN.  Recovery loads the
snapshot (exact ``Table.version`` counters included), then replays the
records with ``lsn > snapshot.last_lsn`` in order; because one record
corresponds to exactly one version bump, the recovered database matches
the crashed one byte-for-byte (rows, insertion order *and* versions).

A torn tail — the process died mid-append — shows up as a final line
that is not valid JSON or lacks its newline; recovery truncates the file
back to the last complete record and restores exactly the committed
prefix.

Compaction (automatic every ``compact_every`` records, or explicit via
:meth:`WalBackend.compact`) rewrites the snapshot from the live database
and resets the log.  The dance is crash-safe at every step: the fresh
snapshot is fully written under ``snapshot.tmp`` before any rename, the
previous snapshot survives as ``snapshot.old`` until the new one is in
place, and the LSN filter makes replaying a not-yet-truncated log over a
new snapshot a no-op.

Attaching to a database that already holds tables (and a directory that
holds no state yet) *adopts* it: the first compaction writes the live
rows, insertion order and ``Table.version`` counters as the snapshot.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.storage.backends.base import Mutation
from repro.storage.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.database import Database
    from repro.storage.table import Table

_FORMAT_VERSION = 1
_MARKER = "backend.json"
_WAL = "wal.jsonl"
_SNAPSHOT = "snapshot"
_SNAPSHOT_TMP = "snapshot.tmp"
_SNAPSHOT_OLD = "snapshot.old"


class WalBackend:
    """Durability mirror of one :class:`~repro.storage.database.Database`:
    an append-per-mutation JSONL log with snapshot compaction.

    ``compact_every`` bounds the log length (and therefore recovery time);
    ``fsync=True`` additionally fsyncs after every record for
    power-failure durability — the default flushes to the OS after every
    record, which survives process crashes (the kill-and-recover oracle)
    without paying the fsync latency on the hot path.
    """

    name = "wal"

    def __init__(
        self,
        directory: str | Path,
        *,
        compact_every: int = 10_000,
        fsync: bool = False,
    ) -> None:
        if compact_every < 1:
            raise StorageError(f"compact_every must be >= 1, got {compact_every}")
        self.root = Path(directory)
        self.compact_every = compact_every
        self.fsync = fsync
        self._db: "Database | None" = None
        self._lsn = 0
        self._records_since_compact = 0
        self._fh = None
        self._closed = False
        self.root.mkdir(parents=True, exist_ok=True)
        marker = self.root / _MARKER
        if marker.exists():
            info = json.loads(marker.read_text(encoding="utf-8"))
            if info.get("backend") != self.name:
                raise StorageError(
                    f"{self.root} holds a {info.get('backend')!r} database, "
                    f"not a WAL one"
                )
            if info.get("format_version") != _FORMAT_VERSION:
                raise StorageError(
                    f"unsupported WAL format version: {info.get('format_version')!r}"
                )
        else:
            marker.write_text(
                json.dumps({"backend": self.name, "format_version": _FORMAT_VERSION})
                + "\n",
                encoding="utf-8",
            )

    # -- attach handshake ---------------------------------------------------
    def attach(self, db: "Database") -> bool:
        """Bind to ``db``: restore persisted state into it, or adopt its
        current contents when the directory holds no state yet.

        Returns ``True`` when persisted state was restored.  Called by
        :meth:`Database.attach_backend`, which wires the mutation sinks
        *afterwards* so nothing done here is re-logged.
        """
        self._db = db
        restored = self.restore_into(db)
        if not restored and db.table_names:
            self.compact()
        return restored

    # -- recovery -----------------------------------------------------------
    def restore_into(self, db: "Database") -> bool:
        """Rebuild persisted state into the empty ``db``; returns whether
        any persisted state existed.  Restores exact ``Table.version``
        counters and row insertion order."""
        from repro.storage.persistence import schema_from_dict, topological_order

        snapshot_dir = self._usable_snapshot()
        wal_path = self.root / _WAL
        had_state = snapshot_dir is not None or wal_path.exists()
        snapshot_lsn = 0
        if snapshot_dir is not None:
            catalog = json.loads(
                (snapshot_dir / "catalog.json").read_text(encoding="utf-8")
            )
            snapshot_lsn = int(catalog.get("last_lsn", 0))
            schemas = [schema_from_dict(entry) for entry in catalog["tables"]]
            versions = {
                entry["name"]: int(entry["version"]) for entry in catalog["tables"]
            }
            for schema in topological_order(schemas):
                db.create_table(schema)
            for entry in catalog["tables"]:
                name = entry["name"]
                table = db.table(name)
                rows_path = snapshot_dir / f"{name}.jsonl"
                if rows_path.exists():
                    with rows_path.open("r", encoding="utf-8") as handle:
                        for line in handle:
                            line = line.strip()
                            if line:
                                table._raw_insert(table._normalise(json.loads(line)))
                # Exact restore: the version the live table had at the
                # moment the snapshot was cut (replayed records bump from
                # here, one bump per record, like the original mutations).
                table.version = versions[name]
        self._lsn, self._records_since_compact = self._replay_wal(
            db, wal_path, snapshot_lsn
        )
        self._fh = wal_path.open("a", encoding="utf-8")
        return had_state

    def _usable_snapshot(self) -> Path | None:
        """The newest fully-written snapshot directory, if any."""
        for candidate in (_SNAPSHOT, _SNAPSHOT_OLD):
            path = self.root / candidate
            if (path / "catalog.json").exists():
                return path
        return None

    def _replay_wal(
        self, db: "Database", wal_path: Path, skip_upto: int
    ) -> tuple[int, int]:
        """Apply complete records with ``lsn > skip_upto``; truncate a torn
        tail.  Returns the last applied LSN (``skip_upto`` when none was)
        and the number of records applied."""
        if not wal_path.exists():
            return skip_upto, 0
        last_lsn = skip_upto
        applied = 0
        good_end = 0
        with wal_path.open("rb") as handle:
            for raw in handle:
                if not raw.endswith(b"\n"):
                    break  # torn tail: the append died mid-write
                try:
                    record = json.loads(raw.decode("utf-8"))
                    lsn = int(record["lsn"])
                    if lsn > skip_upto:
                        self._apply(db, record)
                        last_lsn = lsn
                        applied += 1
                    good_end += len(raw)
                except (ValueError, KeyError, TypeError):
                    break  # torn or corrupt record: keep the committed prefix
        if good_end < wal_path.stat().st_size:
            with wal_path.open("rb+") as handle:
                handle.truncate(good_end)
        return last_lsn, applied

    @staticmethod
    def _apply(db: "Database", record: dict[str, Any]) -> None:
        from repro.storage.persistence import schema_from_dict

        op = record["op"]
        if op == "create_table":
            db.create_table(schema_from_dict(record["schema"]))
            return
        if op == "drop_table":
            db.drop_table(record["t"])
            return
        table: "Table" = db.table(record["t"])
        if op == "insert":
            table._raw_insert(table._normalise(record["row"]))
        elif op == "delete":
            table._raw_delete(tuple(record["pk"]))
        elif op == "replace":
            table._raw_replace(
                tuple(record["pk"]),
                table.schema.pk_tuple(record["row"]),
                table._normalise(record["row"]),
            )
        elif op == "truncate":
            table._raw_truncate()
        else:
            raise StorageError(f"unknown WAL opcode {op!r}")

    # -- logging ------------------------------------------------------------
    def on_create_table(self, schema) -> None:
        from repro.storage.persistence import schema_to_dict

        self._append({"op": "create_table", "schema": schema_to_dict(schema)})

    def on_drop_table(self, name: str) -> None:
        self._append({"op": "drop_table", "t": name})

    def on_mutation(self, mutation: Mutation) -> None:
        record: dict[str, Any] = {"op": mutation.op, "t": mutation.table}
        if mutation.pk is not None:
            record["pk"] = list(mutation.pk)
        if mutation.row is not None:
            record["row"] = mutation.row
        self._append(record)

    def _append(self, record: dict[str, Any]) -> None:
        if self._fh is None:
            raise StorageError("WAL backend is not attached to a database")
        self._lsn += 1
        record["lsn"] = self._lsn
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self._records_since_compact += 1
        if self._records_since_compact >= self.compact_every:
            self.compact()

    # -- compaction ---------------------------------------------------------
    def compact(self) -> Path:
        """Rewrite the snapshot from the live database and reset the log."""
        from repro.storage.persistence import schema_to_dict

        if self._db is None or self._fh is None:
            raise StorageError("WAL backend is not attached to a database")
        db = self._db
        tmp = self.root / _SNAPSHOT_TMP
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir()
        tables = []
        for name in db.table_names:
            table = db.table(name)
            entry = schema_to_dict(table.schema)
            entry["version"] = table.version
            tables.append(entry)
            with (tmp / f"{name}.jsonl").open("w", encoding="utf-8") as handle:
                for row in table._rows.values():
                    handle.write(json.dumps(row, sort_keys=True) + "\n")
        catalog = {
            "format_version": _FORMAT_VERSION,
            "last_lsn": self._lsn,
            "tables": tables,
        }
        (tmp / "catalog.json").write_text(
            json.dumps(catalog, indent=2, sort_keys=True), encoding="utf-8"
        )
        # Crash-safe swap: the old snapshot survives until the new one is
        # fully in place; a crash in between leaves either snapshot usable
        # and the LSN filter neutralises the not-yet-truncated log.
        snapshot = self.root / _SNAPSHOT
        old = self.root / _SNAPSHOT_OLD
        if old.exists():
            shutil.rmtree(old)
        if snapshot.exists():
            snapshot.rename(old)
        tmp.rename(snapshot)
        self._fh.close()
        self._fh = (self.root / _WAL).open("w", encoding="utf-8")
        self._records_since_compact = 0
        if old.exists():
            shutil.rmtree(old)
        return snapshot

    # -- lifecycle ----------------------------------------------------------
    def flush(self) -> None:
        """Push buffered records to the OS (durability point)."""
        if self._fh is not None:
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Flush, fsync and release the log; the backend is unusable after."""
        if self._closed:
            return
        self._closed = True
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None

    def describe(self) -> dict[str, Any]:
        """Small structural summary for observability surfaces."""
        return {
            "backend": self.name,
            "directory": str(self.root),
            "lsn": self._lsn,
            "records_since_compact": self._records_since_compact,
            "compact_every": self.compact_every,
        }
