"""E11 — durable storage: throughput and crash recovery.

One churn-heavy mutation stream (bulk load, then repeated update /
delete / reinsert passes) is applied to an in-memory database and a
WAL-backed one, and both must land on the byte-identical canonical
dump.  The record then captures:

* **Mutation throughput** per backend: what durability costs on the
  write path (the WAL appends one JSONL record per mutation).
* **Query throughput** per backend: point lookups served by the
  authoritative in-memory table, demonstrating the read path is
  backend-independent.
* **Recovery**: reopening the WAL database after the churn history.
  The headline — and the gated metric — is
  ``speedup_snapshot_vs_replay``: recovering a *compacted* WAL (snapshot
  + empty tail) versus replaying the full mutation history.  Both legs
  are the best of the same number of opens.  The churn stream writes ~20
  log records per surviving row, so compaction must win by roughly that
  factor; the ratio is intra-backend and hardware-insensitive, unlike
  cross-backend time ratios.
"""

from __future__ import annotations

import time

from repro.metrics import format_table
from repro.storage import (
    Column,
    ColumnType,
    Database,
    TableSchema,
    dump_canonical,
    open_database,
)

from fastmode import pick

LIVE_ROWS = pick(1500, 80)
CHURN_PASSES = pick(12, 3)
N_QUERIES = pick(30000, 1500)
N_KINDS = 7

#: Large enough that the replay-side WAL never auto-compacts: its whole
#: history stays in the log, which is the point of the comparison.
NO_COMPACT = 10**9

#: Each recovery leg is timed as the best of this many opens, so one GC
#: pause or cold page cannot swing the ratio.
RECOVERY_REPEATS = 7

EVENTS = TableSchema(
    "events",
    [
        Column("id", ColumnType.INT),
        Column("kind", ColumnType.TEXT),
        Column("n", ColumnType.INT),
    ],
    primary_key=("id",),
)


def _apply_stream(db) -> int:
    """The shared churn-heavy history; returns the mutation count."""
    ops = 0
    db.create_table(EVENTS)
    ops += 1
    for i in range(LIVE_ROWS):
        db.insert("events", {"id": i, "kind": f"e{i % N_KINDS}", "n": 0})
        ops += 1
    for round_index in range(CHURN_PASSES):
        for i in range(LIVE_ROWS):
            db.update("events", (i,), {"n": round_index * LIVE_ROWS + i})
            ops += 1
        for i in range(round_index % 3, LIVE_ROWS, 3):
            db.delete("events", (i,))
            db.insert(
                "events", {"id": i, "kind": f"e{i % N_KINDS}", "n": -round_index}
            )
            ops += 2
    return ops


def _bench_queries(db) -> float:
    table = db.table("events")
    start = time.perf_counter()
    for i in range(N_QUERIES):
        table.get((i % LIVE_ROWS,))
    return N_QUERIES / (time.perf_counter() - start)


def _best_open(target, expected_dump: str) -> float:
    """Best-of-``RECOVERY_REPEATS`` time to reopen the WAL at ``target``;
    every open must restore ``expected_dump``."""
    best = float("inf")
    for _ in range(RECOVERY_REPEATS):
        start = time.perf_counter()
        db = open_database(target, backend="wal", compact_every=NO_COMPACT)
        best = min(best, time.perf_counter() - start)
        assert dump_canonical(db) == expected_dump
        db.close()
    return best


def test_e11_storage_backends(tmp_path_factory, emit, emit_bench_json):
    tmp = tmp_path_factory.mktemp("e11")
    wal_target = tmp / "wal-replay"
    records = []
    dumps = {}
    for name, db in (
        ("memory", Database()),
        ("wal", open_database(wal_target, backend="wal", compact_every=NO_COMPACT)),
    ):
        start = time.perf_counter()
        ops = _apply_stream(db)
        mutate_s = time.perf_counter() - start
        query_ops_per_s = _bench_queries(db)
        dumps[name] = dump_canonical(db)
        record = {
            "backend": name,
            "mutations": ops,
            "mutation_ops_per_s": round(ops / mutate_s, 1),
            "query_ops_per_s": round(query_ops_per_s, 1),
        }
        db.close()
        records.append(record)

    # Both must have observed the identical state.
    assert dumps["wal"] == dumps["memory"]

    # Recovery: replaying the full churn history ...
    replay_s = _best_open(wal_target, dumps["memory"])
    # ... versus recovering from a compacted snapshot of the same state.
    db = open_database(wal_target, backend="wal", compact_every=NO_COMPACT)
    db.backend.compact()
    db.close()
    snapshot_s = _best_open(wal_target, dumps["memory"])

    speedup = replay_s / snapshot_s if snapshot_s else 0.0
    by_backend = {r["backend"]: r for r in records}
    emit_bench_json(
        "E11",
        {
            "workload": {
                "live_rows": LIVE_ROWS,
                "churn_passes": CHURN_PASSES,
                "mutations": by_backend["memory"]["mutations"],
                "queries": N_QUERIES,
            },
            "recovery": {
                "repeats": RECOVERY_REPEATS,
                "wal_replay_s": round(replay_s, 4),
                "wal_snapshot_s": round(snapshot_s, 4),
            },
            "speedup_snapshot_vs_replay": round(speedup, 2),
            "backends": records,
        },
    )
    rows = [
        (r["backend"], r["mutations"], r["mutation_ops_per_s"], r["query_ops_per_s"])
        for r in records
    ]
    emit(format_table(
        ("backend", "mutations", "mutate ops/s", "query ops/s"),
        rows,
        title=(
            f"E11 — storage backends ({LIVE_ROWS} live rows, "
            f"{CHURN_PASSES} churn passes; recovery: replay "
            f"{replay_s * 1000:.0f} ms vs snapshot {snapshot_s * 1000:.0f} ms "
            f"= {speedup:.1f}x)"
        ),
    ))
    if not pick(False, True):  # full-size runs must show the headline shape
        # ~20 log records per surviving row: compaction must clearly win.
        assert speedup > 2.0
