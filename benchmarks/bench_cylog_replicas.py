"""E12 — shard-pruned worker replicas.

A process worker holds a replica of only the (relation, primary shard)
partitions its task classes probe, synced by per-worker slices of the
engine's mutation ledger and backfilled lazily.  This bench measures what
that layout ships and holds, on a skew-free two-relation join churned
from the ``left`` side:

* **Sync bytes.**  ``joined`` deltas dominate the engine's change sets;
  no rule probes ``joined``, so it is never shipped at all, and the
  base-relation slices go only to the workers whose task classes probe
  those partitions.  The headline gate — ``speedup_pruned_vs_full_sync``
  — compares the bytes actually written to worker pipes for syncs with
  what broadcasting every change set to every worker would ship: the
  canonical change-set bytes times the worker count.  A pure byte count,
  independent of the hardware the bench runs on.  The acceptance target
  at 8 shards x 8 workers is >= 5x.

* **Per-worker replica residency**, reported as the max resident rows
  across workers (from the executor's exact ledger-derived counts),
  against the rows a complete replica of the engine store would hold.

* **Churn throughput.**  The bench re-checks the store fingerprint
  against a serial reference; the shard-diff oracle gates bit-identity
  in CI.
"""

import time

from repro.cylog import SemiNaiveEngine, ShardConfig, parse_program
from repro.metrics import format_table

from fastmode import pick

N_KEYS = pick(2000, 60)
RIGHT_FANOUT = pick(6, 3)
N_LEFT = pick(8000, 150)
CHURN_ROUNDS = pick(30, 4)
CHURN_BATCH = pick(400, 30)
SHARDS = 8
WORKERS = 8

RULES = """
    joined(L, R) :- left(L, K), right(K, R).
    heavy(L) :- joined(L, R), R >= 0.
"""

PROCESS_CONFIG = ShardConfig(
    shards=SHARDS,
    executor="process",
    max_workers=WORKERS,
    min_parallel_rows=0,  # every round dispatches: sync traffic is the point
)


def _build_engine(config: ShardConfig | None) -> SemiNaiveEngine:
    engine = SemiNaiveEngine(
        parse_program(RULES),
        shard_config=config or ShardConfig(),
    )
    engine.add_facts("left", [(i, i % N_KEYS) for i in range(N_LEFT)])
    engine.add_facts(
        "right",
        [(k, k * RIGHT_FANOUT + f) for k in range(N_KEYS) for f in range(RIGHT_FANOUT)],
    )
    return engine


def _churn_rows(round_index: int) -> list[tuple[int, int]]:
    base = 1_000_000 + round_index * CHURN_BATCH
    return [(base + j, (base + j) % N_KEYS) for j in range(CHURN_BATCH)]


def _run_pruned() -> dict:
    engine = _build_engine(PROCESS_CONFIG)
    try:
        start = time.perf_counter()
        engine.run()
        initial_s = time.perf_counter() - start

        churn_ops = 0
        start = time.perf_counter()
        for round_index in range(CHURN_ROUNDS):
            rows = _churn_rows(round_index)
            engine.add_facts("left", rows)
            engine.run()
            engine.retract_facts("left", rows)
            engine.run()
            churn_ops += 2 * len(rows)
        churn_s = time.perf_counter() - start

        assert engine.runs == 1  # every churn round stayed incremental
        telemetry = engine._pool.telemetry()
        rounds = 2 * CHURN_ROUNDS
        return {
            "initial_run_ms": round(initial_s * 1000, 2),
            "churn_ops_per_s": round(churn_ops / churn_s, 1) if churn_s else 0.0,
            # Engine-side canonical change-set volume (what the engine
            # mutated, not what was shipped).
            "sync_rows_canonical": engine.stats.sync_rows,
            "sync_bytes_canonical": engine.stats.sync_bytes,
            # Executor-side shipped volume: what actually crossed pipes.
            "sync_bytes_shipped": telemetry["sync_bytes_shipped"],
            "sync_rows_shipped": telemetry["sync_rows_shipped"],
            "sync_bytes_per_round": round(telemetry["sync_bytes_shipped"] / rounds, 1),
            "replica_backfills": telemetry["replica_backfills"],
            "backfill_rows": telemetry["backfill_rows"],
            "bytes_to_workers": telemetry["bytes_to_workers"],
            "max_replica_rows": max(telemetry["replica_rows"]),
            # What one complete replica of the engine store would hold.
            "store_rows": sum(len(rows) for rows in engine.store.snapshot().values()),
            "derived_joined": len(engine.facts("joined")),
            "fingerprint": engine.store.fingerprint(),
        }
    finally:
        engine.close()


def test_e12_pruned_replicas(emit, emit_bench_json):
    serial = _build_engine(None)
    try:
        serial.run()
        for round_index in range(CHURN_ROUNDS):
            rows = _churn_rows(round_index)
            serial.add_facts("left", rows)
            serial.run()
            serial.retract_facts("left", rows)
            serial.run()
        reference_fp = serial.store.fingerprint()
    finally:
        serial.close()

    pruned = _run_pruned()
    # Bit-identity: the pruned replicas land on the serial fixpoint.
    assert pruned.pop("fingerprint") == reference_fp
    # Broadcasting every canonical change set to every worker would ship
    # exactly this many sync bytes.
    broadcast_bytes = pruned["sync_bytes_canonical"] * WORKERS
    speedup = (
        broadcast_bytes / pruned["sync_bytes_shipped"]
        if pruned["sync_bytes_shipped"]
        else float("inf")
    )
    # Pruned workers hold strictly less than a complete replica would.
    assert pruned["max_replica_rows"] < pruned["store_rows"]
    assert pruned["replica_backfills"] > 0

    emit_bench_json(
        "E12",
        {
            "workload": {
                "keys": N_KEYS,
                "right_fanout": RIGHT_FANOUT,
                "left_rows": N_LEFT,
                "churn_rounds": CHURN_ROUNDS,
                "churn_batch": CHURN_BATCH,
                "shards": SHARDS,
                "workers": WORKERS,
            },
            "speedup_pruned_vs_full_sync": round(speedup, 2),
            "broadcast_sync_bytes": broadcast_bytes,
            "pruned": pruned,
        },
    )
    emit(format_table(
        ("churn ops/s", "sync B/round", "shipped sync B", "broadcast sync B",
         "backfills", "max replica rows", "store rows"),
        [(
            pruned["churn_ops_per_s"], pruned["sync_bytes_per_round"],
            pruned["sync_bytes_shipped"], broadcast_bytes,
            pruned["replica_backfills"], pruned["max_replica_rows"],
            pruned["store_rows"],
        )],
        title=(
            f"E12 — pruned replicas at {SHARDS} shards x {WORKERS} workers "
            f"(churn {CHURN_ROUNDS}x{2 * CHURN_BATCH} ops): "
            f"{speedup:.2f}x fewer sync bytes than broadcast"
        ),
    ))
    # The headline gate: pruned sync traffic is a byte count, so the
    # >=5x reduction holds on any hardware, smoke mode included.
    assert speedup >= 5.0, pruned
