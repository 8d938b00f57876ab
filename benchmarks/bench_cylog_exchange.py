"""E10f — exchange-operator join repartitioning.

Skew-keyed multi-atom joins whose probe key misses the shard key prefix,
at 20k+ base facts, on the single store and on 8 shards with chained or
repartitioned probes.  Two phases, one workload:

* **Churn.**  ``right`` is probed on its *second* position; at 8 shards
  a chained lookup pays 8 bucket probes plus a chained-view allocation
  per binding tuple, while the exchange repartition routes to exactly
  one.  Each churn row joins a wide ``fan`` bucket whose targets miss
  ``right`` — ~2000 cold probes per row — so per-probe overhead *is* the
  round, and the repartitioned configuration must beat the chained one
  >1.5x (the headline, ``speedup_exchange_vs_chained``).

* **Bulk.**  Large delta batches drive real skew-keyed probe/bind work
  (hot keys fan out ~10x wider than cold ones), with band filters
  keeping the derived sets small, so the rounds are CPU-bound.

Both phases are also recorded on the single store, which answers
whether sharding with the exchange operator pays at all.  Every
configuration must land on the byte-identical store (the shard-diff
oracle gates the same property in CI; the bench re-checks the
fingerprints).
"""

import time

from repro.cylog import SemiNaiveEngine, ShardConfig, parse_program
from repro.metrics import format_table

from fastmode import pick

N_LEFT = pick(12000, 300)
N_RIGHT = pick(14000, 300)
NUM_KEYS = pick(1500, 40)
HOT_KEYS = pick(37, 5)
#: Cold keys carrying the churn fan: each holds FAN_WIDTH targets that
#: all miss `right`, so one churn row costs ~FAN_WIDTH non-prefix probes.
FAN_KEYS = pick(4, 2)
FAN_WIDTH = pick(2000, 25)
CHURN_ROUNDS = pick(20, 3)
CHURN_BATCH = pick(8, 4)
BULK_ROUNDS = pick(5, 2)
BULK_BATCH = pick(4000, 40)
#: Each phase of each configuration is timed best of this many fresh
#: engines, so one GC pause or noisy neighbour cannot swing the headline.
REPEATS = 5

RULES = """
    match(L, R) :- left(L, K), right(R, K), R > L, R < L + 50.
    pair(L, M) :- left(L, K), bridge(K, J), right(M, J), M > L, M < L + 20.
    hop2(L, M) :- left(L, K), bridge(K, J), bridge(J, J2), right(M, J2),
                  M > L, M < L + 10.
    fanout(L, M) :- left(L, K), fan(K, F), right(M, F), M > L, M < L + 10.
"""

#: (label, config) — every configuration runs the same phases.
CONFIGS = (
    ("single-store", ShardConfig()),
    ("sharded x8 chained", ShardConfig(shards=8, exchange=False)),
    ("sharded x8 exchange", ShardConfig(shards=8)),
)


def _key(i: int) -> int:
    """Skewed join-key distribution: every 5th row lands on a hot key."""
    if i % 5 == 0:
        return i % HOT_KEYS
    return i % NUM_KEYS


def _build_engine(config: ShardConfig) -> SemiNaiveEngine:
    engine = SemiNaiveEngine(parse_program(RULES), shard_config=config)
    engine.add_facts("left", [(i, _key(i)) for i in range(N_LEFT)])
    engine.add_facts("right", [(i, _key(i * 3 + 1)) for i in range(N_RIGHT)])
    # bridge covers the live key space *and* the cold one; a cold key hops
    # to another cold key, so churn probes miss `right` on both hops.
    engine.add_facts(
        "bridge",
        [(k, (k * 13 + 7) % NUM_KEYS) for k in range(NUM_KEYS)]
        + [
            (k, NUM_KEYS + (k * 13 + 7) % NUM_KEYS)
            for k in range(NUM_KEYS, 2 * NUM_KEYS)
        ],
    )
    # The churn fan: FAN_KEYS cold keys x FAN_WIDTH cold targets.  Live
    # keys miss `fan` entirely, so the initial and bulk phases never pay
    # for it.
    engine.add_facts(
        "fan",
        [
            (NUM_KEYS + k, 10 * NUM_KEYS + k * FAN_WIDTH + f)
            for k in range(FAN_KEYS)
            for f in range(FAN_WIDTH)
        ],
    )
    return engine


def _churn_rows(round_index: int) -> list[tuple[int, int]]:
    """Left rows keyed on the fan's cold keys: each probes one wide fan
    bucket and then `right` once per fan target — all misses, so the
    per-probe overhead (chained vs routed) *is* the round."""
    base = 1_000_000 + round_index * CHURN_BATCH
    return [
        (base + j, NUM_KEYS + (base + j) % FAN_KEYS) for j in range(CHURN_BATCH)
    ]


def _bulk_rows(round_index: int) -> list[tuple[int, int]]:
    """Skew-keyed left rows: real probe/bind fan-out (hot keys ~10x the
    cold ones); the ids sit above every right id, so the band filters keep
    the derived sets empty and the rounds purely CPU-bound."""
    base = 2_000_000 + round_index * BULK_BATCH
    return [(base + j, _key(base + j)) for j in range(BULK_BATCH)]


def _timed_phases(config: ShardConfig) -> tuple[dict, SemiNaiveEngine]:
    """One fresh engine through every phase: each phase's seconds, and
    the engine for the counters and the fingerprint."""
    engine = _build_engine(config)
    start = time.perf_counter()
    engine.run()
    initial_s = time.perf_counter() - start

    start = time.perf_counter()
    for round_index in range(CHURN_ROUNDS):
        rows = _churn_rows(round_index)
        engine.add_facts("left", rows)
        engine.run()
        engine.retract_facts("left", rows)
        engine.run()
    churn_s = time.perf_counter() - start

    start = time.perf_counter()
    for round_index in range(BULK_ROUNDS):
        engine.add_facts("left", _bulk_rows(round_index))
        engine.run()
    bulk_s = time.perf_counter() - start

    assert engine.runs == 1  # every phase stayed incremental
    return {"initial": initial_s, "churn": churn_s, "bulk": bulk_s}, engine


def _run_config(config: ShardConfig) -> dict:
    """Every phase timed best of REPEATS fresh engines; the counters are
    deterministic, so they must agree across the repeats."""
    best = dict.fromkeys(("initial", "churn", "bulk"), float("inf"))
    outcomes = set()
    for _ in range(REPEATS):
        times, engine = _timed_phases(config)
        best = {phase: min(best[phase], times[phase]) for phase in best}
        stats = engine.stats
        outcomes.add(
            (stats.exchange_hits, stats.chained_lookups, engine.store.fingerprint())
        )
    ((exchange_hits, chained_lookups, fingerprint),) = outcomes
    churn_ops = 2 * CHURN_ROUNDS * CHURN_BATCH
    bulk_ops = BULK_ROUNDS * BULK_BATCH
    churn_s, bulk_s = best["churn"], best["bulk"]
    return {
        "initial_run_ms": round(best["initial"] * 1000, 2),
        "churn_ops": churn_ops,
        "churn_ops_per_s": round(churn_ops / churn_s, 1) if churn_s else 0.0,
        "bulk_ops": bulk_ops,
        "bulk_round_ms": round(bulk_s * 1000 / BULK_ROUNDS, 2),
        "bulk_ops_per_s": round(bulk_ops / bulk_s, 1) if bulk_s else 0.0,
        "derived_match": len(engine.facts("match")),
        "derived_pair": len(engine.facts("pair")),
        "derived_hop2": len(engine.facts("hop2")),
        "derived_fanout": len(engine.facts("fanout")),
        "exchange_hits": exchange_hits,
        "chained_lookups": chained_lookups,
        "fingerprint": fingerprint,
    }


def test_e10f_exchange_repartitioning(emit, emit_bench_json):
    base_facts = N_LEFT + N_RIGHT + 2 * NUM_KEYS + FAN_KEYS * FAN_WIDTH
    records = []
    for label, config in CONFIGS:
        result = _run_config(config)
        result.update(
            {
                "label": label,
                "shards": config.shards,
                "exchange": config.exchange,
            }
        )
        records.append(result)

    # Byte-identity across every configuration, exchange or not.
    assert len({r.pop("fingerprint") for r in records}) == 1

    by_label = {r["label"]: r for r in records}
    exchanged = by_label["sharded x8 exchange"]
    chained = by_label["sharded x8 chained"]
    # The exchange configs actually exercised repartitioned probes, the
    # chained baseline (plan parity with the single store) none.
    assert exchanged["exchange_hits"] > 0
    assert chained["exchange_hits"] == 0

    speedup_exchange = exchanged["churn_ops_per_s"] / chained["churn_ops_per_s"]

    emit_bench_json(
        "E10f",
        {
            "workload": {
                "base_facts": base_facts,
                "keys": NUM_KEYS,
                "hot_keys": HOT_KEYS,
                "fan_keys": FAN_KEYS,
                "fan_width": FAN_WIDTH,
                "churn_rounds": CHURN_ROUNDS,
                "churn_batch": CHURN_BATCH,
                "bulk_rounds": BULK_ROUNDS,
                "bulk_batch": BULK_BATCH,
            },
            "repeats": REPEATS,
            "speedup_exchange_vs_chained": round(speedup_exchange, 2),
            "configs": records,
        },
    )
    emit(format_table(
        ("config", "shards", f"initial, best of {REPEATS} (ms)", "churn ops/s",
         "bulk round (ms)", "bulk ops/s"),
        [
            (r["label"], r["shards"], r["initial_run_ms"], r["churn_ops_per_s"],
             r["bulk_round_ms"], r["bulk_ops_per_s"])
            for r in records
        ],
        title=(
            f"E10f — exchange repartitioning "
            f"({base_facts} base facts, churn {CHURN_ROUNDS}x{2 * CHURN_BATCH} "
            f"ops, bulk {BULK_ROUNDS}x{BULK_BATCH} rows)"
        ),
    ))
    if not pick(False, True):  # full-size runs must show the headline shape
        # Repartitioned probes beat chained ones >1.5x.
        assert speedup_exchange > 1.5, records
