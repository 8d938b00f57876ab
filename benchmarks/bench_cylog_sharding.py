"""E10e — sharded relation store against the single store.

Single-store vs hash-sharded engines on a 10k+ fact add/retract churn
workload — the steady-state shape of a busy platform round.  Results
must be byte-identical across both configurations (the shard-diff
oracle gates this in CI, the bench re-checks it on the fingerprints).

Where the win comes from: the churn is retraction-heavy, and the single
store's deletion cascade scans *every* anonymous-variable support pattern
of a predicate per retracted row; the sharded support index partitions
those patterns by key-prefix shard, so the scan touches ~1/N of them.
"""

import time

from repro.cylog import SemiNaiveEngine, ShardConfig, parse_program
from repro.metrics import format_table

from fastmode import pick

CHURN_CHAINS = pick(2000, 40)
CHURN_DEPTH = pick(10, 5)
CHURN_ROUNDS = pick(10, 3)
CHURN_SIZE = pick(8, 2)
#: Each configuration is timed best of this many fresh engines, as E10d
#: does: the initial run is the fastest one, and each churn round's time
#: is its minimum over the engines, so one GC pause or noisy neighbour
#: cannot swing the headline.
REPEATS = 5

RULES = """
    reach(S, Y) :- link(X, Y), reach(S, X).
    reach(S, Y) :- source(S), link(S, Y).
    touched(X) :- link(X, _).
    frontier(S, Y) :- reach(S, Y), not banned(Y).
"""

#: (label, config) — the benchmarked configurations.
CONFIGS = (
    ("single-store", ShardConfig()),
    ("sharded x8", ShardConfig(shards=8)),
)


def _base_links() -> list[tuple[int, int]]:
    return [
        (c * 1000 + i, c * 1000 + i + 1)
        for c in range(CHURN_CHAINS)
        for i in range(CHURN_DEPTH)
    ]


def _build_engine(config: ShardConfig) -> SemiNaiveEngine:
    engine = SemiNaiveEngine(parse_program(RULES), shard_config=config)
    engine.add_facts("link", _base_links())
    engine.add_facts("source", [(c * 1000,) for c in range(0, CHURN_CHAINS, 4)])
    engine.add_facts("banned", [(c * 1000 + 2,) for c in range(0, CHURN_CHAINS, 9)])
    return engine


def _victims(round_index: int) -> list[tuple[int, int]]:
    """The mid-chain links round ``round_index`` cuts (even rounds)."""
    step = max(1, CHURN_CHAINS // CHURN_SIZE)
    offset = round_index % (CHURN_DEPTH - 1)
    return [
        (c * 1000 + offset, c * 1000 + offset + 1)
        for c in range(0, CHURN_CHAINS, step)
    ][:CHURN_SIZE]


def _churn_round(engine: SemiNaiveEngine, round_index: int) -> int:
    """One platform-round-sized batch of adds + retracts; returns #ops."""
    step = max(1, CHURN_CHAINS // CHURN_SIZE)
    extensions = [
        (c * 1000 + CHURN_DEPTH + round_index,
         c * 1000 + CHURN_DEPTH + round_index + 1)
        for c in range(0, CHURN_CHAINS, step)
    ][:CHURN_SIZE]
    if round_index % 2:
        # Restore the links the *previous* round cut: real re-insertions
        # that re-derive the severed chain suffixes.
        victims = _victims(round_index - 1)
        engine.add_facts("link", victims)
    else:
        victims = _victims(round_index)
        engine.retract_facts("link", victims)
    engine.add_facts("link", extensions)
    engine.run()
    return len(victims) + len(extensions)


def _timed_churn(config: ShardConfig) -> tuple[float, list[float], int, str]:
    """One fresh engine: (initial run s, each churn round's s, churn ops,
    final store fingerprint)."""
    engine = _build_engine(config)
    start = time.perf_counter()
    engine.run()
    full_s = time.perf_counter() - start
    ops = 0
    round_s = []
    for round_index in range(CHURN_ROUNDS):
        start = time.perf_counter()
        ops += _churn_round(engine, round_index)
        round_s.append(time.perf_counter() - start)
    assert engine.runs == 1  # every churn round stayed incremental
    assert engine.stats.incremental_runs == CHURN_ROUNDS
    return full_s, round_s, ops, engine.store.fingerprint()


def test_e10e_sharded_vs_single_store_churn(emit, emit_bench_json):
    base_facts = CHURN_CHAINS * CHURN_DEPTH
    records = []
    fingerprints = set()
    single_ops_per_s = None
    for label, config in CONFIGS:
        runs = [_timed_churn(config) for _ in range(REPEATS)]
        full_s = min(run[0] for run in runs)
        churn_s = sum(map(min, zip(*(run[1] for run in runs))))
        (ops,) = {run[2] for run in runs}
        fingerprints.update(run[3] for run in runs)
        ops_per_s = ops / churn_s if churn_s else float("inf")
        if single_ops_per_s is None:
            single_ops_per_s = ops_per_s
        records.append(
            {
                "label": label,
                "shards": config.shards,
                "initial_run_ms": round(full_s * 1000, 2),
                "churn_rounds": CHURN_ROUNDS,
                "churn_ops": ops,
                "mean_round_ms": round(churn_s * 1000 / CHURN_ROUNDS, 3),
                "ops_per_s": round(ops_per_s, 1),
                "speedup_vs_single": round(ops_per_s / single_ops_per_s, 2),
            }
        )
    # Every configuration must land on the byte-identical store.
    assert len(fingerprints) == 1

    emit_bench_json(
        "E10e",
        {
            "workload": {
                "base_facts": base_facts,
                "chains": CHURN_CHAINS,
                "depth": CHURN_DEPTH,
                "rounds": CHURN_ROUNDS,
                "adds_retracts_per_round": 2 * CHURN_SIZE,
            },
            "repeats": REPEATS,
            "configs": records,
        },
    )
    emit(format_table(
        ("config", "shards", f"initial, best of {REPEATS} (ms)",
         f"round, best of {REPEATS} (ms)", "ops/s", "speedup"),
        [
            (r["label"], r["shards"], r["initial_run_ms"],
             r["mean_round_ms"], r["ops_per_s"], r["speedup_vs_single"])
            for r in records
        ],
        title=(
            f"E10e — sharded vs single-store churn ({base_facts} base facts, "
            f"{CHURN_ROUNDS} rounds x {2 * CHURN_SIZE} add/retract ops)"
        ),
    ))
    if not pick(False, True):  # full-size runs must show the headline shape
        # The sharded store must beat the single store on churn.
        sharded = next(r for r in records if r["shards"] > 1)
        assert sharded["ops_per_s"] > single_ops_per_s, records
