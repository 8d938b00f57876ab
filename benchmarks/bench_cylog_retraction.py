"""E10e — retraction churn on the single relation store.

A 20k-fact add/retract churn workload — the steady-state shape of a busy
platform round — run incrementally and timed against ``run(full=True)``
on the same store.  Every other round retracts mid-chain links, so each
round runs a deletion cascade through the counting/DRed support index.

The churn is retraction-heavy, and ``touched(X) :- link(X, _)`` records
one anonymous-variable support pattern per link.  The support index
hashes those patterns on their concrete positions, so a retracted row
finds its dependents with one probe per pattern shape instead of
matching every pattern of the predicate.
"""

import time

from repro.cylog import SemiNaiveEngine, parse_program
from repro.metrics import format_table

from fastmode import pick

CHURN_CHAINS = pick(2000, 40)
CHURN_DEPTH = pick(10, 5)
CHURN_ROUNDS = pick(10, 3)
CHURN_SIZE = pick(8, 2)
#: Both legs are timed best of this many, as E10d does: each churn
#: round's time is its minimum over fresh engines, and the full run is
#: the fastest of this many ``run(full=True)`` calls on the churned
#: store, so one GC pause or noisy neighbour cannot swing the headline.
REPEATS = 5

RULES = """
    reach(S, Y) :- link(X, Y), reach(S, X).
    reach(S, Y) :- source(S), link(S, Y).
    touched(X) :- link(X, _).
    frontier(S, Y) :- reach(S, Y), not banned(Y).
"""


def _base_links() -> list[tuple[int, int]]:
    return [
        (c * 1000 + i, c * 1000 + i + 1)
        for c in range(CHURN_CHAINS)
        for i in range(CHURN_DEPTH)
    ]


def _build_engine() -> SemiNaiveEngine:
    engine = SemiNaiveEngine(parse_program(RULES))
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


def _timed_churn() -> tuple[SemiNaiveEngine, list[float], int, int]:
    """One fresh engine: (the churned engine, each churn round's s,
    churn ops, tuples joined by the churn rounds)."""
    engine = _build_engine()
    engine.run()
    joined_before = engine.stats.tuples_joined
    ops = 0
    round_s = []
    for round_index in range(CHURN_ROUNDS):
        start = time.perf_counter()
        ops += _churn_round(engine, round_index)
        round_s.append(time.perf_counter() - start)
    assert engine.runs == 1  # every churn round stayed incremental
    assert engine.stats.incremental_runs == CHURN_ROUNDS
    return engine, round_s, ops, engine.stats.tuples_joined - joined_before


def test_e10e_retraction_churn_vs_full(emit, emit_bench_json):
    base_facts = CHURN_CHAINS * CHURN_DEPTH
    runs = [_timed_churn() for _ in range(REPEATS)]
    round_best = [min(times) for times in zip(*(run[1] for run in runs))]
    churn_s = sum(round_best) / CHURN_ROUNDS
    (ops,) = {run[2] for run in runs}
    (churn_joined,) = {run[3] for run in runs}
    (fingerprint,) = {run[0].store.fingerprint() for run in runs}
    engine = runs[-1][0]
    retracted = engine.stats.tuples_retracted
    full_s = float("inf")
    full_joins = set()
    for _ in range(REPEATS):
        joined_before = engine.stats.tuples_joined
        start = time.perf_counter()
        engine.run(full=True)
        full_s = min(full_s, time.perf_counter() - start)
        full_joins.add(engine.stats.tuples_joined - joined_before)
    # The retained store must equal the from-scratch recompute.
    assert engine.store.fingerprint() == fingerprint
    (full_joined,) = full_joins

    speedup = full_s / churn_s if churn_s else float("inf")
    churn_joined_per_round = churn_joined / CHURN_ROUNDS
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
            "churn_ops": ops,
            "mean_round_ms": round(churn_s * 1000, 3),
            "full_run_ms": round(full_s * 1000, 2),
            "ops_per_s": round(ops / (churn_s * CHURN_ROUNDS), 1)
            if churn_s
            else None,
            "tuples_retracted_per_round": round(retracted / CHURN_ROUNDS, 1),
            "tuples_joined_per_round": round(churn_joined_per_round, 1),
            "full_run_tuples_joined": full_joined,
            "joins_full_vs_churn": round(full_joined / churn_joined_per_round, 2)
            if churn_joined
            else None,
            "speedup_churn_vs_full": round(speedup, 2),
        },
    )
    emit(format_table(
        ("measure", "value"),
        [
            ("base facts", base_facts),
            ("churn rounds", CHURN_ROUNDS),
            ("adds+retracts per round", 2 * CHURN_SIZE),
            (f"churn round, best of {REPEATS} (ms)", round(churn_s * 1000, 3)),
            (f"full run, best of {REPEATS} (ms)", round(full_s * 1000, 2)),
            ("tuples retracted per round", round(retracted / CHURN_ROUNDS, 1)),
            ("tuples joined per round", round(churn_joined_per_round, 1)),
            ("tuples joined by a full run", full_joined),
            ("per-round speedup", round(speedup, 2)),
        ],
        title=(
            f"E10e — retraction churn vs full recompute ({base_facts} base "
            f"facts, {CHURN_ROUNDS} rounds x {2 * CHURN_SIZE} add/retract ops)"
        ),
    ))
    if not pick(False, True):  # full-size runs must show the headline shape
        assert speedup > 1.0, speedup
