"""E13 — interval-encoded hierarchy index vs fixpoint joins (PR 8).

Deep task-decomposition trees are the workload the interval access path
exists for: a transitive closure ``tc`` over a tree-shaped ``edge``
relation, churned by subtree moves (a decomposed task re-parented under a
different parent) and leaf churn, probed by descendant queries.

Two engines run the identical scenario on the identical store layout;
the only difference is the access path:

* **interval** (the default): the planner detects the linear closure,
  the engine answers the stratum from
  :class:`~repro.cylog.indexes.IntervalHierarchyIndex` range scans, and
  every edge delta becomes the exact added/removed closure pairs.
* **fixpoint** (``SemiNaiveEngine(program, interval=False)``): classic semi-naive
  rounds with support counting and DRed over-delete / re-derive.

The headline gate — ``speedup_interval_vs_fixpoint`` — is the churn-phase
wall-clock ratio (fixpoint / interval) at tree depth >= 8; the acceptance
target is >= 10x.  The initial-build ratio is reported as context.  Store
fingerprints are cross-checked after the build and after every churn
round, so the speedup is measured on bit-identical results.
"""

import time

from repro.cylog import SemiNaiveEngine, parse_program
from repro.metrics import format_table

from fastmode import pick

N_NODES = pick(20_000, 900)
BRANCH = pick(3, 2)
CHURN_ROUNDS = pick(10, 6)
LEAF_BATCH = pick(200, 10)
QUERY_PROBES = pick(400, 40)
#: Subtree-move victims live at this depth: deep enough that the moved
#: subtree is a real decomposition (hundreds of nodes full-size), shallow
#: enough that the fixpoint leg finishes in CI-able time.
VICTIM_DEPTH = pick(4, 3)

RULES = """
    tc(X, Y) :- edge(X, Y).
    tc(X, Z) :- tc(X, Y), edge(Y, Z).
"""

#: (label, interval enabled)
MODES = (("interval", True), ("fixpoint", False))


def _edges() -> list[tuple[int, int]]:
    """A complete ``BRANCH``-ary tree: parent(i) = (i - 1) // BRANCH."""
    return [((i - 1) // BRANCH, i) for i in range(1, N_NODES)]


def _depth(node: int) -> int:
    depth = 0
    while node:
        node = (node - 1) // BRANCH
        depth += 1
    return depth


def _movable_subtrees() -> list[int]:
    """Nodes at ``VICTIM_DEPTH`` — subtrees big enough that a move is real work."""
    lo = sum(BRANCH**d for d in range(VICTIM_DEPTH))
    hi = sum(BRANCH**d for d in range(VICTIM_DEPTH + 1))
    return list(range(lo, min(hi, N_NODES)))


def _subtree_leaf(root: int) -> int:
    """Deepest first child under ``root`` (stays inside the subtree)."""
    node = root
    while node * BRANCH + 1 < N_NODES:
        node = node * BRANCH + 1
    return node


def _build_engine(interval: bool) -> SemiNaiveEngine:
    engine = SemiNaiveEngine(parse_program(RULES), interval=interval)
    engine.add_facts("edge", _edges())
    return engine


def _run_mode(interval: bool) -> dict:
    engine = _build_engine(interval)
    start = time.perf_counter()
    engine.run()
    build_s = time.perf_counter() - start
    build_fp = engine.store.fingerprint()

    victims = _movable_subtrees()
    fingerprints = []
    start = time.perf_counter()
    for round_index in range(CHURN_ROUNDS):
        # Subtree move: re-parent a mid-depth task under a leaf of the
        # *previous* victim's subtree, then move it back — the tree
        # shape is restored so every round does the same work.
        victim = victims[round_index % len(victims)]
        old_parent = (victim - 1) // BRANCH
        new_parent = _subtree_leaf(victims[(round_index + 1) % len(victims)])
        engine.retract_facts("edge", [(old_parent, victim)])
        engine.add_facts("edge", [(new_parent, victim)])
        engine.run()
        engine.retract_facts("edge", [(new_parent, victim)])
        engine.add_facts("edge", [(old_parent, victim)])
        engine.run()
        # Leaf churn: a fresh batch of subtasks appears and resolves.
        base = 10_000_000 + round_index * LEAF_BATCH
        rows = [(victim, base + j) for j in range(LEAF_BATCH)]
        engine.add_facts("edge", rows)
        engine.run()
        engine.retract_facts("edge", rows)
        engine.run()
        fingerprints.append(engine.store.fingerprint())
    churn_s = time.perf_counter() - start

    # Descendant queries: single indexed range/bucket probes over the
    # materialised closure — identical on both legs by construction.
    tc = engine.store.maybe("tc")
    start = time.perf_counter()
    probed = 0
    step = max(1, N_NODES // QUERY_PROBES)
    for node in range(0, N_NODES, step):
        probed += len(tc.lookup((0,), (node,)))
    query_s = time.perf_counter() - start

    assert engine.runs == 1  # every churn round stayed incremental
    return {
        "mode": "interval" if interval else "fixpoint",
        "build_ms": round(build_s * 1000, 1),
        "churn_s": round(churn_s, 3),
        "churn_rounds_per_s": round(
            CHURN_ROUNDS / churn_s if churn_s else 0.0, 2
        ),
        "query_ms": round(query_s * 1000, 1),
        "descendant_rows_probed": probed,
        "tc_rows": len(engine.facts("tc")),
        "interval_scans": engine.stats.interval_scans,
        "interval_renumbers": engine.stats.interval_renumbers,
        "build_fingerprint": build_fp,
        "churn_fingerprints": fingerprints,
        "_build_s": build_s,
        "_churn_s": churn_s,
    }


def test_e13_interval_hierarchy(emit, emit_bench_json):
    depth = max(_depth(node) for node in range(N_NODES))
    assert depth >= 8, depth

    records = {label: _run_mode(interval) for label, interval in MODES}
    interval, fixpoint = records["interval"], records["fixpoint"]

    # Bit-identity: both access paths land on the same store after the
    # build and after every single churn round.
    assert interval.pop("build_fingerprint") == fixpoint.pop("build_fingerprint")
    assert interval.pop("churn_fingerprints") == fixpoint.pop("churn_fingerprints")
    # The interval path actually served the closure (and only it).
    assert interval["interval_scans"] > 0
    assert fixpoint["interval_scans"] == 0

    speedup_churn = fixpoint.pop("_churn_s") / interval.pop("_churn_s")
    speedup_build = fixpoint.pop("_build_s") / interval.pop("_build_s")

    emit_bench_json(
        "E13",
        {
            "workload": {
                "nodes": N_NODES,
                "branch": BRANCH,
                "depth": depth,
                "churn_rounds": CHURN_ROUNDS,
                "leaf_batch": LEAF_BATCH,
                "query_probes": QUERY_PROBES,
            },
            "speedup_interval_vs_fixpoint": round(speedup_churn, 2),
            "speedup_build_interval_vs_fixpoint": round(speedup_build, 2),
            "modes": list(records.values()),
        },
    )
    emit(format_table(
        ("mode", "build ms", "churn s", "rounds/s", "query ms",
         "tc rows", "ivl scans", "ivl renumbers"),
        [
            (r["mode"], r["build_ms"], r["churn_s"], r["churn_rounds_per_s"],
             r["query_ms"], r["tc_rows"], r["interval_scans"],
             r["interval_renumbers"])
            for r in records.values()
        ],
        title=(
            f"E13 — interval vs fixpoint on a {N_NODES}-node depth-{depth} "
            f"tree ({CHURN_ROUNDS} churn rounds: subtree moves + "
            f"{LEAF_BATCH}-leaf batches)"
        ),
    ))
    # The headline gate: incremental maintenance under churn.
    assert speedup_churn >= 10.0, (speedup_churn, records)
