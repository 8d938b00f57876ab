"""CI bench-regression gate: fail the job when a smoke speedup collapses.

The bench-smoke job runs every benchmark in fast mode, producing
``BENCH_<scenario>.smoke.json`` records at the repo root.  This script
then compares the *speedup ratios* in those fresh records against the
committed smoke baselines and fails (exit 1) when any gated metric fell
by more than ``BENCH_REGRESSION_TOLERANCE`` (default 0.30, i.e. >30%).

Two kinds of committed reference exist, used for different things:

* ``BENCH_<scenario>.json`` — the full-size perf trajectory, recorded on
  developer hardware and committed per PR.  Full-size ratios are *not*
  comparable to smoke-size ones (e.g. E10d's incremental-vs-full speedup
  is ~65x full-size but ~6x at smoke sizes), so the gate only checks
  that the trajectory record still exists for every gated scenario and
  prints its headline ratios for context.
* ``benchmarks/baselines/smoke_speedups.json`` — the gate's yardstick:
  per-scenario speedup floors measured at *smoke* size (the minimum of
  several local fast-mode runs, so ordinary noise sits above it).
  Regenerate with ``python benchmarks/check_regression.py --update``
  after an intentional perf change (it keeps the min of old and fresh
  unless ``--reset`` is also given).

Gated metrics are an explicit catalog, not a wildcard: context metrics
(absolute rates and latencies, secondary ratios) are reported next to
them but never gated.  ``COUNTER_GATES`` holds deterministic work-counter
ratios with hard floors: those repeat exactly, so they take no tolerance
and no baseline.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = Path(__file__).resolve().parent / "baselines" / "smoke_speedups.json"

#: scenario -> gated metric keys.  The metric value is the *maximum*
#: occurrence of the key anywhere in the record (per-config lists report
#: one value per configuration; the headline is the best one).
GATED_METRICS: dict[str, tuple[str, ...]] = {
    # Cost-planned semi-naive engine vs the naive_evaluate oracle.
    "E10c": ("speedup_cost_vs_naive",),
    "E10d": ("speedup_vs_full",),
    # Retraction churn rounds vs a full recompute of the same store.
    "E10e": ("speedup_churn_vs_full",),
    "E11": ("speedup_snapshot_vs_replay",),
    # Absolute throughput, not a ratio: the committed smoke floor is set
    # conservatively low so only a serving-path collapse trips it.
    "E14": ("sustained_rps",),
    # Delta-stream scenario packs: steady-state tick cost, delta vs the
    # snapshot-scan oracle on the same traffic.
    "E15a": ("speedup_delta_vs_snapshot",),
    "E15b": ("speedup_delta_vs_snapshot",),
    "E15c": ("speedup_delta_vs_snapshot",),
}

#: scenario -> {metric: floor} for deterministic work-counter ratios:
#: the same code repeats them exactly, so no tolerance applies, and the
#: optimised leg must do strictly less work than its baseline (a ratio
#: of 1.0 fails).
COUNTER_GATES: dict[str, dict[str, float]] = {
    # Tuples the naive oracle joins per tuple the cost-planned engine joins.
    "E10c": {"joins_naive_vs_cost": 1.0},
    # Tuples one full run joins per tuple one incremental delta run joins.
    "E10d": {"joins_full_vs_incremental": 1.0},
    # Tuples one full run joins per tuple one churn round joins.
    "E10e": {"joins_full_vs_churn": 1.0},
}

#: Reported next to the gated metrics but never gated.
CONTEXT_METRICS: dict[str, tuple[str, ...]] = {
    "E11": ("mutation_ops_per_s",),
    "E14": ("p99_ms", "coalescing_x"),
    "E15a": ("ticks_per_s", "p99_tick_ms"),
    "E15b": ("ticks_per_s", "p99_tick_ms"),
    "E15c": ("ticks_per_s", "p99_tick_ms"),
}


def _collect(record, key: str) -> list[float]:
    """Every numeric value stored under ``key`` anywhere in ``record``."""
    values: list[float] = []
    if isinstance(record, dict):
        for k, v in record.items():
            if k == key and isinstance(v, (int, float)) and not isinstance(v, bool):
                values.append(float(v))
            else:
                values.extend(_collect(v, key))
    elif isinstance(record, list):
        for item in record:
            values.extend(_collect(item, key))
    return values


def _metric(record, key: str) -> float | None:
    values = _collect(record, key)
    return max(values) if values else None


def _load(path: Path) -> dict | None:
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def _update_baselines(reset: bool) -> int:
    existing = (_load(BASELINE_PATH) or {}) if not reset else {}
    for scenario, keys in GATED_METRICS.items():
        fresh = _load(REPO_ROOT / f"BENCH_{scenario}.smoke.json")
        if fresh is None:
            print(f"[update] no fresh smoke record for {scenario}, skipping")
            continue
        slot = existing.setdefault(scenario, {})
        for key in keys:
            value = _metric(fresh, key)
            if value is None:
                continue
            old = slot.get(key)
            slot[key] = round(min(old, value) if old is not None else value, 3)
    BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
    BASELINE_PATH.write_text(
        json.dumps(existing, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"[update] wrote {BASELINE_PATH.relative_to(REPO_ROOT)}")
    return 0


def main(argv: list[str]) -> int:
    if "--update" in argv:
        return _update_baselines(reset="--reset" in argv)

    tolerance = float(os.environ.get("BENCH_REGRESSION_TOLERANCE", "0.30"))
    baselines = _load(BASELINE_PATH)
    if baselines is None:
        print(f"error: missing committed baselines at {BASELINE_PATH}")
        return 1

    failures: list[str] = []
    for scenario, keys in GATED_METRICS.items():
        trajectory = _load(REPO_ROOT / f"BENCH_{scenario}.json")
        if trajectory is None:
            failures.append(
                f"{scenario}: committed trajectory BENCH_{scenario}.json is missing"
            )
            continue
        fresh = _load(REPO_ROOT / f"BENCH_{scenario}.smoke.json")
        if fresh is None:
            failures.append(
                f"{scenario}: bench-smoke produced no BENCH_{scenario}.smoke.json"
            )
            continue
        if not fresh.get("fast_mode"):
            failures.append(f"{scenario}: smoke record was not a fast-mode run")
            continue
        for key in keys:
            value = _metric(fresh, key)
            floor_base = baselines.get(scenario, {}).get(key)
            committed = _metric(trajectory, key)
            if value is None:
                failures.append(f"{scenario}.{key}: missing from the smoke record")
                continue
            if floor_base is None:
                print(
                    f"[warn] {scenario}.{key}: no smoke baseline "
                    f"(smoke={value:.2f}, full-size trajectory="
                    f"{committed if committed is not None else 'n/a'}) — not gated"
                )
                continue
            floor = floor_base * (1.0 - tolerance)
            status = "ok" if value >= floor else "REGRESSION"
            print(
                f"[{status}] {scenario}.{key}: smoke={value:.2f} "
                f"floor={floor:.2f} (baseline={floor_base:.2f}, "
                f"tolerance={tolerance:.0%}, full-size trajectory="
                f"{committed if committed is not None else 'n/a'})"
            )
            if value < floor:
                failures.append(
                    f"{scenario}.{key}: {value:.2f} fell below {floor:.2f} "
                    f"(baseline {floor_base:.2f} - {tolerance:.0%})"
                )
        for key, floor in COUNTER_GATES.get(scenario, {}).items():
            value = _metric(fresh, key)
            if value is None:
                failures.append(f"{scenario}.{key}: missing from the smoke record")
                continue
            status = "ok" if value > floor else "REGRESSION"
            print(
                f"[{status}] {scenario}.{key}: smoke={value:.2f} must exceed "
                f"{floor:.2f} (work counter, no tolerance)"
            )
            if value <= floor:
                failures.append(
                    f"{scenario}.{key}: {value:.2f} does not exceed {floor:.2f}"
                )
        for key in CONTEXT_METRICS.get(scenario, ()):
            value = _metric(fresh, key)
            if value is not None:
                print(f"[info] {scenario}.{key}: smoke={value:.2f} (not gated)")

    # Orphaned baselines fail loudly: a baseline entry whose scenario or
    # key is no longer in the gated catalog would otherwise never be
    # visited — a renamed scenario could silently lose its gate.
    for scenario, slot in sorted(baselines.items()):
        gated_keys = GATED_METRICS.get(scenario)
        if gated_keys is None:
            failures.append(
                f"{scenario}: baseline entry in {BASELINE_PATH.name} matches no "
                "gated scenario — remove it or restore the GATED_METRICS entry"
            )
            continue
        for key in sorted(set(slot) - set(gated_keys)):
            failures.append(
                f"{scenario}.{key}: baseline key in {BASELINE_PATH.name} is not "
                "a gated metric — remove it or add it to GATED_METRICS"
            )

    if failures:
        print("\nbench-regression gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nbench-regression gate passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
