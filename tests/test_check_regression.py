"""Unit tests for the bench-regression gate script.

The script is loaded by file path (it is a CLI, not a package module)
and pointed at a temporary repo root so the tests control every record
it reads: committed trajectories, fresh smoke records and the committed
smoke baselines.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"


@pytest.fixture()
def gate(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "check_regression_under_test", _SCRIPT
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(module, "BASELINE_PATH", tmp_path / "smoke_speedups.json")
    monkeypatch.setattr(module, "GATED_METRICS", {"EX": ("speedup",)})
    monkeypatch.setattr(module, "CONTEXT_METRICS", {})
    module.shipped_counter_gates = module.COUNTER_GATES
    monkeypatch.setattr(module, "COUNTER_GATES", {})
    return module


def _write(path: Path, record: dict) -> None:
    path.write_text(json.dumps(record), encoding="utf-8")


def _arrange(gate, *, baseline=None, trajectory=None, smoke=None) -> None:
    root = gate.REPO_ROOT
    if baseline is not None:
        _write(gate.BASELINE_PATH, baseline)
    if trajectory is not None:
        _write(root / "BENCH_EX.json", trajectory)
    if smoke is not None:
        _write(root / "BENCH_EX.smoke.json", smoke)


class TestGate:
    def test_passes_when_smoke_meets_floor(self, gate, capsys):
        _arrange(
            gate,
            baseline={"EX": {"speedup": 10.0}},
            trajectory={"speedup": 60.0},
            smoke={"fast_mode": True, "speedup": 9.0},
        )
        assert gate.main([]) == 0
        assert "[ok] EX.speedup" in capsys.readouterr().out

    def test_fails_on_regression(self, gate, capsys):
        _arrange(
            gate,
            baseline={"EX": {"speedup": 10.0}},
            trajectory={"speedup": 60.0},
            smoke={"fast_mode": True, "speedup": 5.0},  # floor is 7.0 at 30%
        )
        assert gate.main([]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_fails_when_smoke_record_missing(self, gate):
        _arrange(
            gate,
            baseline={"EX": {"speedup": 10.0}},
            trajectory={"speedup": 60.0},
        )
        assert gate.main([]) == 1

    def test_fails_when_trajectory_missing(self, gate):
        _arrange(
            gate,
            baseline={"EX": {"speedup": 10.0}},
            smoke={"fast_mode": True, "speedup": 9.0},
        )
        assert gate.main([]) == 1


class TestCounterGate:
    """E10e's work-counter gate: full-run joins per churn-round join."""

    def _arrange_e10e(self, gate, monkeypatch, churn_joins: float) -> None:
        e10e = gate.shipped_counter_gates["E10e"]
        monkeypatch.setattr(gate, "COUNTER_GATES", {"EX": e10e})
        full_joins = 40_000
        _arrange(
            gate,
            baseline={"EX": {"speedup": 10.0}},
            trajectory={"speedup": 60.0},
            smoke={
                "fast_mode": True,
                "speedup": 9.0,
                "tuples_joined_per_round": churn_joins,
                "full_run_tuples_joined": full_joins,
                "joins_full_vs_churn": full_joins / churn_joins,
            },
        )

    def test_passes_when_churn_joins_less(self, gate, monkeypatch, capsys):
        self._arrange_e10e(gate, monkeypatch, churn_joins=500.0)
        assert gate.main([]) == 0
        assert "[ok] EX.joins_full_vs_churn" in capsys.readouterr().out

    def test_fails_when_churn_joins_as_much_as_full_run(
        self, gate, monkeypatch, capsys
    ):
        # A planted regression: the churn leg fell back to full-run work.
        self._arrange_e10e(gate, monkeypatch, churn_joins=40_000.0)
        assert gate.main([]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "EX.joins_full_vs_churn: 1.00 does not exceed 1.00" in out


class TestIncrementalCounterGate:
    """E10d's work-counter gate: full-run joins per incremental-run join."""

    def _arrange_e10d(self, gate, monkeypatch, incremental_joins: float) -> None:
        e10d = gate.shipped_counter_gates["E10d"]
        monkeypatch.setattr(gate, "COUNTER_GATES", {"EX": e10d})
        full_joins = 38_977
        _arrange(
            gate,
            baseline={"EX": {"speedup": 10.0}},
            trajectory={"speedup": 60.0},
            smoke={
                "fast_mode": True,
                "speedup": 9.0,
                "incremental_tuples_joined_per_run": incremental_joins,
                "full_tuples_joined_per_run": full_joins,
                "joins_full_vs_incremental": full_joins / incremental_joins,
            },
        )

    def test_passes_when_incremental_runs_join_less(self, gate, monkeypatch, capsys):
        self._arrange_e10d(gate, monkeypatch, incremental_joins=448.8)
        assert gate.main([]) == 0
        assert "[ok] EX.joins_full_vs_incremental" in capsys.readouterr().out

    def test_fails_when_incremental_runs_join_as_much_as_full(
        self, gate, monkeypatch, capsys
    ):
        # A planted regression: every delta run re-derived from scratch.
        self._arrange_e10d(gate, monkeypatch, incremental_joins=38_977.0)
        assert gate.main([]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "EX.joins_full_vs_incremental: 1.00 does not exceed 1.00" in out


class TestPlannedCounterGate:
    """E10c's work-counter gate: naive-oracle joins per cost-planned join."""

    def _arrange_e10c(self, gate, monkeypatch, cost_joins: float) -> None:
        e10c = gate.shipped_counter_gates["E10c"]
        monkeypatch.setattr(gate, "COUNTER_GATES", {"EX": e10c})
        naive_joins = 13_360
        _arrange(
            gate,
            baseline={"EX": {"speedup": 2.0}},
            trajectory={"speedup": 25.0},
            smoke={
                "fast_mode": True,
                "speedup": 3.0,
                "configs": [
                    {"engine": "cost", "tuples_joined": cost_joins},
                    {"engine": "naive", "tuples_joined": naive_joins},
                ],
                "joins_naive_vs_cost": naive_joins / cost_joins,
            },
        )

    def test_passes_when_cost_planner_joins_less(self, gate, monkeypatch, capsys):
        self._arrange_e10c(gate, monkeypatch, cost_joins=1_330.0)
        assert gate.main([]) == 0
        assert "[ok] EX.joins_naive_vs_cost" in capsys.readouterr().out

    def test_fails_when_cost_planner_joins_as_much_as_naive(
        self, gate, monkeypatch, capsys
    ):
        # A planted regression: the planner lost its index probes and joins
        # every tuple the naive oracle does.
        self._arrange_e10c(gate, monkeypatch, cost_joins=13_360.0)
        assert gate.main([]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "EX.joins_naive_vs_cost: 1.00 does not exceed 1.00" in out


class TestOrphanBaselines:
    def test_orphan_scenario_fails_loudly(self, gate, capsys):
        """A baseline whose scenario left GATED_METRICS must fail, not skip."""
        _arrange(
            gate,
            baseline={
                "EX": {"speedup": 10.0},
                "GONE": {"speedup": 4.0},  # no gated scenario, no BENCH_GONE.json
            },
            trajectory={"speedup": 60.0},
            smoke={"fast_mode": True, "speedup": 9.0},
        )
        assert gate.main([]) == 1
        out = capsys.readouterr().out
        assert "GONE" in out
        assert "matches no gated scenario" in out

    def test_orphan_key_fails_loudly(self, gate, capsys):
        _arrange(
            gate,
            baseline={"EX": {"speedup": 10.0, "old_ratio": 2.0}},
            trajectory={"speedup": 60.0},
            smoke={"fast_mode": True, "speedup": 9.0},
        )
        assert gate.main([]) == 1
        out = capsys.readouterr().out
        assert "EX.old_ratio" in out
        assert "not a gated metric" in out


class TestUpdate:
    def test_update_keeps_min_of_old_and_fresh(self, gate):
        _arrange(
            gate,
            baseline={"EX": {"speedup": 8.0}},
            smoke={"fast_mode": True, "speedup": 11.0},
        )
        assert gate.main(["--update"]) == 0
        written = json.loads(gate.BASELINE_PATH.read_text())
        assert written["EX"]["speedup"] == 8.0  # min(old, fresh)

    def test_reset_takes_fresh_value(self, gate):
        _arrange(
            gate,
            baseline={"EX": {"speedup": 8.0}},
            smoke={"fast_mode": True, "speedup": 11.0},
        )
        assert gate.main(["--update", "--reset"]) == 0
        written = json.loads(gate.BASELINE_PATH.read_text())
        assert written["EX"]["speedup"] == 11.0
