"""Tests for the benchmark's measurement helpers.

Run with ``python3 -m pytest e2ebench -q`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from measure import (  # noqa: E402
    Tracer,
    best_of,
    counter_delta,
    drifted,
    percentile,
    summarize,
    tail_percentile,
    wrap,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- the tail rule -------------------------------------------------------------

@pytest.mark.parametrize(
    "n, expected",
    [
        (10, None),     # nothing beyond even the median
        (19, None),     # median rank 10 leaves 9 beyond
        (20, 50),       # rank 10 leaves exactly 10
        (100, 90),      # p90 rank 90 leaves 10; p91 leaves 9
        (1000, 99),     # p99 rank 990 leaves 10
        (60, 83),       # rank 50 leaves 10; p84 (rank 51) leaves 9
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        samples = list(range(n))
        value = percentile(samples, expected)
        assert sum(1 for s in samples if s > value) >= 10
        if expected < 99:
            above = percentile(samples, expected + 1)
            assert sum(1 for s in samples if s > above) < 10


def test_summarize_reports_count_and_tail():
    summary = summarize([float(i) for i in range(1, 101)])
    assert (summary.n, summary.p50, summary.tail_pct, summary.tail) == (
        100, 50.0, 90, 90.0
    )
    assert summarize([1.0] * 5).tail is None


def test_percentile_rejects_empty():
    with pytest.raises(ValueError):
        percentile([], 50)


# -- self time over nested spans ---------------------------------------------------

def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.enter("round")
    clock.advance(1.0)
    tracer.enter("step")
    clock.advance(2.0)
    tracer.enter("query")
    clock.advance(4.0)
    tracer.exit()          # query: 4
    clock.advance(0.5)
    tracer.exit()          # step: 6.5 total, 2.5 self
    clock.advance(0.25)
    tracer.exit()          # round: 7.75 total, 1.25 self
    spans = tracer.take()["spans"]
    assert spans["query"] == {"count": 1, "total": 4.0, "self": 4.0}
    assert spans["step"] == {"count": 1, "total": 6.5, "self": 2.5}
    assert spans["round"] == {"count": 1, "total": 7.75, "self": 1.25}


def test_reentrant_span_counts_its_interval_once():
    """Crowd4U.step -> CyLogProcessor.run -> ... -> CyLogProcessor.run:
    the inner run is inside the outer one, so the name's total and call
    count cover the outer call only, while self time still splits."""
    clock = FakeClock()
    tracer = Tracer(clock=clock, keep=("run",))
    tracer.enter("step")
    clock.advance(1.0)
    tracer.enter("run")
    clock.advance(2.0)
    tracer.enter("run")
    clock.advance(3.0)
    tracer.exit()          # inner run: 3
    clock.advance(1.0)
    tracer.exit()          # outer run: 6 total, 3 self
    tracer.exit()          # step: 7 total, 1 self
    taken = tracer.take()
    assert taken["spans"]["run"] == {"count": 1, "total": 6.0, "self": 6.0}
    assert taken["spans"]["step"] == {"count": 1, "total": 7.0, "self": 1.0}
    assert taken["calls"]["run"] == [6.0]
    # Self times partition the root interval exactly.
    total_self = sum(s["self"] for s in taken["spans"].values())
    assert total_self == pytest.approx(taken["root_total"]) == 7.0


def test_scoped_counts_and_phase_reset():
    clock = FakeClock()
    tracer = Tracer(clock=clock, scopes=("page",))
    for _ in range(2):
        tracer.enter("page")
        for _ in range(3):
            tracer.enter("query")
            tracer.exit()
        tracer.exit()
    tracer.enter("query")  # outside any page
    tracer.exit()
    taken = tracer.take()
    assert taken["scoped"] == {"page>query": 6}
    assert tracer.take()["spans"] == {}


def test_phase_boundary_refuses_open_spans():
    tracer = Tracer(clock=FakeClock())
    tracer.enter("round")
    with pytest.raises(RuntimeError):
        tracer.take()


def test_wrap_records_spans_even_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    class Layer:
        def work(self, seconds):
            clock.advance(seconds)
            if seconds > 1:
                raise ValueError("too slow")
            return seconds

    wrap(tracer, Layer, "work", "layer.work")
    assert Layer().work(0.5) == 0.5
    with pytest.raises(ValueError):
        Layer().work(2.0)
    assert tracer.take()["spans"]["layer.work"]["count"] == 2


# -- best of replays -------------------------------------------------------------

def test_best_of_takes_each_ops_fastest_replay_in_script_order():
    replays = [
        [5.0, 1.0, 9.0],    # a slow spell on ops 0 and 2
        [2.0, 3.0, 4.0],    # a slow spell on op 1
        [2.5, 1.5, 8.0],
    ]
    assert best_of(replays) == [2.0, 1.0, 4.0]
    assert best_of(replays[:1]) == replays[0]


def test_best_of_refuses_replays_of_different_lengths():
    with pytest.raises(ValueError):
        best_of([[1.0, 2.0], [1.0]])


# -- counter deltas across warm-up -----------------------------------------------

def test_counter_delta_subtracts_the_warmup_snapshot():
    ready = {"platform": {"rounds": 1, "pairs": 500}, "cache": {"hits": 3}}
    end = {
        "platform": {"rounds": 21, "pairs": 900},
        "cache": {"hits": 3, "misses": 7},      # misses born after warm-up
        "label": "wal",                         # non-numeric: dropped
        "flag": True,                           # bools are not counters
    }
    assert counter_delta(ready, end) == {
        "platform": {"rounds": 20, "pairs": 400},
        "cache": {"hits": 0, "misses": 7},
    }


def test_drifted_names_counters_that_differ_between_runs():
    runs = [
        {"engine": {"joined": 10, "runs": 4}, "storage": {"wal_bytes": 99}},
        {"engine": {"joined": 10, "runs": 4}, "storage": {"wal_bytes": 99}},
        {"engine": {"joined": 11, "runs": 4}, "storage": {"wal_bytes": 99}},
    ]
    assert drifted(runs) == ["engine.joined"]
    assert drifted(runs[:2]) == []
