"""Randomized differential check: delta-stream driver vs snapshot oracle.

Two identical platforms take one op stream (fact injection and retraction
storms, answers and revocations, worker arrivals, factor edits, attrition
and ticks); one is driven by the delta-mode :class:`SimulationDriver`,
the other by snapshot mode (full scans every tick).  After every op their
:func:`dump_canonical` bytes — which include version counters, so delta
mode must perform the same mutations — engine snapshots, round deltas and
reports must be equal.  The hash-seed leg replays one platform stream and
the three E15 packs under ``PYTHONHASHSEED`` 0 and 1 and requires equal
output.

The CI ``sim-diff`` job runs this module with ``SIM_DIFF_EXAMPLES=12``;
the local default keeps the tier-1 suite fast.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import oracle
import pytest
from oracle import CYLOG, Op, PlatformLeg

from repro.apps import (
    run_disaster_pack,
    run_moderation_pack,
    run_multilingual_pack,
)
from repro.core import Crowd4U, SkillRequirement, TeamConstraints
from repro.core.projects import SchemeKind
from repro.sim import BehaviorConfig, BehaviorModel, SimulationDriver, populate
from repro.storage.persistence import dump_canonical

EXAMPLES = int(os.environ.get("SIM_DIFF_EXAMPLES", "3"))

pytestmark = pytest.mark.sim_diff

KINDS = ("step",) * 3 + ("add_facts",) * 2 + (
    "retract_facts", "supply_answer", "revoke_answer", "register_worker",
    "update_factors", "deactivate_worker",
)

_ELIGIBLE = 'eligible(W) :- worker_skill(W, "observation", L), L >= 0.05.'


def legs(seed: int) -> list[PlatformLeg]:
    scheme = list(SchemeKind)[seed % 3]
    pair = []
    for delta in (True, False):
        platform = Crowd4U(seed=seed)
        populate(platform, 18 + 4 * (seed % 3), seed=seed)
        platform.register_project(
            "labelling", "oracle", CYLOG + _ELIGIBLE, scheme=scheme,
            constraints=TeamConstraints(
                min_size=1,
                critical_mass=3,
                skills=(SkillRequirement("observation", 0.2, aggregator="max"),),
                confirmation_window=12.0,
            ),
        )
        behavior = BehaviorModel(BehaviorConfig(base_interest=0.25), seed=seed)
        driver = SimulationDriver(
            platform, behavior=behavior, seed=seed, delta=delta, revisit_period=6.0
        )
        name = "delta" if delta else "snapshot"
        pair.append(PlatformLeg(name, platform, driver=driver))
    return pair


@pytest.mark.parametrize("seed", range(EXAMPLES))
def test_delta_driver_matches_snapshot_oracle(seed: int) -> None:
    def replay(ops):
        oracle.lockstep(
            legs(seed),
            ops + [Op("step")] * 8,
            ("dump", "snapshots", "round_deltas", "report"),
        )

    oracle.check(oracle.op_stream(KINDS, size=48), replay, seed)


@pytest.mark.parametrize(
    "run_pack",
    [run_moderation_pack, run_disaster_pack, run_multilingual_pack],
    ids=["moderation", "disaster", "multilingual"],
)
def test_scenario_packs_match_snapshot_oracle(run_pack) -> None:
    """Each E15 pack replays byte-identically in snapshot mode."""
    delta = run_pack(n_workers=40, ticks=16, seed=2, delta=True)
    snapshot = run_pack(n_workers=40, ticks=16, seed=2, delta=False)
    assert delta.report == snapshot.report
    assert delta.facts == snapshot.facts
    assert dump_canonical(delta.platform.db) == dump_canonical(snapshot.platform.db)


def test_hash_seed_legs_agree() -> None:
    """No state, report or counter may depend on ``PYTHONHASHSEED``."""
    tests = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    legs = [
        subprocess.Popen(
            [sys.executable, "-c",
             "import json, oracle; print(json.dumps(oracle.hash_seed_state()))"],
            env={**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": path},
            stdout=subprocess.PIPE,
            text=True,
        )
        for hash_seed in (0, 1)
    ]
    outputs = [json.loads(leg.communicate()[0]) for leg in legs]
    assert [leg.returncode for leg in legs] == [0, 0]
    for (component, want), (_, got) in zip(*outputs):
        assert got == want, f"PYTHONHASHSEED 0 and 1 differ on {component}"
