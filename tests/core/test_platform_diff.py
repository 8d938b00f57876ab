"""Randomized differential check of the incremental platform round.

Two :class:`Crowd4U` instances take one op stream.  One runs the
dirty-tracked incremental round with its own from-scratch eligibility
cross-check, the other the recompute-everything ``full`` round; after
every op their canonical dumps and engine snapshots must be identical.

The CI ``platform-diff`` job runs this module with
``PLATFORM_DIFF_EXAMPLES=40``; the local default keeps tier-1 fast.
"""

from __future__ import annotations

import os
from functools import partial

import oracle
import pytest
from oracle import CYLOG, ELIGIBLE_FR, PLATFORM_KINDS, Op, PlatformLeg

from repro.core import Crowd4U
from repro.core.projects import SchemeKind

EXAMPLES = int(os.environ.get("PLATFORM_DIFF_EXAMPLES", "6"))

pytestmark = pytest.mark.platform_diff


def legs(seed: int) -> tuple[PlatformLeg, PlatformLeg]:
    """The incremental and the full-round platform, each with three
    workers, one CyLog-eligibility and one constraint-screen project."""
    pair = []
    modes = {"incremental": {"cross_check": True}, "full": {"full": True}}
    for name, mode in modes.items():
        platform = Crowd4U(seed=seed)
        for i, source in enumerate((CYLOG + ELIGIBLE_FR, CYLOG)):
            platform.register_project(
                f"p{i}", "req", source,
                scheme=SchemeKind.SEQUENTIAL,
                constraints=oracle.random_constraints(seed + i),
            )
        pair.append(PlatformLeg(name, platform, step=partial(platform.step, **mode)))
    workers = [Op("register_worker", i, seed * 7 + i) for i in range(3)]
    oracle.lockstep(pair, workers, ())
    return pair[0], pair[1]


@pytest.mark.parametrize("seed", range(EXAMPLES))
def test_incremental_matches_full_recompute(seed: int) -> None:
    def replay(ops):
        pair = legs(seed)
        # Three settling rounds after the stream, still in lockstep.
        oracle.lockstep(pair, ops + [Op("step")] * 3, ("dump", "snapshots"))
        stats = pair[0].platform.stats
        assert stats.eligibility_pairs_checked + stats.eligibility_pairs_skipped > 0

    oracle.check(oracle.op_stream(PLATFORM_KINDS), replay, seed)
