"""The benchmark's deployments, built only from the platform's public API.

``serving_platform`` is the platform behind the ``submit`` workload:
the server launcher builds it on the WAL backend, and the op
script generator builds the same platform in memory as its model (and
as the replay oracle).  ``crowd_platform`` is the ``crowd`` workload's
large-population moderation deployment.

Both are fixed, like a dataset: their populations and projects come
from :data:`DEPLOYMENT_SEED`, and a run's seed draws only its script.
"""

from __future__ import annotations

import json

from repro.apps.common import pack_platform
from repro.apps.moderation import build_moderation_project
from repro.config import RuntimeConfig
from repro.core import AffinityWeights, Crowd4U, TeamConstraints
from repro.core.projects import SchemeKind
from repro.sim import populate

#: Reviews may be open-predicate answers or team results; the verdict
#: column is free text so both paths land in the same relation.
_REVIEW_PROGRAM = """\
open review(item: text, verdict: text) key (item) asking "Review item {{item}}".
{items}
reviewed(I, V) :- item(I), review(I, V).
eligible(W) :- worker_skill(W, "observation", L), L >= {floor}.
n_reviewed(count<I>) :- reviewed(I, V).
"""

#: Seed of every deployment's population, projects and platform.  Built
#: from the run's seed instead, the population moved a serving run's
#: throughput twofold from seed to seed (pages list more or fewer tasks
#: and relationships), more than a code change is expected to.
DEPLOYMENT_SEED = 0

#: Serving deployment sizes: ~1k volunteers, a few hundred demanded items.
SERVING_WORKERS = 1000
SERVING_ITEMS = 200
#: Eligibility floor: each item draws about 60 qualified workers.
SERVING_SKILL_FLOOR = 0.85
#: WAL snapshot compaction period, in appended records.
WAL_COMPACT_EVERY = 1500

#: Crowd deployment: 5k workers with a high eligibility floor, so each
#: moderation task draws a couple of hundred candidates (the E15a
#: shape).  Larger crowds spread wider from run to run on a shared
#: 2-vCPU guest: over five seeds in one hour, 10k workers gave quartile
#: spreads of 0.18-0.26 and 5k workers 0.15-0.20 (20k: about twice 10k's).
CROWD_WORKERS = 5000
CROWD_SKILL_FLOOR = 0.93
CROWD_SEED_ITEMS = 4


def review_program(n_items: int, skill_floor: float) -> str:
    items = "\n".join(
        f"item({json.dumps(f'it-{i:04d}')})." for i in range(n_items)
    )
    return _REVIEW_PROGRAM.format(items=items, floor=skill_floor)


def serving_config(wal_path: str | None) -> RuntimeConfig:
    """The WAL deployment when ``wal_path`` is given, memory otherwise."""
    if wal_path is None:
        return RuntimeConfig()
    return RuntimeConfig(
        backend="wal",
        path=wal_path,
        backend_options={"compact_every": WAL_COMPACT_EVERY},
    )


def serving_platform(wal_path: str | None = None) -> tuple[Crowd4U, str]:
    """Populate, register the review project and run the first round."""
    platform = Crowd4U(
        seed=DEPLOYMENT_SEED,
        affinity_weights=AffinityWeights(max_neighbors=8),
        config=serving_config(wal_path),
    )
    populate(platform, SERVING_WORKERS, seed=DEPLOYMENT_SEED)
    project = platform.register_project(
        name="item-review",
        requester="curators",
        cylog_source=review_program(SERVING_ITEMS, SERVING_SKILL_FLOOR),
        scheme=SchemeKind.SEQUENTIAL,
        constraints=TeamConstraints(
            min_size=1, critical_mass=2, confirmation_window=1000.0
        ),
    )
    platform.step()
    return platform, project.id


def crowd_platform() -> tuple[Crowd4U, str]:
    """The moderation pack's platform at :data:`CROWD_WORKERS`."""
    platform = pack_platform(CROWD_WORKERS, DEPLOYMENT_SEED)
    seed_items = [f"item-seed-{i:02d}" for i in range(CROWD_SEED_ITEMS)]
    project = build_moderation_project(
        platform, seed_items, skill_floor=CROWD_SKILL_FLOOR
    )
    return platform, project.id
