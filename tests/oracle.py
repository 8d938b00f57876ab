"""One differential harness for the five oracles.

Each oracle drives two or more *legs* — implementations promising the
same observable state — through one op stream and compares them after
every op.  :func:`op_stream` draws :class:`Op` records that name their
targets by index; the first leg's ``resolve`` makes each one concrete
against its own state as it is applied, so any sub-stream is valid and a
failing stream shrinks to a minimal one.  A :class:`Leg` has
``apply(op)`` and ``state()``, a map of components: ``dump``
(:func:`dump_canonical` bytes), ``snapshots`` (each project's engine
``store.snapshot()``), ``deltas`` (the added/removed sets each engine run
reported), ``round_deltas``, ``counters`` (``PlatformStats.as_dict()``,
``EngineStats.derivation_counters()``), ``affinity`` and ``report``.
:func:`lockstep` / :func:`agree` compare the components a pair promises
to agree on and name the first op and component that differ.

The platform vocabulary is the serving write vocabulary (``OP_KINDS``,
applied through ``apply_ops``) plus :data:`LIBRARY_KINDS`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import hypothesis
import hypothesis.strategies as st
from hypothesis import HealthCheck, Phase, given, settings

from repro.apps import run_disaster_pack, run_moderation_pack, run_multilingual_pack
from repro.core import Crowd4U, SkillRequirement, TeamConstraints
from repro.core.projects import SchemeKind
from repro.core.relationships import RelationshipStatus
from repro.core.teams import TeamStatus
from repro.serving import WriteOp, apply_ops
from repro.serving.ops import OP_KINDS
from repro.storage import dump_canonical

#: Ops only the library offers (no HTTP route): fact injection and
#: retraction, answer revocation, admin constraint edits, driver churn.
LIBRARY_KINDS = (
    "add_facts", "retract_facts", "revoke_answer", "update_constraints",
    "deactivate_worker",
)

#: The platform vocabulary, ``step`` first (the shrink target) and the
#: common ops weighted up; driver churn is the simulation oracle's own.
PLATFORM_KINDS = (
    ("step",) + tuple(sorted(OP_KINDS - {"step"})) + LIBRARY_KINDS[:-1]
    + ("step", "register_worker", "declare_interest", "confirm_membership")
)

#: The base program every platform-level oracle registers: ``item`` is the
#: injected stream, ``label`` the open predicate answers fill.
CYLOG = """
open label(item: text, tag: text) key (item) asking "Label {item}".
item("i0"). item("i1").
labelled(I, T) :- item(I), label(I, T).
"""
ELIGIBLE_FR = 'eligible(W) :- worker_language(W, "fr", P), P >= 0.5.'


@dataclass(frozen=True)
class Op:
    """One op by index: ``pick`` chooses the target, ``value`` the value."""

    kind: str
    pick: int = 0
    value: int = 0


@st.composite
def op_stream(draw, kinds: Sequence[str], size: int = 40) -> list[Op]:
    """Up to ``size`` ops over ``kinds`` (``kinds[0]`` is the shrink
    target, so make it a cheap one)."""
    op = st.builds(Op, st.sampled_from(kinds), st.integers(0, 63), st.integers(0, 63))
    ops: list[Op] = []
    while len(ops) < size and draw(st.integers(0, size)):
        ops.append(draw(op))
    return ops


def check(stream, replay: Callable[[list[Op]], None], seed: int) -> None:
    """Replay the stream Hypothesis draws under ``seed``; a failure shrinks
    to a minimal stream.  Hypothesis tries the empty stream first, so each
    seed costs one empty and one drawn stream."""

    @hypothesis.seed(seed)
    @settings(
        max_examples=2,
        database=None,
        deadline=None,
        phases=(Phase.generate, Phase.shrink),
        suppress_health_check=list(HealthCheck),
    )
    @given(stream)
    def run(ops: list[Op]) -> None:
        replay(ops)

    run()


class Leg:
    """One implementation under comparison: ``apply(op)`` and ``state()``."""

    name = "leg"

    def resolve(self, op: Any) -> Any:
        """What ``op`` names in this leg's state (None: nothing)."""
        return op


def agree(legs: Sequence[Leg], components: Sequence[str], where: str = "") -> None:
    """Every leg's state equals the first's on ``components``."""
    first, *rest = legs
    want = first.state()
    for leg in rest:
        got = leg.state()
        for name in components:
            message = f"{leg.name} differs from {first.name} on {name!r} {where}"
            assert got[name] == want[name], message


def lockstep(legs: Sequence[Leg], ops, components: Sequence[str]) -> None:
    """Apply each op to every leg (resolved against the first) and require
    agreement after each."""
    agree(legs, components, "before any op")
    for index, op in enumerate(ops):
        concrete = legs[0].resolve(op)
        if concrete is None:
            continue
        for leg in legs:
            leg.apply(concrete)
        agree(legs, components, f"after op {index}: {concrete!r}")


def nonempty(relations: Mapping[str, Any]) -> dict[str, frozenset]:
    """Relations as comparable sets, empty ones dropped."""
    return {pred: frozenset(rows) for pred, rows in relations.items() if rows}


def _random_factors(value: int) -> dict[str, Any]:
    """Worker factors picked by ``value``, as ``POST /workers`` takes them.

    Three languages and three skills: affinity sums over their union, so
    a hash-ordered float sum shows in the hash-seed leg."""
    return {
        "native_languages": [("en", "ja")[value % 2]],
        "languages": {
            "fr": (0.2, 0.4, 0.6, 0.9)[value // 2 % 4],
            "en": (0.5, 0.9)[value % 2],
            "ja": (0.3, 0.7)[value // 3 % 2],
        },
        "region": ("tsukuba", "paris", "lyon", "osaka")[value // 8 % 4],
        "skills": {
            "translation": (0.3, 0.5, 0.7, 0.9)[value % 4],
            "observation": (0.1, 0.4, 0.8)[value % 3],
            "review": (0.2, 0.6)[value // 5 % 2],
        },
        "reliability": (0.6, 0.8, 0.95)[value // 4 % 3],
    }


def random_constraints(value: int) -> TeamConstraints:
    return TeamConstraints(
        min_size=1 + value % 2,
        critical_mass=2 + value // 2 % 2,
        skills=(SkillRequirement("translation", (0.2, 0.4)[value // 4 % 2]),),
    )


def _item(value: int) -> str:
    return f"i{value % 8}"


def _nth(seq: Sequence, index: int):
    return seq[index % len(seq)] if seq else None


def _pairs(kind: str, platform: Crowd4U) -> list[tuple[str, str | None]]:
    """The ``(worker, task)`` pairs a worker op of ``kind`` may name."""
    workers = platform.workers.ids()
    teams = sorted(platform.teams.all(), key=lambda t: t.id)
    if kind in ("confirm_membership", "decline_membership"):
        return [
            (w, t.task_id) for t in teams if t.status is TeamStatus.PROPOSED
            for w in sorted(set(t.members) - set(t.confirmed))
        ]
    if kind == "contribute":
        return [
            (w, t.task_id) for t in teams if t.status is TeamStatus.CONFIRMED
            for w in t.members
        ]
    if kind == "declare_interest":
        return [
            (w, t.id) for w in workers for t in platform.eligible_tasks(w)
            if platform.ledger.status(w, t.id) is RelationshipStatus.ELIGIBLE
        ]
    if kind == "submit_result":
        return [
            (w, t.id) for w in workers for t in platform.tasks_for_worker(w)
            if t.assignee == w and t.parent_task_id is not None
        ]
    return [(w, None) for w in workers]


def resolve_platform(op: Op, platform: Crowd4U) -> tuple[str, dict] | None:
    """``op`` as a concrete ``(kind, payload)``.  Reads no engine state, so
    resolving against one leg cannot perturb it."""
    kind, pick, value = op.kind, op.pick, op.value
    if kind == "step":
        return kind, {"dt": 1.0}
    if kind == "register_worker":
        return kind, {"name": f"w{pick}", "factors": _random_factors(value)}
    items = [(_item(value + i),) for i in range(1 + pick % 3)]
    by_project = {
        "post_task": {"instruction": f"custom-{value}"},
        "supply_answer": {
            "predicate": "label",
            "key_values": {"item": _item(value)},
            "fill_values": {"tag": ("good", "bad", "unsure")[pick % 3]},
        },
        "add_facts": {"predicate": "item", "values": items},
        "retract_facts": {"predicate": "item", "values": items},
        "revoke_answer": {"predicate": "label", "values": (_item(value),)},
        "update_constraints": {"constraints": random_constraints(value)},
    }
    if kind in by_project:
        project = _nth([p.id for p in platform.projects.active()], pick)
        if project is None:
            return None
        return kind, {"project_id": project, **by_project[kind]}
    target = _nth(_pairs(kind, platform), pick)
    if target is None:
        return None
    worker, task = target
    payload = {"worker_id": worker}
    if task is not None:
        payload["task_id"] = task
    if kind == "update_factors":
        factors = _random_factors(value)
        languages = factors["languages"].items()
        payload["fields"] = {
            "native_languages": factors["native_languages"][0],
            "languages": ";".join(f"{lang}:{level}" for lang, level in languages),
            "region": factors["region"],
        }
    elif kind == "submit_result":
        payload["result"] = {"text": f"by-{worker}", "quality": 0.8}
    elif kind == "contribute":
        payload["content"] = f"c{value}"
    return kind, payload


class PlatformLeg(Leg):
    """A :class:`Crowd4U` taking the platform vocabulary.

    ``step`` runs a round (default: the ``step`` write op through
    ``apply_ops``); ``driver`` is a simulation driver, which then owns
    rounds (``tick``) and churn (``deactivate_worker``).
    """

    def __init__(self, name: str, platform: Crowd4U, step=None, driver=None):
        self.name = name
        self.platform = platform
        self.driver = driver
        self.step = driver.tick if driver is not None else step
        self.round_deltas: list = []
        platform.subscribe_round_deltas(self.round_deltas.append)

    def resolve(self, op: Op):
        return resolve_platform(op, self.platform)

    def apply(self, op: tuple[str, dict]) -> None:
        kind, payload = op
        if kind == "step" and self.step is not None:
            self.step()
        elif kind == "deactivate_worker":
            self.driver.deactivate_worker(payload["worker_id"])
        elif kind in OP_KINDS:
            apply_ops(self.platform, [WriteOp(kind, payload)])
        elif kind == "update_constraints":
            self.platform.update_constraints(
                payload["project_id"], payload["constraints"]
            )
        else:  # fact injection and retraction, answer revocation
            processor = self.platform.processor(payload["project_id"])
            getattr(processor, kind)(payload["predicate"], payload["values"])

    def state(self) -> dict[str, Any]:
        platform = self.platform
        projects = platform.projects.all()
        engines = {p.id: platform.processor(p.id).engine for p in projects}
        counters = {p: e.stats.derivation_counters() for p, e in engines.items()}
        state = {
            "dump": dump_canonical(platform.db),
            "snapshots": {p: nonempty(e.store.snapshot()) for p, e in engines.items()},
            "round_deltas": list(self.round_deltas),
            "counters": {"platform": platform.stats.as_dict(), **counters},
            "affinity": list(platform.affinity.pairs()),
        }
        if self.driver is not None:
            state["report"] = self.driver.report
        return state


def seeded_stream(seed: int, size: int = 40) -> list[Op]:
    """A fixed platform stream, for replays outside Hypothesis."""
    rng = random.Random(seed)
    kinds = [rng.choice(PLATFORM_KINDS) for _ in range(size)]
    return [Op(kind, rng.randrange(64), rng.randrange(64)) for kind in kinds]


def _canonical(value: Any) -> Any:
    """``value`` with every set, mapping and dataclass in sorted order, so
    its ``repr`` cannot depend on ``PYTHONHASHSEED``."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.asdict(value)
    if isinstance(value, Mapping):
        return sorted((repr(k), _canonical(v)) for k, v in value.items())
    if isinstance(value, (set, frozenset)):
        return sorted((_canonical(v) for v in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, bytes):
        return hashlib.sha256(value).hexdigest()
    return value


def hash_seed_state() -> list[tuple[str, str]]:
    """``(component, text)`` pairs of one platform stream and the three E15
    scenario packs at sim-diff's sizes: the hash-seed leg runs this under
    two ``PYTHONHASHSEED`` values and requires equal output."""
    platform = Crowd4U(seed=0)
    platform.register_project(
        "p", "req", CYLOG + ELIGIBLE_FR, scheme=SchemeKind.HYBRID
    )
    leg = PlatformLeg("platform", platform)
    lockstep([leg], seeded_stream(0, size=200), ())
    states = {"platform": leg.state()}
    for run in (run_moderation_pack, run_disaster_pack, run_multilingual_pack):
        result = run(n_workers=40, ticks=16, seed=2, delta=True)
        state = PlatformLeg(run.__name__, result.platform).state()
        states[run.__name__] = {**state, "report": result.report, "facts": result.facts}
    return [
        (f"{name} {component}", repr(_canonical(value)))
        for name, state in states.items()
        for component, value in state.items()
    ]
