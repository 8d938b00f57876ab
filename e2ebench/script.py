"""Fixed, seeded op scripts for the ``submit`` workload.

A script is generated against an in-memory *model* of the deployment
(:func:`deploy.serving_platform` without a WAL path): every write is
chosen from the model's current state, applied to it through
:func:`repro.serving.apply_ops` exactly as the server's drainer applies
one admitted write, and must succeed.  So every op is valid at the
point it is issued, and the model's final ``dump_canonical`` is the
replay digest the server's end state must equal.  :func:`replay`
recomputes that digest under another ``PYTHONHASHSEED``.

One client issues the script over one keep-alive connection, one op at
a time, so the server sees the ops in script order and applies each
write as its own tick — the same work, and the same counters, on every
run of one seed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import random
import sys
from dataclasses import dataclass
from typing import Any

from repro.core.relationships import RelationshipStatus
from repro.core.tasks import TaskKind, TaskStatus
from repro.serving import WriteOp, apply_ops
from repro.sim import zipf_weights
from repro.storage import dump_canonical

from deploy import serving_platform

#: The op mix: relative per-op draws.  A drawn write with no valid
#: target falls through ``_FALLBACK`` (posting a task is always valid).
#: Every ``STEP_EVERY``-th op is a ``POST /step`` round.
WEIGHTS = {
    "page": 24, "ui": 1, "answer": 11, "post": 5, "interest": 27,
    "confirm": 16, "submit": 16,
}
STEP_EVERY = 10

#: Zipf exponent of task and request popularity: the exponent the
#: disaster pack draws its flash-crowd surges with.
POPULARITY_S = 1.1

_FALLBACK = ("submit", "confirm", "interest", "answer", "post")
_VERDICTS = ("keep", "remove", "escalate")


@dataclass(frozen=True)
class Op:
    """One script op: its latency class, HTTP request and model write."""

    cls: str  # "read" | "write" | "round"
    method: str
    path: str
    body: dict[str, Any] | None = None
    write: WriteOp | None = None

    def as_record(self) -> dict[str, Any]:
        return {
            "cls": self.cls, "method": self.method, "path": self.path,
            "body": self.body,
            "write": self.write.as_record() if self.write else None,
        }

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "Op":
        write = record["write"]
        return cls(
            record["cls"], record["method"], record["path"], record["body"],
            WriteOp.from_record(write) if write else None,
        )


def _digest(platform) -> str:
    return hashlib.sha256(dump_canonical(platform.db)).hexdigest()


@functools.lru_cache(maxsize=None)
def _zipf_cum_weights(n: int) -> tuple[float, ...]:
    return tuple(itertools.accumulate(zipf_weights(n, POPULARITY_S)))


def _popular(rng: random.Random, n: int) -> int:
    """A rank in ``[0, n)`` drawn from Zipf(:data:`POPULARITY_S`)."""
    return rng.choices(range(n), cum_weights=_zipf_cum_weights(n))[0]


class _Generator:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"e2ebench/submit/{seed}")
        self.platform, self.project_id = serving_platform()
        self.workers = sorted(self.platform.workers.ids())
        self.posted = 0

    # -- reads --------------------------------------------------------------
    def _page(self) -> Op:
        worker = self.rng.choice(self.workers)
        return Op("read", "GET", f"/workers/{worker}/page")

    def _ui(self) -> Op | None:
        tasks = self.platform.pool.open_tasks(self.project_id)
        if not tasks:
            return None
        task = tasks[_popular(self.rng, len(tasks))]
        worker = task.assignee or self.workers[0]
        return Op("read", "GET", f"/tasks/{task.id}/ui?worker={worker}")

    # -- writes (each returns None when it has no valid target) ---------------
    def _interest(self) -> Op | None:
        tasks = self.platform.pool.pending_root_tasks(self.project_id)
        ledger = self.platform.ledger
        for _ in range(4):
            if not tasks:
                return None
            task = tasks[_popular(self.rng, len(tasks))]
            candidates = ledger.workers_with_status(
                task.id, RelationshipStatus.ELIGIBLE
            )
            if candidates:
                worker = self.rng.choice(candidates)
                return self._write(
                    f"/tasks/{task.id}/interest", {"worker_id": worker},
                    WriteOp("declare_interest",
                            {"worker_id": worker, "task_id": task.id}),
                )
        return None

    def _confirm(self) -> Op | None:
        proposed = self.platform.pool.by_status(
            TaskStatus.PROPOSED, self.project_id
        )
        for task in proposed:
            team = self.platform.teams.get(task.team_id)
            waiting = [m for m in team.members if m not in team.confirmed]
            if waiting:
                worker = waiting[0]
                return self._write(
                    f"/tasks/{task.id}/confirm", {"worker_id": worker},
                    WriteOp("confirm_membership",
                            {"worker_id": worker, "task_id": task.id}),
                )
        return None

    def _submit(self) -> Op | None:
        micro = [
            task
            for task in self.platform.pool.open_tasks(self.project_id)
            if task.kind in (TaskKind.DRAFT, TaskKind.REVIEW)
            and task.assignee is not None
        ]
        if not micro:
            return None
        task = micro[self.rng.randrange(len(micro))]
        result = {
            "text": f"reviewed by {task.assignee}",
            "answer": self.rng.choice(_VERDICTS),
            "quality": round(self.rng.uniform(0.5, 1.0), 3),
        }
        return self._write(
            f"/tasks/{task.id}/submit",
            {"worker_id": task.assignee, "result": result},
            WriteOp("submit_result", {
                "task_id": task.id, "worker_id": task.assignee,
                "result": result,
            }),
        )

    def _answer(self) -> Op | None:
        processor = self.platform.processor(self.project_id)
        pending = processor.pending_requests()
        if not pending:
            return None
        request = pending[_popular(self.rng, len(pending))]
        body = {
            "predicate": request.predicate,
            "key_values": request.key_mapping,
            "fill_values": {"verdict": self.rng.choice(_VERDICTS)},
        }
        return self._write(
            f"/projects/{self.project_id}/answers", body,
            WriteOp("supply_answer", {"project_id": self.project_id, **body}),
        )

    def _post(self) -> Op:
        self.posted += 1
        body = {"instruction": f"curate collection {self.posted:04d}"}
        return self._write(
            f"/projects/{self.project_id}/tasks", body,
            WriteOp("post_task", {"project_id": self.project_id, **body}),
        )

    def _write(self, path: str, body: dict[str, Any], write: WriteOp) -> Op:
        return Op("write", "POST", path, body, write)

    # -- generation -----------------------------------------------------------
    def _draw(self) -> Op:
        kind = self.rng.choices(list(WEIGHTS), weights=list(WEIGHTS.values()))[0]
        if kind == "page":
            return self._page()
        if kind == "ui":
            return self._ui() or self._page()
        order = (kind,) + tuple(k for k in _FALLBACK if k != kind)
        for candidate in order:
            op = getattr(self, f"_{candidate}")()
            if op is not None:
                return op
        raise AssertionError("post_task is always valid")

    def _apply(self, op: Op) -> None:
        (outcome,) = apply_ops(self.platform, [op.write])
        if not outcome.ok:
            raise RuntimeError(
                f"script generator issued an invalid op {op.method} {op.path}: "
                f"{outcome.error}"
            )

    def generate(self, n_ops: int) -> tuple[list[Op], str]:
        step = WriteOp("step", {"dt": 1.0})
        ops: list[Op] = []
        for index in range(1, n_ops + 1):
            if index % STEP_EVERY == 0:
                op = Op("round", "POST", "/step", {"dt": 1.0}, step)
            else:
                op = self._draw()
            if op.write is not None:
                self._apply(op)
            ops.append(op)
        digest = _digest(self.platform)
        self.platform.close()
        return ops, digest


def generate(seed: int, n_ops: int) -> tuple[list[Op], str]:
    """The fixed script of ``n_ops`` ops for one seed, and the model's
    end-state digest."""
    return _Generator(seed).generate(n_ops)


def replay(ops: list[Op]) -> str:
    """The end-state digest of applying the script's writes one by one,
    as direct library calls."""
    platform, _ = serving_platform()
    for op in ops:
        if op.write is not None:
            apply_ops(platform, [op.write])
    digest = _digest(platform)
    platform.close()
    return digest


def main() -> int:
    """``generate`` prints a script as JSON; ``replay`` prints the digest
    of replaying a script file.  The caller fixes ``PYTHONHASHSEED``."""
    parser = argparse.ArgumentParser(description=main.__doc__.split(";")[0])
    parser.add_argument("mode", choices=("generate", "replay"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--script", help="script file to replay")
    args = parser.parse_args()
    if args.mode == "generate":
        ops, digest = generate(args.seed, args.ops)
        print(json.dumps({
            "ops": [op.as_record() for op in ops], "digest": digest,
        }))
    else:
        with open(args.script, encoding="utf-8") as handle:
            records = json.load(handle)["ops"]
        print(json.dumps({
            "digest": replay([Op.from_record(r) for r in records]),
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
