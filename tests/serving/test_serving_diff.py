"""Randomized differential check of the HTTP serving surface.

Concurrent clients fire randomized GET/POST interleavings at a
:class:`PlatformServer` recording its admission journal.  The journal —
``(tick, WriteOp)`` in applied order — is then replayed tick by tick
through :func:`repro.serving.ops.apply_ops` against a fresh platform,
i.e. the same operations issued as direct library calls.  The two
platforms' persisted states must be **byte-identical**: the HTTP decode,
admission ordering, burst coalescing and barrier handling must be
invisible to platform semantics.  Reads interleave throughout and must
not perturb state.

The CI ``serving-diff`` job runs this module with
``SERVING_DIFF_EXAMPLES=12``; the local default keeps tier-1 fast.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import random

import pytest

from repro.core import Crowd4U
from repro.serving import PlatformServer, ServingConfig, WriteOp, apply_ops
from repro.serving.http import HttpClient
from repro.storage import dump_canonical

EXAMPLES = int(os.environ.get("SERVING_DIFF_EXAMPLES", "3"))

pytestmark = pytest.mark.serving_diff

_CYLOG_SOURCE = """
    open rate(item: text, verdict: text) key (item) asking "Rate {item}".
    item("i1"). item("i2"). item("i3").
    rated(I, V) :- item(I), rate(I, V).
"""

_ITEMS = ("i1", "i2", "i3")
_VERDICTS = ("good", "bad", "unsure")


def _build_platform(seed: int) -> tuple[Crowd4U, str]:
    platform = Crowd4U(seed=seed)
    project = platform.register_project("survey", "req", _CYLOG_SOURCE)
    return platform, project.id


def _fingerprint(platform: Crowd4U, project_id: str):
    """Everything that must match: storage bytes, structural summary,
    derived engine facts."""
    return (
        dump_canonical(platform.db),
        repr(sorted(platform.snapshot().items())),
        repr(sorted(platform.processor(project_id).facts("rated"))),
    )


def _random_factors(rng: random.Random) -> dict:
    return {
        "native_languages": [rng.choice(("en", "ja"))],
        "languages": {"fr": rng.choice((0.2, 0.6, 0.9))},
        "region": rng.choice(("tsukuba", "paris")),
        "skills": {"translation": rng.choice((0.3, 0.7))},
        "reliability": rng.choice((0.6, 0.9)),
    }


async def _client_script(
    server: PlatformServer, project_id: str, index: int, rng: random.Random
) -> None:
    """One client's randomized interleaving of reads and writes.

    Error responses (unknown task ids, rejected forms) are part of the
    contract: failed writes are journaled and must fail identically on
    replay.
    """
    my_workers: list[str] = []
    async with HttpClient(*server.address) as client:
        for n in range(rng.randrange(8, 14)):
            op = rng.choice(
                ("worker", "worker", "answer", "answer", "task",
                 "step", "page", "reads", "bad_interest")
            )
            if op == "worker":
                response = await client.request(
                    "POST",
                    "/workers",
                    json_body={
                        "name": f"c{index}w{n}",
                        "factors": _random_factors(rng),
                    },
                )
                body = response.parsed_json()
                if body["ok"]:
                    my_workers.append(body["result"]["worker_id"])
            elif op == "answer":
                await client.request(
                    "POST",
                    f"/projects/{project_id}/answers",
                    json_body={
                        "predicate": "rate",
                        "key_values": {"item": rng.choice(_ITEMS)},
                        "fill_values": {"verdict": rng.choice(_VERDICTS)},
                    },
                )
            elif op == "task":
                await client.request(
                    "POST",
                    f"/projects/{project_id}/tasks",
                    json_body={"instruction": f"adhoc-{index}-{n}"},
                )
            elif op == "step":
                await client.request("POST", "/step", json_body={"dt": 1.0})
            elif op == "page" and my_workers:
                response = await client.request(
                    "GET", f"/workers/{rng.choice(my_workers)}/page"
                )
                assert response.status == 200
            elif op == "reads":
                for path in ("/healthz", "/snapshot", "/stats"):
                    assert (await client.request("GET", path)).status == 200
            elif op == "bad_interest":
                response = await client.request(
                    "POST",
                    f"/tasks/nope{n}/interest",
                    json_body={"worker_id": my_workers[0] if my_workers else "w?"},
                )
                assert response.status in (400, 404, 409)


def _replay(journal: list[tuple[int, WriteOp]], seed: int) -> tuple[Crowd4U, str]:
    """The same operations as direct library calls: one
    :func:`apply_ops` burst per server tick, in journal order."""
    platform, project_id = _build_platform(seed)
    for _, group in itertools.groupby(journal, key=lambda entry: entry[0]):
        apply_ops(platform, [op for _, op in group])
    return platform, project_id


@pytest.mark.parametrize("seed", range(EXAMPLES))
def test_concurrent_http_matches_direct_calls(seed: int) -> None:
    async def go():
        platform, project_id = _build_platform(seed)
        server = PlatformServer(
            platform,
            ServingConfig(max_batch=64),
            record_journal=True,
        )
        async with server:
            await asyncio.gather(
                *(
                    _client_script(
                        server, project_id, i, random.Random(seed * 997 + i)
                    )
                    for i in range(4)
                )
            )
        return platform, project_id, server

    platform, project_id, server = asyncio.run(go())
    assert server.journal, "the interleaving admitted no writes?"
    replayed, replay_project = _replay(server.journal, seed)
    assert _fingerprint(platform, project_id) == _fingerprint(
        replayed, replay_project
    )
    # Every admitted write was applied and journalled.
    assert server.stats.applied == len(server.journal)
    platform.close()
    replayed.close()


def test_sequential_http_matches_direct_calls() -> None:
    """Deterministic spine: a fixed op sequence over HTTP equals the same
    WriteOps applied directly, op for op (one client → one tick each)."""
    script = [
        WriteOp("register_worker", {"name": "ann", "factors": {
            "native_languages": ["en"], "languages": {"fr": 0.8},
            "skills": {"translation": 0.7}, "reliability": 0.9}}),
        WriteOp("register_worker", {"name": "bob", "factors": {
            "native_languages": ["ja"], "languages": {"fr": 0.4},
            "skills": {"translation": 0.3}, "reliability": 0.7}}),
        WriteOp("step", {"dt": 1.0}),
        WriteOp("supply_answer", {"predicate": "rate",
                                  "key_values": {"item": "i1"},
                                  "fill_values": {"verdict": "good"}}),
        WriteOp("post_task", {"instruction": "tidy the corpus"}),
        WriteOp("step", {"dt": 1.0}),
    ]

    async def over_http():
        platform, project_id = _build_platform(11)
        async with PlatformServer(platform, ServingConfig()) as server:
            async with HttpClient(*server.address) as client:
                routes = {
                    "register_worker": lambda op: ("/workers", op.payload),
                    "step": lambda op: ("/step", op.payload),
                    "supply_answer": lambda op: (
                        f"/projects/{project_id}/answers", op.payload
                    ),
                    "post_task": lambda op: (
                        f"/projects/{project_id}/tasks", op.payload
                    ),
                }
                for op in script:
                    path, payload = routes[op.kind](op)
                    response = await client.request(
                        "POST", path, json_body=payload
                    )
                    assert response.parsed_json()["ok"], response.body
        return platform, project_id

    http_platform, http_project = asyncio.run(over_http())

    direct_platform, direct_project = _build_platform(11)
    for op in script:
        payload = dict(op.payload)
        if op.kind in ("supply_answer", "post_task"):
            payload["project_id"] = direct_project
        outcomes = apply_ops(direct_platform, [WriteOp(op.kind, payload)])
        assert outcomes[0].ok, outcomes[0].error

    assert _fingerprint(http_platform, http_project) == _fingerprint(
        direct_platform, direct_project
    )
    http_platform.close()
    direct_platform.close()
