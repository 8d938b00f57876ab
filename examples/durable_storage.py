"""Durable storage: the same platform state across restarts.

The default deployment keeps everything in memory; ``backend="wal"``
(:mod:`repro.storage.backends.wal`) mirrors every mutation into an
append-only JSONL log with snapshot compaction.  Reopening rebuilds a
byte-identical database — rows, insertion order and ``Table.version``
counters — which this example demonstrates by "restarting" twice and
diffing canonical dumps.

Run:  python examples/durable_storage.py
"""

import tempfile
from pathlib import Path

from repro import Crowd4U, HumanFactors, RuntimeConfig
from repro.storage import dump_canonical


def populate(platform: Crowd4U) -> None:
    for name, skill in [("ann", 0.9), ("bob", 0.7), ("eve", 0.8)]:
        platform.register_worker(
            name,
            HumanFactors(
                native_languages=frozenset({"en"}),
                languages={"fr": 0.6},
                skills={"translation": skill},
                reliability=0.95,
            ),
        )
    platform.register_project(
        name="greetings",
        requester="durable-example",
        cylog_source="""
            open translate(seg: text, out: text) key (seg)
                asking "Translate {seg} into French".
            segment("hello"). segment("goodbye").
            eligible(W) :- worker_language(W, "fr", P), P >= 0.5.
            translated(S, T) :- segment(S), translate(S, T).
        """,
    )
    platform.step()


def main(workdir: Path) -> None:
    # -- 1. a WAL-backed platform --------------------------------------------
    config = RuntimeConfig(backend="wal", path=workdir / "crowd4u-wal")
    platform = Crowd4U(seed=7, config=config)
    populate(platform)
    state = dump_canonical(platform.db)
    print("WAL-backed platform:", platform.snapshot())
    platform.close()

    # -- 2. "restart": reopening restores the identical database -------------
    reopened = config.build_database()
    assert dump_canonical(reopened) == state
    print("reopened WAL database matches byte-for-byte:", reopened.counts())
    reopened.close()


if __name__ == "__main__":
    # The WAL directory lives only as long as the example runs.
    with tempfile.TemporaryDirectory(prefix="crowd4u-durable-") as workdir:
        main(Path(workdir))
