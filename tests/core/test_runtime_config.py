"""RuntimeConfig: validation, the nested serving slice, and the removal
of the PR-6 deprecated keyword shims (config= is the only spelling)."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.config import RuntimeConfig
from repro.core import Crowd4U, HumanFactors
from repro.cylog import CyLogProcessor
from repro.serving import ServingConfig


class TestValidation:
    def test_defaults(self):
        config = RuntimeConfig()
        assert config.backend == "memory"
        assert config.backend_options == {}

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            RuntimeConfig(backend="etcd", path="/tmp/x")

    def test_sqlite_backend_removed(self, tmp_path):
        # The WAL is the one durable backend.
        with pytest.raises(ValueError, match="unknown backend"):
            RuntimeConfig(backend="sqlite", path=tmp_path / "d.sqlite")

    def test_memory_backend_attaches_nothing(self):
        assert RuntimeConfig().build_database().backend is None

    def test_durable_backend_requires_path(self):
        with pytest.raises(ValueError, match="requires a path"):
            RuntimeConfig(backend="wal")

    def test_memory_backend_rejects_path(self):
        with pytest.raises(ValueError, match="takes no path"):
            RuntimeConfig(path="/tmp/x")

    def test_unknown_executor(self):
        # Every task runs inline: the executor knobs are unknown keywords.
        for kwargs in ({"executor": "gpu"}, {"executor": "serial"}, {"max_workers": 2}):
            with pytest.raises(TypeError):
                RuntimeConfig(**kwargs)
            with pytest.raises(TypeError):
                RuntimeConfig().with_changes(**kwargs)

    def test_bad_shards_and_budget(self):
        # One relation store and unbounded provenance: neither ``shards``
        # nor ``support_budget`` is a field.
        for kwargs in ({"shards": 0}, {"support_budget": 4}):
            with pytest.raises(TypeError):
                RuntimeConfig(**kwargs)
            with pytest.raises(TypeError):
                RuntimeConfig().with_changes(**kwargs)

    def test_with_changes(self, tmp_path):
        config = RuntimeConfig().with_changes(backend="wal", path=tmp_path / "d")
        assert config.backend == "wal"
        assert RuntimeConfig().backend == "memory"

    def test_build_database_durable(self, tmp_path):
        config = RuntimeConfig(backend="wal", path=tmp_path / "d")
        db = config.build_database()
        assert db.backend.name == "wal"
        db.close()

    def test_backend_options_forwarded(self, tmp_path):
        config = RuntimeConfig(
            backend="wal", path=tmp_path / "d", backend_options={"compact_every": 3}
        )
        db = config.build_database()
        assert db.backend.compact_every == 3
        db.close()


class TestCrowd4UShim:
    def _factors(self):
        return HumanFactors(
            native_languages=frozenset({"en"}),
            languages={"fr": 0.8},
            skills={"translation": 0.7},
            reliability=0.9,
        )

    def test_config_path_is_warning_free(self, recwarn):
        config = RuntimeConfig(serving=ServingConfig(max_batch=5))
        platform = Crowd4U(seed=1, config=config)
        assert platform.config is config
        assert not [w for w in recwarn if w.category is DeprecationWarning]
        platform.close()

    def test_legacy_kwargs_removed(self):
        # The PR-6 deprecation shims graduated to removal: the old
        # per-knob keywords are hard TypeErrors now, not warnings.
        for kwargs in (
            {"shards": 2},
            {"executor": "process"},
            {"max_workers": 2},
            {"exchange": False},
        ):
            with pytest.raises(TypeError):
                Crowd4U(seed=1, **kwargs)

    def test_config_paths_equivalent_across_layouts(self):
        old = Crowd4U(seed=5)
        new = Crowd4U(seed=5, config=RuntimeConfig())
        for platform in (old, new):
            platform.register_worker("ann", self._factors())
            platform.register_project(
                name="p",
                requester="r",
                cylog_source="""
                    open translate(seg: text, out: text) key (seg) asking "t {seg}".
                    segment("s1").
                    eligible(W) :- worker_language(W, "fr", P), P >= 0.5.
                    translated(S, T) :- segment(S), translate(S, T).
                """,
            )
            platform.step()
        # No config and the default config are one deployment.
        assert old.snapshot() == new.snapshot()
        old.close()
        new.close()

    def test_durable_config_platform_restores(self, tmp_path):
        from repro.storage import dump_canonical

        config = RuntimeConfig(backend="wal", path=tmp_path / "d")
        platform = Crowd4U(seed=2, config=config)
        platform.register_worker("ann", self._factors())
        state = dump_canonical(platform.db)
        platform.close()
        reopened = config.build_database()
        assert dump_canonical(reopened) == state
        reopened.close()

    def test_reopened_platform_issues_fresh_ids(self, tmp_path):
        """Id counters resume after the largest persisted id: a platform
        reopened on its WAL registers workers and projects and posts tasks,
        and forms and finishes a team, without reusing an id."""
        from repro.core import TeamConstraints

        source = """
            open translate(seg: text, out: text) key (seg) asking "t {seg}".
            segment("s1").
            eligible(W) :- worker_language(W, "fr", P), P >= 0.5.
            translated(S, T) :- segment(S), translate(S, T).
        """
        config = RuntimeConfig(backend="wal", path=tmp_path / "d")

        def one_team(platform):
            worker = platform.register_worker("ann", self._factors())
            project = platform.register_project(
                "p", "r", source,
                constraints=TeamConstraints(min_size=1, critical_mass=1),
            )
            task = platform.post_task(project.id, "curate")
            platform.step()
            platform.declare_interest(worker.id, task.id)
            platform.step()
            platform.confirm_membership(worker.id, task.id)
            for micro in platform.tasks_for_worker(worker.id):
                platform.submit_micro_result(micro.id, worker.id, {"text": "x"})
            return {
                table: {pk for (pk,) in platform.db.table(table).pks()}
                for table in ("worker_profile", "project", "task", "team",
                              "team_result")
            }

        platform = Crowd4U(seed=2, config=config)
        before = one_team(platform)
        platform.close()
        reopened = Crowd4U(seed=2, config=config)
        after = one_team(reopened)
        reopened.close()
        for table, ids in before.items():
            assert ids < after[table], table


class TestProcessorShim:
    def test_support_budget_removed(self):
        """Provenance is unbounded: the budget keyword is gone from the
        engine, and the processor, which only passed it on, takes no
        config."""
        from repro.cylog import SemiNaiveEngine, parse_program

        program = parse_program("p(1). q(X) :- p(X).")
        for build in (
            lambda: SemiNaiveEngine(program, support_budget=3),
            lambda: CyLogProcessor("p(1).", config=RuntimeConfig()),
        ):
            with pytest.raises(TypeError):
                build()

    def test_shard_config_kwarg_removed(self):
        with pytest.raises(TypeError):
            CyLogProcessor("p(1).", shard_config=None)


class TestRemovedArguments:
    def test_duplicate_evaluation_knobs_removed(self):
        """One replica layout, one planner and one full-round escape hatch
        (``step(full=True)``): the duplicate arguments are hard
        TypeErrors."""
        from repro.cylog import SemiNaiveEngine, compile_program, parse_program

        program = parse_program("p(1). q(X) :- p(X).")
        for build in (
            lambda: RuntimeConfig(replica_mode="pruned"),
            lambda: SemiNaiveEngine(program, planner="cost"),
            lambda: SemiNaiveEngine(program, shards=2),
            lambda: SemiNaiveEngine(program, executor="process"),
            lambda: SemiNaiveEngine(program, max_workers=2),
            lambda: compile_program(program, planner="cost"),
            lambda: Crowd4U(seed=1, incremental=False),
        ):
            with pytest.raises(TypeError):
                build()

    def test_thread_executor_removed(self):
        """Evaluation runs inline; neither configuration spelling takes an
        executor any more."""
        with pytest.raises(TypeError):
            RuntimeConfig(executor="thread")
        with pytest.raises(TypeError):
            RuntimeConfig(max_workers=2)

    def test_sharding_removed(self):
        """One relation store: the shard layout, the exchange operator
        and its write-aware cost inputs are unknown keywords everywhere,
        and the sharding module is gone."""
        import repro.cylog
        from repro.cylog import SemiNaiveEngine, compile_program, parse_program

        program = parse_program("p(1). q(X) :- p(X).")
        for build in (
            lambda: RuntimeConfig(shards=2),
            lambda: RuntimeConfig(exchange=False),
            lambda: RuntimeConfig().with_changes(shards=2),
            lambda: SemiNaiveEngine(program, shard_config=None),
            lambda: compile_program(program, shards=8),
            lambda: compile_program(program, write_rates={}),
        ):
            with pytest.raises(TypeError):
                build()
        with pytest.raises(ImportError):
            import repro.cylog.sharding  # noqa: F401
        for name in (
            "ShardConfig",
            "ShardedRelationStore",
            "ProcessExecutor",
            "ProcessPoolBrokenError",
        ):
            assert not hasattr(repro.cylog, name), name

    def test_interval_removed(self):
        """One evaluation path per stratum: the interval access path's
        keyword is unknown to the engine and the compiler, and its index
        and spec types are gone from the package."""
        import repro.cylog
        from repro.cylog import SemiNaiveEngine, compile_program, parse_program

        program = parse_program("e(1, 2). t(X, Y) :- e(X, Y).")
        for build in (
            lambda: SemiNaiveEngine(program, interval=False),
            lambda: compile_program(program, interval=True),
        ):
            with pytest.raises(TypeError):
                build()
        for name in ("IntervalHierarchyIndex", "IntervalSpec"):
            assert not hasattr(repro.cylog, name), name

    def test_process_pool_not_imported(self):
        """Importing the platform loads no process-pool machinery."""
        probe = (
            "import sys, repro, repro.core.platform; "
            "print('multiprocessing' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        assert out.stdout.strip() == "False"


class TestServingSlice:
    def test_default_serving_config(self):
        config = RuntimeConfig()
        assert config.serving == ServingConfig()
        assert config.serving.port == 0

    def test_serving_composes(self):
        config = RuntimeConfig(serving=ServingConfig(queue_depth=7, max_batch=3))
        assert config.serving.queue_depth == 7
        assert config.serving.max_batch == 3

    def test_serving_type_checked(self):
        with pytest.raises(TypeError, match="serving"):
            RuntimeConfig(serving={"port": 80})

    def test_with_changes_preserves_serving(self):
        config = RuntimeConfig(serving=ServingConfig(queue_depth=7))
        assert config.with_changes(backend_options={"a": 1}).serving.queue_depth == 7

    def test_build_server_uses_serving_slice(self):
        config = RuntimeConfig(serving=ServingConfig(max_batch=3))
        server = config.build_server()
        try:
            assert server.config.max_batch == 3
            assert server.platform.config is config
        finally:
            server.platform.close()

    def test_build_server_accepts_existing_platform(self):
        platform = Crowd4U(seed=1)
        try:
            server = RuntimeConfig().build_server(platform)
            assert server.platform is platform
        finally:
            platform.close()
