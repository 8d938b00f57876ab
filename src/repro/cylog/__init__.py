"""CyLog: the Datalog-like language that drives Crowd4U.

The paper (§2.1) describes CyLog as "a Datalog-like language designed for
crowdsourcing applications with complex data flows" in which *humans can
evaluate predicates*.  A requester writes a project description as CyLog
rules; the CyLog processor interprets them, **dynamically generates tasks
into the task pool**, and folds completed task results back in as facts,
which may trigger further task generation — the engine of the paper's
sequential / hybrid collaboration dataflows.

This package implements the full pipeline:

``lexer`` → ``parser`` → ``safety`` (range restriction, task-safety,
stratification, cost-based join planning) → ``indexes`` (incrementally
maintained multi-key hash indexes) → ``engine`` + ``incremental`` (naive
oracle and a semi-naive engine that stays incremental *across* runs:
retained store, support counting, DRed retraction, per-run
``added``/``removed`` deltas) → ``processor`` (incremental re-evaluation
plus open-predicate task demand, batched fact arrival via
``CyLogProcessor.batch``, answer revocation via ``revoke_answer`` and the
accumulated ``drain_deltas`` change feed).

Engine observability: every :class:`SemiNaiveEngine` (and
:class:`CyLogProcessor` via its ``stats`` property) exposes an
:class:`EngineStats` record — rules fired, tuples joined, index hits, full
scans, semi-naive rounds and the join plans chosen — which plugs into a
:class:`repro.metrics.Collector` through ``EngineStats.to_collector`` and is
reported by ``benchmarks/bench_cylog_engine.py``.

Language summary
----------------

::

    % worker facts are injected by the platform
    open translate(seg: text, out: text) key (seg)
        asking "Translate segment {seg} into French".

    segment("s01"). segment("s02").
    needs_translation(S) :- segment(S).
    translated(S, T) :- needs_translation(S), translate(S, T).
    done(count<S>) :- translated(S, T).

* Predicates are ``lowercase`` identifiers; variables start with an
  uppercase letter or ``_``; constants are numbers, booleans
  (``true``/``false``), double-quoted strings or ``lowercase`` symbols.
* ``open`` declares a *human-evaluated* predicate: the ``key`` columns are
  bound by the engine (they identify a task) and the remaining columns are
  filled in by crowd workers.
* Rule bodies are conjunctions of atoms, ``not`` atoms, comparisons
  (``<  <=  >  >=  ==  !=``) and assignments ``V = expr``.
* Head terms may be aggregates ``count<X>``, ``sum<X>``, ``min<X>``,
  ``max<X>``, ``avg<X>`` grouped by the remaining head variables.
"""

from repro.cylog.ast import (
    AggregateTerm,
    Atom,
    Comparison,
    Const,
    Fact,
    Negation,
    OpenDecl,
    Program,
    Rule,
    Var,
)
from repro.cylog.engine import (
    EngineStats,
    EvaluationResult,
    SemiNaiveEngine,
    fingerprint_snapshot,
    naive_evaluate,
)
from repro.cylog.errors import (
    CyLogParseError,
    CyLogSafetyError,
    CyLogTypeError,
    StratificationError,
)
from repro.cylog.open_predicates import TaskRequest
from repro.cylog.parser import parse_program
from repro.cylog.pretty import explain_program, program_to_source
from repro.cylog.processor import CyLogProcessor
from repro.cylog.safety import JoinPlan, PlanStep, compile_program

__all__ = [
    "AggregateTerm",
    "Atom",
    "Comparison",
    "Const",
    "CyLogParseError",
    "CyLogProcessor",
    "CyLogSafetyError",
    "CyLogTypeError",
    "EngineStats",
    "EvaluationResult",
    "Fact",
    "JoinPlan",
    "Negation",
    "OpenDecl",
    "PlanStep",
    "Program",
    "Rule",
    "SemiNaiveEngine",
    "StratificationError",
    "TaskRequest",
    "Var",
    "compile_program",
    "explain_program",
    "fingerprint_snapshot",
    "naive_evaluate",
    "parse_program",
    "program_to_source",
]
