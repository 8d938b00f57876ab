"""Quickstart: a collaborative crowdsourcing project in ~60 lines.

Registers workers, declares a CyLog project with a human-evaluated (open)
predicate, walks the Figure-2 workflow by hand — eligibility, interest,
team proposal, undertaking, the sequential improvement chain — and reads
the derived facts back out.

Run:  python examples/quickstart.py
"""

from repro import (
    Crowd4U,
    HumanFactors,
    RuntimeConfig,
    SchemeKind,
    SkillRequirement,
    TeamConstraints,
)

# RuntimeConfig gathers every deployment knob (storage backend, the HTTP
# front-end); the defaults are an in-memory deployment — see examples/durable_storage.py for a platform
# that survives restarts.
platform = Crowd4U(seed=42, config=RuntimeConfig())

# -- 1. workers join with their human factors (Figure 4) --------------------
for name, skill in [("ann", 0.9), ("bob", 0.7), ("eve", 0.8), ("joe", 0.5)]:
    platform.register_worker(
        name,
        HumanFactors(
            native_languages=frozenset({"en"}),
            languages={"fr": 0.6},
            region="tsukuba",
            skills={"translation": skill},
            reliability=0.95,
        ),
    )

# -- 2. a requester registers a declarative project (Figure 2) ----------------
project = platform.register_project(
    name="greetings",
    requester="quickstart",
    cylog_source="""
        % ask the crowd to translate greetings into French
        open translate(seg: text, out: text) key (seg)
            asking "Translate {seg} into French".
        segment("hello"). segment("thank you").
        eligible(W) :- worker_language(W, "fr", P), P >= 0.5.
        translated(S, T) :- segment(S), translate(S, T).
        n_done(count<S>) :- translated(S, T).
    """,
    scheme=SchemeKind.SEQUENTIAL,
    constraints=TeamConstraints(
        min_size=2,
        critical_mass=3,
        skills=(SkillRequirement("translation", 0.6),),
    ),
)

platform.step()  # CyLog generates one task per unanswered segment
tasks = platform.pool.pending_root_tasks(project.id)
print(f"generated tasks: {[(t.id, t.key_values) for t in tasks]}")

# -- 3. workers declare interest; the controller forms affinity-dense teams --
for task in tasks:
    for worker_id in platform.ledger.eligible_workers(task.id):
        platform.declare_interest(worker_id, task.id)
platform.step()

for task in tasks:
    team = platform.teams.get(platform.pool.get(task.id).team_id)
    print(
        f"{task.id}: proposed team {team.members} "
        f"(affinity {team.affinity_score:.2f})"
    )
    for member in team.members:
        platform.confirm_membership(member, task.id)  # Undertakes

# -- 4. the sequential chain: draft, then dynamically generated reviews ------
while True:
    micro = [
        t for w in platform.workers.ids() for t in platform.tasks_for_worker(w)
    ]
    if not micro:
        break
    for task in micro:
        worker = task.assignee
        previous = task.payload.get("previous_text", "")
        text = (
            f"{previous} ->[{worker}]" if previous else f"FR({task.instruction[10:24]})"
        )
        platform.submit_micro_result(task.id, worker, {"text": text, "quality": 0.9})

# -- 5. results flow back into the CyLog database ------------------------------
processor = platform.processor(project.id)
print("translated:", processor.sorted_facts("translated"))
print("n_done:", processor.sorted_facts("n_done"))
print("snapshot:", platform.snapshot())
