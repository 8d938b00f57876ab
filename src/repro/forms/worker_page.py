"""The worker page (Figure 4).

Shows the worker's human factors — "either provided by the worker when
creating an Crowd4U account (e.g., native languages, location) or computed
by the system based on previously performed tasks" — and the list of
collaborative tasks she is eligible for, with interest declaration.
"""

from __future__ import annotations

from repro.core.human_factors import HumanFactors
from repro.forms.model import FormField, FormModel
from repro.forms.render import render_form, render_page, render_table
from repro.storage import col
from repro.storage.cache import CacheStats, observe_cache


def build_factors_form(factors: HumanFactors) -> FormModel:
    """Editable human factors (the computed ones render read-only below)."""
    fields = (
        FormField(
            "native_languages", "Native languages", widget="text",
            default=",".join(sorted(factors.native_languages)),
            help_text="comma-separated language codes",
        ),
        FormField(
            "languages", "Other languages (code:proficiency)", widget="text",
            default="; ".join(
                f"{lang}:{prof:g}"
                for lang, prof in sorted(factors.languages.items())
                if lang not in factors.native_languages
            ),
        ),
        FormField("region", "Location / region", widget="text",
                  default=factors.region),
        FormField(
            "sns_id", "SNS account (e.g. Google)", widget="text",
            default=factors.sns_id or "",
            help_text="used to coordinate simultaneous collaboration",
        ),
    )
    return FormModel(
        form_id="worker-factors",
        title="Your human factors",
        fields=fields,
        action="/worker/factors",
        submit_label="Update profile",
    )


def render_worker_page(
    platform, worker_id: str, cache_stats: CacheStats | None = None
) -> str:
    """The full worker page: factors + eligible collaborative tasks.

    The task list and per-task statuses render from cached storage queries
    (see :mod:`repro.storage.cache`).  Both relationship queries select on
    ``worker_id`` and so probe the ledger's ``worker_id`` index: a miss
    reads this worker's rows, not the whole ledger, and between platform
    mutations a repeated page load is served from the memoised results.

    ``cache_stats`` makes the read path's cache effectiveness observable
    instead of inferred: when supplied, exactly the hits/misses/
    invalidations this render incurred are absorbed into it (the serving
    front-end passes its per-server block so ``GET /stats`` reports the
    cache-fed read path directly).
    """
    with observe_cache(platform.db.query_cache, cache_stats):
        return _render_worker_page(platform, worker_id)


def _render_worker_page(platform, worker_id: str) -> str:
    worker = platform.workers.get(worker_id)
    factors = worker.factors
    form_html = render_form(build_factors_form(factors))
    computed = render_table(
        ("factor", "value"),
        [("reliability", f"{factors.reliability:.2f}")]
        + [(f"skill:{name}", f"{level:.2f}")
           for name, level in sorted(factors.skills.items())],
    )
    status_rows = (
        platform.db.query("relationship")
        .where(col("worker_id") == worker_id)
        .project("task_id", "status")
        .execute_cached()
    )
    status_by_task = {row["task_id"]: row["status"] for row in status_rows}
    rows = []
    for task in platform.eligible_tasks(worker_id):
        rows.append(
            (
                task.id,
                task.instruction[:60],
                task.kind.value,
                status_by_task.get(task.id, "eligible"),
            )
        )
    tasks_html = render_table(("task", "instruction", "kind", "your status"), rows)
    micro_rows = [
        (t.id, t.kind.value, t.instruction[:60])
        for t in platform.tasks_for_worker(worker_id)
    ]
    micro_html = render_table(("task", "kind", "instruction"), micro_rows)
    return render_page(
        f"Worker page — {worker.name} ({worker.id})",
        form_html,
        f"<section><h2>Computed factors</h2>{computed}</section>",
        "<section><h2>Collaborative tasks you are eligible for</h2>"
        f"{tasks_html}<p>Declare interest to join a team.</p></section>",
        f"<section><h2>Your assigned micro-tasks</h2>{micro_html}</section>",
    )


def parse_factors_form(
    submission: dict, base: HumanFactors
) -> HumanFactors:
    """Apply a Figure-4 form submission on top of existing factors."""
    from dataclasses import replace

    form = build_factors_form(base)
    report = form.validate(submission)
    if not report.ok:
        from repro.errors import FormError

        problems = "; ".join(f"{k}: {v}" for k, v in sorted(report.errors.items()))
        raise FormError(f"invalid worker factors form: {problems}")
    values = report.values
    natives = frozenset(
        part.strip()
        for part in (values.get("native_languages") or "").split(",")
        if part.strip()
    )
    languages = {}
    for chunk in (values.get("languages") or "").split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, level = chunk.partition(":")
        languages[name.strip()] = float(level or 0.5)
    return replace(
        base,
        native_languages=natives,
        languages=languages,
        region=values.get("region") or base.region,
        sns_id=(values.get("sns_id") or None),
    )
