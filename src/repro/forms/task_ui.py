"""Task-execution UIs, including the simultaneous screen of Figure 5.

For an OPEN_FILL or chain micro-task the UI is a simple instruction +
answer form.  For a JOINT task the page reproduces Figure 5: the list of
team members with their collected SNS ids ("she communicates with other
workers using Google doc"), the live shared document, a contribution box
and the single submit button whose result is credited to the team.
"""

from __future__ import annotations

from repro.core.tasks import Task, TaskKind
from repro.forms.model import FormField, FormModel
from repro.forms.render import html_escape, render_form, render_page, render_table


def _answer_form(task: Task) -> FormModel:
    fields: list[FormField] = []
    if task.choices:
        fields.append(
            FormField(
                "answer",
                "Your answer",
                widget="select",
                options=tuple(str(c) for c in task.choices),
                required=True,
            )
        )
    elif task.fill_columns:
        for column in task.fill_columns:
            fields.append(
                FormField(column, f"Value for {column}", widget="textarea",
                          required=True)
            )
    else:
        fields.append(
            FormField("text", "Your contribution", widget="textarea",
                      required=True)
        )
    return FormModel(
        form_id=f"task-{task.id}",
        title=task.instruction,
        fields=tuple(fields),
        action=f"/tasks/{task.id}/submit",
        submit_label="Submit result",
    )


def render_task_ui(platform, task_id: str, worker_id: str) -> str:
    """Render the task UI as seen by ``worker_id``."""
    task = platform.pool.get(task_id)
    if task.kind is TaskKind.JOINT:
        return _render_joint_ui(platform, task, worker_id)
    context = ""
    previous = task.payload.get("previous_text")
    if previous:
        context = (
            "<section><h2>Previous contribution</h2>"
            f"<blockquote>{html_escape(previous)}</blockquote>"
            "<p>Check it and submit an improved version.</p></section>"
        )
    return render_page(
        f"Task {task.id}",
        context,
        render_form(_answer_form(task)),
    )


def _render_joint_ui(platform, task: Task, worker_id: str) -> str:
    """Figure 5: simultaneous collaboration screen."""
    members = task.payload.get("addressed_to", [])
    sns_ids = task.payload.get("sns_ids", {})
    roster = render_table(
        ("team member", "SNS id"),
        [(member, sns_ids.get(member, "?")) for member in members],
    )
    # Worker↔task relationship tally for the root collaborative task: one
    # ledger index probe per status, statuses no worker holds left out.
    counts = platform.ledger.counts_for_task(task.parent_task_id)
    ledger_html = render_table(
        ("relationship", "workers"),
        [(status, n) for status, n in sorted(counts.items()) if n],
    )
    entry = platform._active_schemes.get(task.parent_task_id)
    doc_html = "<p>(document not yet started)</p>"
    if entry is not None:
        _, ctx = entry
        sections = []
        for key in ctx.document.section_keys:
            section = ctx.document.section(key)
            sections.append(
                f"<h3>{html_escape(section.heading or key)}</h3>"
                f"<p>{html_escape(section.text) or '<em>(empty)</em>'}</p>"
            )
        doc_html = "\n".join(sections) or doc_html
    contribute_form = FormModel(
        form_id=f"contribute-{task.id}",
        title="Add to your section",
        fields=(
            FormField("content", "Your text", widget="textarea", required=True),
        ),
        action=f"/tasks/{task.id}/contribute",
        submit_label="Contribute",
    )
    submit_form = FormModel(
        form_id=f"submit-{task.id}",
        title="Submit the team result",
        fields=(
            FormField(
                "confirm", "I submit on behalf of the whole team",
                widget="checkbox", required=True,
            ),
        ),
        action=f"/tasks/{task.id}/submit",
        submit_label="Submit for the team",
    )
    return render_page(
        f"Simultaneous collaboration — task {task.id}",
        f"<section><h2>{html_escape(task.instruction)}</h2>"
        "<p>Work together with your team using the shared document below "
        "(communication delegated to your collaboration tool of choice)."
        "</p></section>",
        f"<section><h2>Your team</h2>{roster}"
        f"<h3>Task relationships</h3>{ledger_html}</section>",
        f'<section class="shared-document"><h2>Shared document</h2>{doc_html}'
        "</section>",
        render_form(contribute_form),
        render_form(submit_form),
    )
