"""Render the demo's UI artefacts (Figures 3, 4 and 5) to HTML files.

Builds a small live deployment, then writes:

* ``/tmp/crowd4u_admin.html``  — project administration page with the
  constraint entry form (Figure 3),
* ``/tmp/crowd4u_worker.html`` — a worker's human-factors page (Figure 4),
* ``/tmp/crowd4u_joint.html``  — the simultaneous collaboration screen
  (Figure 5), when one is active.

Run:  python examples/admin_and_worker_pages.py
"""

from pathlib import Path

from repro.apps.common import build_crowd
from repro.apps.journalism import build_journalism_project, journalism_answer_fn
from repro.forms import render_admin_page, render_task_ui, render_worker_page
from repro.sim import SimulationDriver

platform = build_crowd(24, seed=5)
project = build_journalism_project(platform)

# Drive until at least one joint task exists so Figure 5 has content.
driver = SimulationDriver(platform, answer_fn=journalism_answer_fn, seed=5)
joint_task = None
for _ in range(60):
    driver.tick()
    joints = [
        t
        for t in platform.pool.all()
        if t.kind.value == "joint" and t.status.value == "pending"
    ]
    if joints:
        joint_task = joints[0]
        # a couple of live contributions so the shared document is non-empty
        for member in joint_task.payload["addressed_to"][:2]:
            platform.contribute(joint_task.parent_task_id, member,
                                f"draft paragraph from {member}")
        break

admin_html = render_admin_page(platform, project.id)
worker_html = render_worker_page(platform, platform.workers.ids()[0])
Path("/tmp/crowd4u_admin.html").write_text(admin_html)
Path("/tmp/crowd4u_worker.html").write_text(worker_html)
print(f"admin page:  /tmp/crowd4u_admin.html   ({len(admin_html)} bytes)")
print(f"worker page: /tmp/crowd4u_worker.html  ({len(worker_html)} bytes)")

if joint_task is not None:
    joint_html = render_task_ui(
        platform, joint_task.id, joint_task.payload["addressed_to"][0]
    )
    Path("/tmp/crowd4u_joint.html").write_text(joint_html)
    print(f"joint page:  /tmp/crowd4u_joint.html   ({len(joint_html)} bytes)")
else:
    print("no joint task materialised within the step budget")
