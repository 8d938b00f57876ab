"""Every shipped example script runs to completion.

Each ``examples/*.py`` runs in its own interpreter, from a scratch
working directory and with its own temp directory, with the source tree
on ``PYTHONPATH``; a script that raises (for instance because it calls a
library function whose signature changed) or leaves its WAL directory
behind fails its test.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_cleanly(script: Path, tmp_path: Path):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env["TMPDIR"] = str(tmpdir)
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert not list(tmpdir.glob("crowd4u-durable-*"))
