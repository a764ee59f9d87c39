"""Every example script runs to completion against a fresh run cache.

Each ``examples/*.py`` runs as its own subprocess (two at a time) from a
scratch working directory, with an isolated ``REPRO_RUNCACHE_DIR`` so
the runs are cold and leave nothing behind in the repository.
"""

from __future__ import annotations

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def _run(script: Path, workdir: Path) -> subprocess.CompletedProcess:
    workdir.mkdir()
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        ),
        "REPRO_RUNCACHE_DIR": str(workdir / "runcache"),
        "REPRO_EXECUTOR_WORKERS": "1",
    }
    return subprocess.run(
        [sys.executable, str(script)],
        cwd=workdir,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_every_example_exits_zero(tmp_path):
    assert EXAMPLES, "no example scripts found"
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = list(
            pool.map(lambda script: _run(script, tmp_path / script.stem), EXAMPLES)
        )
    failures = [
        f"{script.name} exited {run.returncode}:\n{run.stderr[-2000:]}"
        for script, run in zip(EXAMPLES, runs)
        if run.returncode != 0
    ]
    assert not failures, "\n\n".join(failures)
