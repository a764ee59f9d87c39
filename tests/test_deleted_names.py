"""Names of deleted mechanisms stay out of the code and its docs.

Each name below belonged to a mechanism the repository no longer has.
A docstring, comment or document that still names one describes code a
reader cannot find, so the test fails naming the file and line.  It
scans every Python and Markdown file under ``src/`` and the root
``README.md``.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Each deleted name, as a whole word.
DELETED = re.compile(
    r"\b(?:EventHandle|RunConfig|IDLE_POLL|index\.db|Cluster\.backlog"
    r"|long_count|slot_long|Baseline|_rebuild_run|_check_arity"
    r"|chaos_hawk_v4(?:_flat)?|STREAM_SPEEDUP_FLOOR|bench_sweep_stream"
    r"|_synthetic_sleep_run)\b"
)


def scanned_files() -> list[Path]:
    src = REPO_ROOT / "src"
    return sorted([*src.rglob("*.py"), *src.rglob("*.md"), REPO_ROOT / "README.md"])


def test_no_deleted_name_is_mentioned():
    hits = [
        f"{path.relative_to(REPO_ROOT)}:{number}: {match.group()}"
        for path in scanned_files()
        for number, line in enumerate(path.read_text().splitlines(), 1)
        for match in DELETED.finditer(line)
    ]
    assert not hits, "deleted names still mentioned:\n" + "\n".join(hits)
