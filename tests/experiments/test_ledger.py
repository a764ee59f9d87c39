"""The run ledger (``benchmarks/results/run_ledger.txt``) stays fresh.

``python -m repro.experiments.ledger`` recomputes every entry (about two
minutes; the CI ``ledger`` job runs it).  Tier-1 recomputes the slice
below, with no cache tier involved, so a simulator change fails here on
a warm run cache too, naming the runs and columns that moved.
"""

from __future__ import annotations

from itertools import product

import pytest

from repro.core.errors import ConfigurationError
from repro.experiments import ledger
from repro.experiments.parallel import CACHE_VERSION
from repro.schedulers.registry import registered_names

POLICIES = ledger.policies()
WORKLOADS = ledger.workloads()


def stratified_slice() -> list[tuple[str, ...]]:
    """Two runs per workload, one per fault level.  Successive runs
    rotate through the policies, so each policy runs with and without
    faults, and successive workloads alternate seeds."""
    return [
        (
            "run",
            WORKLOADS[i // 2],
            str(ledger.SEEDS[(i // 2) % 2]),
            POLICIES[i % len(POLICIES)],
            ledger.FAULT_LEVELS[i % 2],
        )
        for i in range(2 * len(WORKLOADS))
    ]


#: Sparrow's heap traffic on quick google, which ``test_heap_traffic.py``
#: reads.  The stealing rows that hand-kept pins covered before the
#: ledger are recomputed one by one in ``test_stealing.py``
#: (``test_stealing_runs_match_pins``).
SPARROW_HEAP_RUN = ("run", "google", "0", "sparrow", "plain")

SLICE = list(dict.fromkeys([*stratified_slice(), SPARROW_HEAP_RUN]))


def test_ledger_slice_is_fresh():
    problems = ledger.check(SLICE)
    assert not problems, "run ledger is stale:\n" + "\n".join(problems)


def test_ledger_spans_every_policy_workload_seed_and_fault_level():
    _, entries = ledger.load()
    assert {key for key in entries if key[0] == "run"} == set(
        product(
            ["run"],
            WORKLOADS,
            ["0", "1"],
            registered_names(),
            ["plain", "faulted"],
        )
    )
    assert {key for key in entries if key[0] == "trace"} == set(
        product(["trace"], WORKLOADS, ["0", "1", "2"])
    )
    assert {key for key in entries if key[0] == "render"} == set(
        product(["render"], ledger.RENDERS)
    )
    assert {key[1] for key in SLICE} == set(WORKLOADS)
    assert {key[3] for key in SLICE} == set(registered_names())
    assert {(key[3], key[4]) for key in SLICE} >= set(
        product(registered_names(), ledger.FAULT_LEVELS)
    )
    assert {key[2] for key in SLICE} == {"0", "1"}


ROW = ("run", "motivation", "0", "hawk", "plain")


def edited_copy(tmp_path, column, version=CACHE_VERSION):
    """The committed ledger with one column of ``ROW`` changed
    and its header naming ``version``."""
    _, entries = ledger.load()
    values = list(entries[ROW])
    index = ledger.COLUMNS["run"].index(column)
    values[index] = "0" + values[index]
    name = " ".join(ROW)
    text = ledger.PATH.read_text(encoding="utf-8")
    text = text.replace(
        f"{name} {' '.join(entries[ROW])}\n", f"{name} {' '.join(values)}\n"
    ).replace(f"cache_version {CACHE_VERSION}\n", f"cache_version {version}\n")
    path = tmp_path / "run_ledger.txt"
    path.write_text(text, encoding="utf-8")
    return path


def test_write_refuses_a_result_change_without_a_cache_version_bump(tmp_path):
    path = edited_copy(tmp_path, "result")
    before = path.read_text(encoding="utf-8")
    _, committed = ledger.load()
    with pytest.raises(ConfigurationError, match="run motivation 0 hawk plain"):
        ledger.write(committed, path)
    assert path.read_text(encoding="utf-8") == before


def test_write_takes_a_result_change_after_a_cache_version_bump(tmp_path):
    path = edited_copy(tmp_path, "result", version=CACHE_VERSION - 1)
    _, committed = ledger.load()
    changes = ledger.write(committed, path)
    assert changes[0] == f"cache_version {CACHE_VERSION - 1} -> {CACHE_VERSION}"
    assert [line.split(":")[0] for line in changes[1:]] == [" ".join(ROW)]
    assert path.read_text(encoding="utf-8") == ledger.PATH.read_text(
        encoding="utf-8"
    )


@pytest.mark.parametrize("column", ["heap_pops", "stream"])
def test_write_takes_observation_changes_without_a_bump(tmp_path, column):
    path = edited_copy(tmp_path, column)
    _, committed = ledger.load()
    (change,) = ledger.write(committed, path)
    assert change.startswith(f"{' '.join(ROW)}: {column} 0")
    assert path.read_text(encoding="utf-8") == ledger.PATH.read_text(
        encoding="utf-8"
    )


def test_check_names_the_moved_run_and_column(tmp_path):
    path = edited_copy(tmp_path, "events")
    assert ledger.check([("trace", "motivation", "0")], path) == []
    (problem,) = ledger.check([ROW], path)
    assert problem.startswith(f"{' '.join(ROW)}: events 0")
