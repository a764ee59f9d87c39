"""The run ledger (``benchmarks/results/run_ledger.txt``) stays fresh.

``python -m repro.experiments.ledger`` recomputes every entry (about
three minutes; the CI ``ledger`` job runs it).  Tier-1 recomputes the
slice below, with no cache tier involved, so a simulator change fails
here on a warm run cache too, naming the runs and columns that moved.
"""

from __future__ import annotations

from itertools import product

import pytest

from repro.bench import POINTS
from repro.cluster.records import RunResult
from repro.core.errors import ConfigurationError
from repro.experiments import ledger
from repro.experiments.parallel import CACHE_VERSION
from repro.schedulers.registry import registered_names
from repro.service.replay import RunFold

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

#: The quick bench points: their events and stealing counts are pinned
#: here only.  The full and 10k-worker rows run in CI's ``ledger`` job.
QUICK_BENCH = [
    ("bench", "quick.events", "hawk"),
    ("bench", "quick.events", "sparrow"),
    ("bench", "quick.stealing", "hawk"),
]

SLICE = list(dict.fromkeys([*stratified_slice(), SPARROW_HEAP_RUN, *QUICK_BENCH]))


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
    assert {key for key in entries if key[0] == "bench"} == {
        ("bench", name, policy)
        for name, point in POINTS.items()
        for policy in point.policies
    }
    assert {key for key in entries if key[0] == "trace"} == set(
        product(["trace"], WORKLOADS, ["0", "1", "2"])
    )
    assert {key for key in entries if key[0] == "render"} == set(
        product(["render"], ledger.RENDERS)
    )
    runs = [key for key in SLICE if key[0] == "run"]
    assert {key[1] for key in runs} == set(WORKLOADS)
    assert {key[3] for key in runs} == set(registered_names())
    assert {(key[3], key[4]) for key in runs} >= set(
        product(registered_names(), ledger.FAULT_LEVELS)
    )
    assert {key[2] for key in runs} == {"0", "1"}


ROW = ("run", "motivation", "0", "hawk", "plain")


def edited_copy(tmp_path, column, version=CACHE_VERSION, row=ROW):
    """The committed ledger with one column of ``row`` changed
    and its header naming ``version``."""
    _, entries = ledger.load()
    values = list(entries[row])
    index = ledger.COLUMNS[row[0]].index(column)
    values[index] = "0" + values[index]
    name = " ".join(row)
    text = ledger.PATH.read_text(encoding="utf-8")
    text = text.replace(
        f"{name} {' '.join(entries[row])}\n", f"{name} {' '.join(values)}\n"
    ).replace(f"cache_version {CACHE_VERSION}\n", f"cache_version {version}\n")
    path = tmp_path / "run_ledger.txt"
    path.write_text(text, encoding="utf-8")
    return path


def test_write_refuses_a_result_change_without_a_cache_version_bump(tmp_path):
    _, committed = ledger.load()
    for row in (ROW, ("bench", "quick.stealing", "hawk")):
        path = edited_copy(tmp_path, "result", row=row)
        before = path.read_text(encoding="utf-8")
        with pytest.raises(ConfigurationError, match=" ".join(row)):
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


def test_check_reports_a_run_whose_folded_stream_differs(monkeypatch):
    result = RunFold.result

    def one_event_more(fold, spec):
        r = result(fold, spec)
        return RunResult(
            r.scheduler_name, r.n_workers, r.job_columns,
            r.utilization_columns, r.stealing, r.events_fired + 1, r.end_time,
        )

    monkeypatch.setattr(RunFold, "result", one_event_more)
    assert ledger.check([ROW, ("trace", "motivation", "0")]) == [
        f"{' '.join(ROW)}: its folded lifecycle stream differs in events_fired"
    ]
