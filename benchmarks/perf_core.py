"""The committed ``BENCH_core.json`` record, pytest-collected (see pytest.ini).

``BENCH_core.json`` holds timings only.  What a bench run determines
(events, stealing counts, heap pops) is pinned by the run ledger's
``bench`` rows (``python -m repro.experiments.ledger``), so these tests
check the committed record's internal consistency: every committed
speedup equals the ratio of its committed walls, and the measured
references ran the same simulation as the scale point.

Wall-clock regression gating lives in CI's ``perf-smoke`` job
(``python -m repro.bench --quick --check``), not here: tier-1 must stay
green on arbitrarily slow machines.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments import ledger

BASELINE = Path(__file__).resolve().parents[1] / "BENCH_core.json"


def test_bench_baseline_shows_fast_path_speedup():
    """The committed baseline must retain the measured pre-PR reference
    and the >=2x events/sec headline of the fast-path core."""
    data = json.loads(BASELINE.read_text())
    pre = data["pre_pr"]["full_events_per_sec"]
    post = data["full"]["events"]["events_per_sec"]
    assert post >= 2 * pre, (pre, post)


def test_scale_tier_structure_and_speedups():
    """The committed 10k-worker scale tier stays internally consistent.

    The tier records the measured flat-array numbers next to the two
    reference cores (pre-flat-array tip and pre-fast-path core).  The
    10k point itself is far too slow for tier-1, so this checks the
    committed records: the references share the logical event counts
    that the run ledger pins for the scale point (byte-identity
    evidence; CI's ``ledger`` job recomputes them), and every committed
    speedup field equals the ratio of its committed walls.
    """
    scale = json.loads(BASELINE.read_text())["scale"]
    _, entries = ledger.load()
    events = ledger.COLUMNS["bench"].index("events")
    assert scale["n_workers"] == 10_000
    assert scale["workload"]["name"] == "google-scale10k"
    for ref_key in ("pre_pr", "pre_fast_path"):
        ref = scale[ref_key]
        assert ref["commit"], ref_key
        for policy in ("hawk", "sparrow"):
            assert ref["policies"][policy]["events"] == int(
                entries[("bench", "scale", policy)][events]
            ), (ref_key, policy)
        assert ref["total_wall_s"] > scale["total_wall_s"], ref_key
    speedup = scale["speedup"]
    for field, pre, post in (
        ("total_wall_vs_pre_pr", scale["pre_pr"]["total_wall_s"],
         scale["total_wall_s"]),
        ("total_wall_vs_pre_fast_path",
         scale["pre_fast_path"]["total_wall_s"], scale["total_wall_s"]),
        ("steal_round_vs_pre_pr",
         scale["pre_pr"]["steal_round"]["us_per_round"],
         scale["steal_round"]["us_per_round"]),
        ("steal_round_vs_pre_fast_path",
         scale["pre_fast_path"]["steal_round"]["us_per_round"],
         scale["steal_round"]["us_per_round"]),
    ):
        assert speedup[field] == round(pre / post, 2), field
    # the victim-selection rewrite is the tentpole: it must clear 1.5x
    # against the immediately preceding core and 3x against the
    # pre-fast-path one (measured 1.8x / 4.0x back-to-back)
    assert speedup["steal_round_vs_pre_pr"] >= 1.5
    assert speedup["steal_round_vs_pre_fast_path"] >= 3.0


def test_cache_read_tier_structure_and_speedup():
    """The committed cached-result read record stays internally consistent.

    ``bench_cache_read`` times ``DiskCache.load`` plus the fig05_scale
    fold of a synthetic 3,000-job result.  The scale tier keeps it next
    to the same harness measured on the same machine at the parent of
    the named-tuple records (``pre_tuple_records``); the committed
    speedup must equal the ratio of the two and clear 2x.  CI's
    ``--scale --quick --check`` times it live.
    """
    scale = json.loads(BASELINE.read_text())["scale"]
    record = scale["cache_read"]
    ref = scale["pre_tuple_records"]
    assert ref["commit"]
    for field in ("jobs", "reads"):
        assert ref["cache_read"][field] == record[field], field
    speedup = scale["speedup"]["cache_read_vs_pre_tuple_records"]
    assert speedup == round(
        ref["cache_read"]["ms_per_read"] / record["ms_per_read"], 2
    )
    assert speedup >= 2.0


def test_scale_check_gates_cache_read():
    """``check`` passes the committed scale microbench numbers and flags a
    cached read slower than committed x REGRESSION_FACTOR."""
    from repro.bench import CORE, REGRESSION_FACTOR, check

    scale = json.loads(BASELINE.read_text())["scale"]
    fresh = {key: dict(scale[key]) for key in ("steal_round", "cache_read")}
    assert check(CORE, BASELINE, "scale", fresh) == []
    fresh["cache_read"]["ms_per_read"] = (
        scale["cache_read"]["ms_per_read"] * REGRESSION_FACTOR * 1.01
    )
    failures = check(CORE, BASELINE, "scale", fresh)
    assert len(failures) == 1 and "cache read regression" in failures[0]


def test_cache_read_bench_runs():
    from repro.bench import bench_cache_read

    fresh = bench_cache_read(reads=2, repeats=1)
    assert fresh["jobs"] == 3_000 and fresh["reads"] == 2
    assert fresh["blob_bytes"] > 0 and fresh["ms_per_read"] > 0
