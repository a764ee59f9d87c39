"""Core-throughput perf harness, pytest-collected (see pytest.ini).

Runs the canonical mixed workload through ``repro.bench`` at quick scale
and checks the *deterministic* half of the committed ``BENCH_core.json``
baseline: the logical event counts.  Event counts are workload-invariant
(transport batching keeps them stable by construction), so any drift
means engine semantics changed and the baseline — plus ``CACHE_VERSION``
— needs a deliberate regeneration.

Wall-clock regression gating lives in CI's ``perf-smoke`` job
(``python -m repro.bench --quick --check``), not here: tier-1 must stay
green on arbitrarily slow machines.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench import bench_events, bench_stealing

BASELINE = Path(__file__).resolve().parents[1] / "BENCH_core.json"


def test_quick_bench_matches_committed_event_counts():
    fresh = bench_events("quick", repeats=1)
    committed = json.loads(BASELINE.read_text())["quick"]["events"]
    assert fresh["trace"] == committed["trace"]
    for policy, numbers in committed["policies"].items():
        assert fresh["policies"][policy]["events"] == numbers["events"], policy
        assert (
            fresh["policies"][policy]["n_workers"] == numbers["n_workers"]
        ), policy
    assert fresh["events"] == committed["events"]
    assert fresh["events_per_sec"] > 0
    print(
        f"\nquick-scale core throughput: {fresh['events_per_sec']:,} events/sec "
        f"(committed baseline {committed['events_per_sec']:,})"
    )


def test_quick_stealing_bench_matches_committed_counters():
    """The stealing-heavy point's deterministic half: rounds and events.

    Steal rounds and entries stolen are pure functions of (spec, trace),
    so drift means the stealing mechanism's semantics changed and the
    baseline — plus ``CACHE_VERSION`` — needs a deliberate regeneration.
    """
    fresh = bench_stealing("quick", repeats=1)
    committed = json.loads(BASELINE.read_text())["quick"]["stealing"]
    assert fresh["workload"] == committed["workload"]
    assert fresh["n_workers"] == committed["n_workers"]
    assert fresh["events"] == committed["events"]
    assert fresh["steal_rounds"] == committed["steal_rounds"]
    assert fresh["successful_rounds"] == committed["successful_rounds"]
    assert fresh["entries_stolen"] == committed["entries_stolen"]
    print(
        f"\nquick-scale stealing throughput: {fresh['events_per_sec']:,} "
        f"events/sec over {fresh['steal_rounds']:,} steal rounds "
        f"(committed baseline {committed['events_per_sec']:,})"
    )


def test_bench_baseline_shows_fast_path_speedup():
    """The committed baseline must retain the measured pre-PR reference
    and the >=2x events/sec headline of the fast-path core."""
    data = json.loads(BASELINE.read_text())
    pre = data["pre_pr"]["full_events_per_sec"]
    post = data["full"]["events"]["events_per_sec"]
    assert post >= 2 * pre, (pre, post)


def test_sweep_stream_tier_structure_and_speedup():
    """The committed streaming-vs-barrier record stays internally consistent.

    Live timing belongs to CI's perf-smoke job (``--quick --check`` runs
    :func:`repro.bench.bench_sweep_stream` fresh and gates on the
    absolute :data:`~repro.bench.STREAM_SPEEDUP_FLOOR`); tier-1 checks
    the committed record instead: both scale tiers carry the section,
    the speedup field equals the ratio of its committed walls, the
    executor really streamed (bounded in-flight window, every grid point
    executed exactly once, no cache hits, no pool rebuilds), and the
    headline clears the CI floor.
    """
    from repro.bench import STREAM_SPEEDUP_FLOOR

    data = json.loads(BASELINE.read_text())
    for tier in ("quick", "full"):
        record = data[tier]["sweep_stream"]
        grid = record["grid"]
        assert grid["total_points"] == grid["batches"] * grid["points_per_batch"]
        assert record["speedup"] == round(
            record["barrier_s"] / record["stream_s"], 3
        ), tier
        counters = record["executor"]
        assert counters["executions"] == grid["total_points"], tier
        assert counters["memo_hits"] == 0 and counters["disk_hits"] == 0, tier
        assert counters["pool_rebuilds"] == 0, tier
        assert 0 < counters["max_inflight"] <= 2 * record["workers"], tier
        assert record["speedup"] >= STREAM_SPEEDUP_FLOOR, (tier, record)


def test_scale_tier_structure_and_speedups():
    """The committed 10k-worker scale tier stays internally consistent.

    The tier records the measured flat-array numbers next to the two
    reference cores (pre-flat-array tip and pre-fast-path core).  The
    10k point itself is far too slow for tier-1, so this checks the
    committed record: the references share the new core's logical event
    counts (byte-identity evidence), and every committed speedup field
    equals the ratio of its committed walls.
    """
    scale = json.loads(BASELINE.read_text())["scale"]
    assert scale["n_workers"] == 10_000
    assert scale["workload"]["name"] == "google-scale10k"
    for ref_key in ("pre_pr", "pre_fast_path"):
        ref = scale[ref_key]
        assert ref["commit"], ref_key
        for policy in ("hawk", "sparrow"):
            assert (
                ref["policies"][policy]["events"]
                == scale["policies"][policy]["events"]
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
