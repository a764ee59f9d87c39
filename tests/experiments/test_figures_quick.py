"""Smoke tests: every figure/table driver runs at quick scale and its
output has the structure the benchmarks rely on."""

import pytest

from repro.metrics.stats import SummaryStats
from repro.experiments.parallel import (
    DISK_CACHE_DIR_ENV,
    DISK_CACHE_ENV,
    DISK_CACHE_MAX_MB_ENV,
    PROGRESS_ENV,
    WORKERS_ENV,
    get_executor,
    set_executor,
)
from repro.experiments import (
    fig01_motivation,
    fig04_workload_cdfs,
    fig05_google,
    fig06_other_traces,
    fig07_ablation,
    fig08_09_centralized,
    fig10_11_split,
    fig12_13_cutoff,
    fig14_misestimation,
    fig15_stealing_cap,
    ledger,
    tables,
)

QUICK_TARGETS = (1.0, 0.5)


def test_table1_rows_cover_all_workloads():
    result = tables.run_table1("quick")
    assert len(result.rows) == 4
    ours = result.column("% task-sec (ours)")
    assert all(50.0 < v <= 100.0 for v in ours)


def test_table2_reports_job_counts():
    result = tables.run_table2("quick")
    counts = result.column("jobs (ours)")
    assert all(c > 0 for c in counts)


def test_fig01_shows_head_of_line_blocking():
    result = fig01_motivation.run(scale=0.02)
    multiples = result.column("x task duration")
    # the p90 short job must run far longer than its 100 s of work
    assert multiples[-2] > 10.0
    assert result.render()


def test_fig04_has_both_classes_for_every_workload():
    result = fig04_workload_cdfs.run("quick")
    workloads = set(result.column("workload"))
    assert workloads == {
        "google-like",
        "cloudera-c",
        "facebook-2010",
        "yahoo-2011",
    }
    classes = set(result.column("class"))
    assert classes == {"long", "short"}


def test_fig05_hawk_beats_sparrow_for_shorts_at_high_load():
    result = fig05_google.run("quick", utilization_targets=QUICK_TARGETS)
    short_p50 = result.column("short p50")
    assert short_p50[0] < 0.9  # high-load point: Hawk clearly better
    long_p50 = result.column("long p50")
    assert all(v < 1.6 for v in long_p50)  # long jobs competitive


def test_fig06_rows_per_workload():
    result = fig06_other_traces.run("quick", utilization_targets=(1.0,))
    assert len(result.rows) == 3
    assert all(v <= 1.3 for v in result.column("short p90"))


def test_fig07_without_stealing_hurts_shorts():
    result = fig07_ablation.run("quick")
    rows = {row[0]: row for row in result.rows}
    no_steal = rows["hawk-no-stealing"]
    assert no_steal[1] > 1.0 or no_steal[2] > 1.0  # short p50/p90 worse


def test_fig08_09_has_all_sizes():
    result = fig08_09_centralized.run("quick", utilization_targets=QUICK_TARGETS)
    assert len(result.rows) == 2


def test_fig10_11_split_hurts_shorts_somewhere():
    result = fig10_11_split.run("quick", utilization_targets=QUICK_TARGETS)
    assert min(result.column("short p50")) < 1.0


def test_fig12_13_long_fraction_decreases_with_cutoff():
    result = fig12_13_cutoff.run("quick", cutoffs=(750.0, 2000.0))
    fractions = result.column("% jobs long")
    assert fractions[0] >= fractions[1]


def test_fig14_short_jobs_barely_affected():
    result = fig14_misestimation.run(
        "quick", ranges=((0.5, 1.5),), n_seeds=2
    )
    assert len(result.rows) == 1
    # short jobs do not use estimates; ratios stay in a sane band
    assert 0.0 < result.column_means("short p50")[0] < 1.5
    # replicated cells carry the paired-t p-value against ratio 1
    cell = result.column("long p50")[0]
    assert isinstance(cell, SummaryStats)
    assert cell.p_value is not None and 0.0 <= cell.p_value <= 1.0


def test_fig15_cap10_not_worse_than_cap1():
    result = fig15_stealing_cap.run("quick", caps=(1, 10))
    rows = {row[0]: row for row in result.rows}
    assert rows[1][1] == pytest.approx(1.0)  # normalized to itself
    assert rows[10][1] <= 1.1


# -- seed-replicated driver output --------------------------------------


@pytest.mark.replicated
def test_fig05_replicated_cells_carry_ci_bands():
    result = fig05_google.run(
        "quick", utilization_targets=(1.0,), n_seeds=2
    )
    cell = result.column("short p50")[0]
    assert isinstance(cell, SummaryStats)
    assert cell.n == 2
    assert cell.ci_lo <= cell.mean <= cell.ci_hi
    assert "±" in result.render()
    assert any("2 matched seed replicas" in note for note in result.notes)
    # column_means collapses aggregated cells for trend assertions
    assert result.column_means("short p50")[0] == cell.mean


@pytest.mark.replicated
def test_fig07_replicated_keeps_stealing_claim():
    result = fig07_ablation.run("quick", n_seeds=2)
    rows = {row[0]: row for row in result.rows}
    no_steal_p90 = rows["hawk-no-stealing"][2]
    assert isinstance(no_steal_p90, SummaryStats)
    assert no_steal_p90.mean > 1.0  # stealing still matters on average


@pytest.mark.replicated
def test_fig15_replicated_normalizes_within_replicas():
    result = fig15_stealing_cap.run("quick", caps=(1, 10), n_seeds=2)
    rows = {row[0]: row for row in result.rows}
    cap1 = rows[1][1]
    # every replica normalizes to its own cap=1 run: exactly 1, zero CI
    assert cap1.mean == pytest.approx(1.0)
    assert cap1.ci_half == pytest.approx(0.0, abs=1e-12)
    assert isinstance(rows[1][3], float)  # steal success rate stays a mean


@pytest.mark.replicated
def test_fig12_13_replicated_long_fraction_is_mean_over_draws():
    result = fig12_13_cutoff.run("quick", cutoffs=(750.0,), n_seeds=2)
    fraction = result.column("% jobs long")[0]
    assert isinstance(fraction, float) and 0.0 < fraction < 100.0
    assert isinstance(result.column("long p50")[0], SummaryStats)


@pytest.mark.replicated
def test_tables_replicated_report_ci_over_trace_draws():
    result = tables.run_table1("quick", n_seeds=2)
    ours = result.column("% task-sec (ours)")
    assert all(isinstance(v, SummaryStats) for v in ours)
    assert all(50.0 < v.mean <= 100.0 for v in ours)
    jobs = tables.run_table2("quick", n_seeds=2).column("jobs (ours)")
    assert all(isinstance(c, int) for c in jobs)  # fixed by the generator


@pytest.mark.replicated
def test_fig05_five_seeds_on_a_capped_pool_cache(monkeypatch, tmp_path):
    """Five replicas through a 2-worker pool and a 64 MiB disk cache.

    The executor comes from the environment, as a figure run's does:
    the cap must hold after the sweep, and the in-memory index must
    list exactly the blobs on disk with their sizes.
    """
    monkeypatch.setenv(WORKERS_ENV, "2")
    monkeypatch.delenv(DISK_CACHE_ENV, raising=False)
    monkeypatch.setenv(DISK_CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.setenv(DISK_CACHE_MAX_MB_ENV, "64")
    monkeypatch.setenv(PROGRESS_ENV, "1")
    previous = set_executor(None)
    executor = get_executor()
    try:
        cache = executor.disk_cache
        assert executor.max_workers == 2
        assert cache.max_bytes == 64 * 1024 * 1024
        result = fig05_google.run(
            "quick", utilization_targets=QUICK_TARGETS, n_seeds=5
        )
        assert any("5 matched seed replicas" in n for n in result.notes)
        short_p50 = result.column_means("short p50")
        assert short_p50[0] < 1.0, short_p50  # Hawk wins at high load
        assert cache.total_bytes() <= cache.max_bytes
        blobs = {
            str(p.relative_to(cache.base_root)): p.stat().st_size
            for p in cache.base_root.rglob("*.pkl")
        }
        assert dict(cache.index.lru_entries()) == blobs
        assert cache.index.total_bytes() == sum(blobs.values())
    finally:
        executor.close()
        set_executor(previous)


@pytest.mark.replicated
@pytest.mark.parametrize("figure", sorted(ledger.RENDERS))
def test_replicated_render_is_pinned(figure):
    """The replicated output (cells, CI bands, p-values and notes) that
    the committed single-seed results files do not cover, held to its
    ``render`` entry in the run ledger.  It renders on the shared
    executor, where the replicated tests above already ran most of its
    points; the ledger's own check renders without any cache."""
    _, entries = ledger.load()
    rendered = ledger.RENDERS[figure]().render()
    assert (ledger.sha256(rendered),) == entries[("render", figure)], rendered
