"""ASCII rendering of experiment results (tables and CDF/series plots)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.errors import ConfigurationError
from repro.metrics.stats import SummaryStats


def _format_p(p: float) -> str:
    return "<0.001" if p < 0.001 else f"{p:.3f}"


def _format_cell(value) -> str:
    if isinstance(value, SummaryStats):
        # Aggregated replicas render as mean±(CI half-width), plus the
        # paired-t p-value when the metric has a null hypothesis; a
        # plain float cell (the single-seed path) is untouched, keeping
        # single-seed tables bit-identical to the historical output.
        cell = f"{_format_cell(value.mean)}±{_format_cell(value.ci_half)}"
        if value.p_value is not None:
            cell += f" (p={_format_p(value.p_value)})"
        return cell
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def progress_line(
    done: int,
    total: int | None,
    inflight: int,
    memo_hits: int = 0,
    disk_hits: int = 0,
    executions: int = 0,
) -> str:
    """One streaming-sweep progress line (``REPRO_SWEEP_PROGRESS=1``).

    ``total`` is unknown for unbounded generators and renders as ``?``.
    """
    span = "?" if total is None else str(total)
    return (
        f"[sweep] point {done}/{span} done, in-flight {inflight}, "
        f"memo {memo_hits}, disk {disk_hits}, exec {executions}"
    )


def ascii_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render a padded, pipe-separated table."""
    if not headers:
        raise ConfigurationError("table needs headers")
    cells = [[_format_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "-+-".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append(" | ".join(c.rjust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


def ascii_cdf(
    values: Sequence[float],
    width: int = 60,
    height: int = 12,
    label: str = "",
) -> str:
    """A coarse text plot of an empirical CDF (x: value, y: percent)."""
    if not values:
        raise ConfigurationError("cannot plot an empty CDF")
    xs = sorted(values)
    lo, hi = xs[0], xs[-1]
    span = hi - lo or 1.0
    n = len(xs)
    grid = [[" "] * width for _ in range(height)]
    for i, x in enumerate(xs):
        col = min(width - 1, int((x - lo) / span * (width - 1)))
        row = min(height - 1, max(0, height - 1 - int((i + 1) / n * (height - 1))))
        grid[row][col] = "*"
    lines = [f"CDF {label}  (x: {lo:.1f} .. {hi:.1f}, y: 0..100%)"]
    lines.extend("".join(r) for r in grid)
    return "\n".join(lines)


@dataclass(slots=True)
class FigureResult:
    """Output of a figure/table driver: named rows plus free-form notes."""

    figure_id: str
    title: str
    headers: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        self.rows.append(tuple(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def add_replica_note(
        self,
        n_seeds: int,
        cells: str = "ratio cells",
        test: str | None = "paired t vs ratio 1",
        sample: str = "aggregated over {} matched seed replicas",
    ) -> None:
        """Say how replicated cells were aggregated (no note for one seed).

        ``cells`` names the cells that carry replica statistics, ``test``
        the test behind their p-value (``None`` when they carry none) and
        ``sample`` how the ``n_seeds`` replicas were drawn.
        """
        if n_seeds > 1:
            note = f"{sample.format(n_seeds)}; {cells} are mean±95% CI half-width"
            if test is not None:
                note += f" (p: {test})"
            self.add_note(note)

    def column(self, header: str) -> list:
        """Extract a column by header name (for tests and assertions)."""
        try:
            idx = self.headers.index(header)
        except ValueError as exc:
            raise ConfigurationError(
                f"no column {header!r} in {self.figure_id}"
            ) from exc
        return [row[idx] for row in self.rows]

    def column_means(self, header: str) -> list[float]:
        """Like :meth:`column`, but collapsing aggregated cells to means.

        Lets assertions run unchanged over single-seed (float cells) and
        replicated (:class:`~repro.metrics.stats.SummaryStats` cells)
        figure output.
        """
        return [
            v.mean if isinstance(v, SummaryStats) else v
            for v in self.column(header)
        ]

    def render(self) -> str:
        parts = [f"== {self.figure_id}: {self.title} ==",
                 ascii_table(self.headers, self.rows)]
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)
