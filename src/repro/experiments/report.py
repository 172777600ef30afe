"""Figure data containers and text/CSV rendering.

The original paper presents its evaluation as line plots; in this
offline reproduction each figure is a table whose first column is the
x-axis (node count or injection rate) and whose remaining columns are
one series per topology/scenario.  The *shape* comparisons the paper
draws (who wins, where curves cross, where saturation knees sit) read
directly off these tables.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field


@dataclass(slots=True)
class FigureData:
    """A rendered-figure equivalent: labelled columns over an x-axis.

    Attributes:
        figure_id: Paper figure identifier, e.g. ``"fig10"``.
        title: Human-readable description.
        x_label: Name of the x column.
        x_values: The x-axis points.
        series: Mapping of series label to y-values (must align with
            ``x_values``; None marks a missing measurement).
        notes: Free-form remarks (scenario details, caveats).
    """

    figure_id: str
    title: str
    x_label: str
    x_values: list[float]
    series: dict[str, list[float | None]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add_series(self, label: str, values: list[float | None]) -> None:
        """Attach a series, validating alignment with the x-axis."""
        if len(values) != len(self.x_values):
            raise ValueError(
                f"series {label!r} has {len(values)} points for "
                f"{len(self.x_values)} x values"
            )
        if label in self.series:
            raise ValueError(f"duplicate series label {label!r}")
        self.series[label] = values

    def add_result_series(
        self, by_label, metric: str = "throughput"
    ) -> None:
        """Attach one series per label of *by_label* (label -> run
        results), reading *metric* off each result."""
        for label, results in by_label.items():
            self.add_series(label, [getattr(r, metric) for r in results])

    def add_throughput_and_latency(self, by_label) -> None:
        """Attach a ``<label>-thr`` throughput series per label of
        *by_label*, then a ``<label>-lat`` mean-latency series per
        label: the columns of a study."""
        for suffix, metric in (("thr", "throughput"), ("lat", "avg_latency")):
            self.add_result_series(
                {f"{l}-{suffix}": runs for l, runs in by_label.items()},
                metric,
            )

    def column(self, label: str) -> list[float | None]:
        """The y-values of one series."""
        return self.series[label]

    def at(self, label: str, x: float) -> float | None:
        """The value of series *label* at the x value *x*."""
        return self.series[label][self.x_values.index(x)]

    @classmethod
    def from_csv(
        cls, text: str, figure_id: str = "", title: str = ""
    ) -> "FigureData":
        """Parse :func:`to_csv` output (which carries neither the id
        nor the title) back into a figure."""
        header, *rows = (line.split(",") for line in text.splitlines())
        cells = [
            [None if cell == "" else float(cell) for cell in row]
            for row in rows
        ]
        figure = cls(figure_id, title, header[0], [row[0] for row in cells])
        for column, label in enumerate(header[1:], start=1):
            figure.add_series(label, [row[column] for row in cells])
        return figure


def _format_value(value: float | None, precision: int) -> str:
    if value is None:
        return "-"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.{precision}f}"


def format_table(figure: FigureData, precision: int = 3) -> str:
    """Render *figure* as an aligned monospace table."""
    headers = [figure.x_label] + list(figure.series)
    rows = []
    for i, x in enumerate(figure.x_values):
        row = [_format_value(x, precision)]
        row.extend(
            _format_value(figure.series[label][i], precision)
            for label in figure.series
        )
        rows.append(row)
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in rows)) if rows
        else len(headers[c])
        for c in range(len(headers))
    ]
    out = io.StringIO()
    out.write(f"== {figure.figure_id}: {figure.title} ==\n")
    for note in figure.notes:
        out.write(f"   ({note})\n")
    out.write(
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)) + "\n"
    )
    out.write("  ".join("-" * w for w in widths) + "\n")
    for row in rows:
        out.write(
            "  ".join(v.rjust(w) for v, w in zip(row, widths)) + "\n"
        )
    return out.getvalue()


def format_execution_summary(stats) -> str:
    """One-line report of a sweep execution.

    *stats* is an :class:`~repro.experiments.parallel.ExecutionStats`
    (duck-typed to keep this module import-light): wall clock, worker
    count, how many points were simulated vs served from cache.
    """
    parts = [
        f"{stats.total_points} points",
        f"{stats.executed} simulated",
        f"workers {stats.workers}",
        f"wall {stats.wall_seconds:.2f}s",
    ]
    events = getattr(stats, "events_processed", 0)
    if events and stats.wall_seconds > 0:
        parts.append(
            f"{events} events "
            f"({events / stats.wall_seconds:,.0f}/s)"
        )
    if stats.cache_hits or stats.cache_misses:
        parts.append(
            f"cache {stats.cache_hits} hit"
            f"{'' if stats.cache_hits == 1 else 's'} / "
            f"{stats.cache_misses} miss"
            f"{'' if stats.cache_misses == 1 else 'es'}"
        )
    failed = getattr(stats, "failed", 0)
    if failed:
        parts.append(f"{failed} FAILED")
    for attr, label in (
        ("timeouts", "timeouts"),
        ("crashes", "crashes"),
        ("retried", "retried"),
        ("pool_rebuilds", "pool rebuilds"),
    ):
        count = getattr(stats, attr, 0)
        if count:
            parts.append(f"{count} {label}")
    return ", ".join(parts)


def to_csv(figure: FigureData) -> str:
    """Render *figure* as CSV (header row + one row per x value)."""
    headers = [figure.x_label] + list(figure.series)
    lines = [",".join(headers)]
    for i, x in enumerate(figure.x_values):
        cells = [repr(float(x))]
        for label in figure.series:
            value = figure.series[label][i]
            cells.append("" if value is None else repr(float(value)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
