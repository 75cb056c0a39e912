"""Result containers and plain-text table formatting for the benchmarks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.utils.stats import LatencyAccumulator


@dataclass
class ExperimentResult:
    """The outcome of one experiment driver.

    Attributes
    ----------
    experiment:
        Experiment id, a key of ``repro.bench.experiments.EXPERIMENTS``
        (e.g. ``"fig7"``).
    title:
        Human-readable title (what the paper's table/figure caption says).
    columns:
        Column names of ``rows``.
    rows:
        The data rows, one tuple per line of the reproduced table/series.
    notes:
        Free-form notes (parameters used, deviations, shape checks).
    """

    experiment: str
    title: str
    columns: Tuple[str, ...]
    rows: List[tuple] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        """Append one row (must match ``columns`` in length)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values but the result has {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def add_note(self, note: str) -> None:
        """Attach a free-form note."""
        self.notes.append(note)

    def column(self, name: str) -> List:
        """All values of one column."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def filter_rows(self, **criteria) -> List[tuple]:
        """Rows whose named columns equal the given values."""
        indices = {name: self.columns.index(name) for name in criteria}
        return [
            row
            for row in self.rows
            if all(row[indices[name]] == value for name, value in criteria.items())
        ]

    def cell(self, value_column: str, **criteria) -> Optional[float]:
        """The single value of ``value_column`` in the row matching ``criteria``."""
        matches = self.filter_rows(**criteria)
        if not matches:
            return None
        return matches[0][self.columns.index(value_column)]


def _format_value(value) -> str:
    if isinstance(value, float):
        if value != 0 and (abs(value) < 1e-3 or abs(value) >= 1e6):
            return f"{value:.3e}"
        return f"{value:.4f}"
    return str(value)


def format_table(result: ExperimentResult, max_rows: Optional[int] = None) -> str:
    """Render an :class:`ExperimentResult` as an aligned plain-text table."""
    rows = result.rows if max_rows is None else result.rows[:max_rows]
    rendered = [[_format_value(v) for v in row] for row in rows]
    headers = [str(c) for c in result.columns]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [f"== {result.experiment}: {result.title} =="]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    if max_rows is not None and len(result.rows) > max_rows:
        lines.append(f"... ({len(result.rows) - max_rows} more rows)")
    for note in result.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def format_results(results: Sequence[ExperimentResult]) -> str:
    """Render several results separated by blank lines."""
    return "\n\n".join(format_table(result) for result in results)


LATENCY_COLUMNS = ("label", "queries", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms", "qps")


def latency_row(accumulator: LatencyAccumulator, wall_seconds: Optional[float] = None) -> tuple:
    """One :data:`LATENCY_COLUMNS` row from a latency accumulator.

    ``wall_seconds`` is the wall-clock span the observations were collected
    over; throughput falls back to the busy time (sum of latencies) when the
    caller did not measure the span, which overstates qps under concurrency.
    """
    summary = accumulator.summary()
    span = wall_seconds if wall_seconds and wall_seconds > 0 else accumulator.total
    qps = summary["count"] / span if span > 0 else 0.0
    return (
        summary["label"],
        summary["count"],
        summary["mean"] * 1000.0,
        summary["p50"] * 1000.0,
        summary["p95"] * 1000.0,
        summary["p99"] * 1000.0,
        summary["max"] * 1000.0,
        qps,
    )


def latency_result(
    experiment: str,
    title: str,
    accumulators: Sequence[LatencyAccumulator],
    wall_seconds: Optional[Mapping[str, float]] = None,
) -> ExperimentResult:
    """An :class:`ExperimentResult` latency table, one row per accumulator."""
    result = ExperimentResult(experiment=experiment, title=title, columns=LATENCY_COLUMNS)
    for accumulator in accumulators:
        span = wall_seconds.get(accumulator.label) if wall_seconds else None
        result.add_row(*latency_row(accumulator, span))
    return result
