"""Plain-text table/series formatting + metrics export for benchmarks.

:func:`format_table` is what :mod:`repro.bench.compare` prints its
gates with.  :func:`run_metrics` serializes a
:class:`~repro.bench.runner.MeasuredRun` into the observability
layer's shared metric schema (:mod:`repro.util.obs`), so benchmark
output, the CLI's ``--metrics`` flag, and ``EXPLAIN ANALYZE`` all
emit identical records.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.util.counters import CounterSnapshot
from repro.util.obs import Observer, metrics_records


def format_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[str],
    title: str = "",
) -> str:
    """Render rows as an aligned monospace table."""
    widths = {c: len(c) for c in columns}
    rendered: List[List[str]] = []
    for row in rows:
        cells = []
        for column in columns:
            text = _fmt(row.get(column, ""))
            widths[column] = max(widths[column], len(text))
            cells.append(text)
        rendered.append(cells)
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for cells in rendered:
        lines.append(
            "  ".join(
                cell.rjust(widths[column])
                for cell, column in zip(cells, columns)
            )
        )
    return "\n".join(lines)


def format_series(
    series: Mapping[str, Sequence[float]],
    x_values: Sequence[Any],
    x_label: str = "pairs",
    title: str = "",
) -> str:
    """Render figure-style data: one row per x value, one column per
    labelled series (the shape of the paper's execution-time plots)."""
    columns = [x_label] + list(series)
    rows: List[Dict[str, Any]] = []
    for i, x in enumerate(x_values):
        row: Dict[str, Any] = {x_label: x}
        for label, values in series.items():
            row[label] = values[i] if i < len(values) else ""
        rows.append(row)
    return format_table(rows, columns, title=title)


def run_metrics(
    run: Any, labels: Optional[Mapping[str, Any]] = None
) -> List[Dict[str, Any]]:
    """A :class:`~repro.bench.runner.MeasuredRun` as shared-schema
    metric records: its counters, peaks, and wall time (as the
    ``bench.run`` span)."""
    obs = Observer(max_events=0)
    obs.record_span("bench.run", run.seconds)
    label_dict: Dict[str, Any] = {}
    if getattr(run, "label", ""):
        label_dict["label"] = run.label
    if labels:
        label_dict.update(labels)
    label_dict.setdefault("pairs", run.pairs_produced)
    snapshot = CounterSnapshot(
        values=dict(run.counters), peaks=dict(run.peaks)
    )
    return metrics_records(snapshot, obs, label_dict)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.4g}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)
