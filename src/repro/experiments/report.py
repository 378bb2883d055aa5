"""Plain-text report rendering shared by all experiment drivers.

Experiment drivers return structured rows; these helpers render them as
aligned tables on stdout — the benchmark harness prints one table per
paper figure so a run's output reads like the paper's evaluation
section.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str | None = None
) -> str:
    """Render rows as a fixed-width table.

    Floats are shown with three significant decimals; everything else
    via ``str``.
    """
    rendered: List[List[str]] = []
    for row in rows:
        rendered.append([_cell(value) for value in row])
    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value >= 1000:
            return f"{value:,.0f}"
        return f"{value:.3f}"
    if isinstance(value, int) and abs(value) >= 1000:
        return f"{value:,}"
    return str(value)


def human_bytes(count: float) -> str:
    """1234567 → '1.18 MiB' — used in the Retwis bandwidth reports."""
    size = float(count)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if size < 1024 or unit == "TiB":
            return f"{size:.2f} {unit}"
        size /= 1024
    raise AssertionError("unreachable")


def ascii_chart(
    series: Mapping[str, Sequence[float]],
    *,
    width: int = 50,
    log: bool = False,
    unit: str = "",
) -> str:
    """Horizontal bar chart: one row per (label, point), terminal-friendly.

    The paper's growth figures (9, 11) are log-scale plots; with
    ``log=True`` bar lengths are proportional to ``log10`` of the value
    so linear-vs-quadratic growth is visible in a terminal the way it
    is on the paper's axes.  Zero and negative values render as empty
    bars.

    >>> print(ascii_chart({"a": [1.0, 100.0]}, width=10, log=True))
    a[0]  ▏           1.000
    a[1]  ██████████  100.000
    """
    import math

    rows: List[tuple] = []
    for label, values in series.items():
        for index, value in enumerate(values):
            tag = f"{label}[{index}]" if len(values) > 1 else label
            rows.append((tag, float(value)))
    if not rows:
        return "(no data)"
    positives = [v for _, v in rows if v > 0]
    floor = min(positives) if positives else 1.0
    top = max(positives) if positives else 1.0

    def magnitude(value: float) -> float:
        if value <= 0:
            return 0.0
        if not log:
            return value / top
        if top == floor:
            return 1.0
        return (math.log10(value) - math.log10(floor)) / (
            math.log10(top) - math.log10(floor)
        )

    label_width = max(len(tag) for tag, _ in rows)
    lines = []
    for tag, value in rows:
        filled = magnitude(value) * width
        whole = int(filled)
        bar = "█" * whole
        if whole < width and filled - whole >= 0.5:
            bar += "▌"
        if not bar:
            bar = "▏"
        shown = _cell(value) + (f" {unit}" if unit else "")
        lines.append(f"{tag.ljust(label_width)}  {bar.ljust(width)}  {shown}")
    return "\n".join(lines)
