"""Plain-text table rendering used by the benchmark harnesses.

Every benchmark prints the rows / series of the corresponding paper table or
figure through these helpers so the output is uniform and diffable, and the
CLI (``python -m repro``) prints the same tables.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

__all__ = ["format_table", "format_percent"]

Cell = Union[str, float, int]


def format_percent(value: float, digits: int = 1) -> str:
    """Render a fraction as a percentage string (NaN-safe)."""
    if value != value:  # NaN
        return "n/a"
    return f"{value * 100:.{digits}f}%"


def _stringify(cell: Cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Cell]], title: Optional[str] = None) -> str:
    """Render an aligned plain-text table."""
    string_rows: List[List[str]] = [[_stringify(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in string_rows:
        if len(row) != len(headers):
            raise ValueError(f"row {row!r} does not match header width {len(headers)}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in string_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
