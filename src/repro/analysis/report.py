"""Plain-text table rendering shared by the experiment drivers and the CLI.

Deliberately dependency-free: fixed-width aligned columns, scientific
abbreviations matching the paper's table style.
"""

from __future__ import annotations

from typing import Any, List, Sequence

__all__ = ["render_table", "fmt", "geomean"]


def fmt(value: Any, digits: int = 3) -> str:
    """Format a cell: floats compactly, everything else via str()."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.2e}"
        if magnitude >= 100:
            return f"{value:.1f}"
        return f"{value:.{digits}g}"
    return str(value)


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = ""
) -> str:
    """Render an aligned text table."""
    cells = [[fmt(value) for value in row] for row in rows]
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in cells)) if cells else len(headers[col])
        for col in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in cells:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (the paper's preferred aggregate)."""
    filtered = [v for v in values if v > 0]
    if not filtered:
        return 0.0
    product = 1.0
    for value in filtered:
        product *= value
    return product ** (1.0 / len(filtered))
