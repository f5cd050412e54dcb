"""ASCII charts: terminal renderings of the paper's figures.

The evaluation figures are bar charts (often log-scale).  These helpers
render :class:`~repro.analysis.experiments.ExperimentResult` data as
monospace bars so ``python -m repro figures`` can show the *shape* of
each figure without a plotting stack.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

__all__ = ["grouped_bar_chart", "stacked_shares"]

_FULL = "#"
_WIDTH = 48


def grouped_bar_chart(
    groups: Sequence[Tuple[str, Sequence[Tuple[str, float]]]],
    title: str = "",
    width: int = _WIDTH,
) -> str:
    """Clustered bars on a log10 scale (the paper's speedup axes): one
    cluster per group, one bar per positive series entry."""
    lines = [title] if title else []
    for group_label, series in groups:
        lines.append(f"{group_label}:")
        positive = [(f"  {name}", value) for name, value in series if value > 0]
        if not positive:
            continue
        logs = [math.log10(value) for _, value in positive]
        low = min(min(logs), 0.0)
        span = max(max(logs) - low, 1e-9)
        label_width = max(len(label) for label, _ in positive)
        for (label, value), lv in zip(positive, logs):
            bar = _FULL * max(1, round(width * (lv - low) / span))
            lines.append(f"{label.ljust(label_width)} |{bar} {value:.3g}")
    return "\n".join(lines)


def stacked_shares(
    rows: Sequence[Tuple[str, Dict[str, float]]],
    title: str = "",
    width: int = _WIDTH,
    legend: Sequence[Tuple[str, str]] = (),
) -> str:
    """100 %-stacked bars from {component: fraction} rows (Figure 9)."""
    lines = [title] if title else []
    if legend:
        lines.append(
            "legend: " + "  ".join(f"{char}={name}" for name, char in legend)
        )
    chars = dict(legend)
    label_width = max((len(label) for label, _ in rows), default=0)
    for label, shares in rows:
        bar = []
        for name, fraction in shares.items():
            char = chars.get(name, name[0])
            bar.append(char * max(0, round(width * fraction)))
        lines.append(f"{label.ljust(label_width)} |{''.join(bar)[:width]}|")
    return "\n".join(lines)
