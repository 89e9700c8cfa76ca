"""Text rendering of the paper's figures (convergence traces, histograms, bars).

The reproduction is terminal-first: instead of matplotlib plots, the figure
data is rendered as compact ASCII charts that read straight off a terminal
or a CI log.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["render_series", "render_histogram", "render_grouped_bars"]


def _scaled(value: float, maximum: float, width: int) -> int:
    if maximum <= 0:
        return 0
    return max(0, min(width, int(round(value / maximum * width))))


def render_series(
    series: Mapping[str, Sequence[float]],
    title: str = "",
    width: int = 50,
) -> str:
    """Render one horizontal bar per data point, grouped by series (Fig. 5 style)."""
    lines = []
    if title:
        lines.append(title)
    maximum = max(
        (max(values) for values in series.values() if len(values)), default=0.0
    )
    for name, values in series.items():
        lines.append(f"{name}:")
        for index, value in enumerate(values):
            bar = "#" * _scaled(value, maximum, width)
            lines.append(f"  iter {index + 1:>3}  {value:>10.1f} {bar}")
    return "\n".join(lines)


def render_histogram(
    bin_edges: Sequence[float],
    counts: Sequence[int],
    title: str = "",
    width: int = 50,
) -> str:
    """Render a histogram with one bar per bin (Fig. 6 style)."""
    if len(counts) != len(bin_edges) - 1:
        raise ValueError("counts must have exactly len(bin_edges) - 1 entries")
    lines = []
    if title:
        lines.append(title)
    maximum = max(counts, default=0)
    for low, high, count in zip(bin_edges, bin_edges[1:], counts):
        bar = "#" * _scaled(count, maximum, width)
        lines.append(f"  {low:>4.1f} - {high:<4.1f} {count:>8} {bar}")
    return "\n".join(lines)


def render_grouped_bars(
    groups: Mapping[str, Mapping[str, float]],
    title: str = "",
    width: int = 40,
) -> str:
    """Render grouped bars, e.g. per-case E-BLOW-0 vs E-BLOW-1 (Fig. 11/12 style).

    ``groups`` maps a group label (benchmark case) to ``{series: value}``.
    """
    lines = []
    if title:
        lines.append(title)
    maximum = max(
        (value for series in groups.values() for value in series.values()),
        default=0.0,
    )
    for group, series in groups.items():
        lines.append(f"{group}:")
        for name, value in series.items():
            bar = "#" * _scaled(value, maximum, width)
            lines.append(f"  {name:<12} {value:>12.1f} {bar}")
    return "\n".join(lines)
