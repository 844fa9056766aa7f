"""Terminal-friendly plots for the paper's figures.

Examples and benchmarks run offline without a display, so the figures
are rendered as ASCII: a log-x scatter for Figure 3/13-style
polarity-vs-covariate plots and a bar panel for Figure 10/11-style
counts.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import TYPE_CHECKING

from ..core.types import Polarity

if TYPE_CHECKING:  # the harness and numpy stay unloaded for a sparkline
    from .correlation import PolarityPoint

_POLARITY_ROW = {Polarity.POSITIVE: 0, Polarity.NEUTRAL: 1,
                 Polarity.NEGATIVE: 2}
_ROW_LABELS = ("+", "N", "-")


def polarity_scatter(
    points: Sequence[PolarityPoint],
    width: int = 72,
    label: str = "covariate",
) -> str:
    """Figure 3(c)/(d)-style plot: polarity rows over a log-x axis.

    Each column is a log-covariate bucket; a character is drawn in the
    +, N, or − row when any entity in the bucket carries that
    polarity, with digits 2-9 marking multiplicity.
    """
    finite = [p for p in points if p.covariate > 0]
    if not finite:
        return "(no data)"
    low = math.log10(min(p.covariate for p in finite))
    high = math.log10(max(p.covariate for p in finite))
    span = max(high - low, 1e-9)
    grid = [[0] * width for _ in range(3)]
    for point in finite:
        column = int(
            (math.log10(point.covariate) - low) / span * (width - 1)
        )
        row = _POLARITY_ROW[point.polarity]
        grid[row][column] += 1

    lines = []
    for row_index, row in enumerate(grid):
        cells = []
        for count in row:
            if count == 0:
                cells.append(" ")
            elif count == 1:
                cells.append("*")
            else:
                cells.append(str(min(count, 9)))
        lines.append(f"{_ROW_LABELS[row_index]} |{''.join(cells)}|")
    lines.append(
        f"   10^{low:.1f}{' ' * (width - 16)}10^{high:.1f}  ({label}, log)"
    )
    return "\n".join(lines)


def bar_chart(
    items: Sequence[tuple[str, float]],
    width: int = 40,
    fill: str = "#",
) -> str:
    """Figure 10-style horizontal bars."""
    if not items:
        return "(no data)"
    peak = max(value for _, value in items)
    label_width = max(len(label) for label, _ in items)
    lines = []
    for label, value in items:
        bar = fill * (
            0 if peak <= 0 else round(value / peak * width)
        )
        lines.append(f"{label:<{label_width}} {value:>7.4g} {bar}")
    return "\n".join(lines)


def histogram_panel(
    edges: Sequence[float],
    counts: Sequence[int],
    width: int = 40,
) -> str:
    """Bucketed-histogram bars (used by ``repro stats --metrics``).

    ``counts`` has one slot per edge plus a trailing overflow slot;
    each row is labelled with its inclusive upper bound (``le=``,
    Prometheus convention), the last with ``+Inf``.
    """
    labels = [f"le={edge:g}" for edge in edges] + ["le=+Inf"]
    return bar_chart(
        [
            (label, float(count))
            for label, count in zip(labels, counts)
        ],
        width=width,
    )


def sparkline(values: Sequence[float]) -> str:
    """Compact trend line (used for agreement/precision series)."""
    if not values:
        return ""
    blocks = "▁▂▃▄▅▆▇█"
    low = min(values)
    high = max(values)
    span = high - low
    if span == 0:
        return blocks[3] * len(values)
    return "".join(
        blocks[int((value - low) / span * (len(blocks) - 1))]
        for value in values
    )
