"""Static SVG scatter of a drift projection.

Pure string assembly, no drawing library.  What does not depend on the data
(canvas, frame, axis labels, legend) is one frame text built at import, with
one slot for the title line and one for the body.  The body is one Python %
over a circle template per row kind, whose "%.2f" fields format each centre,
after the target's polyline, one % over its centres.  A plot is rendered
before its file is opened, so a rejected one (empty, not n x 2, not finite,
or wider than a double) writes nothing.  Legend swatches are rectangles so
circles count exactly the rows.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import DimensionMismatchError, EmptyInputError, NonFiniteValueError

if TYPE_CHECKING:
    from .drift import DriftResult

WIDTH = 640
HEIGHT = 480
MARGIN_LEFT = 60
MARGIN_RIGHT = 30
MARGIN_TOP = 40
MARGIN_BOTTOM = 50
PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

# Endpoints of the workload color ramp: cool at 0%, hot at 100%.
GRADIENT_LOW = (0x21, 0x66, 0xAC)
GRADIENT_HIGH = (0xB2, 0x18, 0x2B)
BASELINE_FILL = "#888888"

TARGET_PREFIX = "target:"


def escape(text: str) -> str:
    """Escape &, < and > for SVG text, as xml.sax.saxutils.escape does, without its imports."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def workload_color(workload: int) -> str:
    """Hex color for a workload percent, interpolated along the ramp."""
    t = min(max(workload / 100.0, 0.0), 1.0)
    channels = (
        round(low + (high - low) * t)
        for low, high in zip(GRADIENT_LOW, GRADIENT_HIGH)
    )
    return "#{:02x}{:02x}{:02x}".format(*channels)


# The document less its data: one %s for the title line, one for the polyline and rows.
_FRAME = (
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
    f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
    f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>\n'
    f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{PLOT_W}" '
    f'height="{PLOT_H}" fill="none" stroke="#999999"/>\n'
    "%s"
    f'<text x="{WIDTH / 2:.2f}" y="{HEIGHT - 14}" text-anchor="middle" '
    f'font-family="sans-serif" font-size="12">component 1</text>\n'
    f'<text x="18" y="{HEIGHT / 2:.2f}" text-anchor="middle" '
    f'font-family="sans-serif" font-size="12" '
    f'transform="rotate(-90 18 {HEIGHT / 2:.2f})">component 2</text>\n'
    "%s"
    + "".join(
        f'<rect x="{WIDTH - MARGIN_RIGHT - 150}" y="{y}" width="12" height="12" fill="{fill}"/>\n'
        f'<text x="{WIDTH - MARGIN_RIGHT - 150 + 18}" y="{y + 10}" '
        f'font-family="sans-serif" font-size="11">{text}</text>\n'
        for y, fill, text in (
            (MARGIN_TOP + 8, BASELINE_FILL, "baseline nodes"),
            (MARGIN_TOP + 26, workload_color(0), "target at 0%% workload"),
            (MARGIN_TOP + 44, workload_color(100), "target at 100%% workload"),
        )
    )
    + "</svg>\n"
)
_TITLE = (
    f'<text x="{WIDTH / 2:.2f}" y="24" text-anchor="middle" '
    f'font-family="sans-serif" font-size="15">%s</text>\n'
)
_POLYLINE = '<polyline points="%s" fill="none" stroke="#666666" stroke-width="1"/>\n'
# Each row's centre x and y, fill, label and workload; both kinds share the tooltip.
_TOOLTIP = "<title>%s (%d%%)</title></circle>\n"
_TARGET_ROW = (
    '<circle cx="%.2f" cy="%.2f" r="5" fill="%s" stroke="#333333" stroke-width="0.8">'
    + _TOOLTIP
)
_BASELINE_ROW = '<circle cx="%.2f" cy="%.2f" r="4" fill="%s" fill-opacity="0.45">' + _TOOLTIP


def render_scatter(
    labels: Sequence[str],
    workloads: Sequence[int],
    points: Sequence[Sequence[float]],
    title: str = "",
) -> str:
    """Render labeled 2-D points to an SVG document string.

    Rows whose label starts with "target:" are colored by workload, drawn
    larger, outlined, and connected by a polyline in row order; the rest
    form a gray background cloud.  Every row becomes exactly one circle.
    """
    if not (len(labels) == len(workloads) == len(points)):
        raise DimensionMismatchError("labels, workloads, and points must align")
    if len(points) == 0:
        raise EmptyInputError("nothing to plot")
    try:
        xy = np.asarray(points, dtype=float)
    except (ValueError, TypeError) as error:  # ragged rows, or a value that is not a number
        raise DimensionMismatchError(f"points must be {len(points)} x 2 numbers: {error}") from None
    if xy.shape != (len(points), 2):
        raise DimensionMismatchError(f"points must be {len(points)} x 2, got shape {xy.shape}")
    try:
        workloads = list(map(int, workloads))  # int raises ValueError at NaN, OverflowError at inf
    except (ValueError, OverflowError, TypeError):  # and TypeError at None
        raise NonFiniteValueError("every workload must be a finite number") from None
    # Python's order of operations, over arrays: the same doubles as one point at a time.
    spans = []
    for values in xy.T:
        low, high = float(values.min()), float(values.max())
        # a degenerate span still needs an extent, one that low ± pad does not round away
        pad = (high - low) * 0.05 or max(0.5, abs(low) / 2)
        spans += [low - pad, high + pad]
    x_lo, x_hi, y_lo, y_hi = spans
    if not np.isfinite([x_hi - x_lo, y_hi - y_lo]).all():
        raise NonFiniteValueError("a point is not finite, or the plot's extent overflows a double")
    cxs = (MARGIN_LEFT + (xy[:, 0] - x_lo) / (x_hi - x_lo) * PLOT_W).tolist()
    cys = (MARGIN_TOP + (1.0 - (xy[:, 1] - y_lo) / (y_hi - y_lo)) * PLOT_H).tolist()

    target = [label.startswith(TARGET_PREFIX) for label in labels]
    fills = [workload_color(w) if t else BASELINE_FILL for w, t in zip(workloads, target)]
    rows = chain.from_iterable(zip(cxs, cys, fills, map(escape, labels), workloads))
    body = "".join([_TARGET_ROW if t else _BASELINE_ROW for t in target]) % tuple(rows)
    trajectory = [centre for centre, t in zip(zip(cxs, cys), target) if t]
    if len(trajectory) >= 2:
        line = " ".join(["%.2f,%.2f"] * len(trajectory)) % tuple(chain.from_iterable(trajectory))
        body = _POLYLINE % line + body
    return _FRAME % (_TITLE % escape(title) if title else "", body)


def write_scatter_svg(
    path: str | Path,
    labels: Sequence[str],
    workloads: Sequence[int],
    points: Sequence[Sequence[float]],
    title: str = "",
) -> None:
    """Render, then write: a plot that is rejected leaves `path` as it was."""
    text = render_scatter(labels, workloads, points, title)
    # UTF-8 whatever the locale: argv bytes the locale could not decode are written as given
    with open(path, "w", encoding="utf-8", errors="surrogateescape") as handle:
        handle.write(text)


def write_drift_svg(path: str | Path, result: "DriftResult") -> None:
    """Plot a drift run: baseline cloud plus the target's workload trajectory."""
    config = result.config
    title = f"{config.topology.value} n={config.nodes} target={config.target}"
    write_scatter_svg(
        path, result.projection_labels, result.projection_workloads, result.projection, title
    )
