"""Static SVG scatter of a drift projection.

Pure string assembly, no drawing library.  One circle per projected row;
legend swatches are rectangles so circles count exactly the data points.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .errors import DimensionMismatchError, EmptyInputError

if TYPE_CHECKING:
    from .drift import DriftResult

WIDTH = 640
HEIGHT = 480
MARGIN_LEFT = 60
MARGIN_RIGHT = 30
MARGIN_TOP = 40
MARGIN_BOTTOM = 50

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


def _spans(points: Sequence[Sequence[float]]) -> tuple[float, float, float, float]:
    xs = [float(p[0]) for p in points]
    ys = [float(p[1]) for p in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    # Degenerate spans still need a nonzero extent to place points.
    x_pad = (x_max - x_min) * 0.05 or 0.5
    y_pad = (y_max - y_min) * 0.05 or 0.5
    return x_min - x_pad, x_max + x_pad, y_min - y_pad, y_max + y_pad


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
    x_lo, x_hi, y_lo, y_hi = _spans(points)
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_TOP + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')
    parts.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#999999"/>'
    )
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.2f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{escape(title)}</text>'
        )
    parts.append(
        f'<text x="{WIDTH / 2:.2f}" y="{HEIGHT - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">component 1</text>'
    )
    parts.append(
        f'<text x="18" y="{HEIGHT / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {HEIGHT / 2:.2f})">component 2</text>'
    )

    trajectory = [
        (sx(float(p[0])), sy(float(p[1])))
        for label, p in zip(labels, points)
        if label.startswith(TARGET_PREFIX)
    ]
    if len(trajectory) >= 2:
        joined = " ".join(f"{x:.2f},{y:.2f}" for x, y in trajectory)
        parts.append(
            f'<polyline points="{joined}" fill="none" stroke="#666666" '
            f'stroke-width="1"/>'
        )

    for label, workload, point in zip(labels, workloads, points):
        cx, cy = sx(float(point[0])), sy(float(point[1]))
        tooltip = f"<title>{escape(label)} ({int(workload)}%)</title>"
        if label.startswith(TARGET_PREFIX):
            color = workload_color(int(workload))
            parts.append(
                f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="5" fill="{color}" '
                f'stroke="#333333" stroke-width="0.8">{tooltip}</circle>'
            )
        else:
            parts.append(
                f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="4" fill="{BASELINE_FILL}" '
                f'fill-opacity="0.45">{tooltip}</circle>'
            )

    legend_x = WIDTH - MARGIN_RIGHT - 150
    swatches = (
        (BASELINE_FILL, "baseline nodes"),
        (workload_color(0), "target at 0% workload"),
        (workload_color(100), "target at 100% workload"),
    )
    for i, (fill, text) in enumerate(swatches):
        y = MARGIN_TOP + 8 + 18 * i
        parts.append(
            f'<rect x="{legend_x}" y="{y}" width="12" height="12" fill="{fill}"/>'
        )
        parts.append(
            f'<text x="{legend_x + 18}" y="{y + 10}" '
            f'font-family="sans-serif" font-size="11">{text}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_scatter_svg(
    path: str | Path,
    labels: Sequence[str],
    workloads: Sequence[int],
    points: Sequence[Sequence[float]],
    title: str = "",
) -> None:
    # UTF-8 whatever the locale: argv bytes the locale could not decode are written as given
    with open(path, "w", encoding="utf-8", errors="surrogateescape") as handle:
        handle.write(render_scatter(labels, workloads, points, title))


def write_drift_svg(path: str | Path, result: "DriftResult") -> None:
    """Plot a drift run: baseline cloud plus the target's workload trajectory."""
    title = (
        f"{result.config.topology.value} n={result.config.nodes} "
        f"target={result.target}"
    )
    write_scatter_svg(
        path,
        result.projection_labels,
        result.projection_workloads,
        result.projection,
        title=title,
    )
