"""SVG scatter rendering tests."""

import os
import subprocess
import sys
from pathlib import Path
from xml.sax.saxutils import escape as sax_escape

import pytest
from hypothesis import given, strategies as st

import knowmap
from knowmap.drift import DriftConfig, run_drift
from knowmap.errors import DimensionMismatchError, EmptyInputError, NonFiniteValueError
from knowmap.graph import TopologyKind
from knowmap.svgplot import (
    escape, render_scatter, workload_color, write_drift_svg, write_scatter_svg,
)


def test_color_ramp_endpoints():
    assert workload_color(0) == "#2166ac"
    assert workload_color(100) == "#b2182b"


def test_color_ramp_midpoint():
    # channel-wise halfway: (33+178)/2, (102+24)/2, (172+43)/2 rounded
    assert workload_color(50) == "#6a3f6c"


def test_color_ramp_clamps():
    assert workload_color(-20) == workload_color(0)
    assert workload_color(250) == workload_color(100)


def sample():
    labels = ["baseline:a", "baseline:b", "target:t", "target:t", "target:t"]
    workloads = [50, 50, 0, 50, 100]
    points = [[0.0, 0.0], [1.0, 1.0], [2.0, 0.5], [0.5, 2.0], [1.5, 1.5]]
    return labels, workloads, points


def test_one_circle_per_row_and_rect_legend():
    svg = render_scatter(*sample(), title="demo")
    assert svg.count("<circle") == 5
    assert svg.count("<polyline") == 1
    assert svg.count("<rect") == 5  # canvas, frame, three legend swatches
    assert "demo" in svg


def test_baseline_points_are_gray_and_targets_colored():
    svg = render_scatter(*sample())
    for line in svg.splitlines():
        if "<circle" in line and "baseline" in line:
            assert 'fill="#888888"' in line
        if "<circle" in line and "target" in line and "100%" in line:
            assert 'fill="#b2182b"' in line


def test_degenerate_extent_still_renders():
    svg = render_scatter(["target:t"], [50], [[1.0, 1.0]])
    assert svg.count("<circle") == 1
    assert "<polyline" not in svg


def test_labels_are_escaped():
    svg = render_scatter(["baseline:<x&y>"], [50], [[0.0, 0.0]])
    assert "<x&y>" not in svg
    assert "&lt;x&amp;y&gt;" in svg


@given(st.text())
def test_escape_is_saxutils_escape(text):
    assert escape(text) == sax_escape(text)


# xml.sax.saxutils alone loads urllib.request, and with it http.client, email and ssl
UNUSED_MODULES = ("urllib.request", "http.client", "email", "ssl", "xml.sax")


def test_a_drift_export_imports_no_url_mail_or_sax_modules(tmp_path):
    script = (
        "import sys\n"
        "from knowmap.cli import main\n"
        f"code = main(['drift', '--nodes', '5', '--out', {str(tmp_path)!r}])\n"  # a ring
        f"print(sorted(set({UNUSED_MODULES!r}) & set(sys.modules)))\n"
        "sys.exit(code)\n"
    )
    src = str(Path(knowmap.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "trajectory.svg").is_file()


def test_render_validation():
    with pytest.raises(DimensionMismatchError):
        render_scatter(["a"], [50, 60], [[0.0, 0.0]])
    with pytest.raises(EmptyInputError):
        render_scatter([], [], [])
    # a point is an (x, y) pair of numbers: one column, three, a flat row of two, a ragged
    # row or a string coordinate is refused
    for points in ([[0.0], [1.0]], [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], [0.0, 1.0],
                   [[0.0, 0.0], [1.0]], [["a", 0.0], [1.0, 1.0]]):
        with pytest.raises(DimensionMismatchError, match="points must be 2 x 2"):
            render_scatter(["baseline:a", "target:t"], [50, 50], points)
    with pytest.raises(NonFiniteValueError, match="workload"):
        render_scatter(["baseline:a", "target:t"], [50, None], [[0.0, 0.0], [1.0, 1.0]])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("axis", [0, 1, "workload"])
def test_a_non_finite_point_is_rejected(axis, value):
    labels, workloads, points = sample()
    if axis == "workload":
        workloads[2] = value
    else:
        points[2][axis] = value
    with pytest.raises(NonFiniteValueError):
        render_scatter(labels, workloads, points)


def test_an_extent_that_overflows_a_double_is_rejected():
    # finite points, but max - min is past 1.8e308: the centres would be NaN
    with pytest.raises(NonFiniteValueError):
        render_scatter(["baseline:a", "baseline:b"], [50, 50], [[-1e308, 0.0], [1e308, 0.0]])


@pytest.mark.parametrize("value", [0.0, 1.0, -3.5, 2.0**52 + 2, 2.0**60, -1e300])
def test_a_one_value_span_sits_at_the_centre_at_any_magnitude(value):
    # from 2**52 on, value ± 0.5 can round back to value, a span of 0
    svg = render_scatter(["target:t"], [50], [[value, value]])
    assert '<circle cx="335.00" cy="235.00" r="5"' in svg


@pytest.mark.parametrize("args", [
    ([], [], []),
    (["target:t", "baseline:a"], [50, 50], [[0.0, 0.0], [float("nan"), 1.0]]),
    (["target:t", "baseline:a"], [50, 50], [[0.0, 0.0], [1.0]]),
], ids=["empty", "nan", "ragged"])
def test_a_rejected_plot_creates_no_file(tmp_path, args):
    path = tmp_path / "plot.svg"
    with pytest.raises((EmptyInputError, NonFiniteValueError, DimensionMismatchError)):
        write_scatter_svg(path, *args)
    assert not path.exists()


@pytest.mark.parametrize("args", [
    ([], [], []),
    (["target:t", "baseline:a"], [50, 50], [[0.0, 0.0], [1.0, float("inf")]]),
    (["target:t", "baseline:a"], [None, 50], [[0.0, 0.0], [1.0, 1.0]]),
], ids=["empty", "inf", "none-workload"])
def test_a_rejected_plot_leaves_an_existing_file_as_it_was(tmp_path, args):
    path = tmp_path / "plot.svg"
    path.write_bytes(b"<svg>earlier plot</svg>\n")
    with pytest.raises((EmptyInputError, NonFiniteValueError)):
        write_scatter_svg(path, *args)
    assert path.read_bytes() == b"<svg>earlier plot</svg>\n"


def test_drift_svg_counts_match_run(tmp_path):
    result = run_drift(DriftConfig(topology=TopologyKind.RING, nodes=5))
    path = tmp_path / "t.svg"
    write_drift_svg(path, result)
    text = path.read_text()
    assert text.count("<circle") == 5 + len(result.config.sweep)
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")


def test_render_is_deterministic():
    assert render_scatter(*sample()) == render_scatter(*sample())
