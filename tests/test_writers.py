"""The artifact writers against references that format one value at a time, at benchmark size.

knowledge_map.json is formatted over arrays (embedding.format_rows: rows
padded with 0xFF, compacted by one bytes.translate), each entry value the
"%.17g" text of the embedding CSVs and final_delta its repr; the projection
CSV and the SVG are one Python % over the whole text.  The n=12
digests in test_cli.py pin a small run.  These runs are the benchmark's own
configs, so every value the benchmark writes meets a writer that formats it
one value at a time.
"""

import json

import pytest
from test_embedding import per_row_projection_csv

from knowmap.drift import DriftConfig, run_drift, write_projection_csv
from knowmap.graph import TopologyKind
from knowmap.sharing import write_knowledge_map_json
from knowmap.svgplot import escape, render_scatter, workload_color, write_drift_svg

BENCH_CONFIGS = {
    "full-300": DriftConfig(topology=TopologyKind.FULLY_CONNECTED, nodes=300, seed=1),
    "ring-3000": DriftConfig(topology=TopologyKind.RING, nodes=3000, seed=1),
    "line-deep": DriftConfig(
        topology=TopologyKind.LINE, nodes=600, rounds=50, sharing_tolerance=1e-6, seed=1
    ),
}


@pytest.fixture(scope="module", params=sorted(BENCH_CONFIGS))
def bench_result(request):
    return run_drift(BENCH_CONFIGS[request.param])


def per_value_knowledge_map_json(path, knowledge_map):
    """write_knowledge_map_json one value at a time: "%.17g" an entry value, final_delta "%r"."""
    states, final_delta = knowledge_map.states, float(knowledge_map.final_delta)
    ids, rows = knowledge_map.node_ids, states.tolist()
    row = "    %s: [\n      " + ",\n      ".join(["%.17g"] * states.shape[1]) + "\n    ]"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{\n  "converged": %s,\n  "entries": ' % json.dumps(knowledge_map.converged))
        for k, i in enumerate(sorted(range(len(ids)), key=ids.__getitem__)):
            handle.write((",\n" if k else "{\n") + row % (json.dumps(ids[i]), *rows[i]))
        handle.write(("\n  }" if ids else "{}") + ',\n  "final_delta": %r,\n' % final_delta)
        handle.write('  "round": %d\n}\n' % knowledge_map.rounds_used)


def per_value_scatter(labels, workloads, points, title=""):
    """render_scatter with its coordinates formatted one point at a time."""
    xs, ys = [float(p[0]) for p in points], [float(p[1]) for p in points]
    x_pad = (max(xs) - min(xs)) * 0.05 or 0.5
    y_pad = (max(ys) - min(ys)) * 0.05 or 0.5
    x_lo, x_hi = min(xs) - x_pad, max(xs) + x_pad
    y_lo, y_hi = min(ys) - y_pad, max(ys) + y_pad
    sx = lambda x: 60 + (x - x_lo) / (x_hi - x_lo) * 550
    sy = lambda y: 40 + (1.0 - (y - y_lo) / (y_hi - y_lo)) * 390
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480" viewBox="0 0 640 480">',
        '<rect width="640" height="480" fill="#ffffff"/>',
        '<rect x="60" y="40" width="550" height="390" fill="none" stroke="#999999"/>',
    ]
    if title:
        parts.append(
            '<text x="320.00" y="24" text-anchor="middle" font-family="sans-serif" '
            f'font-size="15">{escape(title)}</text>'
        )
    parts.append(
        '<text x="320.00" y="466" text-anchor="middle" font-family="sans-serif" '
        'font-size="12">component 1</text>'
    )
    parts.append(
        '<text x="18" y="240.00" text-anchor="middle" font-family="sans-serif" '
        'font-size="12" transform="rotate(-90 18 240.00)">component 2</text>'
    )
    trajectory = [
        (sx(x), sy(y)) for label, x, y in zip(labels, xs, ys) if label.startswith("target:")
    ]
    if len(trajectory) >= 2:
        joined = " ".join(f"{x:.2f},{y:.2f}" for x, y in trajectory)
        parts.append(f'<polyline points="{joined}" fill="none" stroke="#666666" stroke-width="1"/>')
    for label, workload, x, y in zip(labels, workloads, xs, ys):
        tooltip = f"<title>{escape(label)} ({int(workload)}%)</title>"
        if label.startswith("target:"):
            parts.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="5" '
                f'fill="{workload_color(int(workload))}" stroke="#333333" '
                f'stroke-width="0.8">{tooltip}</circle>'
            )
        else:
            parts.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" fill="#888888" '
                f'fill-opacity="0.45">{tooltip}</circle>'
            )
    for i, (fill, text) in enumerate(
        (("#888888", "baseline nodes"), (workload_color(0), "target at 0% workload"),
         (workload_color(100), "target at 100% workload"))
    ):
        y = 48 + 18 * i
        parts.append(f'<rect x="460" y="{y}" width="12" height="12" fill="{fill}"/>')
        parts.append(
            f'<text x="478" y="{y + 10}" font-family="sans-serif" font-size="11">{text}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def test_knowledge_map_json_bytes_equal_the_per_value_writer(bench_result, tmp_path):
    write_knowledge_map_json(tmp_path / "new.json", bench_result.baseline_map)
    per_value_knowledge_map_json(tmp_path / "old.json", bench_result.baseline_map)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


def test_svg_bytes_equal_the_per_value_renderer(bench_result, tmp_path):
    write_drift_svg(tmp_path / "new.svg", bench_result)
    config = bench_result.config
    title = f"{config.topology.value} n={config.nodes} target={config.target}"
    old = per_value_scatter(
        bench_result.projection_labels, bench_result.projection_workloads,
        bench_result.projection.tolist(), title,
    )
    assert (tmp_path / "new.svg").read_bytes() == old.encode("utf-8")


def test_projection_bytes_equal_the_per_value_writer(bench_result, tmp_path):
    write_projection_csv(tmp_path / "new.csv", bench_result)
    per_row_projection_csv(
        tmp_path / "old.csv", bench_result.projection_labels,
        bench_result.projection_workloads, bench_result.projection,
    )
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
