"""Output checks: invariants that hold for any seed, and stored references.

The reference of a drift run is a summary of its artifacts: the non-float
fields in full, and the floats that pin the science (centroid distances,
the baseline's final delta, a fixed sample of embedding rows and every
column sum of each map, and the projection).  Floats are compared at
rtol 1e-12 with a small atol, so reordered sums pass and a real change in
the science does not.  Each invariant covers every row of every artifact.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from knowmap.drift import DriftConfig
from knowmap.graph import node_name

RTOL = 1e-12
ATOL = 1e-14  # for values near zero, such as small centroid distances
NORM_TOLERANCE = 1e-12
# The centroid distance is recomputed from the step CSV with another
# summation order, and cancels to ~1e-9 at deep settings.
CENTROID_RTOL = 1e-9
CENTROID_ATOL = 1e-12
SAMPLED_ROWS = 4

EXACT_FIELDS = (
    "files",
    "rows",
    "rounds_used",
    "min_distance_workload",
    "left_monotone",
    "right_monotone",
    "baseline_round",
    "baseline_converged",
)


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file in out_dir, so repeats can be compared byte for byte."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def step_file(workload: int) -> str:
    return f"embeddings_w{workload:03d}.csv"


def expected_files(config: DriftConfig) -> list[str]:
    fixed = ["embeddings_baseline.csv", "knowledge_map.json", "metrics.json",
             "projection.csv", "trajectory.svg"]
    return sorted(fixed + [step_file(w) for w in config.sweep])


def _read_csv(path: Path) -> tuple[list[str], list[list[str]], np.ndarray]:
    """Header, the two leading text columns of each row, and the float columns."""
    with open(path, newline="") as handle:
        header, *body = csv.reader(handle)
    values = np.array([row[2:] for row in body], dtype=float).reshape(len(body), -1)
    return header, [row[:2] for row in body], values


def summarize_drift(out_dir: Path, config: DriftConfig) -> tuple[dict, list[str]]:
    """The reference-comparable summary of one drift run, and every broken invariant."""
    problems: list[str] = []
    files = sorted(p.name for p in out_dir.iterdir())
    if files != expected_files(config):
        return {}, [f"artifact set {files} != {expected_files(config)}"]
    metrics = json.loads((out_dir / "metrics.json").read_text())
    knowledge_map = json.loads((out_dir / "knowledge_map.json").read_text())
    ids = sorted(node_name(i) for i in range(config.nodes))
    target = config.target or node_name(0)
    sweep = list(config.sweep)

    for key, want in (("n", config.nodes), ("topology", config.topology.value),
                      ("target", target), ("sweep", sweep)):
        if metrics.get(key) != want:
            problems.append(f"metrics.json {key}={metrics.get(key)!r}, expected {want!r}")
    distances = np.asarray(metrics["centroid_distance"], dtype=float)
    if len(distances) != len(sweep) or len(metrics["rounds_used"]) != len(sweep):
        return {}, problems + ["metrics.json lists do not match the sweep"]
    if not np.all(np.isfinite(distances)) or np.any(distances < 0):
        problems.append("centroid distances are not finite and non-negative")
    if metrics["min_distance_workload"] != sweep[int(np.argmin(distances))]:
        problems.append("min_distance_workload is not the argmin of the distances")

    floats: dict[str, list[float]] = {
        "centroid_distance": distances.tolist(),
        "baseline_final_delta": [float(knowledge_map["final_delta"])],
    }
    rows: dict[str, int] = {}
    sample = sorted(set(np.linspace(0, config.nodes - 1, SAMPLED_ROWS).round().astype(int)))
    maps = [("embeddings_baseline.csv", knowledge_map["round"])]
    maps += [(step_file(w), r) for w, r in zip(sweep, metrics["rounds_used"])]
    for index, (name, round_used) in enumerate(maps):
        header, keys, values = _read_csv(out_dir / name)
        node_ids, rounds = [k[0] for k in keys], [k[1] for k in keys]
        rows[name] = len(node_ids)
        if header != ["node_id", "round"] + [f"e{i}" for i in range(config.dimension)]:
            problems.append(f"{name}: header {header}")
        if node_ids != ids:
            problems.append(f"{name}: node ids differ from the graph's")
            continue
        if set(rounds) != {str(round_used)}:
            problems.append(f"{name}: round column {sorted(set(rounds))} != {round_used}")
        if not np.all(np.isfinite(values)):
            problems.append(f"{name}: non-finite embedding values")
        norm_error = np.max(np.abs(np.linalg.norm(values, axis=1) - 1.0))
        if not norm_error <= NORM_TOLERANCE:
            problems.append(f"{name}: a row is off the unit sphere by {norm_error:.3g}")
        if index == 0:
            entries = np.array([knowledge_map["entries"][v] for v in ids])
            if not np.array_equal(entries, values):
                problems.append("knowledge_map.json entries differ from embeddings_baseline.csv")
        else:
            t = ids.index(target)
            peers = np.delete(values, t, axis=0)
            recomputed = float(np.linalg.norm(values[t] - peers.mean(axis=0)))
            if not np.isclose(recomputed, distances[index - 1],
                              rtol=CENTROID_RTOL, atol=CENTROID_ATOL):
                problems.append(f"{name}: centroid distance {distances[index - 1]!r} "
                                f"!= {recomputed!r} recomputed from the rows")
        floats[f"rows/{name}"] = values[sample].ravel().tolist()
        floats[f"colsum/{name}"] = values.sum(axis=0).tolist()

    header, keys, points = _read_csv(out_dir / "projection.csv")
    rows["projection.csv"] = len(keys)
    want_keys = [[f"baseline:{v}", str(config.baseline_workload)] for v in ids]
    want_keys += [[f"target:{target}", str(w)] for w in sweep]
    if header != ["label", "workload_pct", "x", "y"] or keys != want_keys:
        problems.append("projection.csv header, labels or workloads differ from the run's")
    elif not np.all(np.isfinite(points)):
        problems.append("projection.csv has non-finite points")
    else:
        # PCA fixes each axis only up to sign, so the reference compares each
        # column up to sign.
        picked = np.concatenate([sample, np.arange(len(ids), len(keys))])
        floats["projection/x"] = points[picked, 0].tolist()
        floats["projection/y"] = points[picked, 1].tolist()

    svg = (out_dir / "trajectory.svg").read_text()
    if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
        problems.append("trajectory.svg is not a complete svg document")

    summary = {
        "files": files,
        "rows": rows,
        "rounds_used": metrics["rounds_used"],
        "min_distance_workload": metrics["min_distance_workload"],
        "left_monotone": metrics["left_monotone"],
        "right_monotone": metrics["right_monotone"],
        "baseline_round": knowledge_map["round"],
        "baseline_converged": knowledge_map["converged"],
        "floats": floats,
    }
    return summary, problems


def compare(summary: dict, reference: dict) -> list[str]:
    """Where a summary departs from its reference: exact fields, then floats."""
    problems = [
        f"{key}: {summary.get(key)!r} != reference {reference[key]!r}"
        for key in EXACT_FIELDS
        if summary.get(key) != reference[key]
    ]
    got_floats = summary.get("floats", {})
    for key, want in reference["floats"].items():
        got = np.asarray(got_floats.get(key, []), dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            problems.append(f"{key}: {got.size} values, reference has {want.size}")
            continue
        signs = (1.0, -1.0) if key.startswith("projection/") else (1.0,)
        if not any(np.allclose(s * got, want, rtol=RTOL, atol=ATOL) for s in signs):
            worst = int(np.argmax(np.abs(got - want) - RTOL * np.abs(want)))
            problems.append(
                f"{key}[{worst}]: {float(got[worst])!r} != reference {float(want[worst])!r}"
            )
    return problems


def check_drift(out_dir: Path, config: DriftConfig, reference: dict | None) -> list[str]:
    summary, problems = summarize_drift(out_dir, config)
    if reference is not None and summary:
        problems += compare(summary, reference)
    return problems


def summarize_topology(path: Path) -> dict:
    data = path.read_bytes()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def check_topology(path: Path, nodes: int, reference: dict | None) -> list[str]:
    """The output must match the reference bytes; without one, its structure is checked."""
    if reference is not None:
        summary = summarize_topology(path)
        return [] if summary == reference else [f"topology output {summary} != reference {reference}"]
    graph = json.loads(path.read_text())
    problems = []
    ids = sorted(node_name(i) for i in range(nodes))
    if [node["id"] for node in graph["nodes"]] != ids:
        problems.append("topology node ids differ from node-0 .. node-(n-1)")
    edges = {(e["s"], e["t"]) for e in graph["edges"] if e["r"] == "CONNECTED_TO"}
    if len(graph["edges"]) != nodes * (nodes - 1) or len(edges) != nodes * (nodes - 1):
        problems.append(f"full topology has {len(graph['edges'])} edges, not n(n-1)")
    return problems
