"""Semantic-drift experiment: sweep one node's workload and trace its embedding.

The harness settles a uniformly loaded network into a baseline Knowledge Map,
then re-runs the pipeline with a single target node pinned at each workload
step.  The target's distance from the rest of the network, plus a planar
projection of its trajectory, quantify how far the shared representation
drifts as the target diverges from its peers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Sequence

import numpy as np

from .embedding import (
    Layer,
    aggregate,
    csv_fields,
    embedding_round,
    id_column,
    init_layers,
)
from .errors import DegenerateInputError, InvalidConfigError
from .features import (
    apply_fluctuation,
    check_magnitude,
    check_seed,
    check_workload,
    feature_vector,
    features_at,
    node_keys,
    set_workload,
)
from .graph import (
    KnowledgeGraph,
    TopologyKind,
    build_topology,
    check_count,
    check_topology,
    node_name,
)
from .pca import fit_pca, transform
from .sharing import (
    KnowledgeMap,
    check_tolerance,
    run_sharing,
    write_knowledge_map_csv,
    write_knowledge_map_json,
)

SWEEP = tuple(range(0, 101, 10))  # the paper's decade grid; every run sweeps all of it
MONOTONE_TOLERANCE = 1e-9
MAX_DIMENSION = 1024  # widest embedding DriftConfig accepts: 8 MiB a hidden layer
MAX_ROUNDS = 1000  # most rounds DriftConfig accepts; knowmap embed keeps every round it runs
MAX_RUN_BYTES = 2**32  # 4 GiB: a node's float64 states (1 + len(SWEEP) drift maps, or a map a
# round embed runs), SCRATCH_STATES more of them, and NODE_BYTES.  knowmap drift --topology
# ring peaked at 209.8 / 728.1 MiB for 10**5 / 4 * 10**5 nodes at d = 8, 136.4 / 435.2 MiB
# for 2500 / 10**4 at d = 256 and 250.9 / 676.7 MiB for 1000 / 4000 at d = 1024: 1811,
# 41775 and 148828 bytes a node, plus 37, 37 and 109 MiB fixed.  The bound counts 2387,
# 44051 and 173075 bytes, so at the most nodes it admits those peaks extrapolate to 3.1,
# 3.8 and 3.5 GiB.
SCRATCH_STATES = 9  # n x d float64 arrays at the peak beside the kept states, fitted above
NODE_BYTES = 1043
DRAW_COLUMNS = 4096  # most (step, node) columns one fluctuation draw takes; one step always fits

METRICS_FILE = "metrics.json"
PROJECTION_FILE = "projection.csv"
KNOWLEDGE_MAP_FILE = "knowledge_map.json"
PLOT_FILE = "trajectory.svg"


@dataclass(frozen=True)
class DriftConfig:
    """All a drift run depends on, so equal configs give equal runs; defaults live only here."""

    topology: TopologyKind = TopologyKind.RING
    nodes: int = 10
    seed: int = 42
    target: str = node_name(0)
    baseline_workload: int = 50
    sweep: ClassVar[tuple[int, ...]] = SWEEP
    dimension: int = 8
    rounds: int = 2  # the input round, then rounds - 1 sharing rounds
    sharing_tolerance: float = 1e-6
    fluctuation: float = 0.02

    def __post_init__(self) -> None:
        check_topology(self.topology, self.nodes, "nodes")
        check_workload(self.baseline_workload)
        check_magnitude(self.fluctuation)
        check_count("dimension", self.dimension, 1, MAX_DIMENSION)
        check_count("rounds", self.rounds, 1, MAX_ROUNDS)
        check_seed(self.seed)  # also the seed of the layer weights
        check_tolerance(self.sharing_tolerance)
        # node_name(k) for a k < nodes, so at most as many digits as nodes: no scan, no huge int.
        index = self.target[len(node_name("")):] if isinstance(self.target, str) else ""
        if not (index.isdecimal() and len(index) <= len(str(self.nodes))
                and node_name(int(index)) == self.target and int(index) < self.nodes):
            raise InvalidConfigError(
                f"target must be a node id {node_name(0)} .. {node_name(self.nodes - 1)}, "
                f"got {self.target!r}"
            )
        maps = max(int(self.rounds), 1 + len(SWEEP)) + SCRATCH_STATES
        run_bytes = int(self.nodes) * (8 * int(self.dimension) * maps + NODE_BYTES)
        if run_bytes > MAX_RUN_BYTES:
            raise InvalidConfigError(
                f"nodes={self.nodes} x (8 x dimension={self.dimension} x (max(rounds="
                f"{self.rounds}, {1 + len(SWEEP)}) + SCRATCH_STATES={SCRATCH_STATES}) + "
                f"NODE_BYTES={NODE_BYTES}) = {run_bytes} bytes > MAX_RUN_BYTES = {MAX_RUN_BYTES}"
            )


@dataclass(frozen=True)
class TrajectoryMetrics:
    """Shape summary of the distance-versus-workload curve."""

    min_distance_workload: int
    left_monotone: bool
    right_monotone: bool


@dataclass(frozen=True, eq=False)
class DriftResult:
    """Everything a drift run produced, ready for export."""

    config: DriftConfig
    graph: KnowledgeGraph
    baseline_map: KnowledgeMap
    step_maps: list[KnowledgeMap]
    centroid_distances: list[float]
    metrics: TrajectoryMetrics
    projection_labels: list[str]
    projection_workloads: list[int]
    projection: np.ndarray


def trajectory_metrics(distances: Sequence[float], baseline: int) -> TrajectoryMetrics:
    """Summarize a distance curve sampled at the SWEEP workloads.

    Ties at the minimum resolve to the lowest workload.  Each side of the
    baseline is tested separately: falling toward it on the left, rising
    away from it on the right, with slack for float noise.
    """
    best = int(np.argmin(distances))
    left = [d for w, d in zip(SWEEP, distances) if w <= baseline]
    right = [d for w, d in zip(SWEEP, distances) if w >= baseline]
    left_ok = all(b <= a + MONOTONE_TOLERANCE for a, b in zip(left, left[1:]))
    right_ok = all(b >= a - MONOTONE_TOLERANCE for a, b in zip(right, right[1:]))
    return TrajectoryMetrics(
        min_distance_workload=SWEEP[best],
        left_monotone=left_ok,
        right_monotone=right_ok,
    )


def settle(
    graph: KnowledgeGraph,
    features: np.ndarray,
    layers: tuple[Layer, Layer],
    rounds: int,
    tolerance: float,
    history: list[np.ndarray] | None = None,
) -> KnowledgeMap:
    """Settle one feature assignment: the input round, then the sharing rounds.

    layers is the (input, hidden) pair of init_layers.  At most rounds rounds
    run; they and rounds_used count the input round as round 1.  tolerance is
    run_sharing's.  Given a history list, the states after every round, input
    round first, are appended to it.
    """
    input_layer, hidden_layer = layers
    first = embedding_round(graph, features, input_layer)
    if history is not None:
        history.append(first)
    return run_sharing(graph, first, hidden_layer, rounds - 1, tolerance, history, first_round=2)


def draw_steps(config: DriftConfig, keys: np.ndarray, steps: Sequence[int]) -> np.ndarray:
    """Feature rows of each step, (len(steps), len(keys), 3), from one fluctuation draw."""
    base = features_at(config.baseline_workload)
    rows = apply_fluctuation(base, config.seed, config.fluctuation,
                             keys=np.tile(keys, len(steps)), step=np.repeat(steps, len(keys)))
    return rows.reshape(len(steps), len(keys), 3)


def settle_step(config: DriftConfig, graph: KnowledgeGraph, rows: np.ndarray,
                pin: tuple[int, int] | None = None,
                history: list[np.ndarray] | None = None) -> KnowledgeMap:
    """Settle one step's draw_steps rows: peers jitter, a pin (row, workload) is exact."""
    if pin is not None:
        rows[pin[0]] = feature_vector(set_workload(features_at(config.baseline_workload), pin[1]))
    layers = init_layers(config.dimension, config.seed)  # per settle: the bench counts calls
    return settle(graph, rows, layers, config.rounds, config.sharing_tolerance, history)


def run_drift(config: DriftConfig) -> DriftResult:
    """Run the full drift experiment described by config."""
    check_count("dimension", config.dimension, 2)  # the projection has two axes
    graph = build_topology(config.topology, config.nodes)
    target_row = graph.node_ids.index(config.target)
    keys = node_keys(graph.node_ids)
    # Step 0 is the baseline, step i the sweep's i-th workload.  Each group of
    # steps is drawn just before it settles, so one group's rows exist at a time.
    pins = [None] + [(target_row, workload) for workload in config.sweep]
    group = max(1, DRAW_COLUMNS // graph.node_count)
    maps: list[KnowledgeMap] = []
    for first in range(0, len(pins), group):
        steps = range(first, min(first + group, len(pins)))
        for step, rows in zip(steps, draw_steps(config, keys, steps)):
            maps.append(settle_step(config, graph, rows, pins[step]))
    baseline_map, *step_maps = maps
    target_rows = [step_map.states[target_row] for step_map in step_maps]
    centroid_distances = [
        float(np.linalg.norm(state - aggregate(np.delete(step_map.states, target_row, axis=0))))
        for state, step_map in zip(target_rows, step_maps)
    ]

    labels = [f"baseline:{v}" for v in graph.node_ids]
    labels += [f"target:{config.target}"] * len(config.sweep)
    workloads = [config.baseline_workload] * graph.node_count + list(config.sweep)
    rows = np.vstack([baseline_map.states, *target_rows])
    try:
        projection = transform(fit_pca(rows, components=2), rows)
    except DegenerateInputError:
        # A collapsed run: deep rounds over-smooth every row into one vector.
        projection = np.zeros((len(rows), 2))
    metrics = trajectory_metrics(centroid_distances, config.baseline_workload)

    return DriftResult(
        config=config,
        graph=graph,
        baseline_map=baseline_map,
        step_maps=step_maps,
        centroid_distances=centroid_distances,
        metrics=metrics,
        projection_labels=labels,
        projection_workloads=workloads,
        projection=projection,
    )


def metrics_to_dict(result: DriftResult) -> dict:
    """JSON-ready summary of one drift run."""
    return {
        "topology": result.config.topology.value,
        "n": int(result.config.nodes),
        "target": result.config.target,
        "sweep": list(result.config.sweep),
        "centroid_distance": [float(d) for d in result.centroid_distances],
        "min_distance_workload": result.metrics.min_distance_workload,
        "left_monotone": result.metrics.left_monotone,
        "right_monotone": result.metrics.right_monotone,
        "rounds_used": [step_map.rounds_used for step_map in result.step_maps],
    }


def write_metrics_json(path: str | Path, result: DriftResult) -> None:
    """Serialize the run summary deterministically."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(metrics_to_dict(result), handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_projection_csv(path: str | Path, result: DriftResult) -> None:
    """Write projected rows as CSV: label,workload_pct,x,y.

    Baseline rows come first in node order, then the target trajectory in
    sweep order, matching the row order the projection was fitted on.
    """
    labels = csv_fields(result.projection_labels)
    cells: list[object] = [None] * (4 * len(labels))
    cells[0::4], cells[1::4] = labels, result.projection_workloads
    cells[2::4], cells[3::4] = result.projection.T.tolist()
    text = ("label,workload_pct,x,y\r\n" + "%s,%d,%.17g,%.17g\r\n" * len(labels)) % tuple(cells)
    with open(path, "wb") as handle:  # UTF-8 whatever the locale
        handle.write(text.encode("utf-8"))


def export_result(result: DriftResult, directory: str | Path) -> list[Path]:
    """Write every artifact of one run into directory, returning the paths.

    Artifacts: run summary JSON, projected points CSV, baseline map JSON,
    trajectory SVG, plus one settled-embedding CSV for the baseline and for
    each sweep step.  Reruns with the same config are byte-identical.
    """
    from .svgplot import write_drift_svg

    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def target(name: str) -> Path:
        written.append(out / name)
        return written[-1]

    write_metrics_json(target(METRICS_FILE), result)
    write_projection_csv(target(PROJECTION_FILE), result)
    write_knowledge_map_json(target(KNOWLEDGE_MAP_FILE), result.baseline_map)
    write_drift_svg(target(PLOT_FILE), result)
    ids = id_column(result.baseline_map.node_ids)  # every map has the graph's node_ids
    write_knowledge_map_csv(target("embeddings_baseline.csv"), result.baseline_map, ids)
    for workload, step_map in zip(result.config.sweep, result.step_maps):
        write_knowledge_map_csv(target(f"embeddings_w{workload:03d}.csv"), step_map, ids)
    return written
