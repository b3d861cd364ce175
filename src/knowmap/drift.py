"""Semantic-drift experiment: sweep one node's workload and trace its embedding.

The harness settles a uniformly loaded network into a baseline Knowledge Map,
then re-runs the pipeline with a single target node pinned at each workload
step.  The target's distance from the rest of the network, plus a planar
projection of its trajectory, quantify how far the shared representation
drifts as the target diverges from its peers.
"""

from __future__ import annotations

import dataclasses
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
    init_layers,
    write_csv,
)
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    InvalidConfigError,
    InvalidSizeError,
    TooFewStepsError,
    UnknownNodeError,
)
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
MAX_STATE_VALUES = 2**29  # 4 GiB of float64: 1 + len(SWEEP) drift maps, or one map per round embed runs

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
    target: str | None = None
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
        values = int(self.nodes) * int(self.dimension) * max(int(self.rounds), 1 + len(SWEEP))
        if values > MAX_STATE_VALUES:
            raise InvalidSizeError(
                f"nodes={self.nodes} x dimension={self.dimension} x max(rounds={self.rounds}, "
                f"{1 + len(SWEEP)}) = {values} values > MAX_STATE_VALUES = {MAX_STATE_VALUES}"
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
    target: str
    baseline_map: KnowledgeMap
    step_maps: list[KnowledgeMap]
    centroid_distances: list[float]
    metrics: TrajectoryMetrics
    projection_labels: list[str]
    projection_workloads: list[int]
    projection: np.ndarray


def trajectory_metrics(
    workloads: Sequence[int],
    distances: Sequence[float],
    baseline: int,
) -> TrajectoryMetrics:
    """Summarize a distance curve sampled at increasing workloads.

    Ties at the minimum resolve to the lowest workload.  Each side of the
    baseline is tested separately: falling toward it on the left, rising
    away from it on the right, with slack for float noise.
    """
    if len(workloads) != len(distances):
        raise DimensionMismatchError(
            f"{len(workloads)} workloads vs {len(distances)} distances"
        )
    if len(workloads) < 3:
        raise TooFewStepsError(
            f"need at least 3 sweep steps to assess shape, got {len(workloads)}"
        )
    if any(b <= a for a, b in zip(workloads, workloads[1:])):
        raise InvalidConfigError(f"workloads must be strictly increasing, got {workloads}")
    best = int(np.argmin(distances))
    left = [d for w, d in zip(workloads, distances) if w <= baseline]
    right = [d for w, d in zip(workloads, distances) if w >= baseline]
    left_ok = all(b <= a + MONOTONE_TOLERANCE for a, b in zip(left, left[1:]))
    right_ok = all(b >= a - MONOTONE_TOLERANCE for a, b in zip(right, right[1:]))
    return TrajectoryMetrics(
        min_distance_workload=int(workloads[best]),
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
    run; they, rounds_used and the round numbers in errors count the input
    round as round 1.  tolerance is run_sharing's.  Given a history list,
    the states after every round, input round first, are appended to it.
    """
    check_count("rounds", rounds, 1)
    input_layer, hidden_layer = layers
    first = embedding_round(graph, features, input_layer)
    if history is not None:
        history.append(first)
    shared = run_sharing(graph, first, hidden_layer, rounds - 1, tolerance, history, first_round=2)
    return dataclasses.replace(shared, rounds_used=shared.rounds_used + 1)


def settle_step(config: DriftConfig, graph: KnowledgeGraph, keys: np.ndarray, step: int = 0,
                pin: tuple[int, int] | None = None,
                history: list[np.ndarray] | None = None) -> KnowledgeMap:
    """Settle step's features, keyed by node_keys: peers jitter, a pin (row, workload) is exact."""
    base = features_at(config.baseline_workload)
    rows = apply_fluctuation(base, config.seed, config.fluctuation, keys=keys, step=step)
    if pin is not None:
        rows[pin[0]] = feature_vector(set_workload(base, pin[1]))
    layers = init_layers(config.dimension, config.seed)  # per settle: the bench counts calls
    return settle(graph, rows, layers, config.rounds, config.sharing_tolerance, history)


def run_drift(config: DriftConfig) -> DriftResult:
    """Run the full drift experiment described by config."""
    check_count("dimension", config.dimension, 2)  # the projection has two axes
    graph = build_topology(config.topology, config.nodes)
    target = config.target if config.target is not None else node_name(0)
    if target not in graph.node_ids:
        raise UnknownNodeError(f"target {target!r} is not in the graph")

    target_row = graph.node_ids.index(target)
    keys = node_keys(graph.node_ids)
    baseline_map = settle_step(config, graph, keys)

    centroid_distances: list[float] = []
    target_rows: list[np.ndarray] = []
    step_maps: list[KnowledgeMap] = []
    for step_index, workload in enumerate(config.sweep, start=1):
        step_map = settle_step(config, graph, keys, step_index, pin=(target_row, workload))
        state = step_map.states[target_row]
        centroid = aggregate(np.delete(step_map.states, target_row, axis=0))
        centroid_distances.append(float(np.linalg.norm(state - centroid)))
        target_rows.append(state)
        step_maps.append(step_map)

    labels = [f"baseline:{v}" for v in graph.node_ids]
    labels += [f"target:{target}"] * len(config.sweep)
    workloads = [config.baseline_workload] * graph.node_count + list(config.sweep)
    rows = np.vstack([baseline_map.states, *target_rows])
    try:
        projection = transform(fit_pca(rows, components=2), rows)
    except DegenerateInputError:
        # A collapsed run: deep rounds over-smooth every row into one vector.
        projection = np.zeros((len(rows), 2))
    metrics = trajectory_metrics(config.sweep, centroid_distances, config.baseline_workload)

    return DriftResult(
        config=config,
        graph=graph,
        target=target,
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
        "target": result.target,
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
    fields = ["%s,%d" % row for row in zip(labels, result.projection_workloads)]
    write_csv(path, "label,workload_pct,x,y", fields, [(b",", result.projection)])


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
    write_knowledge_map_csv(target("embeddings_baseline.csv"), result.baseline_map)
    for workload, step_map in zip(result.config.sweep, result.step_maps):
        write_knowledge_map_csv(target(f"embeddings_w{workload:03d}.csv"), step_map)
    return written
