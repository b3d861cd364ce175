"""Deterministic simulator for decentralized knowledge sharing over network graphs."""

from .drift import (
    DriftConfig,
    DriftResult,
    TrajectoryMetrics,
    export_result,
    run_drift,
    settle,
    trajectory_metrics,
)
from .embedding import (
    Layer,
    aggregate,
    embedding_round,
    init_layer,
    init_layers,
)
from .errors import KnowmapError
from .features import (
    NodeFeatures,
    apply_fluctuation,
    feature_vector,
    features_at,
    set_workload,
)
from .graph import KnowledgeGraph, TopologyKind, build_topology, node_name
from .pca import PCAModel, fit_pca, jacobi_eigh, transform
from .sharing import KnowledgeMap, run_sharing

__version__ = "0.1.0"

__all__ = [
    "DriftConfig",
    "DriftResult",
    "KnowledgeGraph",
    "KnowledgeMap",
    "KnowmapError",
    "Layer",
    "NodeFeatures",
    "PCAModel",
    "TopologyKind",
    "TrajectoryMetrics",
    "aggregate",
    "apply_fluctuation",
    "build_topology",
    "embedding_round",
    "export_result",
    "feature_vector",
    "features_at",
    "fit_pca",
    "init_layer",
    "init_layers",
    "jacobi_eigh",
    "node_name",
    "run_drift",
    "run_sharing",
    "set_workload",
    "settle",
    "trajectory_metrics",
    "transform",
    "__version__",
]
