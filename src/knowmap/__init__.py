"""Deterministic simulator for decentralized knowledge sharing over network graphs."""

from .drift import (
    DriftConfig,
    DriftResult,
    TrajectoryMetrics,
    export_result,
    run_drift,
    trajectory_metrics,
)
from .embedding import (
    Activation,
    EmbeddingConfig,
    Layer,
    aggregate,
    embedding_round,
    embedding_rounds,
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
from .sharing import KnowledgeMap, SharingConfig, run_sharing

__version__ = "0.1.0"

__all__ = [
    "Activation",
    "DriftConfig",
    "DriftResult",
    "EmbeddingConfig",
    "KnowledgeGraph",
    "KnowledgeMap",
    "KnowmapError",
    "Layer",
    "NodeFeatures",
    "PCAModel",
    "SharingConfig",
    "TopologyKind",
    "TrajectoryMetrics",
    "aggregate",
    "apply_fluctuation",
    "build_topology",
    "embedding_round",
    "export_result",
    "embedding_rounds",
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
    "trajectory_metrics",
    "transform",
    "__version__",
]
