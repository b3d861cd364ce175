"""Deterministic simulator for decentralized knowledge sharing over network graphs.

The root exports the run API; every lower-level name is imported from its module.
"""

from .drift import DriftConfig, DriftResult, export_result, run_drift
from .errors import KnowmapError
from .graph import TopologyKind

__version__ = "0.1.0"

__all__ = [
    "DriftConfig",
    "DriftResult",
    "KnowmapError",
    "TopologyKind",
    "export_result",
    "run_drift",
    "__version__",
]
