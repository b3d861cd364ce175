"""The four benchmark workloads: what each runs, and how its seed becomes input.

A run does what one CLI invocation does: `knowmap drift` is `run_drift`
plus `export_result`, and `knowmap topology --out` is `build_topology` plus
`canonical_json` written to a file.  Calls go through the module attributes,
so the traced run's wrappers see them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import knowmap.drift
import knowmap.graph
from knowmap.drift import DriftConfig
from knowmap.graph import TopologyKind

TOPOLOGY_FILE = "topology.json"

# Each drift workload's config, before the seed is filled in.
DRIFT_CONFIGS = {
    "drift-full-300": DriftConfig(topology=TopologyKind.FULLY_CONNECTED, nodes=300),
    "drift-ring-3000": DriftConfig(topology=TopologyKind.RING, nodes=3000),
    "drift-line-deep": DriftConfig(
        topology=TopologyKind.LINE, nodes=600, rounds=50, sharing_tolerance=1e-6
    ),
}
TOPOLOGY_NODES = 400
NAMES = (*DRIFT_CONFIGS, "topology-full-400")

# drift-line-deep settles at this round on every map.  The settling round is
# set by the weight draw (10 to 15 rounds over seeds 0-39), and the run time
# follows it, so the workload fixes it to keep its work the same for every
# benchmark seed.  A 30-node line settles at the same round as a 600-node one,
# so the probe that finds such a seed costs tens of milliseconds.
LINE_DEEP_SETTLING_ROUND = 11
_PROBE_NODES = 30
_PROBE_CANDIDATES = 200


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int  # the benchmark's seed
    drift: DriftConfig | None  # None for the topology workload
    nodes: int


def make(name: str, seed: int, nodes: int | None = None) -> Workload:
    """The workload's inputs for one seed; nodes overrides the size for smoke runs."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if name not in DRIFT_CONFIGS:
        return Workload(name, seed, None, nodes or TOPOLOGY_NODES)
    config = DRIFT_CONFIGS[name]
    drift_seed = settling_seed(config, seed) if name == "drift-line-deep" else seed
    config = dataclasses.replace(config, seed=drift_seed, nodes=nodes or config.nodes)
    return Workload(name, seed, config, config.nodes)


def default_nodes(name: str) -> int:
    config = DRIFT_CONFIGS.get(name)
    return TOPOLOGY_NODES if config is None else config.nodes


def settling_seed(config: DriftConfig, seed: int) -> int:
    """First DriftConfig seed from 1000*seed on whose maps all settle at the fixed round."""
    probe = dataclasses.replace(config, nodes=_PROBE_NODES)
    for candidate in range(1000 * seed, 1000 * seed + _PROBE_CANDIDATES):
        result = knowmap.drift.run_drift(dataclasses.replace(probe, seed=candidate))
        maps = [result.baseline_map, *result.step_maps]
        if all(m.rounds_used == LINE_DEEP_SETTLING_ROUND for m in maps):
            return candidate
    raise RuntimeError(
        f"no seed in [{1000 * seed}, {1000 * seed + _PROBE_CANDIDATES}) settles "
        f"at round {LINE_DEEP_SETTLING_ROUND}"
    )


def run_once(workload: Workload, out_dir: Path):
    """One end-to-end run, writing its artifacts into out_dir; returns what it built."""
    if workload.drift is not None:
        result = knowmap.drift.run_drift(workload.drift)
        knowmap.drift.export_result(result, out_dir)
        return result
    graph = knowmap.graph.build_topology(TopologyKind.FULLY_CONNECTED, workload.nodes)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / TOPOLOGY_FILE).write_text(graph.canonical_json() + "\n")
    return graph


def counts(workload: Workload, built, out_dir: Path) -> dict[str, int]:
    """Exact counts of one run, read from what it built and wrote.

    embedding.neighbor_reads is computed: directed edges times the rounds
    every settled map used (its input round plus its hidden rounds).
    """
    export_bytes = sum(p.stat().st_size for p in out_dir.iterdir())
    if workload.drift is None:
        return {"graph.edges": built.edge_count, "graph.serialize_bytes": export_bytes}
    maps = [built.baseline_map, *built.step_maps]
    rounds = sum(m.rounds_used for m in maps)
    return {
        "graph.edges": built.graph.edge_count,
        "embedding.neighbor_reads": built.graph.edge_count * rounds,
        "sharing.hidden_rounds": rounds - len(maps),
        "sharing.converged_steps": sum(m.converged for m in built.step_maps),
        "drift.export_bytes": export_bytes,
    }
