"""Command-line interface for building topologies and running drift experiments.

Exit codes: 0 on success, 1 for runtime and I/O failures, 2 for invalid
configuration or malformed input data.
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import Sequence

import numpy as np

from .drift import DEFAULT_BASELINE, DEFAULT_SEED, DriftConfig, export_result, run_drift, settle
from .embedding import DEFAULT_DIMENSION, DEFAULT_ROUNDS, init_layers, write_embedding_csv
from .errors import KnowmapError, MalformedCsvError
from .features import DEFAULT_MAGNITUDE, feature_vector, features_at
from .graph import TopologyKind, build_topology
from .sharing import DEFAULT_TOLERANCE
from .svgplot import write_scatter_svg

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

_TOPOLOGY_CHOICES = [kind.value for kind in TopologyKind]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knowmap",
        description="Simulate decentralized knowledge sharing and semantic drift.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    drift = sub.add_parser(
        "drift", help="run a workload sweep and export metrics, projection, and plot"
    )
    drift.add_argument("--topology", choices=_TOPOLOGY_CHOICES, default="ring")
    drift.add_argument("--nodes", type=int, default=10)
    drift.add_argument("--seed", type=int, default=DEFAULT_SEED)
    drift.add_argument("--target", default=None, help="node id to sweep (default: node-0)")
    drift.add_argument("--baseline", type=int, default=DEFAULT_BASELINE)
    drift.add_argument("--dim", type=int, default=DEFAULT_DIMENSION)
    drift.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    drift.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    drift.add_argument("--fluctuation", type=float, default=DEFAULT_MAGNITUDE)
    drift.add_argument("--out", default=".", help="output directory")
    drift.set_defaults(handler=_run_drift)

    topology = sub.add_parser("topology", help="build a topology and print it as JSON")
    topology.add_argument("--kind", choices=_TOPOLOGY_CHOICES, required=True)
    topology.add_argument("--nodes", type=int, required=True)
    topology.add_argument("--out", default=None, help="write JSON here instead of stdout")
    topology.set_defaults(handler=_run_topology)

    embed = sub.add_parser(
        "embed", help="embed a uniformly loaded topology and export per-round CSV"
    )
    embed.add_argument("--topology", choices=_TOPOLOGY_CHOICES, default="ring")
    embed.add_argument("--nodes", type=int, default=10)
    embed.add_argument("--workload", type=int, default=DEFAULT_BASELINE)
    embed.add_argument("--dim", type=int, default=DEFAULT_DIMENSION)
    embed.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    embed.add_argument("--seed", type=int, default=DEFAULT_SEED)
    embed.add_argument("--out", default="embeddings.csv")
    embed.set_defaults(handler=_run_embed)

    plot = sub.add_parser("plot", help="re-render a projection CSV as an SVG scatter")
    plot.add_argument("--projection", required=True, help="projection.csv from a drift run")
    plot.add_argument("--out", default="plot.svg")
    plot.add_argument("--title", default="")
    plot.set_defaults(handler=_run_plot)

    return parser


def _run_drift(args: argparse.Namespace) -> int:
    config = DriftConfig(
        topology=TopologyKind(args.topology),
        nodes=args.nodes,
        seed=args.seed,
        target=args.target,
        baseline_workload=args.baseline,
        dimension=args.dim,
        rounds=args.rounds,
        sharing_tolerance=args.tolerance,
        fluctuation=args.fluctuation,
    )
    result = run_drift(config)
    for path in export_result(result, args.out):
        print(f"wrote {path}")
    print(
        f"topology={config.topology.value} n={config.nodes} "
        f"min_distance_workload={result.metrics.min_distance_workload} "
        f"left_monotone={result.metrics.left_monotone} "
        f"right_monotone={result.metrics.right_monotone}"
    )
    return EXIT_OK


def _run_topology(args: argparse.Namespace) -> int:
    graph = build_topology(TopologyKind(args.kind), args.nodes)
    text = graph.canonical_json()
    if args.out is None:
        print(text)
    else:
        with open(args.out, "w") as handle:
            print(text, file=handle)  # text, then "\n": no second copy of the text
        print(f"wrote {args.out}")
    return EXIT_OK


def _run_embed(args: argparse.Namespace) -> int:
    config = DriftConfig(
        topology=TopologyKind(args.topology),
        nodes=args.nodes,
        seed=args.seed,
        baseline_workload=args.workload,
        dimension=args.dim,
        rounds=args.rounds,
        sharing_tolerance=0.0,
    )
    graph = build_topology(config.topology, config.nodes)
    features = np.tile(feature_vector(features_at(config.baseline_workload)), (graph.node_count, 1))
    layers = init_layers(config.dimension, config.seed)
    history: list[np.ndarray] = []
    settle(graph, features, layers, config.sharing_config(), history)
    write_embedding_csv(args.out, graph.node_ids, history)
    print(f"wrote {args.out} ({graph.node_count} nodes x {len(history)} rounds)")
    return EXIT_OK


def _read_projection(path: str) -> tuple[list[str], list[int], list[list[float]]]:
    expected = ["label", "workload_pct", "x", "y"]
    labels: list[str] = []
    workloads: list[int] = []
    points: list[list[float]] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != expected:
            raise MalformedCsvError(f"expected header {expected}, got {header}")
        for row in reader:
            if len(row) != 4:
                raise MalformedCsvError(f"expected 4 columns, got {row}")
            try:
                labels.append(row[0])
                workloads.append(int(row[1]))
                points.append([float(row[2]), float(row[3])])
            except ValueError as exc:
                raise MalformedCsvError(f"bad projection row {row}: {exc}") from exc
            if not np.isfinite(points[-1]).all():
                raise MalformedCsvError(f"non-finite coordinate in projection row {row}")
    if not points:
        raise MalformedCsvError(f"no data rows in {path}")
    return labels, workloads, points


def _run_plot(args: argparse.Namespace) -> int:
    labels, workloads, points = _read_projection(args.projection)
    write_scatter_svg(args.out, labels, workloads, points, title=args.title)
    print(f"wrote {args.out}")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (KnowmapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
