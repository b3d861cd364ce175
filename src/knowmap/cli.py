"""Command-line interface for building topologies and running drift experiments.

Exit codes: 0 on success, 1 for runtime and I/O failures, 2 for invalid
configuration or malformed input data.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import fields
from typing import Sequence

import numpy as np

from .drift import DriftConfig, export_result, run_drift, settle_step
from .embedding import write_embedding_csv
from .errors import KnowmapError, MalformedCsvError
from .features import node_keys
from .graph import TopologyKind, build_topology
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

    # A drift or embed flag sets the DriftConfig field its dest names; unset, it keeps the default.
    drift = sub.add_parser(
        "drift",
        help="run a workload sweep and export metrics, projection, and plot",
        argument_default=argparse.SUPPRESS,
    )
    drift.add_argument("--topology", choices=_TOPOLOGY_CHOICES)
    drift.add_argument("--nodes", type=int)
    drift.add_argument("--seed", type=int)
    drift.add_argument("--target", help="node id to sweep (default: node-0)")
    drift.add_argument("--baseline", type=int, dest="baseline_workload", metavar="BASELINE")
    drift.add_argument("--dim", type=int, dest="dimension", metavar="DIM")
    drift.add_argument("--rounds", type=int)
    drift.add_argument("--tolerance", type=float, dest="sharing_tolerance", metavar="TOLERANCE")
    drift.add_argument("--fluctuation", type=float)
    drift.add_argument("--out", default=".", help="output directory")
    drift.set_defaults(handler=_run_drift)

    topology = sub.add_parser("topology", help="build a topology and print it as JSON")
    topology.add_argument("--kind", choices=_TOPOLOGY_CHOICES, required=True)
    topology.add_argument("--nodes", type=int, required=True)
    topology.add_argument("--out", default=None, help="write JSON here instead of stdout")
    topology.set_defaults(handler=_run_topology)

    embed = sub.add_parser(
        "embed",
        help="settle the drift baseline and export its per-round CSV",
        argument_default=argparse.SUPPRESS,
    )
    embed.add_argument("--topology", choices=_TOPOLOGY_CHOICES)
    embed.add_argument("--nodes", type=int)
    embed.add_argument("--workload", type=int, dest="baseline_workload", metavar="WORKLOAD")
    embed.add_argument("--dim", type=int, dest="dimension", metavar="DIM")
    embed.add_argument("--rounds", type=int)
    embed.add_argument("--seed", type=int)
    embed.add_argument("--out", default="embeddings.csv")
    embed.set_defaults(handler=_run_embed)

    plot = sub.add_parser("plot", help="re-render a projection CSV as an SVG scatter")
    plot.add_argument("--projection", required=True, help="projection.csv from a drift run")
    plot.add_argument("--out", default="plot.svg")
    plot.add_argument("--title", default="")
    plot.set_defaults(handler=_run_plot)

    return parser


def drift_config(args: argparse.Namespace) -> DriftConfig:
    """The DriftConfig of the fields args sets; every other field keeps its default."""
    given = {f.name: getattr(args, f.name) for f in fields(DriftConfig) if f.name in args}
    if "topology" in given:
        given["topology"] = TopologyKind(given["topology"])
    return DriftConfig(**given)


def _run_drift(args: argparse.Namespace) -> int:
    config = drift_config(args)
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
    text = build_topology(TopologyKind(args.kind), args.nodes).canonical_json()
    if args.out is None:
        print(text)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            print(text, file=handle)  # text, then "\n": no second copy of the text
        print(f"wrote {args.out}")
    return EXIT_OK


def _run_embed(args: argparse.Namespace) -> int:
    config = drift_config(args)
    graph = build_topology(config.topology, config.nodes)
    history: list[np.ndarray] = []
    settle_step(config, graph, node_keys(graph.node_ids), history=history)  # the drift baseline
    write_embedding_csv(args.out, graph.node_ids, history)
    print(f"wrote {args.out} ({graph.node_count} nodes x {len(history)} rounds)")
    return EXIT_OK


def _read_projection(path: str) -> tuple[list[str], list[int], list[list[float]]]:
    expected = ["label", "workload_pct", "x", "y"]
    labels: list[str] = []
    workloads: list[int] = []
    points: list[list[float]] = []
    with open(path, newline="", encoding="utf-8") as handle:
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
