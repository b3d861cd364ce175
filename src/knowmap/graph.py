"""In-memory property graph and deterministic topology builders.

Nodes carry one or more type labels plus a flat property map; edges are
directed, typed triples.  Undirected network links are stored as a pair of
directed triples so that in-neighborhoods coincide with the undirected
neighborhoods of the simulated networks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable

import numpy as np

from .errors import (
    DuplicateEdgeError,
    DuplicateNodeError,
    EmptyLabelsError,
    InvalidSizeError,
    MissingEndpointError,
    UnknownNodeError,
)

CONNECTED_TO = "CONNECTED_TO"
COMPUTATIONAL_NODE = "ComputationalNode"

Scalar = Any  # str | int | float | bool


class TopologyKind(Enum):
    """The three experimental network shapes."""

    RING = "ring"
    FULLY_CONNECTED = "full"
    LINE = "line"


@dataclass(frozen=True, eq=False)
class NeighborTable:
    """Padded adjacency of a graph, one row per node in node_ids order.

    Row i holds the positions of node i's in-neighbors, padded on the right with n.
    """

    node_ids: list[str]
    index: np.ndarray  # (n, max degree) positions, padded with n
    degree: np.ndarray  # (n,)


class KnowledgeGraph:
    """Directed labeled graph with typed edges and per-node property maps.

    Mutation is only intended during construction (single-threaded); built
    graphs are treated as immutable and are safe to share across workers.
    """

    def __init__(self) -> None:
        self._labels: dict[str, frozenset[str]] = {}
        self._properties: dict[str, dict[str, Scalar]] = {}
        self._edges: set[tuple[str, str, str]] = set()
        self._in_neighbors: dict[str, set[str]] = {}

    def add_node(
        self,
        node_id: str,
        labels: Iterable[str],
        properties: dict[str, Scalar] | None = None,
    ) -> None:
        """Insert a node; every node needs a unique id and at least one label."""
        if not node_id:
            raise UnknownNodeError("node id must be a non-empty string")
        if node_id in self._labels:
            raise DuplicateNodeError(f"node {node_id!r} already exists")
        label_set = frozenset(labels)
        if not label_set:
            raise EmptyLabelsError(f"node {node_id!r} needs at least one label")
        self._labels[node_id] = label_set
        self._properties[node_id] = dict(properties or {})
        self._in_neighbors[node_id] = set()

    def add_edge(self, source: str, relation: str, target: str) -> None:
        """Insert the directed triple (source, relation, target) exactly once."""
        for endpoint in (source, target):
            if endpoint not in self._labels:
                raise MissingEndpointError(f"edge endpoint {endpoint!r} is not a node")
        triple = (source, relation, target)
        if triple in self._edges:
            raise DuplicateEdgeError(f"edge {triple} already exists")
        self._edges.add(triple)
        self._in_neighbors[target].add(source)

    def add_link(self, a: str, b: str, relation: str = CONNECTED_TO) -> None:
        """Insert an undirected link as two directed triples."""
        self.add_edge(a, relation, b)
        self.add_edge(b, relation, a)

    def has_node(self, node_id: str) -> bool:
        return node_id in self._labels

    def node_ids(self) -> list[str]:
        """All node ids, sorted lexicographically."""
        return sorted(self._labels)

    def labels(self, node_id: str) -> frozenset[str]:
        self._require(node_id)
        return self._labels[node_id]

    def properties(self, node_id: str) -> dict[str, Scalar]:
        self._require(node_id)
        return dict(self._properties[node_id])

    def edges(self) -> list[tuple[str, str, str]]:
        """All directed triples, sorted for deterministic iteration."""
        return sorted(self._edges)

    @property
    def node_count(self) -> int:
        return len(self._labels)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def neighbors(self, node_id: str) -> list[str]:
        """Ids with a directed edge into ``node_id``, sorted lexicographically."""
        self._require(node_id)
        return sorted(self._in_neighbors[node_id])

    def degree(self, node_id: str) -> int:
        """Undirected degree: number of distinct in-neighbors."""
        return len(self.neighbors(node_id))

    def neighbor_table(self) -> NeighborTable:
        """Padded neighbor positions of every node, rows in node_ids() order."""
        ids = self.node_ids()
        position = {node_id: i for i, node_id in enumerate(ids)}
        rows = [[position[u] for u in self.neighbors(v)] for v in ids]
        degree = np.array([len(row) for row in rows], dtype=np.intp)
        index = np.full((len(ids), int(degree.max(initial=0))), len(ids), dtype=np.intp)
        for i, row in enumerate(rows):
            index[i, : len(row)] = row
        return NeighborTable(node_ids=ids, index=index, degree=degree)

    def to_dict(self) -> dict[str, Any]:
        """Snapshot as a JSON-compatible dict with deterministic ordering."""
        return {
            "nodes": [
                {
                    "id": node_id,
                    "labels": sorted(self._labels[node_id]),
                    "properties": dict(sorted(self._properties[node_id].items())),
                }
                for node_id in self.node_ids()
            ],
            "edges": [{"s": s, "r": r, "t": t} for s, r, t in self.edges()],
        }

    def canonical_json(self, indent: int | None = 2) -> str:
        """Canonical snapshot serialization (sorted keys, stable order)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def _require(self, node_id: str) -> None:
        if node_id not in self._labels:
            raise UnknownNodeError(f"unknown node {node_id!r}")


def node_name(index: int) -> str:
    return f"node-{index}"


def build_topology(kind: TopologyKind, n: int) -> KnowledgeGraph:
    """Build one of the three experimental networks with ``n`` nodes.

    Nodes are labeled ComputationalNode with ids "node-0" .. "node-(n-1)";
    every link is a bidirectional pair of CONNECTED_TO triples.
    """
    minimum = 3 if kind is TopologyKind.RING else 2
    if n < minimum:
        raise InvalidSizeError(f"{kind.value} topology needs at least {minimum} nodes, got {n}")

    # One string per node, shared by every triple that names it.
    names = [node_name(i) for i in range(n)]
    kg = KnowledgeGraph()
    for name in names:
        kg.add_node(name, {COMPUTATIONAL_NODE})

    if kind is TopologyKind.RING:
        for i in range(n):
            kg.add_link(names[i], names[(i + 1) % n])
    elif kind is TopologyKind.LINE:
        for i in range(n - 1):
            kg.add_link(names[i], names[i + 1])
    else:
        for i in range(n):
            for j in range(i + 1, n):
                kg.add_link(names[i], names[j])
    return kg
