"""The network as a padded neighbour table, and deterministic topology builders.

A graph is its sorted node ids plus, for every node, the ascending positions
of its neighbours padded to the largest degree: the fixed-size adjacency the
embedding rounds read (GraphSAGE, Hamilton et al. 2017).  Every link is
undirected, so in- and out-neighbourhoods coincide.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Any, Sequence

import numpy as np

from .errors import (
    DuplicateEdgeError,
    DuplicateNodeError,
    InvalidSizeError,
    MissingEndpointError,
    UnknownNodeError,
)

CONNECTED_TO = "CONNECTED_TO"
COMPUTATIONAL_NODE = "ComputationalNode"


class TopologyKind(Enum):
    """The three experimental network shapes."""

    RING = "ring"
    FULLY_CONNECTED = "full"
    LINE = "line"


@dataclass(frozen=True, eq=False)
class KnowledgeGraph:
    """Undirected graph as a padded neighbour table; immutable, so safe to share.

    Row i of index holds the positions (into node_ids) of node i's
    neighbours in ascending order, padded on the right with n.
    """

    node_ids: list[str]  # sorted
    index: np.ndarray  # (n, max degree) positions, padded with n
    degree: np.ndarray  # (n,)

    @classmethod
    def from_links(cls, names: Sequence[str], links: Any) -> KnowledgeGraph:
        """Graph on names whose undirected links are (m, 2) positions into names."""
        n = len(names)
        if not all(names):
            raise UnknownNodeError("node id must be a non-empty string")
        order = sorted(range(n), key=names.__getitem__)
        node_ids = [names[i] for i in order]
        for a, b in zip(node_ids, node_ids[1:]):
            if a == b:
                raise DuplicateNodeError(f"node {a!r} already exists")
        links = np.asarray(links, dtype=np.intp).reshape(len(links), 2)
        if links.size and (links.min() < 0 or links.max() >= n):
            raise MissingEndpointError(f"link endpoints must be positions in [0, {n})")
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        a, b = rank[links[:, 0]], rank[links[:, 1]]
        # Both directions of every link, sorted by node, then neighbour.  A
        # self link, or a link given twice in either orientation, repeats a pair.
        node, neighbor = np.concatenate([a, b]), np.concatenate([b, a])
        by_node = np.lexsort((neighbor, node))
        node, neighbor = node[by_node], neighbor[by_node]
        if ((node[1:] == node[:-1]) & (neighbor[1:] == neighbor[:-1])).any():
            raise DuplicateEdgeError("links must join two distinct nodes at most once")
        degree = np.bincount(node, minlength=n)
        starts = np.cumsum(degree) - degree
        index = np.full((n, int(degree.max(initial=0))), n, dtype=np.intp)
        index[node, np.arange(len(node)) - starts[node]] = neighbor
        return cls(node_ids=node_ids, index=index, degree=degree)

    @property
    def node_count(self) -> int:
        return len(self.node_ids)

    @property
    def edge_count(self) -> int:
        """Directed count: every undirected link counts once in each direction."""
        return int(self.degree.sum())

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible snapshot: ComputationalNode nodes without properties,
        each link as two CONNECTED_TO triples, sorted by source, then target."""
        ids = self.node_ids
        return {
            "nodes": [
                {"id": node_id, "labels": [COMPUTATIONAL_NODE], "properties": {}}
                for node_id in ids
            ],
            "edges": [
                {"s": source, "r": CONNECTED_TO, "t": ids[target]}
                for source, row, degree in zip(ids, self.index.tolist(), self.degree.tolist())
                for target in row[:degree]
            ],
        }

    def canonical_json(self) -> str:
        """Canonical snapshot serialization (sorted keys, stable order)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def node_name(index: int) -> str:
    return f"node-{index}"


def build_topology(kind: TopologyKind, n: int) -> KnowledgeGraph:
    """Build one of the three experimental networks on "node-0" .. "node-(n-1)".

    Ring links i to i+1 mod n, line links i to i+1, and full links every pair.
    """
    minimum = 3 if kind is TopologyKind.RING else 2
    if n < minimum:
        raise InvalidSizeError(f"{kind.value} topology needs at least {minimum} nodes, got {n}")

    i = np.arange(n)
    if kind is TopologyKind.RING:
        links = np.column_stack([i, (i + 1) % n])
    elif kind is TopologyKind.LINE:
        links = np.column_stack([i[:-1], i[1:]])
    else:
        links = np.column_stack(np.triu_indices(n, k=1))
    return KnowledgeGraph.from_links([node_name(k) for k in range(n)], links)
