"""The network as a padded neighbour table, built by formula for each topology.

A graph is its sorted node ids plus, for every node, the ascending positions
of its neighbours padded to the largest degree: the fixed-size neighbourhood
the embedding rounds read (GraphSAGE, Hamilton et al. 2017).  Every link is
undirected, so in- and out-neighbourhoods coincide.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidConfigError

CONNECTED_TO = "CONNECTED_TO"
COMPUTATIONAL_NODE = "ComputationalNode"
MAX_EDGES = 10**7  # most directed edges build_topology accepts: full n <= 3162


class TopologyKind(Enum):
    """The three experimental network shapes."""

    RING = "ring"
    FULLY_CONNECTED = "full"
    LINE = "line"


def check_count(name: str, value: int, minimum: int, maximum: int | None = None) -> None:
    """Validate a size or round count: an integer, not a bool, in [minimum, maximum]."""
    integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integral or value < minimum or (maximum is not None and value > maximum):
        upper = "" if maximum is None else f" and <= {maximum}"
        raise InvalidConfigError(f"{name} must be an integer >= {minimum}{upper}, got {value!r}")


def check_topology(kind: TopologyKind, n: int, name: str | None = None) -> None:
    """Validate a topology kind, then its size n, called name: a ring needs 3 nodes, others 2."""
    if not isinstance(kind, TopologyKind):
        raise InvalidConfigError(f"topology {kind!r} is not a TopologyKind (ring, full or line)")
    check_count(name or f"{kind.value} topology size", n, 3 if kind is TopologyKind.RING else 2)


@dataclass(frozen=True, eq=False)
class KnowledgeGraph:
    """Undirected graph as a padded neighbour table; immutable, so safe to share.

    Row i of index holds the positions (into node_ids) of node i's
    neighbours in ascending order, padded on the right with n.
    """

    node_ids: list[str]  # sorted
    index: np.ndarray  # (n, max degree) positions, padded with n
    degree: np.ndarray  # (n,)

    @property
    def node_count(self) -> int:
        return len(self.node_ids)

    @property
    def edge_count(self) -> int:
        """Directed count: every undirected link counts once in each direction."""
        return int(self.degree.sum())

    def canonical_json(self) -> str:
        """json.dumps(indent=2, sort_keys=True) of ComputationalNode nodes and each link as two
        CONNECTED_TO triples sorted by source, then target; one join for the whole text."""
        names = [json.dumps(node_id) for node_id in self.node_ids]
        targets = np.array(names + [""], dtype=object)[self.index].tolist()
        node = f'\n    {{\n      "id": %s,\n      "labels": [\n        "{COMPUTATIONAL_NODE}"\n'
        node += '      ],\n      "properties": {}\n    }'
        edges, nodes = [], []  # every item is led by a "," piece, dropped for a list's first
        for source, row, degree in zip(names, targets, self.degree.tolist()):
            nodes += [",", node % source]
            if degree:
                head = f'\n    {{\n      "r": "{CONNECTED_TO}",\n      "s": {source},\n      "t": '
                edges += [",", head, ("\n    }," + head).join(row[:degree]), "\n    }"]
        return "".join([
            '{\n  "edges": [', *edges[1:], "\n  ]" if edges else "]",
            ',\n  "nodes": [', *nodes[1:], "\n  ]" if nodes else "]", "\n}",
        ])


def node_name(index: int) -> str:
    return f"node-{index}"


def build_topology(kind: TopologyKind, n: int) -> KnowledgeGraph:
    """Build one of the three experimental networks on "node-0" .. "node-(n-1)".

    Every table is built in closed form, with no link array and no sort of
    links: full links every pair, ring links node k to k-1 and k+1 mod n, and
    line links k to k-1 and k+1 within 0..n-1.
    A network with more than MAX_EDGES directed edges is rejected.
    """
    check_topology(kind, n)
    size = int(n)  # a Python int, so the count cannot wrap around
    m = {TopologyKind.RING: size, TopologyKind.LINE: size - 1}.get(kind, size * (size - 1) // 2)
    if 2 * m > MAX_EDGES:
        raise InvalidConfigError(f"{kind.value} topology on {n} nodes exceeds {MAX_EDGES} edges")

    names = [node_name(k) for k in range(size)]
    i = np.arange(size)
    if kind is TopologyKind.FULLY_CONNECTED:
        # Row r is every position but r, however the names sort: no links to sort.
        j = np.arange(1, size)
        index = j - (j <= i[:, None])
        return KnowledgeGraph(sorted(names), index, np.full(size, size - 1, dtype=np.intp))
    # Node k links k - 1 and k + 1: mod n on a ring; a line's two ends pad with n.
    order = sorted(range(size), key=names.__getitem__)  # node k at each sorted position
    k = np.array(order, dtype=np.intp)
    rank = np.empty(size, dtype=np.intp)
    rank[k] = i
    wrap = kind is TopologyKind.RING
    index = np.sort(np.column_stack([
        np.where(wrap | (k > 0), rank[k - 1], size),
        np.where(wrap | (k < size - 1), rank[(k + 1) % size], size),
    ]), axis=1)
    degree = (index < size).sum(axis=1)
    return KnowledgeGraph([names[j] for j in order], index[:, : degree.max()], degree)
