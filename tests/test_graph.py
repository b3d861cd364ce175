"""Padded neighbour-table graph and topology builder tests."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from knowmap.errors import InvalidConfigError
from knowmap.graph import (
    COMPUTATIONAL_NODE,
    CONNECTED_TO,
    KnowledgeGraph,
    TopologyKind,
    build_topology,
    node_name,
)


def neighbors(graph, node_id):
    """Ids in node_id's row of the table, in row order."""
    i = graph.node_ids.index(node_id)
    return [graph.node_ids[j] for j in graph.index[i, : graph.degree[i]]]


def snapshot(graph):
    """The dict canonical_json serializes: the reference its text is checked against."""
    ids = graph.node_ids
    return {
        "nodes": [
            {"id": node_id, "labels": [COMPUTATIONAL_NODE], "properties": {}} for node_id in ids
        ],
        "edges": [
            {"s": source, "r": CONNECTED_TO, "t": ids[target]}
            for source, row, degree in zip(ids, graph.index.tolist(), graph.degree.tolist())
            for target in row[:degree]
        ],
    }


def graph_from_links(names, links):
    """Reference graph on names whose undirected links are (a, b) positions into names.

    Plain loops, one link at a time: each link joins both nodes' rows, then
    every row is sorted and padded with n, the table build_topology makes.
    """
    n = len(names)
    node_ids = sorted(names)
    position = {node_id: p for p, node_id in enumerate(node_ids)}
    rows = [[] for _ in range(n)]
    for a, b in links:
        a, b = position[names[a]], position[names[b]]
        rows[a].append(b)
        rows[b].append(a)
    width = max(map(len, rows), default=0)
    index = [sorted(row) + [n] * (width - len(row)) for row in rows]
    degree = [len(row) for row in rows]
    return KnowledgeGraph(
        node_ids, np.array(index, dtype=np.intp).reshape(n, width), np.array(degree, dtype=np.intp)
    )


def small_graph():
    # c-a and b-a, given out of name order and in both orientations
    return graph_from_links(["c", "a", "b"], [[0, 1], [1, 2]])


def test_add_link_is_bidirectional():
    # line n = 2 is one link, read from both ends, in a one-column table
    kg = build_topology(TopologyKind.LINE, 2)
    assert neighbors(kg, "node-0") == ["node-1"]
    assert neighbors(kg, "node-1") == ["node-0"]
    assert kg.edge_count == 2
    assert kg.index.tolist() == [[1], [0]]


def test_node_ids_and_edges_are_sorted():
    kg = small_graph()
    assert kg.node_ids == ["a", "b", "c"]
    edges = [(e["s"], e["r"], e["t"]) for e in json.loads(kg.canonical_json())["edges"]]
    assert edges == [
        ("a", CONNECTED_TO, "b"),
        ("a", CONNECTED_TO, "c"),
        ("b", CONNECTED_TO, "a"),
        ("c", CONNECTED_TO, "a"),
    ]
    assert neighbors(kg, "a") == ["b", "c"]


def test_canonical_json_round_trips_and_is_stable():
    kg = small_graph()
    text = kg.canonical_json()
    assert json.loads(text) == snapshot(kg)
    assert text == kg.canonical_json()


def test_node_name_format():
    assert node_name(0) == "node-0"
    assert node_name(19) == "node-19"


# directed counts: line n-1 links, ring n links, full n(n-1)/2 links, each
# link counted once in each direction
@pytest.mark.parametrize(
    "kind,n,expected_edges",
    [
        (TopologyKind.LINE, 5, 8),
        (TopologyKind.RING, 5, 10),
        (TopologyKind.FULLY_CONNECTED, 5, 20),
        (TopologyKind.LINE, 2, 2),
        (TopologyKind.RING, 3, 6),
        (TopologyKind.FULLY_CONNECTED, 2, 2),
    ],
)
def test_topology_edge_counts(kind, n, expected_edges):
    kg = build_topology(kind, n)
    assert kg.node_count == n
    assert kg.edge_count == expected_edges


def test_topology_degrees():
    ring = build_topology(TopologyKind.RING, 6)
    assert list(ring.degree) == [2] * 6
    line = build_topology(TopologyKind.LINE, 6)
    degrees = [int(line.degree[line.node_ids.index(node_name(i))]) for i in range(6)]
    assert degrees == [1, 2, 2, 2, 2, 1]
    full = build_topology(TopologyKind.FULLY_CONNECTED, 6)
    assert list(full.degree) == [5] * 6


def test_topology_nodes_are_labeled():
    nodes = json.loads(build_topology(TopologyKind.RING, 3).canonical_json())["nodes"]
    assert [node["labels"] for node in nodes] == [[COMPUTATIONAL_NODE]] * 3
    assert [node["properties"] for node in nodes] == [{}] * 3


def test_ring_wraps_around():
    kg = build_topology(TopologyKind.RING, 4)
    assert neighbors(kg, node_name(0)) == [node_name(1), node_name(3)]


def test_line_does_not_wrap():
    kg = build_topology(TopologyKind.LINE, 4)
    assert neighbors(kg, node_name(0)) == [node_name(1)]
    assert neighbors(kg, node_name(3)) == [node_name(2)]


@pytest.mark.parametrize(
    "kind,n",
    [
        (TopologyKind.RING, 2),
        (TopologyKind.RING, 0),
        (TopologyKind.LINE, 1),
        (TopologyKind.FULLY_CONNECTED, 1),
        (TopologyKind.FULLY_CONNECTED, -3),
        # more than MAX_EDGES = 10**7 directed edges, rejected before any allocation
        (TopologyKind.FULLY_CONNECTED, 3163),
        (TopologyKind.RING, 5_000_001),
        (TopologyKind.LINE, 5_000_002),
        (TopologyKind.FULLY_CONNECTED, 10**30),
    ],
)
def test_topology_size_limits(kind, n):
    message = f"^{kind.value} topology (size must|on {n} nodes)"
    with pytest.raises(InvalidConfigError, match=message):
        build_topology(kind, n)


@pytest.mark.parametrize("kind", ["ring", None, 0])
def test_topology_must_be_a_topology_kind(kind):
    # the bare value "ring" too: only a TopologyKind member names a topology
    with pytest.raises(InvalidConfigError, match=r"\(ring, full or line\)") as raised:
        build_topology(kind, 5)
    message = str(raised.value)
    assert repr(kind) in message
    assert all(k.value in message for k in TopologyKind)


def test_topology_build_is_deterministic():
    a = build_topology(TopologyKind.FULLY_CONNECTED, 5)
    b = build_topology(TopologyKind.FULLY_CONNECTED, 5)
    assert a.canonical_json() == b.canonical_json()


# sha256 of `knowmap topology --kind K --nodes 12`; at 12 nodes the ids sort
# non-numerically (node-0, node-1, node-10, node-11, node-2, ...)
TOPOLOGY_12_SHA256 = {
    TopologyKind.RING: "aee5f96873bc967e4b023be56d3d0a1a579464bf101d79f1ff6389e995cb5558",
    TopologyKind.FULLY_CONNECTED: "cd0a14cff9a5c201805006d8f0773a9098dba17dc864ff0a45b6e22efa75e211",
    TopologyKind.LINE: "f802c73b62a9e7f7f4f55e2a660e5b837c0c37a931536eb7bdb8508ae62e0e9a",
}
# at 1001 nodes node-1000 sorts between node-100 and node-101, so a node's
# neighbours k - 1 and k + 1 are not the positions next to its own
TOPOLOGY_1001_SHA256 = {
    TopologyKind.RING: "14f246de13d673bb834e0c47aaa27bef7efe2196d36e67cfbec89d4e96e75ddd",
    TopologyKind.LINE: "cf9b1bd9034d7b0c27c11635529be38bf0b1ad1db6489927074369b922b653bc",
}


@pytest.mark.parametrize(
    "kind,n,digest",
    [pytest.param(kind, 12, digest, id=str(kind)) for kind, digest in TOPOLOGY_12_SHA256.items()]
    + [
        pytest.param(kind, 1001, digest, id=f"{kind}-1001")
        for kind, digest in TOPOLOGY_1001_SHA256.items()
    ],
)
def test_topology_json_is_pinned(kind, n, digest):
    text = build_topology(kind, n).canonical_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_full_400_topology_file_is_pinned():
    # the 13,524,147-byte `knowmap topology --kind full --nodes 400 --out FILE`
    graph = build_topology(TopologyKind.FULLY_CONNECTED, 400)
    text = graph.canonical_json() + "\n"
    assert len(text) == 13_524_147
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "39a96c48b750df72f5b1aed32974ea2156978aaa878bc12a12b52b14b7bf08e2"
    )


def test_neighbor_table_pads_rows_in_node_id_order():
    # ids sort as node-0, node-1, node-10, node-11, node-2, ...: positions
    # follow that order, rows ascend, and short rows are padded with n
    kg = build_topology(TopologyKind.LINE, 12)
    assert kg.node_ids == sorted(node_name(i) for i in range(12))
    assert kg.index.shape == (12, 2)
    for i, v in enumerate(kg.node_ids):
        k = int(v.split("-")[1])
        expected = sorted(node_name(j) for j in (k - 1, k + 1) if 0 <= j < 12)
        assert neighbors(kg, v) == expected
        assert list(kg.index[i, kg.degree[i]:]) == [12] * (2 - kg.degree[i])
        assert list(kg.index[i, : kg.degree[i]]) == sorted(kg.index[i, : kg.degree[i]])


def test_neighbor_table_of_isolated_nodes_has_no_columns():
    kg = graph_from_links(["a", "b"], [])
    assert kg.index.shape == (2, 0)
    assert list(kg.degree) == [0, 0]
    assert json.loads(kg.canonical_json())["edges"] == []


def test_empty_graph():
    kg = graph_from_links([], [])
    assert kg.node_ids == []
    assert kg.index.shape == (0, 0)
    assert kg.edge_count == 0
    assert kg.canonical_json() == json.dumps(snapshot(kg), indent=2, sort_keys=True)


def traced_peak(build):
    """Return build()'s result and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def topology_links(kind, n):
    """Each kind's own links, as (k, k') pairs of node numbers."""
    if kind is TopologyKind.FULLY_CONNECTED:
        return [(a, b) for a in range(n) for b in range(a + 1, n)]
    if kind is TopologyKind.RING:
        return [(k, (k + 1) % n) for k in range(n)]
    return [(k, k + 1) for k in range(n - 1)]


def check_closed_form(kind, n):
    """build_topology(kind, n) against graph_from_links on the kind's own links."""
    graph = build_topology(kind, n)
    reference = graph_from_links([node_name(k) for k in range(n)], topology_links(kind, n))
    assert graph.node_ids == reference.node_ids
    for field in ("index", "degree"):
        built, linked = getattr(graph, field), getattr(reference, field)
        assert built.dtype == linked.dtype == np.intp
        assert np.array_equal(built, linked)


@pytest.mark.parametrize("n", [*range(2, 65), 300, 1000])
def test_full_topology_in_closed_form_is_the_linked_graph(n):
    check_closed_form(TopologyKind.FULLY_CONNECTED, n)


@pytest.mark.parametrize(
    "kind,n",
    [(TopologyKind.RING, n) for n in [*range(3, 65), 300, 1000]]
    + [(TopologyKind.LINE, n) for n in [*range(2, 65), 300, 1000]],
)
def test_ring_and_line_in_closed_form_are_the_linked_graphs(kind, n):
    check_closed_form(kind, n)


def test_full_topology_is_built_without_a_link_array():
    graph, peak = traced_peak(lambda: build_topology(TopologyKind.FULLY_CONNECTED, 300))
    # the table and one boolean mask of its size; no (m, 2) links, keys or sort
    assert peak < 2 * graph.index.nbytes


def test_canonical_json_is_joined_once():
    graph = build_topology(TopologyKind.FULLY_CONNECTED, 200)
    text, peak = traced_peak(graph.canonical_json)
    # the pieces plus the text they join into: no second copy of the text
    assert peak < 2.5 * len(text)


# ids json must escape: quotes, backslashes, control characters, non-ASCII
AWKWARD_IDS = st.sampled_from(['"', "\\", 'a"b\\c', "\n", "\x00\x1f\x7f", "é", "\u2028", "😀"])


@given(
    st.lists(st.text(min_size=1) | AWKWARD_IDS, min_size=0, max_size=8, unique=True),
    st.data(),
)
def test_canonical_json_is_json_dumps_of_the_snapshot(names, data):
    pairs = [(a, b) for a in range(len(names)) for b in range(a + 1, len(names))]
    links = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    kg = graph_from_links(names, links)
    assert kg.canonical_json() == json.dumps(snapshot(kg), indent=2, sort_keys=True)
