"""Property-graph store and topology builder tests."""

import json

import pytest

from knowmap.errors import (
    DuplicateEdgeError,
    DuplicateNodeError,
    EmptyLabelsError,
    InvalidSizeError,
    MissingEndpointError,
    UnknownNodeError,
)
from knowmap.graph import (
    COMPUTATIONAL_NODE,
    CONNECTED_TO,
    KnowledgeGraph,
    TopologyKind,
    build_topology,
    node_name,
)


def small_graph():
    kg = KnowledgeGraph()
    kg.add_node("a", {"Server"}, {"cpu": 0.5})
    kg.add_node("b", {"Server", "Edge"})
    kg.add_edge("a", "ROUTES_TO", "b")
    return kg


def test_add_node_stores_labels_and_properties():
    kg = small_graph()
    assert kg.has_node("a")
    assert kg.labels("a") == frozenset({"Server"})
    assert kg.labels("b") == frozenset({"Server", "Edge"})
    assert kg.properties("a") == {"cpu": 0.5}
    assert kg.properties("b") == {}
    assert kg.node_count == 2


def test_properties_returns_a_copy():
    kg = small_graph()
    kg.properties("a")["cpu"] = 99
    assert kg.properties("a") == {"cpu": 0.5}


def test_duplicate_node_rejected():
    kg = small_graph()
    with pytest.raises(DuplicateNodeError):
        kg.add_node("a", {"Server"})


def test_node_needs_a_label():
    kg = KnowledgeGraph()
    with pytest.raises(EmptyLabelsError):
        kg.add_node("x", [])


def test_node_needs_an_id():
    kg = KnowledgeGraph()
    with pytest.raises(UnknownNodeError):
        kg.add_node("", {"Server"})


def test_edge_endpoints_must_exist():
    kg = small_graph()
    with pytest.raises(MissingEndpointError):
        kg.add_edge("a", CONNECTED_TO, "ghost")
    with pytest.raises(MissingEndpointError):
        kg.add_edge("ghost", CONNECTED_TO, "a")


def test_duplicate_edge_rejected():
    kg = small_graph()
    with pytest.raises(DuplicateEdgeError):
        kg.add_edge("a", "ROUTES_TO", "b")
    # same endpoints under a different relation are a distinct triple
    kg.add_edge("a", CONNECTED_TO, "b")
    assert kg.edge_count == 2


def test_directed_edge_feeds_target_neighborhood_only():
    kg = small_graph()
    assert kg.neighbors("b") == ["a"]
    assert kg.neighbors("a") == []


def test_add_link_is_bidirectional():
    kg = KnowledgeGraph()
    kg.add_node("a", {"Server"})
    kg.add_node("b", {"Server"})
    kg.add_link("a", "b")
    assert kg.neighbors("a") == ["b"]
    assert kg.neighbors("b") == ["a"]
    assert kg.edge_count == 2


def test_unknown_node_queries_raise():
    kg = small_graph()
    for query in (kg.labels, kg.properties, kg.neighbors, kg.degree):
        with pytest.raises(UnknownNodeError):
            query("ghost")


def test_node_ids_and_edges_are_sorted():
    kg = KnowledgeGraph()
    for name in ("c", "a", "b"):
        kg.add_node(name, {"Server"})
    kg.add_edge("c", CONNECTED_TO, "a")
    kg.add_edge("b", CONNECTED_TO, "a")
    assert kg.node_ids() == ["a", "b", "c"]
    assert kg.edges() == [("b", CONNECTED_TO, "a"), ("c", CONNECTED_TO, "a")]
    assert kg.neighbors("a") == ["b", "c"]


def test_canonical_json_round_trips_and_is_stable():
    kg = small_graph()
    text = kg.canonical_json()
    assert json.loads(text) == kg.to_dict()
    assert text == kg.canonical_json()


def test_node_name_format():
    assert node_name(0) == "node-0"
    assert node_name(19) == "node-19"


# directed triple counts: line n-1 links, ring n links, full n(n-1)/2 links,
# each link stored as two triples
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
    assert all(ring.degree(v) == 2 for v in ring.node_ids())
    line = build_topology(TopologyKind.LINE, 6)
    degrees = [line.degree(node_name(i)) for i in range(6)]
    assert degrees == [1, 2, 2, 2, 2, 1]
    full = build_topology(TopologyKind.FULLY_CONNECTED, 6)
    assert all(full.degree(v) == 5 for v in full.node_ids())


def test_topology_nodes_are_labeled():
    kg = build_topology(TopologyKind.RING, 3)
    assert all(kg.labels(v) == frozenset({COMPUTATIONAL_NODE}) for v in kg.node_ids())


def test_ring_wraps_around():
    kg = build_topology(TopologyKind.RING, 4)
    assert kg.neighbors(node_name(0)) == [node_name(1), node_name(3)]


def test_line_does_not_wrap():
    kg = build_topology(TopologyKind.LINE, 4)
    assert kg.neighbors(node_name(0)) == [node_name(1)]
    assert kg.neighbors(node_name(3)) == [node_name(2)]


@pytest.mark.parametrize(
    "kind,n",
    [
        (TopologyKind.RING, 2),
        (TopologyKind.RING, 0),
        (TopologyKind.LINE, 1),
        (TopologyKind.FULLY_CONNECTED, 1),
        (TopologyKind.FULLY_CONNECTED, -3),
    ],
)
def test_topology_size_limits(kind, n):
    with pytest.raises(InvalidSizeError):
        build_topology(kind, n)


def test_topology_build_is_deterministic():
    a = build_topology(TopologyKind.FULLY_CONNECTED, 5)
    b = build_topology(TopologyKind.FULLY_CONNECTED, 5)
    assert a.canonical_json() == b.canonical_json()


def test_neighbor_table_pads_rows_in_node_id_order():
    # ids sort as node-0, node-1, node-10, node-11, node-2, ...: positions
    # follow that order, and short rows are padded with n
    kg = build_topology(TopologyKind.LINE, 12)
    table = kg.neighbor_table()
    assert table.node_ids == kg.node_ids()
    assert table.index.shape == (12, 2)
    for i, v in enumerate(table.node_ids):
        row = [table.node_ids[j] for j in table.index[i, : table.degree[i]]]
        assert row == kg.neighbors(v)
        assert list(table.index[i, table.degree[i]:]) == [12] * (2 - table.degree[i])
    assert list(table.degree) == [kg.degree(v) for v in table.node_ids]


def test_neighbor_table_of_isolated_nodes_has_no_columns():
    kg = KnowledgeGraph()
    kg.add_node("a", {"Server"})
    kg.add_node("b", {"Server"})
    table = kg.neighbor_table()
    assert table.index.shape == (2, 0)
    assert list(table.degree) == [0, 0]
