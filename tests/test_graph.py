"""Padded neighbour-table graph and topology builder tests."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from knowmap.errors import (
    DuplicateEdgeError,
    DuplicateNodeError,
    InvalidConfigError,
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


def small_graph():
    # c-a and b-a, given out of name order and in both orientations
    return KnowledgeGraph.from_links(["c", "a", "b"], [[0, 1], [1, 2]])


def test_duplicate_node_rejected():
    with pytest.raises(DuplicateNodeError):
        KnowledgeGraph.from_links(["a", "b", "a"], [])


def test_node_needs_an_id():
    with pytest.raises(UnknownNodeError):
        KnowledgeGraph.from_links(["a", ""], [])


def test_edge_endpoints_must_exist():
    for link in ([0, 2], [2, 0], [-1, 0]):
        with pytest.raises(MissingEndpointError):
            KnowledgeGraph.from_links(["a", "b"], [link])
    # a position must be an integer: no truncating floats, no bools read as 0/1
    for links in ([[0.9, 1.2], [1, 2.99]], [[0.0, 1.0]], np.array([[False, True]])):
        with pytest.raises(MissingEndpointError, match="must be integers"):
            KnowledgeGraph.from_links(["a", "b", "c"], links)
    assert KnowledgeGraph.from_links(["a", "b"], []).edge_count == 0  # [] reads as float64


def test_duplicate_edge_rejected():
    for links in ([[0, 1], [0, 1]], [[0, 1], [1, 0]], [[1, 1]]):
        with pytest.raises(DuplicateEdgeError):
            KnowledgeGraph.from_links(["a", "b"], links)


def test_add_link_is_bidirectional():
    kg = KnowledgeGraph.from_links(["a", "b"], [[0, 1]])
    assert neighbors(kg, "a") == ["b"]
    assert neighbors(kg, "b") == ["a"]
    assert kg.edge_count == 2


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


@pytest.mark.parametrize("kind", list(TopologyKind))
def test_topology_json_is_pinned(kind):
    text = build_topology(kind, 12).canonical_json()
    assert hashlib.sha256(text.encode()).hexdigest() == TOPOLOGY_12_SHA256[kind]


def test_full_400_topology_file_is_pinned():
    # the 13,524,147-byte `knowmap topology --kind full --nodes 400 --out FILE`
    graph = build_topology(TopologyKind.FULLY_CONNECTED, 400)
    text = graph.canonical_json() + "\n"
    # the 400 x 400 adjacency is built only for an embedding round, never for the JSON
    assert "adjacency" not in graph.__dict__
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
    kg = KnowledgeGraph.from_links(["a", "b"], np.zeros((0, 2), dtype=int))
    assert kg.index.shape == (2, 0)
    assert list(kg.degree) == [0, 0]
    assert json.loads(kg.canonical_json())["edges"] == []


def test_empty_graph():
    kg = KnowledgeGraph.from_links([], [])
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


def test_adjacency_is_built_without_copies_of_the_table():
    graph = build_topology(TopologyKind.FULLY_CONNECTED, 300)
    adjacency, peak = traced_peak(lambda: graph.adjacency)
    # the matrix plus its padding column, and no (n, max degree) temporaries
    assert peak < 1.5 * adjacency.nbytes


@pytest.mark.parametrize("n", [*range(2, 65), 300])
def test_full_topology_in_closed_form_is_the_linked_graph(n):
    graph = build_topology(TopologyKind.FULLY_CONNECTED, n)
    # the validating constructor on every pair as one link
    names = [node_name(k) for k in range(n)]
    reference = KnowledgeGraph.from_links(names, np.column_stack(np.triu_indices(n, k=1)))
    assert graph.node_ids == reference.node_ids
    for field in ("index", "degree"):
        built, linked = getattr(graph, field), getattr(reference, field)
        assert built.dtype == linked.dtype == np.intp
        assert np.array_equal(built, linked)
    if n == 300:
        assert np.array_equal(graph.adjacency, reference.adjacency)


def test_full_topology_is_built_without_a_link_array():
    graph, peak = traced_peak(lambda: build_topology(TopologyKind.FULLY_CONNECTED, 300))
    # the table and one boolean mask of its size; no (m, 2) links, keys or sort
    assert peak < 2 * graph.index.nbytes


def test_canonical_json_is_joined_once():
    graph = build_topology(TopologyKind.FULLY_CONNECTED, 200)
    text, peak = traced_peak(graph.canonical_json)
    # the pieces plus the text they join into: no second copy of the text
    assert peak < 2.5 * len(text)


@st.composite
def graphs_as_links(draw):
    """Distinct names, a set of distinct non-self links, and a relabelling."""
    names = draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=8, unique=True))
    n = len(names)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    links = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    perm = draw(st.permutations(range(n)))
    flips = draw(st.lists(st.booleans(), min_size=len(links), max_size=len(links)))
    return names, links, perm, flips


@given(graphs_as_links(), st.randoms(use_true_random=False))
def test_from_links_ignores_name_order_link_order_and_orientation(case, rnd):
    names, links, perm, flips = case
    reference = KnowledgeGraph.from_links(names, np.array(links, dtype=int).reshape(-1, 2))
    # the same graph with names permuted, links shuffled and some reversed
    position = {old: new for new, old in enumerate(perm)}
    moved = [
        (position[b], position[a]) if flip else (position[a], position[b])
        for (a, b), flip in zip(links, flips)
    ]
    rnd.shuffle(moved)
    other = KnowledgeGraph.from_links(
        [names[i] for i in perm], np.array(moved, dtype=int).reshape(-1, 2)
    )
    assert other.node_ids == reference.node_ids == sorted(names)
    assert np.array_equal(other.index, reference.index)
    assert np.array_equal(other.degree, reference.degree)
    for node_id in reference.node_ids:
        expected = sorted(
            names[b if names[a] == node_id else a]
            for a, b in links
            if node_id in (names[a], names[b])
        )
        assert neighbors(reference, node_id) == expected


# ids json must escape: quotes, backslashes, control characters, non-ASCII
AWKWARD_IDS = st.sampled_from(['"', "\\", 'a"b\\c', "\n", "\x00\x1f\x7f", "é", "\u2028", "😀"])


@given(
    st.lists(st.text(min_size=1) | AWKWARD_IDS, min_size=0, max_size=8, unique=True),
    st.data(),
)
def test_canonical_json_is_json_dumps_of_the_snapshot(names, data):
    pairs = [(a, b) for a in range(len(names)) for b in range(a + 1, len(names))]
    links = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    kg = KnowledgeGraph.from_links(names, np.array(links, dtype=int).reshape(-1, 2))
    assert kg.canonical_json() == json.dumps(snapshot(kg), indent=2, sort_keys=True)
