"""Embedding layer and graph-embedding tests."""

import csv
import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from test_graph import graph_from_links

from knowmap.drift import DriftConfig, run_drift, settle, write_projection_csv
from knowmap.embedding import (
    CSV_CHUNK_ROWS,
    Layer,
    aggregate,
    constant,
    csv_field,
    embedding_round,
    format_rows,
    id_column,
    init_layer,
    init_layers,
    text_block,
    write_embedding_csv,
)
from knowmap.errors import DimensionMismatchError, EmptyInputError
from knowmap.graph import KnowledgeGraph, TopologyKind, build_topology, node_name

vectors3 = st.lists(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    min_size=3,
    max_size=3,
).map(np.array)


def identity_layer(k=2):
    return Layer(self_weights=np.eye(k), neighbor_weights=np.eye(k))


def unit_sigmoid(mixed):
    """The round's output for one mixed row: the logistic sigmoid, normalized."""
    activated = 1.0 / (1.0 + np.exp(-np.asarray(mixed, dtype=float)))
    return activated / np.linalg.norm(activated)


def settle_rounds(graph, features, dimension, rounds, seed):
    """Per-round (n x d) states of a tolerance-0 settle; index 0 is round 1."""
    history = []
    layers = init_layers(dimension, seed)
    settle(graph, features, layers, rounds, 0.0, history)
    return history


def test_init_layer_bound_and_shape():
    layer = init_layer(3, 8, [1, 0])
    bound = np.sqrt(6.0 / 11.0)
    for w in (layer.self_weights, layer.neighbor_weights):
        assert w.shape == (8, 3)
        assert np.all(np.abs(w) <= bound)
    assert not np.array_equal(layer.self_weights, layer.neighbor_weights)


def test_no_admitted_round_reaches_a_zero_row():
    # |mixed_j| <= |W_s[j]| |x| + |W_n[j]| |m|.  Input rounds read feature rows in
    # [0, 1]^2 x {1} and their means, of norm <= sqrt(3); hidden rounds read unit rows
    # and their means, of norm <= 1.  Entries in [-a, a] bound the row norms, which gives
    # the closed forms; the measured worst cases were 5.47 (input, d = 1) and 2.96
    # (hidden), so every sigmoid value is at least 1 / (1 + e**5.47) = 0.0042.
    worst = 0.0
    for d in (1, 2, 8, 33, 256, 1024):
        for seed in range(20):
            layers = init_layers(d, seed)
            reach = [
                (np.linalg.norm(layer.self_weights, axis=1)
                 + np.linalg.norm(layer.neighbor_weights, axis=1)).max()
                for layer in layers
            ]
            input_bound, hidden_bound = math.sqrt(3.0) * reach[0], reach[1]
            assert input_bound <= 2.0 * math.sqrt(54.0 / (3 + d))
            assert hidden_bound <= 2.0 * math.sqrt(3.0)
            worst = max(worst, input_bound, hidden_bound)
    assert 1.0 / (1.0 + math.exp(worst)) >= 1e-3


def test_init_layer_degenerate_shape():
    layer = init_layer(1, 1, [0, 0])
    assert layer.self_weights.shape == (1, 1)


def test_init_layer_is_seed_deterministic():
    a = init_layer(3, 4, [9, 1])
    b = init_layer(3, 4, [9, 1])
    c = init_layer(3, 4, [9, 2])
    assert np.array_equal(a.self_weights, b.self_weights)
    assert np.array_equal(a.neighbor_weights, b.neighbor_weights)
    assert not np.array_equal(a.self_weights, c.self_weights)


def test_init_layers_shapes():
    input_layer, hidden_layer = init_layers(6, 5)
    assert input_layer.self_weights.shape == (6, 3)
    assert hidden_layer.self_weights.shape == (6, 6)


def test_aggregate_is_the_mean():
    out = aggregate(np.array([[1.0, 3.0], [3.0, 5.0]]))
    assert np.array_equal(out, [2.0, 4.0])
    assert np.array_equal(aggregate(np.array([[0.0, 2.0], [2.0, 0.0]])), [1.0, 1.0])


def test_aggregate_singleton_is_identity():
    x = np.array([0.25, -1.5, 3.0])
    assert np.array_equal(aggregate(x[None, :]), x)


def test_aggregate_rejects_empty():
    with pytest.raises(EmptyInputError):
        aggregate(np.zeros((0, 2)))


@given(st.lists(vectors3, min_size=1, max_size=6), st.randoms(use_true_random=False))
def test_aggregate_is_permutation_invariant(vecs, rnd):
    shuffled = list(vecs)
    rnd.shuffle(shuffled)
    assert np.allclose(aggregate(np.array(vecs)), aggregate(np.array(shuffled)), atol=1e-12)


def isolated(node_id="solo"):
    return graph_from_links([node_id], [])


def test_normalize_unit_length():
    graph = build_topology(TopologyKind.RING, 5)
    states = np.random.default_rng(1).uniform(-1.0, 1.0, (5, 3))
    out = embedding_round(graph, states, init_layer(3, 4, [3, 0]))
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, rtol=0, atol=1e-15)


def test_layer_forward_identity_example():
    # identity weights: self [1,2] plus neighbor mean [2,0] mixes to [3,2],
    # whose unit sigmoid is [0.734..., 0.678...]; the other node sees the same sum
    graph = build_topology(TopologyKind.LINE, 2)
    states = np.array([[1.0, 2.0], [2.0, 0.0]])
    out = embedding_round(graph, states, identity_layer())
    expected = unit_sigmoid([3.0, 2.0])
    for row in out:
        assert row[0] == expected[0]
        assert row[1] == expected[1]


def test_layer_forward_middle_of_a_line():
    # node with self [1,0] and two neighbors [0,1], [1,1]: the neighbor mean
    # [0.5, 1] joins the self term for [1.5, 1], the row the sigmoid sees
    graph = build_topology(TopologyKind.LINE, 3)
    states = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    out = embedding_round(graph, states, identity_layer())
    expected = unit_sigmoid([1.5, 1.0])
    assert out[1][0] == expected[0]
    assert out[1][1] == expected[1]


def test_layer_forward_without_neighbors():
    out = embedding_round(isolated(), np.array([[3.0, 4.0]]), identity_layer())
    assert np.allclose(out, [unit_sigmoid([3.0, 4.0])])


def test_layer_forward_is_neighbor_order_invariant():
    rng = np.random.default_rng(6)
    graph = build_topology(TopologyKind.FULLY_CONNECTED, 6)
    layer = init_layer(3, 3, [5, 0])
    states = rng.uniform(-1.0, 1.0, (6, 3))
    reference = embedding_round(graph, states, layer)
    for _ in range(100):
        shuffled = rng.permuted(graph.index, axis=1)
        reordered = KnowledgeGraph(graph.node_ids, shuffled, graph.degree)
        assert np.allclose(embedding_round(reordered, states, layer), reference, atol=1e-12)


def test_layer_forward_zero_weights_sigmoid():
    # sigmoid(0) = 0.5 in every coordinate, normalized to 1/sqrt(k)
    layer = Layer(np.zeros((2, 2)), np.zeros((2, 2)))
    graph = build_topology(TopologyKind.LINE, 2)
    out = embedding_round(graph, np.array([[1.0, -1.0], [2.0, 2.0]]), layer)
    assert np.allclose(out, [[1.0 / np.sqrt(2.0)] * 2] * 2)


def test_layer_forward_checks_input_dim():
    with pytest.raises(DimensionMismatchError):
        embedding_round(isolated(), np.ones((1, 3)), identity_layer())
    with pytest.raises(DimensionMismatchError):
        embedding_round(isolated(), np.ones((2, 2)), identity_layer())


def ring_states(n=4, dim=3, seed=0):
    """A ring and one random input row per node, in graph.node_ids order."""
    graph = build_topology(TopologyKind.RING, n)
    rng = np.random.default_rng(seed)
    return graph, np.array([rng.uniform(0.1, 1.0, dim) for _ in graph.node_ids])


def test_embedding_round_is_synchronous():
    # every node reads the pre-round states: one round over a matrix equals
    # the per-node formula applied to the unchanged input
    graph, states = ring_states()
    (forward,) = settle_rounds(graph, states, dimension=3, rounds=1, seed=2)
    input_layer, _ = init_layers(3, 2)
    row = {v: states[i] for i, v in enumerate(graph.node_ids)}
    for i, v in enumerate(graph.node_ids):
        k = int(v.split("-")[1])  # ring-4 neighbours k-1 and k+1, wrapping
        neighbors = np.mean([row[node_name((k + s) % 4)] for s in (-1, 1)], axis=0)
        mixed = input_layer.self_weights @ row[v] + input_layer.neighbor_weights @ neighbors
        assert np.allclose(forward[i], unit_sigmoid(mixed), rtol=0, atol=1e-15)


def test_embedding_round_requires_matching_nodes():
    graph, states = ring_states()
    with pytest.raises(DimensionMismatchError):
        settle_rounds(graph, states[1:], dimension=3, rounds=2, seed=7)


def test_embed_graph_output_is_unit_norm():
    graph, states = ring_states(n=5)
    snapshots = settle_rounds(graph, states, dimension=4, rounds=3, seed=1)
    assert len(snapshots) == 3
    assert snapshots[-1].shape == (5, 4)
    for row in snapshots[-1]:
        assert abs(np.linalg.norm(row) - 1.0) < 1e-12


def test_identical_features_embed_identically_on_a_regular_graph():
    # full graph symmetry: every node sees the same self and neighborhood
    graph = build_topology(TopologyKind.FULLY_CONNECTED, 5)
    features = np.tile([0.5, 0.5, 1.0], (5, 1))
    result = settle_rounds(graph, features, dimension=4, rounds=2, seed=2)[-1]
    reference = result[0]
    for row in result:
        assert reference.tobytes() == row.tobytes()


@given(
    kind=st.sampled_from(list(TopologyKind)),
    n=st.integers(min_value=3, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32),
    data=st.data(),
)
def test_embedding_round_is_relabelling_equivariant(kind, n, seed, data):
    # row i of the relabelled problem is node perm[i]: permuting the states
    # and the neighbour table permutes the output rows the same way
    perm = np.array(data.draw(st.permutations(range(n))))
    graph = build_topology(kind, n)
    position = np.append(np.argsort(perm), n)  # the pad value n stays n
    relabelled = KnowledgeGraph(
        node_ids=[graph.node_ids[i] for i in perm],
        index=position[graph.index[perm]],
        degree=graph.degree[perm],
    )
    states = np.random.default_rng(seed).uniform(0.0, 1.0, (n, 3))
    layer, _ = init_layers(4, seed)
    expected = embedding_round(graph, states, layer)[perm]
    got = embedding_round(relabelled, states[perm], layer)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)


@given(
    n=st.integers(min_value=2, max_value=20),
    seed=st.integers(min_value=0, max_value=2**32),
    row=vectors3,
)
def test_uniform_input_stays_uniform_on_the_full_topology(n, seed, row):
    graph = build_topology(TopologyKind.FULLY_CONNECTED, n)
    input_layer, hidden_layer = init_layers(4, seed)
    states = np.tile(row, (n, 1))
    for layer in (input_layer, hidden_layer, hidden_layer):
        states = embedding_round(graph, states, layer)
        np.testing.assert_allclose(states, np.tile(states[0], (n, 1)), rtol=0, atol=1e-14)


def table_round(graph, states, layer):
    """The round with its neighbour sum taken one padded-table column at a time."""
    padded = np.vstack([states, np.zeros((1, states.shape[1]))])
    total = np.zeros_like(states)
    for column in graph.index.T:
        total += padded[column]
    mean = total / np.maximum(graph.degree, 1)[:, None]
    mixed = states @ layer.self_weights.T + mean @ layer.neighbor_weights.T
    activated = 1.0 / (1.0 + np.exp(-mixed))
    return activated / np.linalg.norm(activated, axis=1)[:, None]


@given(
    n=st.integers(min_value=1, max_value=30),
    density=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
@example(n=30, density=0.05, seed=1)  # sparse
@example(n=16, density=0.5, seed=2)  # dense, not complete
@example(n=16, density=1.0, seed=2)  # complete: the column sum less each row
def test_both_neighbour_sums_match_the_padded_table(n, density, seed):
    rng = np.random.default_rng(seed)
    pairs = np.column_stack(np.triu_indices(n, k=1))
    graph = graph_from_links(
        [node_name(i) for i in range(n)], pairs[rng.random(len(pairs)) < density]
    )
    states = rng.uniform(0.0, 1.0, (n, 3))
    layer = init_layer(3, 4, [seed])
    expected = table_round(graph, states, layer)
    got = embedding_round(graph, states, layer)
    if (graph.degree == n - 1).all():
        # a different sum order: the largest error seen was 3.3e-16
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
    else:
        assert got.tobytes() == expected.tobytes()


def test_receptive_field_is_bit_exact_on_two_joined_cliques():
    # two 6-cliques, a0..a5 and b0..b5, joined a0 - p0 - p1 - p2 - p3 - b0:
    # 16 nodes of degree at most 6: not complete, so the padded-table sum
    names = [f"{side}{i}" for side in "ab" for i in range(6)] + [f"p{i}" for i in range(4)]
    links = [(c + i, c + j) for c in (0, 6) for i in range(6) for j in range(i + 1, 6)]
    path = [0, 12, 13, 14, 15, 6]
    links += list(zip(path, path[1:]))
    graph = graph_from_links(names, links)
    assert graph.degree.max() == 6
    hops = {"a0": 1, "a2": 1, "a3": 1, "a4": 1, "a5": 1, "p0": 2, "p1": 3, "p2": 4, "p3": 5}
    hops.update({"b0": 6, **{f"b{i}": 7 for i in range(1, 6)}})  # from the target, a1
    base = np.random.default_rng(5).uniform(0.1, 1.0, (16, 3))
    target = graph.node_ids.index("a1")
    for rounds in (1, 2, 3):
        reference = settle_rounds(graph, base, 4, rounds, seed=8)[-1][target]
        for node_id, distance in hops.items():
            perturbed = base.copy()
            perturbed[graph.node_ids.index(node_id)] += 0.5
            moved = settle_rounds(graph, perturbed, 4, rounds, seed=8)[-1][target]
            if distance <= rounds:
                assert not np.array_equal(moved, reference), (rounds, node_id)
            else:
                assert moved.tobytes() == reference.tobytes(), (rounds, node_id)


def test_single_isolated_node_is_its_own_context():
    graph = graph_from_links(["solo"], [])
    (result,) = settle_rounds(graph, np.array([[0.2, 0.8, 1.0]]), dimension=3, rounds=1, seed=4)
    input_layer, _ = init_layers(3, 4)
    direct = unit_sigmoid(input_layer.self_weights @ np.array([0.2, 0.8, 1.0]))
    assert np.allclose(result[0], direct, rtol=0, atol=1e-15)


def test_embed_graph_rejects_bad_inputs():
    graph, states = ring_states()
    for bad in (np.zeros((0, 3)), np.zeros((4, 0)), states[0], states[None]):
        with pytest.raises(DimensionMismatchError):
            settle_rounds(graph, bad, dimension=4, rounds=2, seed=7)


def test_embedding_csv_round_trip(tmp_path):
    graph, states = ring_states(n=3)
    snapshots = settle_rounds(graph, states, dimension=2, rounds=2, seed=4)
    path = tmp_path / "emb.csv"
    write_embedding_csv(path, id_column(graph.node_ids), snapshots)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["node_id", "round", "e0", "e1"]
    assert len(rows) == 1 + 3 * 2
    for row in rows[1:]:
        snapshot = snapshots[int(row[1]) - 1]
        # .17g formatting must reproduce the doubles exactly
        assert [float(x) for x in row[2:]] == list(snapshot[graph.node_ids.index(row[0])])


def test_embedding_csv_quotes_ids_like_csv_writer(tmp_path):
    ids = ["plain", "a,b", 'say "hi"', "two\nlines", ""]
    snapshot = np.tile([0.1, -0.0, 1e-300], (len(ids), 1))
    path = tmp_path / "emb.csv"
    write_embedding_csv(path, id_column(ids), [snapshot], first_round=3)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["node_id", "round", "e0", "e1", "e2"])
    for v, values in zip(ids, snapshot):
        writer.writerow([v, 3] + [format(x, ".17g") for x in values])
    assert path.read_bytes() == expected.getvalue().encode()


def test_embedding_csv_rejects_empty(tmp_path):
    with pytest.raises(EmptyInputError):
        write_embedding_csv(tmp_path / "x.csv", id_column([]), [])


def test_embedding_csv_rejects_mismatched_snapshots_before_opening(tmp_path):
    ids = ["a", "b", "c"]
    path = tmp_path / "x.csv"
    cases = (
        [np.zeros((2, 4))],  # a row short
        [np.zeros((3, 4)), np.zeros((4, 4))],  # a row too many in round 2
        [np.zeros((3, 4)), np.zeros((3, 5))],  # a wider round 2
        [np.zeros(3)],
        [np.zeros((3, 0))],
    )
    for snapshots in cases:
        with pytest.raises(DimensionMismatchError, match="states have shape"):
            write_embedding_csv(path, id_column(ids), snapshots)
        assert not path.exists()


def python_rows(rows):
    """What format_rows must equal: Python's "%.17g" of every value, rows ended by CRLF."""
    return b"".join((",".join("%.17g" % v for v in row) + "\r\n").encode() for row in rows)


def bare_rows(values):
    """format_rows of values with an empty head and a CRLF tail."""
    values = np.asarray(values, dtype=np.float64)
    head = [text_block([""] * len(values))]
    return b"".join(format_rows(head, values, b",", [constant(b"\r\n")]))


fixed_notation = st.floats(min_value=1e-4, max_value=1e16, exclude_max=True)
any_float = st.one_of(st.floats(), fixed_notation, fixed_notation.map(lambda v: -v))


@given(
    st.integers(1, 8).flatmap(
        lambda c: st.lists(st.lists(any_float, min_size=c, max_size=c), min_size=1, max_size=6)
    )
)
@example([[0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308]])
@example([[1e-4, 0.1, 0.5, 1.0, 123.5, -0.25, 9999999999999998.0, 1e22, 2.0**-25]])
def test_csv_rows_match_python_17g(rows):
    assert bare_rows(rows) == python_rows(rows)


def test_csv_rows_round_17_digit_ties_half_to_even():
    # m / 2**e with m odd is exact in m * 5**e / 10**e; with 18 digits in
    # m * 5**e the 18th is a 5 and nothing follows, a tie at 17 digits
    ties, seventeenth = [], set()
    for e in range(2, 26):
        low = -(-(10**17) // 5**e) | 1
        for m in range(low, min(10**18 // 5**e, 2**53), 2)[:400]:
            digits = str(m * 5**e)
            assert len(digits) == 18 and digits[-1] == "5"
            ties.append(m / 2**e)
            if 1e-4 <= ties[-1] < 1e16:
                seventeenth.add(int(digits[16]) % 2)
    ties = np.array(ties)
    assert ((ties >= 1e-4) & (ties < 1e16)).sum() > 3000 and 2.0**-25 in ties
    assert seventeenth == {0, 1}  # ties round down to an even digit and up from an odd one
    ties = np.concatenate([ties, -ties])
    rows = ties[: len(ties) // 8 * 8].reshape(-1, 8)
    assert bare_rows(rows) == python_rows(rows.tolist())


def test_csv_rows_at_powers_of_ten_and_the_fixed_notation_edges():
    # the array path takes its exponent from comparisons with 0.1, 0.01 and
    # 0.001; the doubles either side of each power of ten test those edges
    powers = np.array([10.0**j for j in range(-6, 18)] + [1e-4, 1e16])
    values = np.concatenate(
        [powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), [9.99999999999999999e-5]]
    )
    values = np.concatenate([values, -values])
    rows = values.reshape(-1, 2)
    assert bare_rows(rows) == python_rows(rows.tolist())


sign = st.sampled_from([1.0, -1.0])
decades = st.integers(-7, 16).flatmap(lambda e: st.floats(10.0**e, 10.0 ** (e + 1)))
finite_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.tuples(sign, decades).map(lambda t: t[0] * t[1]),
    st.tuples(st.floats(0, 1e6), st.integers(0, 7)).map(lambda t: round(*t)),  # short decimals
    st.tuples(sign, st.integers(-60, 60)).map(lambda t: t[0] * 2.0 ** t[1]),
)


@given(values=st.lists(finite_values, min_size=1, max_size=24))
@example(values=[0.1, 1e-5, 9.999999999999999e-05, 1e16, 2.0**53, 0.125, 0.375, 1e21, 5e-324])
@example(values=[1.0, -1.0, 0.9999999999999999, 1.0000000000000002e-4])  # the array path's edges
def test_format_rows_writes_pythons_text(values):
    rows = np.array(values)[:, None]
    assert bare_rows(rows) == python_rows(rows.tolist())


def test_format_rows_writes_pythons_text_for_random_doubles_and_powers_of_two():
    # 17-digit values over 24 decades, a third of them negative
    rng = np.random.default_rng(17)
    values = rng.uniform(1, 10, 9600) * 10.0 ** rng.integers(-7, 17, 9600)
    values[::3] *= -1
    powers = [2.0**e for e in range(-24, 56)]  # every one in (1e-4, 1), and beyond
    rows = np.concatenate([values, powers]).reshape(-1, 8)
    assert bare_rows(rows) == python_rows(rows.tolist())


def per_row_embedding_csv(path, node_ids, snapshots, first_round=1):
    """write_embedding_csv as it was before csv_rows: one "%" format per row."""
    dimension = snapshots[0].shape[1]
    header = ["node_id", "round"] + [f"e{i}" for i in range(dimension)]
    row = "%s,%d," + ",".join(["%.17g"] * dimension) + "\r\n"
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        for round_index, snapshot in enumerate(snapshots, start=first_round):
            handle.writelines(
                row % (csv_field(node_id), round_index, *values)
                for node_id, values in zip(node_ids, snapshot.tolist(), strict=True)
            )


def per_row_projection_csv(path, labels, workloads, points):
    """write_projection_csv as it was before csv_rows."""
    with open(path, "w", newline="") as handle:
        handle.write("label,workload_pct,x,y\r\n")
        handle.writelines(
            "%s,%d,%.17g,%.17g\r\n" % (csv_field(label), workload, x, y)
            for label, workload, (x, y) in zip(labels, workloads, points.tolist())
        )


def awkward_values(rng, shape):
    """Signed values from 1e-8 to 1e18, with zeros: both the numpy and the Python path."""
    values = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 18, shape)
    values[rng.random(shape) < 0.05] = 0.0
    return values


ODD_IDS = [
    "plain", "a,b", 'say "hi"', "two\nlines", "", "nœud-é", "节点", "tab\there",
    "nul\0id", "del\x7fid",
]


def test_embedding_csv_bytes_equal_the_per_row_writer(tmp_path):
    rng = np.random.default_rng(5)
    n = CSV_CHUNK_ROWS + 90  # two chunks
    ids = [ODD_IDS[i % len(ODD_IDS)] + str(i) for i in range(n)]
    snapshots = [awkward_values(rng, (n, 3)) for _ in range(3)]
    snapshots.append(rng.uniform(0.2, 0.5, (n, 3)))
    # the same ids in ASCII as well
    ascii_ids = [node_id.encode("ascii", "backslashreplace").decode() for node_id in ids]
    for node_ids in (ids, ascii_ids):
        write_embedding_csv(tmp_path / "new.csv", id_column(node_ids), snapshots, first_round=4)
        per_row_embedding_csv(tmp_path / "old.csv", node_ids, snapshots, first_round=4)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_projection_csv_bytes_equal_the_per_row_writer(tmp_path):
    result = run_drift(DriftConfig(topology=TopologyKind.RING, nodes=5))
    rows = len(result.projection_labels)
    rng = np.random.default_rng(6)
    labels = [ODD_IDS[i % len(ODD_IDS)] for i in range(rows)]
    workloads = list(range(rows))
    for projection in (result.projection, awkward_values(rng, (rows, 2))):
        changed = dataclasses.replace(
            result, projection_labels=labels, projection_workloads=workloads, projection=projection
        )
        write_projection_csv(tmp_path / "new.csv", changed)
        per_row_projection_csv(tmp_path / "old.csv", labels, workloads, projection)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_embedding_csv_memory_peak_at_3000_by_8(tmp_path):
    # the per-row writer peaked at 0.93 MiB of traced heap here, most of it
    # the snapshot as Python floats; the file itself is 0.5 MB
    ids = [node_name(i) for i in range(3000)]
    states = np.random.default_rng(7).uniform(0.2, 0.5, (3000, 8))
    tracemalloc.start()
    try:
        write_embedding_csv(tmp_path / "big.csv", id_column(ids), [states])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.93 * 2**20
