"""Sharing-loop convergence and Knowledge Map serialization tests."""

import json
import re

import numpy as np
import pytest

from knowmap.embedding import embedding_round, id_column, init_layers
from knowmap.errors import (
    DimensionMismatchError,
    EmptyInputError,
    InvalidConfigError,
    NonFiniteValueError,
)
from knowmap.features import feature_vector, features_at
from knowmap.graph import TopologyKind, build_topology, node_name
from knowmap.sharing import (
    KnowledgeMap,
    check_tolerance,
    run_sharing,
    states_delta,
    write_knowledge_map_csv,
    write_knowledge_map_json,
)


# The stopping rule of the runs below that are meant to converge.
MAX_ROUNDS = 50
TOLERANCE = 1e-6


def ring_setup(n=5, dim=4, seed=3):
    graph = build_topology(TopologyKind.RING, n)
    input_layer, hidden_layer = init_layers(dim, seed)
    raw = np.random.default_rng(0).uniform(0.1, 1.0, (n, 3))
    states = embedding_round(graph, raw, input_layer)
    return graph, states, hidden_layer


def test_sharing_config_validation():
    graph, states, layer = ring_setup()
    assert run_sharing(graph, states, layer, np.int64(0), 0.0).rounds_used == 0
    with pytest.raises(InvalidConfigError, match="tolerance must be >= 0"):
        check_tolerance(-1e-9)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidConfigError, match="tolerance must be finite"):
            check_tolerance(bad)


def test_states_delta_is_max_movement():
    before = np.array([[0.0, 0.0], [1.0, 0.0]])
    after = np.array([[3.0, 4.0], [1.0, 1.0]])
    assert states_delta(before, after) == 5.0


def test_zero_tolerance_runs_exactly_max_rounds():
    graph, states, layer = ring_setup()
    result = run_sharing(graph, states, layer, 5, 0.0)
    assert result.rounds_used == 5
    assert not result.converged
    assert result.final_delta > 0.0


def test_zero_max_rounds_returns_input():
    graph, states, layer = ring_setup()
    result = run_sharing(graph, states, layer, 0, 0.0)
    assert result.rounds_used == 0
    assert result.final_delta == 0.0
    assert result.node_ids is graph.node_ids
    assert np.array_equal(result.states, states)


def test_sharing_converges_on_uniform_ring():
    # the sigmoid layer is a contraction here, so the default tolerance
    # is reached well before the round cap
    graph, states, layer = ring_setup()
    result = run_sharing(graph, states, layer, MAX_ROUNDS, TOLERANCE)
    assert result.converged
    assert result.rounds_used < MAX_ROUNDS
    assert result.final_delta < TOLERANCE
    assert np.all(np.abs(np.linalg.norm(result.states, axis=1) - 1.0) < 1e-12)


def test_one_round_equals_direct_layer_application():
    graph, states, layer = ring_setup()
    result = run_sharing(graph, states, layer, 1, 0.0)
    direct = embedding_round(graph, states, layer)
    assert np.array_equal(result.states, direct)


def test_sharing_is_deterministic():
    graph, states, layer = ring_setup()
    a = run_sharing(graph, states, layer, MAX_ROUNDS, TOLERANCE)
    b = run_sharing(graph, states, layer, MAX_ROUNDS, TOLERANCE)
    assert a.rounds_used == b.rounds_used
    assert a.final_delta == b.final_delta
    assert a.states.tobytes() == b.states.tobytes()


def test_uniform_features_collapse_is_avoided_by_normalization():
    # identical inputs give identical (not zero) embeddings on a regular graph
    graph = build_topology(TopologyKind.RING, 5)
    vectors = np.array([feature_vector(features_at(50))] * 5)
    input_layer, hidden_layer = init_layers(4, 2)
    states = embedding_round(graph, vectors, input_layer)
    result = run_sharing(graph, states, hidden_layer, MAX_ROUNDS, TOLERANCE)
    reference = result.states[graph.node_ids.index("node-0")]
    assert np.linalg.norm(reference) > 0.0
    for row in result.states:
        assert np.allclose(row, reference)


def test_knowledge_map_dict_shape(tmp_path):
    # ids out of order and needing escapes; entries come out sorted by id
    ids = ["b", "a", 'q"\\\n', "é"]
    states = np.array([[1.0, 0.0], [0.0, 1.0], [0.1, -2.5e-300], [1e16, -0.0]])
    kmap = KnowledgeMap(
        node_ids=ids, states=states, rounds_used=3, converged=True, final_delta=1e-8
    )
    path = tmp_path / "map.json"
    write_knowledge_map_json(path, kmap)
    text = path.read_text()
    data = json.loads(text)
    assert data["round"] == 3
    assert data["converged"] is True
    assert data["final_delta"] == 1e-8
    assert list(data["entries"]) == sorted(ids)
    assert data["entries"]["b"] == [1.0, 0.0]
    # Entry values are written "%.17g", as in the CSVs, so the synthetic 1.0,
    # 0.0, 1e16 and -0.0 here read back as the JSON integers 1, 0,
    # 10000000000000000 and 0.  No drift run writes them: at dimension >= 2
    # every entry is in (0, 1).
    assert data["entries"]["é"] == [10**16, 0] and type(data["entries"]["é"][0]) is int
    # byte for byte what json.dump writes of the same dict, with each entry
    # value's "%.17g" text dumped as a string and then unquoted
    reference = {
        "round": 3,
        "converged": True,
        "final_delta": 1e-8,
        "entries": {i: ["%.17g" % v for v in row] for i, row in zip(ids, states.tolist())},
    }
    dumped = json.dumps(reference, indent=2, sort_keys=True) + "\n"
    assert text == re.sub(r'^( {6})"(.*)"', r"\1\2", dumped, flags=re.M)


def test_knowledge_map_json_rejects_states_with_no_column(tmp_path):
    # json.dump would write "a": [], which no row of values can give
    kmap = KnowledgeMap(["a", "b"], np.zeros((2, 0)), 1, True, 0.0)
    path = tmp_path / "map.json"
    with pytest.raises(DimensionMismatchError, match="no column"):
        write_knowledge_map_json(path, kmap)
    assert not path.exists()


def test_knowledge_map_json_rejects_non_finite_values(tmp_path):
    graph, states, layer = ring_setup()
    result = run_sharing(graph, states, layer, MAX_ROUNDS, TOLERANCE)
    bad_states = result.states.copy()
    bad_states[0, 0] = np.nan
    for bad in (
        KnowledgeMap(result.node_ids, bad_states, 1, False, 0.5),
        KnowledgeMap(result.node_ids, result.states, 1, False, np.inf),
    ):
        with pytest.raises(NonFiniteValueError, match="must be finite"):
            write_knowledge_map_json(tmp_path / "map.json", bad)


def test_knowledge_map_json_is_reproducible(tmp_path):
    graph, states, layer = ring_setup()
    result = run_sharing(graph, states, layer, MAX_ROUNDS, TOLERANCE)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_knowledge_map_json(a, result)
    write_knowledge_map_json(b, result)
    assert a.read_bytes() == b.read_bytes()
    parsed = json.loads(a.read_text())
    assert set(parsed) == {"round", "converged", "final_delta", "entries"}
    row = graph.node_ids.index("node-0")
    assert parsed["entries"]["node-0"] == [float(x) for x in result.states[row]]


def test_information_spreads_one_hop_per_round():
    # a single divergent node on a line contaminates exactly one extra
    # neighbour per synchronous round; everything farther is bit-identical
    graph = build_topology(TopologyKind.LINE, 7)
    _, hidden_layer = init_layers(8, 5)
    dim = hidden_layer.in_dim
    base = np.linspace(0.2, 0.9, dim)
    odd = np.linspace(0.9, 0.2, dim)
    uniform = np.tile(base / np.linalg.norm(base), (7, 1))
    seeded = uniform.copy()
    seeded[graph.node_ids.index(node_name(0))] = odd / np.linalg.norm(odd)
    for rounds in range(1, 5):
        plain, touched = uniform, seeded
        for _ in range(rounds):
            plain = embedding_round(graph, plain, hidden_layer)
            touched = embedding_round(graph, touched, hidden_layer)
        differing = sorted(
            v for v, p, t in zip(graph.node_ids, plain, touched) if p.tobytes() != t.tobytes()
        )
        assert differing == [node_name(i) for i in range(rounds + 1)]


def test_write_knowledge_map_csv_layout(tmp_path):
    kmap = KnowledgeMap(
        node_ids=["node-0", "node-1"],
        states=np.array([[1.0 / 3.0, 2.0 / 3.0], [0.25, 0.5]]),
        rounds_used=4,
        converged=True,
        final_delta=0.0,
    )
    path = tmp_path / "map.csv"
    write_knowledge_map_csv(path, kmap, id_column(kmap.node_ids))
    lines = path.read_text().splitlines()
    assert lines[0] == "node_id,round,e0,e1"
    assert lines[1].startswith("node-0,4,")
    assert lines[2].startswith("node-1,4,")
    cells = lines[1].split(",")
    assert float(cells[2]) == 1.0 / 3.0
    assert float(cells[3]) == 2.0 / 3.0


def test_write_knowledge_map_csv_rejects_empty(tmp_path):
    kmap = KnowledgeMap(
        node_ids=[], states=np.zeros((0, 2)), rounds_used=0, converged=False, final_delta=0.0
    )
    with pytest.raises(EmptyInputError):
        write_knowledge_map_csv(tmp_path / "map.csv", kmap, id_column(kmap.node_ids))
