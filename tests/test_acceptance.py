"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS line with its measured margins once its
assertions hold, so a run's tail reads as a checklist.
"""

import itertools
import math
import time

import numpy as np
from test_graph import graph_from_links

from knowmap.cli import main
from knowmap.drift import DriftConfig, run_drift, settle
from knowmap.embedding import init_layers
from knowmap.graph import TopologyKind, build_topology, node_name
from knowmap.pca import fit_pca, transform

ALL_TOPOLOGIES = (TopologyKind.RING, TopologyKind.FULLY_CONNECTED, TopologyKind.LINE)
SWEEP_SIZES = (5, 10, 20)
SEEDS = (42, 43, 44, 45, 46)


def announce(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


def baseline_spread(result):
    rows = result.baseline_map.states
    centroid = rows.mean(axis=0)
    return float(np.mean(np.linalg.norm(rows - centroid, axis=1)))


def adjacent_inversions(values, rising, tolerance=1e-9):
    if rising:
        return sum(1 for a, b in zip(values, values[1:]) if b < a - tolerance)
    return sum(1 for a, b in zip(values, values[1:]) if b > a + tolerance)


def test_ac1_fully_connected_u_shape(capsys):
    """Seed-averaged distance curve is U-shaped on the fully connected net."""
    worst_inversions = 0
    worst_elapsed = 0.0
    for n in (10, 20):
        start = time.perf_counter()
        curves = []
        sweep = None
        for seed in SEEDS:
            result = run_drift(
                DriftConfig(topology=TopologyKind.FULLY_CONNECTED, nodes=n, seed=seed)
            )
            curves.append(result.centroid_distances)
            sweep = list(result.config.sweep)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"n={n} took {elapsed:.1f}s"
        mean = np.mean(curves, axis=0)
        mid = sweep.index(50)
        assert sweep[int(np.argmin(mean))] == 50, f"n={n} minimum not at 50"
        left = adjacent_inversions(list(mean[: mid + 1]), rising=False)
        right = adjacent_inversions(list(mean[mid:]), rising=True)
        assert left <= 1, f"n={n}: {left} inversions on the falling side"
        assert right <= 1, f"n={n}: {right} inversions on the rising side"
        worst_inversions = max(worst_inversions, left, right)
        worst_elapsed = max(worst_elapsed, elapsed)
    announce(
        capsys,
        f"AC1 PASS: U shape, min at 50, worst inversions/side "
        f"{worst_inversions}, slowest config {worst_elapsed:.2f}s",
    )


def test_ac2_baseline_stabilization(capsys):
    """At 50% the target blends in; at the extremes it clearly stands out."""
    worst_mid = 0.0
    worst_ends = math.inf
    for kind, n in itertools.product(ALL_TOPOLOGIES, SWEEP_SIZES):
        result = run_drift(DriftConfig(topology=kind, nodes=n))
        threshold = 3.0 * baseline_spread(result)
        sweep = list(result.config.sweep)
        d_mid = result.centroid_distances[sweep.index(50)]
        d_lo = result.centroid_distances[sweep.index(0)]
        d_hi = result.centroid_distances[sweep.index(100)]
        assert d_mid <= threshold, f"{kind.value} n={n}: 50% step escapes the cluster"
        assert d_lo > threshold, f"{kind.value} n={n}: 0% step not separated"
        assert d_hi > threshold, f"{kind.value} n={n}: 100% step not separated"
        worst_mid = max(worst_mid, d_mid / threshold)
        worst_ends = min(worst_ends, d_lo / threshold, d_hi / threshold)
    announce(
        capsys,
        f"AC2 PASS: 3x spread rule on 9 configs, mid <= {worst_mid:.2f}x, "
        f"ends >= {worst_ends:.1f}x threshold",
    )


def test_ac3_topology_dependence(capsys):
    """The three topologies produce pairwise distinct distance curves."""
    curves = {
        kind: np.array(
            run_drift(DriftConfig(topology=kind, nodes=10)).centroid_distances
        )
        for kind in ALL_TOPOLOGIES
    }
    smallest = math.inf
    for a, b in itertools.combinations(ALL_TOPOLOGIES, 2):
        diff = float(np.max(np.abs(curves[a] - curves[b])))
        assert diff > 1e-6, f"{a.value} vs {b.value} differ by only {diff:.2e}"
        smallest = min(smallest, diff)
    announce(
        capsys,
        f"AC3 PASS: pairwise curve differences >= {smallest:.2e} (needed > 1e-06)",
    )


def all_graphs_up_to_four_nodes():
    """Every labelled graph on 1..4 nodes, with the links it was built from."""
    graphs = []
    for n in range(1, 5):
        names = [node_name(i) for i in range(n)]
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(2 ** len(pairs)):
            chosen = [pair for bit, pair in enumerate(pairs) if mask >> bit & 1]
            neighbors = {v: [] for v in names}
            for a, b in chosen:
                neighbors[names[a]].append(names[b])
                neighbors[names[b]].append(names[a])
            graphs.append((graph_from_links(names, chosen), neighbors))
    return graphs


def oracle_embed(neighbors, vectors, layers, rounds):
    """Explicit-loop re-computation of the embedding pipeline, no numpy.

    neighbors maps each node id to its neighbours' ids, taken from the links
    the graph was built from, not from the graph under test.
    """
    states = {v: [float(x) for x in vectors[v]] for v in vectors}
    for round_index in range(rounds):
        self_w, nbr_w = layers[0] if round_index == 0 else layers[1]
        updated = {}
        for v in neighbors:
            x = states[v]
            nbrs = [states[u] for u in neighbors[v]]
            mixed = []
            for i in range(len(self_w)):
                acc = 0.0
                for j in range(len(x)):
                    acc += self_w[i][j] * x[j]
                if nbrs:
                    for j in range(len(nbrs[0])):
                        mean_j = sum(nb[j] for nb in nbrs) / len(nbrs)
                        acc += nbr_w[i][j] * mean_j
                mixed.append(acc)
            activated = [1.0 / (1.0 + math.exp(-m)) for m in mixed]
            norm = math.sqrt(sum(a * a for a in activated))
            updated[v] = [a / norm for a in activated]
        states = updated
    return states


def test_ac4_embedding_oracle_equivalence(capsys):
    """settle, the loop run_drift runs, agrees with an explicit-loop oracle on small graphs."""
    graphs = all_graphs_up_to_four_nodes()
    assert len(graphs) == 75  # 1 + 2 + 8 + 64 labeled graphs on 1..4 nodes
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(100):
        graph, neighbors = graphs[trial % len(graphs)]
        rounds = 1 + trial % 2
        input_layer, hidden_layer = init_layers(4, trial)
        vectors = {v: rng.uniform(0.1, 1.0, 3) for v in neighbors}
        features = np.array([vectors[v] for v in graph.node_ids])
        got = settle(graph, features, (input_layer, hidden_layer), rounds, 0.0).states
        layers = (
            (input_layer.self_weights.tolist(), input_layer.neighbor_weights.tolist()),
            (hidden_layer.self_weights.tolist(), hidden_layer.neighbor_weights.tolist()),
        )
        expected = oracle_embed(neighbors, vectors, layers, rounds)
        for row, v in enumerate(graph.node_ids):
            err = float(np.max(np.abs(got[row] - np.array(expected[v]))))
            worst = max(worst, err)
            assert err < 1e-12, f"trial {trial} node {v}: error {err:.2e}"
    announce(
        capsys,
        f"AC4 PASS: 100 assignments over 75 graphs, max |error| {worst:.2e} "
        f"(needed < 1e-12)",
    )


def test_ac5_receptive_field(capsys):
    """After L rounds, only nodes within L hops can move a node's embedding."""
    graph = build_topology(TopologyKind.LINE, 10)
    rng = np.random.default_rng(5)
    base = np.array([rng.uniform(0.1, 1.0, 3) for _ in graph.node_ids])
    target = graph.node_ids.index(node_name(0))
    for rounds in (1, 2, 3):
        layers = init_layers(4, 8)
        reference = settle(graph, base, layers, rounds, 0.0).states[target]
        for distance in range(1, 10):
            perturbed = base.copy()
            perturbed[graph.node_ids.index(node_name(distance))] += 0.5
            moved = settle(graph, perturbed, layers, rounds, 0.0).states[target]
            if distance <= rounds:
                assert not np.array_equal(moved, reference), (
                    f"L={rounds}: perturbation at distance {distance} had no effect"
                )
            else:
                assert moved.tobytes() == reference.tobytes(), (
                    f"L={rounds}: influence leaked beyond distance {distance}"
                )
    announce(
        capsys,
        "AC5 PASS: line-10 influence boundary bit-exact at hops 1..9 for "
        "L in {1,2,3}",
    )


def test_ac6_pca_oracle(capsys):
    """fit_pca matches an independent eigensolver on 100 random matrices."""
    rng = np.random.default_rng(123)
    worst_val, worst_vec, worst_ortho, worst_var = 0.0, 0.0, 0.0, 0.0
    for _ in range(100):
        data = rng.normal(size=(20, 8))
        model = fit_pca(data, components=2)
        centered = data - data.mean(axis=0)
        covariance = centered.T @ centered / (data.shape[0] - 1)
        ref_values, ref_vectors = np.linalg.eigh(covariance)
        top_values = ref_values[::-1][:2]
        worst_val = max(worst_val, float(np.max(np.abs(model.explained_variance - top_values))))
        for i in range(2):
            axis, ref = model.components[i], ref_vectors[:, ::-1][:, i]
            worst_vec = max(
                worst_vec,
                min(float(np.linalg.norm(axis - ref)), float(np.linalg.norm(axis + ref))),
            )
        gram = model.components @ model.components.T
        worst_ortho = max(worst_ortho, float(np.max(np.abs(gram - np.eye(2)))))
        projected = transform(model, data)
        worst_var = max(
            worst_var,
            abs(float(np.var(projected[:, 0], ddof=1)) - float(model.explained_variance[0])),
        )
    assert worst_val < 1e-8
    assert worst_vec < 1e-8
    assert worst_ortho < 1e-9
    assert worst_var < 1e-8
    announce(
        capsys,
        f"AC6 PASS: eigenvalue err {worst_val:.1e}, axis err {worst_vec:.1e}, "
        f"orthonormality {worst_ortho:.1e}, variance err {worst_var:.1e}",
    )


def drift_flags(kind, n, out_dir):
    return [
        "drift",
        "--topology",
        kind.value,
        "--nodes",
        str(n),
        "--out",
        str(out_dir),
    ]


REQUIRED_ARTIFACTS = ("metrics.json", "projection.csv", "knowledge_map.json", "trajectory.svg")


def test_ac7_cli_determinism(tmp_path, capsys):
    """Two identical drift invocations write byte-identical artifacts."""
    checked = 0
    for kind, n in itertools.product(ALL_TOPOLOGIES, SWEEP_SIZES):
        first = tmp_path / f"{kind.value}-{n}-a"
        second = tmp_path / f"{kind.value}-{n}-b"
        assert main(drift_flags(kind, n, first)) == 0
        assert main(drift_flags(kind, n, second)) == 0
        names = sorted(p.name for p in first.iterdir())
        assert sorted(p.name for p in second.iterdir()) == names
        assert set(REQUIRED_ARTIFACTS) <= set(names)
        for name in names:
            a = (first / name).read_bytes()
            b = (second / name).read_bytes()
            assert a == b, f"{kind.value} n={n}: {name} differs between runs"
            checked += 1
    announce(
        capsys,
        f"AC7 PASS: {checked} artifact pairs byte-identical across 9 configurations",
    )


def test_ac8_sweep_scale(tmp_path, capsys):
    """The full 9-configuration sweep finishes well inside two minutes."""
    start = time.perf_counter()
    for kind, n in itertools.product(ALL_TOPOLOGIES, SWEEP_SIZES):
        out = tmp_path / f"{kind.value}-{n}"
        assert main(drift_flags(kind, n, out)) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"
    announce(capsys, f"AC8 PASS: 9-configuration sweep in {elapsed:.2f}s (< 120s)")
