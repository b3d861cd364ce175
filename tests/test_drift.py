"""Drift experiment harness tests: protocol, metrics, and exports."""

import dataclasses
import functools
import itertools
import json
import math
import re

import numpy as np
import pytest

import knowmap.drift
import knowmap.embedding
from knowmap.drift import (
    DRAW_COLUMNS,
    MAX_DIMENSION,
    MAX_ROUNDS,
    MAX_RUN_BYTES,
    NODE_BYTES,
    METRICS_FILE,
    SCRATCH_STATES,
    SWEEP,
    DriftConfig,
    TrajectoryMetrics,
    draw_steps,
    export_result,
    run_drift,
    settle,
    trajectory_metrics,
    write_metrics_json,
    write_projection_csv,
)
from knowmap.errors import InvalidConfigError, KnowmapError
from knowmap.embedding import init_layers
from knowmap.features import node_keys
from knowmap.graph import TopologyKind, build_topology, node_name
from knowmap.sharing import check_tolerance


def test_default_sweep_covers_the_decade_grid():
    assert SWEEP == (0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
    # the sweep is fixed: every config reads it, and none can set it
    assert DriftConfig.sweep == DriftConfig(nodes=5).sweep == SWEEP
    assert len(dataclasses.fields(DriftConfig)) == 9
    with pytest.raises(TypeError):
        DriftConfig(sweep=(0, 50, 100))


# an 11-step curve over SWEEP, lowest at the baseline 50
U_SHAPE = [6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def test_metrics_clean_u_shape():
    m = trajectory_metrics(U_SHAPE, 50)
    assert m == TrajectoryMetrics(50, True, True)


def test_metrics_minimum_tie_takes_lower_workload():
    m = trajectory_metrics([6.0, 5.0, 4.0, 3.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 50)
    assert m.min_distance_workload == 40


def test_metrics_flags_left_inversion():
    m = trajectory_metrics([6.0, 5.0, 4.0, 3.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 50)
    assert not m.left_monotone
    assert m.right_monotone


def test_metrics_flags_right_inversion():
    m = trajectory_metrics([6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 2.0, 3.0, 2.5, 5.0, 6.0], 50)
    assert m.left_monotone
    assert not m.right_monotone


def test_metrics_tolerates_float_noise():
    # a 1e-12 wiggle must not count as an inversion
    m = trajectory_metrics([6.0, 5.0, 4.0, 3.0, 1.0, 1.0 + 1e-12, 2.0, 3.0, 4.0, 5.0, 6.0], 50)
    assert m.left_monotone


# Every refused value raises InvalidConfigError, still the ValueError older callers catch, at
# construction, before any layer, graph or round history is allocated: a value of the wrong type
# (a bool is not read as 0 or 1), NaN or infinite, or out of range.  Each row holds the whole
# message; the refused value ends it, after "got", in all but the topology's.
DIMENSION = f"dimension must be an integer >= 1 and <= {MAX_DIMENSION}, got {{!r}}"
ROUNDS = f"rounds must be an integer >= 1 and <= {MAX_ROUNDS}, got {{!r}}"
TARGET = "target must be a node id node-0 .. node-4, got {!r}"


def refused(message, id=None, **kwargs):
    """A row: DriftConfig(**kwargs), and message with the last value of kwargs filled in."""
    *_, value = kwargs.values()
    row_id = id or "-".join(f"{field}={given!r}" for field, given in kwargs.items())
    return pytest.param(kwargs, message.format(value), id=row_id)


REFUSED_CONFIGS = [
    *(refused(DIMENSION, dimension=v) for v in (0, -1, 2.0, True, "2", MAX_DIMENSION + 1, 10**5)),
    *(refused(ROUNDS, rounds=v)
      for v in (0, -1, 2.0, True, "2", np.float64(2.0), MAX_ROUNDS + 1, 10**9)),
    # the default ring needs three nodes
    *(refused("nodes must be an integer >= 3, got {!r}", nodes=v) for v in (5.0, True, "5", 2)),
    # a full or line graph needs two: no run compares an empty pair of state matrices
    *(refused("nodes must be an integer >= 2, got {!r}", f"topology={kind.value}-nodes=1",
              topology=kind, nodes=1)
      for kind in (TopologyKind.FULLY_CONNECTED, TopologyKind.LINE)),
    *(refused("seed must be a non-negative integer, got {!r}", seed=v) for v in (-1, 2.5, "7")),
    *(refused("workload must be an integer multiple of 10 in [0, 100], got {!r}",
              baseline_workload=v) for v in (55, True, 50.0)),
    *(refused("fluctuation magnitude must be in [0, 0.1), got {!r}", fluctuation=v)
      for v in (0.1, "0.02", None, True, False)),
    refused("tolerance must be >= 0, got {!r}", sharing_tolerance=-1e-9),
    *(refused("tolerance must be finite, got {!r}", sharing_tolerance=v)
      for v in (math.nan, math.inf)),
    *(refused("tolerance must be a real number, got {!r}", sharing_tolerance=v)
      for v in ("0.02", None, True, False)),
    *(refused("topology {!r} is not a TopologyKind (ring, full or line)", nodes=5, topology=v)
      for v in ("ring", None, 0)),
    # "node-\u0663" holds a decimal digit, but not the ASCII one node_name writes
    *(refused(TARGET, nodes=5, target=v)
      for v in (None, 3, "", "x", "node-05", "node-5", "node--1", "node-\u0663")),
    # too many digits for int(): rejected before it is parsed
    refused(TARGET, nodes=5, target="node-" + "9" * 5000, id="nodes=5-target=node-9x5000"),
    # rejected with no graph and no list of names built
    refused("target must be a node id node-0 .. node-3999999, got {!r}",
            nodes=4_000_000, target="node-05"),
]


@pytest.mark.parametrize("kwargs, message", REFUSED_CONFIGS)
def test_config_rejects_a_bad_value(kwargs, message):
    with pytest.raises(InvalidConfigError, match=f"^{re.escape(message)}$") as raised:
        DriftConfig(**kwargs)
    assert isinstance(raised.value, ValueError)


def test_config_validation():
    with pytest.raises(InvalidConfigError, match="integer multiple of 10 in .*, got 55"):
        DriftConfig(baseline_workload=55)
    with pytest.raises(InvalidConfigError, match=r"magnitude must be in \[0, 0.1\), got 0.1"):
        DriftConfig(fluctuation=0.1)
    for bad in (True, 50.0):
        with pytest.raises(InvalidConfigError, match="integer multiple of 10"):
            DriftConfig(baseline_workload=bad)
    with pytest.raises(InvalidConfigError, match="rounds must be an integer >= 1"):
        DriftConfig(rounds=0)
    with pytest.raises(InvalidConfigError, match="dimension must be an integer >= 1"):
        DriftConfig(dimension=0)
    with pytest.raises(InvalidConfigError, match="tolerance must be >= 0"):
        DriftConfig(sharing_tolerance=-1e-9)


@pytest.mark.parametrize(
    "build",
    [
        lambda: DriftConfig(baseline_workload=55),
        lambda: check_tolerance(-1.0),
    ],
    ids=["baseline-55", "negative-tolerance"],
)
def test_config_range_errors_are_typed(build):
    # a KnowmapError, and still the ValueError older callers catch
    with pytest.raises(InvalidConfigError) as caught:
        build()
    assert isinstance(caught.value, KnowmapError) and isinstance(caught.value, ValueError)


# the most nodes a run of dimension 8 and 16 rounds may have
LARGEST_D8_R16 = MAX_RUN_BYTES // (8 * 8 * (16 + SCRATCH_STATES) + NODE_BYTES)


def test_config_accepts_the_largest_sizes():
    config = DriftConfig(dimension=MAX_DIMENSION, rounds=MAX_ROUNDS)
    assert (config.dimension, config.rounds) == (1024, 1000)
    assert DriftConfig(dimension=np.int64(3), rounds=np.int32(2)).rounds == 2
    assert MAX_RUN_BYTES == 2**32
    DriftConfig(nodes=LARGEST_D8_R16, dimension=8, rounds=16)


@pytest.mark.parametrize(
    "sizes",
    [
        dict(nodes=5_000_000, dimension=1024),  # 41 GB a state matrix
        dict(nodes=1000, dimension=1024, rounds=1000),  # knowmap embed keeps every round
        dict(nodes=LARGEST_D8_R16 + 1, dimension=8, rounds=16),
        dict(nodes=2_000_000, dimension=11),  # run_drift keeps 1 + len(SWEEP) maps at any rounds
        dict(nodes=5_000_000),  # 4.8e8 state values: 6.5 GB resident when only those were bounded
    ],
)
def test_config_rejects_more_state_values_than_max(sizes):
    # rejected at construction: nothing of the absurd size is allocated
    with pytest.raises(InvalidConfigError, match="MAX_RUN_BYTES") as raised:
        DriftConfig(**sizes)
    for field, value in sizes.items():
        assert f"{field}={value}" in str(raised.value)


def test_numpy_integer_sizes_export_like_python_ints(tmp_path):
    plain = run_drift(DriftConfig(nodes=5, dimension=4, rounds=3))
    numpy = run_drift(DriftConfig(nodes=np.int64(5), dimension=np.int32(4), rounds=np.int64(3)))
    first, second = export_result(plain, tmp_path / "a"), export_result(numpy, tmp_path / "b")
    for left, right in zip(first, second, strict=True):
        assert left.name == right.name
        assert left.read_bytes() == right.read_bytes(), left.name
    assert json.loads((tmp_path / "b" / METRICS_FILE).read_text())["n"] == 5


def test_run_rejects_bad_graph_or_target():
    # both are refused by the config, before any graph is built
    with pytest.raises(InvalidConfigError, match="nodes must be an integer >= 3, got 2"):
        run_drift(DriftConfig(topology=TopologyKind.RING, nodes=2))
    with pytest.raises(InvalidConfigError, match="target must be a node id node-0 .. node-4"):
        run_drift(DriftConfig(nodes=5, target="node-9"))


@pytest.mark.parametrize(
    "nodes, target", [(5, "node-0"), (5, "node-4"), (10, "node-9"), (12, "node-11")]
)
def test_config_accepts_a_node_id_as_target(nodes, target):
    assert DriftConfig(nodes=nodes, target=target).target == target


def quick_config(**overrides):
    defaults = dict(topology=TopologyKind.RING, nodes=5)
    defaults.update(overrides)
    return DriftConfig(**defaults)


def test_run_shapes_and_defaults():
    result = run_drift(quick_config())
    assert result.config.target == "node-0"
    assert len(result.centroid_distances) == len(SWEEP)
    assert len(result.step_maps) == len(SWEEP)
    assert result.projection.shape == (5 + len(SWEEP), 2)
    # one input round plus one sharing round per step at the default depth
    assert [m.rounds_used for m in result.step_maps] == [2] * len(SWEEP)
    assert result.projection_labels[:5] == [f"baseline:node-{i}" for i in range(5)]
    assert result.projection_labels[5:] == ["target:node-0"] * len(SWEEP)
    assert result.projection_workloads == [50] * 5 + list(SWEEP)


def test_run_is_deterministic():
    a = run_drift(quick_config())
    b = run_drift(quick_config())
    assert a.centroid_distances == b.centroid_distances
    assert a.projection.tobytes() == b.projection.tobytes()
    assert np.array_equal(a.baseline_map.states, b.baseline_map.states)


def test_seed_changes_the_run():
    a = run_drift(quick_config(seed=42))
    b = run_drift(quick_config(seed=43))
    assert a.centroid_distances != b.centroid_distances


def test_explicit_target_is_honored():
    result = run_drift(quick_config(target="node-3"))
    assert result.config.target == "node-3"
    assert result.projection_labels[-1] == "target:node-3"


def test_distance_is_small_only_at_the_baseline_step():
    result = run_drift(quick_config())
    sweep = list(result.config.sweep)
    at_baseline = result.centroid_distances[sweep.index(50)]
    assert at_baseline == min(result.centroid_distances)
    assert result.centroid_distances[sweep.index(0)] > 10 * at_baseline
    assert result.centroid_distances[sweep.index(100)] > 10 * at_baseline


@pytest.mark.parametrize("seed", [0, 1, 42])
@pytest.mark.parametrize(
    "topology, nodes",
    [(TopologyKind.RING, 3), (TopologyKind.FULLY_CONNECTED, 2), (TopologyKind.LINE, 2)],
)
def test_smallest_graphs_project_onto_two_spread_axes(topology, nodes, seed):
    # without jitter the peers are identical, yet the sweep's 0 and 100 keep the rows apart
    result = run_drift(DriftConfig(topology=topology, nodes=nodes, seed=seed, fluctuation=0.0))
    assert result.projection.shape == (nodes + len(SWEEP), 2)
    assert np.all(np.ptp(result.projection, axis=0) > 0.0)


def test_zero_fluctuation_still_separates_the_sweep():
    # identical peers collapse the baseline step to rounding noise
    result = run_drift(quick_config(fluctuation=0.0))
    sweep = list(result.config.sweep)
    assert result.centroid_distances[sweep.index(50)] < 1e-12
    assert result.centroid_distances[sweep.index(0)] > 1e-3


def test_sharing_tolerance_can_stop_deep_runs_early():
    deep = run_drift(quick_config(rounds=30, sharing_tolerance=1e-3))
    assert max(m.rounds_used for m in deep.step_maps) < 30


def test_metrics_json_content(tmp_path):
    result = run_drift(quick_config())
    path = tmp_path / "metrics.json"
    write_metrics_json(path, result)
    data = json.loads(path.read_text())
    assert set(data) == {
        "topology",
        "n",
        "target",
        "sweep",
        "centroid_distance",
        "min_distance_workload",
        "left_monotone",
        "right_monotone",
        "rounds_used",
    }
    assert data["topology"] == "ring"
    assert data["n"] == 5
    assert data["sweep"] == list(SWEEP)
    assert data["centroid_distance"] == result.centroid_distances
    assert data["min_distance_workload"] == result.metrics.min_distance_workload
    assert data["rounds_used"] == [2] * len(SWEEP)


def test_projection_csv_content(tmp_path):
    result = run_drift(quick_config())
    path = tmp_path / "projection.csv"
    write_projection_csv(path, result)
    lines = path.read_text().splitlines()
    assert lines[0] == "label,workload_pct,x,y"
    assert len(lines) == 1 + 5 + len(SWEEP)
    first = lines[1].split(",")
    assert first[0] == "baseline:node-0"
    assert float(first[2]) == result.projection[0, 0]


def test_exports_are_byte_stable(tmp_path):
    result = run_drift(quick_config())
    for writer, name in ((write_metrics_json, "m.json"), (write_projection_csv, "p.csv")):
        a, b = tmp_path / f"a_{name}", tmp_path / f"b_{name}"
        writer(a, result)
        writer(b, result)
        assert a.read_bytes() == b.read_bytes()


def test_trajectory_metrics_flat_curve_picks_lowest_workload():
    metrics = trajectory_metrics([1.0] * len(SWEEP), 50)
    assert metrics.min_distance_workload == 0
    assert metrics.left_monotone and metrics.right_monotone


def test_centroid_distance_matches_explicit_loop():
    # arithmetic oracle: recompute every step distance with plain Python loops
    result = run_drift(DriftConfig(nodes=5))
    for step, kmap in enumerate(result.step_maps):
        target = kmap.node_ids.index(result.config.target)
        peers = [row for row in range(len(kmap.node_ids)) if row != target]
        dim = kmap.states.shape[1]
        centroid = [
            sum(float(kmap.states[row][i]) for row in peers) / len(peers)
            for i in range(dim)
        ]
        gap = math.sqrt(
            sum(
                (float(kmap.states[target][i]) - centroid[i]) ** 2
                for i in range(dim)
            )
        )
        assert abs(gap - result.centroid_distances[step]) < 1e-12


def test_population_is_most_cohesive_at_the_baseline_step():
    # when the target matches everyone else, embeddings bunch together;
    # extreme workloads stretch the population apart
    for nodes in (5, 10):
        result = run_drift(DriftConfig(nodes=nodes))
        sweep = result.config.sweep

        def max_pairwise(kmap):
            return max(
                float(np.linalg.norm(a - b))
                for a, b in itertools.combinations(kmap.states, 2)
            )

        spread = {w: max_pairwise(result.step_maps[i]) for i, w in enumerate(sweep)}
        assert spread[50] < spread[0]
        assert spread[50] < spread[100]


def test_full_topology_traces_a_strict_u_shape():
    result = run_drift(DriftConfig(topology=TopologyKind.FULLY_CONNECTED, nodes=10))
    d = result.centroid_distances
    mid = result.config.sweep.index(50)
    assert all(d[i] > d[i + 1] for i in range(mid))
    assert all(d[i] < d[i + 1] for i in range(mid, len(d) - 1))


def test_zero_fluctuation_traces_a_strict_u_shape():
    result = run_drift(DriftConfig(nodes=5, fluctuation=0.0))
    d = result.centroid_distances
    mid = result.config.sweep.index(50)
    assert all(d[i] > d[i + 1] for i in range(mid))
    assert all(d[i] < d[i + 1] for i in range(mid, len(d) - 1))


def test_target_is_the_outlier_at_the_extreme_step():
    # at 100% the pinned node sits farther from the rest than any other node
    for kind in TopologyKind:
        result = run_drift(DriftConfig(topology=kind, nodes=10))
        kmap = result.step_maps[result.config.sweep.index(100)]
        ids = kmap.node_ids

        def gap_to_rest(v):
            row = ids.index(v)
            rest = np.delete(kmap.states, row, axis=0)
            return float(np.linalg.norm(kmap.states[row] - np.mean(rest, axis=0)))

        ranked = sorted(ids, key=gap_to_rest, reverse=True)
        assert ranked[0] == result.config.target, kind.value


@pytest.mark.parametrize("kind, nodes", [(TopologyKind.RING, 3), (TopologyKind.LINE, 2)])
def test_a_graph_built_as_two_kinds_gives_one_result(kind, nodes):
    # ring-3 is K3 and line-2 is K2: the same table, so the same bits as full
    same = run_drift(DriftConfig(topology=kind, nodes=nodes))
    full = run_drift(DriftConfig(topology=TopologyKind.FULLY_CONNECTED, nodes=nodes))
    assert np.array_equal(same.graph.index, full.graph.index)
    for a, b in zip([same.baseline_map, *same.step_maps], [full.baseline_map, *full.step_maps]):
        assert a.states.tobytes() == b.states.tobytes()
    assert same.centroid_distances == full.centroid_distances
    assert same.projection.tobytes() == full.projection.tobytes()


@functools.cache
def still_run(kind, nodes, rounds, seed, k):
    """Centroid distances and target rows of a fluctuation-free run targeting node-k."""
    config = DriftConfig(topology=kind, nodes=nodes, seed=seed, rounds=rounds,
                         fluctuation=0.0, target=node_name(k))
    result = run_drift(config)
    row = result.graph.node_ids.index(config.target)
    rows = [step_map.states[row] for step_map in result.step_maps]
    return np.column_stack([result.centroid_distances, *np.transpose(rows)])


SYMMETRIC_PAIRS = {
    TopologyKind.RING: lambda n: [(0, k) for k in range(1, n)],
    TopologyKind.FULLY_CONNECTED: lambda n: [(0, k) for k in range(1, n)],
    TopologyKind.LINE: lambda n: [(k, n - 1 - k) for k in range(n // 2)],
}
# n = 10 at five seeds; the odd n = 11, where node-10 sorts between node-1
# and node-2, at one
SIZES_AND_SEEDS = pytest.mark.parametrize(
    "nodes, seed", [*((10, s) for s in range(42, 47)), (11, 42)],
    ids=[*map(str, range(42, 47)), "n11-42"],
)


@SIZES_AND_SEEDS
@pytest.mark.parametrize("rounds", [2, 4])
@pytest.mark.parametrize("kind", list(SYMMETRIC_PAIRS))
def test_targets_an_automorphism_swaps_trace_one_curve(kind, rounds, nodes, seed):
    # Without jitter every peer has the same features, so a run inherits its
    # graph's symmetries (Maron et al. 2019): any two targets of a ring or a
    # full graph, and node-k and node-(n-1-k) of a line.  Measured over seeds
    # 42-46 the pairs agree to at most 1.9e-16 at n = 10 (full, rounds 4)
    # and 2.0e-16 at n = 11 (ring, rounds 2).
    for a, b in SYMMETRIC_PAIRS[kind](nodes):
        first, second = (still_run(kind, nodes, rounds, seed, k) for k in (a, b))
        gap = np.abs(first - second).max()
        assert gap < 1e-15, (a, b, gap)


@SIZES_AND_SEEDS
@pytest.mark.parametrize("rounds", [2, 4])
def test_a_line_end_and_its_middle_trace_two_curves(rounds, nodes, seed):
    # No automorphism maps node-0 to the middle node, node-4 at n = 10 and
    # node-5 at n = 11.  Measured over seeds 42-46 their curves differ by at
    # least 1.9e-4 at rounds 2 and 7.5e-6 at rounds 4 at n = 10, and by
    # 1.6e-4 and 1.1e-5 at n = 11, over ten orders of magnitude above the
    # symmetric pairs.
    middle_k = (nodes - 1) // 2
    end, middle = (still_run(TopologyKind.LINE, nodes, rounds, seed, k) for k in (0, middle_k))
    assert np.abs(end - middle).max() > 1e-6


def mirrored_rows(kind, nodes, rounds, seed, target, pairs):
    """For each pair (a, b): node-a's and node-b's rows of every map of one run, stacked."""
    config = DriftConfig(topology=kind, nodes=nodes, seed=seed, rounds=rounds,
                         fluctuation=0.0, target=node_name(target))
    result = run_drift(config)
    maps = np.stack([result.baseline_map.states, *(m.states for m in result.step_maps)])
    rows = {k: maps[:, result.graph.node_ids.index(node_name(k))] for pair in pairs for k in pair}
    return [(rows[a], rows[b]) for a, b in pairs]


@pytest.mark.parametrize("seed", range(42, 47))
@pytest.mark.parametrize("rounds", [2, 4])
@pytest.mark.parametrize("kind, nodes, target", [
    (TopologyKind.RING, 10, 0), (TopologyKind.RING, 11, 0), (TopologyKind.RING, 11, 7),
    (TopologyKind.LINE, 11, 5),
])
def test_rows_mirrored_through_the_target_are_equal(kind, nodes, target, rounds, seed):
    # The reflection that fixes the target is an automorphism of a ring
    # (node-(t+j) and node-(t-j) mod n) and of an odd line through its middle
    # (node-k and node-(2t-k)), so at fluctuation 0 mirrored nodes hold the
    # same row in every map of one run.  Measured over seeds 42-46 at rounds
    # 2 and 4, on ring n = 10 (target node-0), ring n = 11 (node-0 and
    # node-7) and line n = 11 (node-5): every difference is exactly 0.0.
    if kind is TopologyKind.RING:
        pairs = [((target + j) % nodes, (target - j) % nodes) for j in range(1, nodes // 2 + 1)]
    else:
        pairs = [(k, 2 * target - k) for k in range(target)]
    mirrored = mirrored_rows(kind, nodes, rounds, seed, target, pairs)
    for (a, b), (a_rows, b_rows) in zip(pairs, mirrored):
        assert np.array_equal(a_rows, b_rows), (a, b)


@pytest.mark.parametrize("seed", range(42, 47))
def test_rows_mirrored_off_an_even_lines_middle_differ(seed):
    # On line n = 10 no automorphism fixes node-4, and at rounds 4 node-9's
    # end is in reach of the rows mirrored about node-4 (node-k and
    # node-(8-k)).  Measured over seeds 42-46 the largest mirrored-row
    # difference is 7.75e-6 to 2.87e-5; at rounds 2 it is 0, since the end
    # is not yet in reach.
    pairs = [(k, 8 - k) for k in range(4)]
    gaps = [np.abs(a - b).max() for a, b in mirrored_rows(TopologyKind.LINE, 10, 4, seed, 4, pairs)]
    assert max(gaps) > 1e-6


@functools.cache
def consensus_fixed_point(seed):
    """x* of the hidden layer at consensus: x <- normalize(sigmoid((W_s + W_n) x)), 500 times."""
    _, hidden = init_layers(8, seed)
    weights = hidden.self_weights + hidden.neighbor_weights
    x = np.full(8, 8**-0.5)
    for _ in range(500):
        x = 1.0 / (1.0 + np.exp(-(weights @ x)))
        x = x / np.linalg.norm(x)
    return x


@pytest.mark.parametrize("seed", range(42, 47))
@pytest.mark.parametrize("nodes", [10, 100])
@pytest.mark.parametrize("kind", list(TopologyKind), ids=lambda kind: kind.value)
def test_a_deep_settle_lands_on_the_consensus_fixed_point(kind, nodes, seed):
    # Mean-aggregating rounds over-smooth: deep enough, every row of a map is one
    # vector (Oono & Suzuki 2020, arXiv:1905.10947).  A map whose rows are all x
    # maps to rows normalize(sigmoid((W_s + W_n) x)), so a settle run to depth
    # lands on that map's fixed point x*, whatever the features, the workload or
    # the graph.  Measured over ring, full and line at n = 10 and 100 and seeds
    # 42-46, at 60 rounds and tolerance 0, every row of all 12 maps is within
    # 2.8e-16 of x* (full n = 100, seed 44), line n = 100 included, though its
    # diameter of 99 is past 60 rounds: the layer's contraction pulls each row.
    config = DriftConfig(topology=kind, nodes=nodes, seed=seed, rounds=60, sharing_tolerance=0.0)
    result = run_drift(config)
    x_star = consensus_fixed_point(seed)
    for kmap in (result.baseline_map, *result.step_maps):
        assert np.abs(kmap.states - x_star).max() <= 1e-15


def test_export_result_writes_the_full_artifact_set(tmp_path):
    result = run_drift(DriftConfig(nodes=5))
    written = export_result(result, tmp_path / "out")
    names = sorted(p.name for p in written)
    expected = sorted(
        [
            "metrics.json",
            "projection.csv",
            "knowledge_map.json",
            "trajectory.svg",
            "embeddings_baseline.csv",
        ]
        + [f"embeddings_w{w:03d}.csv" for w in result.config.sweep]
    )
    assert names == expected
    assert all(p.is_file() for p in written)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == expected


def test_export_result_is_reproducible(tmp_path):
    result = run_drift(DriftConfig(nodes=5))
    first = export_result(result, tmp_path / "a")
    second = export_result(result, tmp_path / "b")
    for left, right in zip(first, second):
        assert left.name == right.name
        assert left.read_bytes() == right.read_bytes(), left.name


def test_numpy_integer_workloads_export_like_python_ints(tmp_path):
    plain = run_drift(DriftConfig(nodes=5))
    numpy = run_drift(DriftConfig(nodes=5, baseline_workload=np.int64(50)))
    first, second = export_result(plain, tmp_path / "a"), export_result(numpy, tmp_path / "b")
    for left, right in zip(first, second, strict=True):
        assert left.name == right.name
        assert left.read_bytes() == right.read_bytes(), left.name


@pytest.mark.parametrize("tolerance", [0.0, 1e-3])
def test_settle_history_holds_every_round(tolerance):
    # one entry per round, the input round first; the last is the settled map
    graph = build_topology(TopologyKind.LINE, 7)
    features = np.random.default_rng(4).uniform(0.1, 1.0, (7, 3))
    layers = init_layers(4, 9)
    history = []
    kmap = settle(graph, features, layers, 10, tolerance, history)
    assert len(history) == kmap.rounds_used
    assert history[-1].tobytes() == kmap.states.tobytes()
    if tolerance == 0.0:
        assert kmap.rounds_used == 10 and not kmap.converged
    else:
        assert 1 < kmap.rounds_used < 10 and kmap.converged


@pytest.mark.parametrize("nodes", [1, 4095, 4096, 4097])
def test_grouped_draw_rows_equal_one_step_rows(nodes):
    # a seed of 2**64 or more splits into three SeedSequence words
    config = DriftConfig(seed=2**64 + 3, fluctuation=0.05)
    keys = node_keys([node_name(i) for i in range(nodes)])
    steps = range(1 + len(SWEEP))
    grouped = draw_steps(config, keys, steps)
    one_step = np.stack([draw_steps(config, keys, [step])[0] for step in steps])
    assert grouped.shape == (len(steps), nodes, 3)
    assert grouped.tobytes() == one_step.tobytes()


@pytest.mark.parametrize(
    "nodes, columns",
    [
        (300, [3600]),  # every step in one draw
        (341, [4092]),  # 12 steps of 341 fit the budget
        (342, [3762, 342]),  # 11 steps, then the last
        (600, [3600, 3600]),
        (4096, [4096] * 12),  # one step a draw at the budget
        (4097, [4097] * 12),  # a step wider than the budget is still one draw
    ],
)
def test_run_drift_draws_whole_steps_within_the_budget(monkeypatch, nodes, columns):
    calls = []

    original = knowmap.drift.apply_fluctuation

    def counted(features, seed, magnitude, *, keys, step):
        calls.append(len(keys))
        return original(features, seed, magnitude, keys=keys, step=step)

    monkeypatch.setattr(knowmap.drift, "apply_fluctuation", counted)
    knowmap.drift.run_drift(DriftConfig(nodes=nodes, rounds=1))
    assert calls == columns
    assert all(c <= DRAW_COLUMNS or c == nodes for c in calls)


def test_export_result_builds_one_id_column(monkeypatch, tmp_path):
    # the 12 embedding CSVs share one node-id block; the JSON keys go through
    # sharing's own name for text_block, which this does not count
    calls = []
    original = knowmap.embedding.text_block

    def counted(texts):
        calls.append(len(texts))
        return original(texts)

    result = knowmap.drift.run_drift(DriftConfig(topology=TopologyKind.RING, nodes=12))
    monkeypatch.setattr(knowmap.embedding, "text_block", counted)
    knowmap.drift.export_result(result, tmp_path)
    assert calls == [12]
