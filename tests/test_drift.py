"""Drift experiment harness tests: protocol, metrics, and exports."""

import itertools
import json
import math

import numpy as np
import pytest

from knowmap.drift import (
    DEFAULT_SWEEP,
    METRICS_FILE,
    DriftConfig,
    TrajectoryMetrics,
    export_result,
    run_drift,
    settle,
    trajectory_metrics,
    write_metrics_json,
    write_projection_csv,
)
from knowmap.errors import (
    DimensionMismatchError,
    InvalidConfigError,
    InvalidSeedError,
    InvalidSizeError,
    InvalidTopologyError,
    KnowmapError,
    MagnitudeOutOfRangeError,
    NonFiniteValueError,
    TooFewStepsError,
    UnknownNodeError,
)
from knowmap.embedding import init_layers
from knowmap.graph import TopologyKind, build_topology
from knowmap.sharing import SharingConfig


def test_default_sweep_covers_the_decade_grid():
    assert DEFAULT_SWEEP == (0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100)


def test_metrics_clean_u_shape():
    m = trajectory_metrics([30, 40, 50, 60, 70], [3.0, 2.0, 1.0, 2.0, 3.0], 50)
    assert m == TrajectoryMetrics(50, True, True)


def test_metrics_minimum_tie_takes_lower_workload():
    m = trajectory_metrics([30, 40, 50, 60, 70], [2.0, 1.0, 1.0, 2.0, 3.0], 50)
    assert m.min_distance_workload == 40


def test_metrics_flags_left_inversion():
    m = trajectory_metrics([30, 40, 50, 60, 70], [3.0, 1.0, 2.0, 2.5, 3.0], 50)
    assert not m.left_monotone
    assert m.right_monotone


def test_metrics_flags_right_inversion():
    m = trajectory_metrics([30, 40, 50, 60, 70], [3.0, 2.0, 1.0, 2.5, 2.0], 50)
    assert m.left_monotone
    assert not m.right_monotone


def test_metrics_tolerates_float_noise():
    # a 1e-12 wiggle must not count as an inversion
    m = trajectory_metrics([40, 50, 60], [1.0, 1.0 + 1e-12, 2.0], 50)
    assert m.left_monotone


def test_metrics_accepts_off_grid_workloads():
    m = trajectory_metrics([25, 50, 75], [2.0, 1.0, 2.0], 50)
    assert m.min_distance_workload == 50


def test_metrics_input_validation():
    with pytest.raises(TooFewStepsError):
        trajectory_metrics([40, 60], [1.0, 2.0], 50)
    with pytest.raises(DimensionMismatchError):
        trajectory_metrics([40, 50, 60], [1.0, 2.0], 50)
    with pytest.raises(ValueError):
        trajectory_metrics([40, 40, 60], [1.0, 2.0, 3.0], 50)


def test_config_validates_dimension_rounds_and_seed():
    for bad in (0, -1, 2.0, True, "2"):
        with pytest.raises(InvalidSizeError, match="dimension must be an integer >= 1"):
            DriftConfig(dimension=bad)
        with pytest.raises(InvalidSizeError, match="rounds must be an integer >= 1"):
            DriftConfig(rounds=bad)
    assert DriftConfig(dimension=np.int64(3), rounds=np.int32(2)).rounds == 2
    with pytest.raises(InvalidSeedError):
        DriftConfig(seed=-1)


def test_config_validation():
    with pytest.raises(ValueError):
        DriftConfig(baseline_workload=55)
    with pytest.raises(ValueError):
        DriftConfig(sweep=())
    with pytest.raises(ValueError):
        DriftConfig(sweep=(0, 25, 50))
    with pytest.raises(ValueError):
        DriftConfig(sweep=(50, 40))
    with pytest.raises(MagnitudeOutOfRangeError):
        DriftConfig(fluctuation=0.1)
    for bad in ((0.0, 50.0, 100.0), (False, 50, 100), (0, 50.0, 100)):
        with pytest.raises(ValueError, match="integer multiple of 10"):
            DriftConfig(nodes=5, sweep=bad)
    for bad in (True, 50.0):
        with pytest.raises(ValueError, match="integer multiple of 10"):
            DriftConfig(baseline_workload=bad)
    with pytest.raises(InvalidSizeError):
        DriftConfig(rounds=0)
    with pytest.raises(InvalidSizeError):
        DriftConfig(dimension=0)
    with pytest.raises(ValueError):
        DriftConfig(sharing_tolerance=-1e-9)


@pytest.mark.parametrize(
    "build",
    [
        lambda: DriftConfig(baseline_workload=55),
        lambda: DriftConfig(sweep=()),
        lambda: DriftConfig(sweep=(50, 40)),
        lambda: SharingConfig(tolerance=-1.0),
        lambda: trajectory_metrics([40, 40, 60], [1.0, 2.0, 3.0], 50),
    ],
    ids=["baseline-55", "empty-sweep", "falling-sweep", "negative-tolerance", "repeated-workloads"],
)
def test_config_range_errors_are_typed(build):
    # a KnowmapError, and still the ValueError older callers catch
    with pytest.raises(InvalidConfigError) as caught:
        build()
    assert isinstance(caught.value, KnowmapError) and isinstance(caught.value, ValueError)


@pytest.mark.parametrize(
    "field, value",
    [
        ("sharing_tolerance", math.nan),
        ("sharing_tolerance", math.inf),
    ],
)
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(NonFiniteValueError, match="must be finite"):
        DriftConfig(**{field: value})


@pytest.mark.parametrize("seed", [-1, 2.5, "7"])
def test_config_rejects_a_bad_seed(seed):
    with pytest.raises(InvalidSeedError, match="seed must be a non-negative integer"):
        DriftConfig(seed=seed)


@pytest.mark.parametrize(
    "field, value",
    [
        ("nodes", 5.0),
        ("nodes", True),
        pytest.param("nodes", "5", id="nodes-str"),
        ("nodes", 2),  # a ring needs three nodes
        ("dimension", 2.0),
        ("dimension", True),
        ("rounds", 2.0),
        ("rounds", True),
        pytest.param("rounds", np.float64(2.0), id="rounds-np.float64"),
    ],
)
def test_config_rejects_a_bad_size(field, value):
    with pytest.raises(InvalidSizeError, match=f"{field} must be an integer >= "):
        DriftConfig(**{field: value})


@pytest.mark.parametrize("topology", ["ring", None, 0])
def test_config_rejects_a_topology_that_is_not_a_kind(topology):
    with pytest.raises(InvalidTopologyError, match=r"\(ring, full or line\)") as raised:
        DriftConfig(topology=topology, nodes=5)
    assert repr(topology) in str(raised.value)


def test_numpy_integer_sizes_export_like_python_ints(tmp_path):
    plain = run_drift(DriftConfig(nodes=5, dimension=4, rounds=3, sweep=(0, 50, 100)))
    numpy = run_drift(
        DriftConfig(
            nodes=np.int64(5), dimension=np.int32(4), rounds=np.int64(3), sweep=(0, 50, 100)
        )
    )
    first, second = export_result(plain, tmp_path / "a"), export_result(numpy, tmp_path / "b")
    for left, right in zip(first, second, strict=True):
        assert left.name == right.name
        assert left.read_bytes() == right.read_bytes(), left.name
    assert json.loads((tmp_path / "b" / METRICS_FILE).read_text())["n"] == 5


def test_run_rejects_bad_graph_or_target():
    with pytest.raises(InvalidSizeError):
        run_drift(DriftConfig(topology=TopologyKind.RING, nodes=2))
    with pytest.raises(UnknownNodeError):
        run_drift(DriftConfig(nodes=5, target="node-9"))


def quick_config(**overrides):
    defaults = dict(topology=TopologyKind.RING, nodes=5)
    defaults.update(overrides)
    return DriftConfig(**defaults)


def test_run_shapes_and_defaults():
    result = run_drift(quick_config())
    assert result.target == "node-0"
    assert len(result.centroid_distances) == len(DEFAULT_SWEEP)
    assert len(result.step_maps) == len(DEFAULT_SWEEP)
    assert result.projection.shape == (5 + len(DEFAULT_SWEEP), 2)
    # one input round plus one sharing round per step at the default depth
    assert [m.rounds_used for m in result.step_maps] == [2] * len(DEFAULT_SWEEP)
    assert result.projection_labels[:5] == [f"baseline:node-{i}" for i in range(5)]
    assert result.projection_labels[5:] == ["target:node-0"] * len(DEFAULT_SWEEP)
    assert result.projection_workloads == [50] * 5 + list(DEFAULT_SWEEP)


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
    assert result.target == "node-3"
    assert result.projection_labels[-1] == "target:node-3"


def test_distance_is_small_only_at_the_baseline_step():
    result = run_drift(quick_config())
    sweep = list(result.config.sweep)
    at_baseline = result.centroid_distances[sweep.index(50)]
    assert at_baseline == min(result.centroid_distances)
    assert result.centroid_distances[sweep.index(0)] > 10 * at_baseline
    assert result.centroid_distances[sweep.index(100)] > 10 * at_baseline


def test_short_sweep_gets_trivial_metrics():
    result = run_drift(quick_config(sweep=(40, 60)))
    assert result.metrics.left_monotone and result.metrics.right_monotone
    assert result.metrics.min_distance_workload in (40, 60)


def test_single_step_sweep_runs():
    result = run_drift(quick_config(sweep=(70,)))
    assert len(result.centroid_distances) == 1
    assert result.metrics.min_distance_workload == 70


def test_degenerate_projection_falls_back_to_zeros():
    # no fluctuation and a baseline-only sweep leave every row identical
    result = run_drift(quick_config(fluctuation=0.0, sweep=(50,)))
    assert np.array_equal(result.projection, np.zeros((6, 2)))


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
    assert data["sweep"] == list(DEFAULT_SWEEP)
    assert data["centroid_distance"] == result.centroid_distances
    assert data["min_distance_workload"] == result.metrics.min_distance_workload
    assert data["rounds_used"] == [2] * len(DEFAULT_SWEEP)


def test_projection_csv_content(tmp_path):
    result = run_drift(quick_config())
    path = tmp_path / "projection.csv"
    write_projection_csv(path, result)
    lines = path.read_text().splitlines()
    assert lines[0] == "label,workload_pct,x,y"
    assert len(lines) == 1 + 5 + len(DEFAULT_SWEEP)
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


def test_trajectory_metrics_accepts_quarter_grid():
    metrics = trajectory_metrics([0, 25, 50, 75, 100], [3.0, 2.0, 1.0, 2.0, 3.0], 50)
    assert metrics.min_distance_workload == 50
    assert metrics.left_monotone and metrics.right_monotone


def test_trajectory_metrics_flat_curve_picks_lowest_workload():
    metrics = trajectory_metrics([0, 50, 100], [1.0, 1.0, 1.0], 50)
    assert metrics.min_distance_workload == 0
    assert metrics.left_monotone and metrics.right_monotone


def test_centroid_distance_matches_explicit_loop():
    # arithmetic oracle: recompute every step distance with plain Python loops
    result = run_drift(DriftConfig(nodes=5))
    for step, kmap in enumerate(result.step_maps):
        target = kmap.node_ids.index(result.target)
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
        assert ranked[0] == result.target, kind.value


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
    plain = run_drift(DriftConfig(nodes=5, sweep=(0, 50, 100)))
    numpy = run_drift(
        DriftConfig(nodes=5, sweep=tuple(np.arange(0, 101, 50)), baseline_workload=np.int64(50))
    )
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
    kmap = settle(graph, features, layers, SharingConfig(max_rounds=9, tolerance=tolerance), history)
    assert len(history) == kmap.rounds_used
    assert history[-1].tobytes() == kmap.states.tobytes()
    if tolerance == 0.0:
        assert kmap.rounds_used == 10 and not kmap.converged
    else:
        assert 1 < kmap.rounds_used < 10 and kmap.converged
