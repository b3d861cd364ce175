"""Workload assignment, fluctuation, and feature-vector tests."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from knowmap.errors import InvalidConfigError
from knowmap.features import (
    DEFAULT_MEM_TOTAL,
    NodeFeatures,
    apply_fluctuation,
    check_seed,
    check_workload,
    feature_vector,
    features_at,
    fluctuation_draws,
    node_keys,
    set_workload,
    uniform_stream,
)

workloads = st.integers(min_value=0, max_value=10).map(lambda i: i * 10)


@pytest.mark.parametrize(
    "bad", [25, 55, -10, 110, 1, 99, True, False, 0.0, 50.0, np.float64(50.0), "50", None]
)
def test_check_workload_rejects_off_grid_values(bad):
    with pytest.raises(ValueError, match="integer multiple of 10"):
        check_workload(bad)


@pytest.mark.parametrize("good", [0, 10, 50, 100])
def test_check_workload_accepts_grid_values(good):
    assert check_workload(good) == good
    assert check_workload(np.int64(good)) == good


@pytest.mark.parametrize(
    "workload,cpu,mem",
    [
        (0, 0.0, 8192.0),
        (30, 0.3, 5734.4),  # 8192 * 0.7
        (50, 0.5, 4096.0),
        (100, 1.0, 0.0),
    ],
)
def test_set_workload_values(workload, cpu, mem):
    f = features_at(workload)
    assert f.cpu_usage == pytest.approx(cpu, abs=0)
    assert f.mem_available == pytest.approx(mem, rel=1e-15)
    assert f.mem_total == DEFAULT_MEM_TOTAL


def test_set_workload_keeps_mem_total():
    f = set_workload(NodeFeatures(0.0, 512.0, 512.0), 50)
    assert f.mem_total == 512.0
    assert f.mem_available == 256.0


@given(workloads)
def test_workload_cpu_and_memory_move_in_opposition(w):
    f = features_at(w)
    assert f.cpu_usage == w / 100.0
    assert f.mem_available == DEFAULT_MEM_TOTAL * (1.0 - w / 100.0)


def test_feature_vector_components():
    v = feature_vector(features_at(30))
    assert v.shape == (3,)
    assert v[0] == pytest.approx(0.3, abs=0)
    assert v[1] == pytest.approx(0.7, rel=1e-15)
    assert v[2] == 1.0


@pytest.mark.parametrize("w", range(0, 101, 10))
def test_feature_vector_is_exact_at_every_decade(w):
    # DEFAULT_MEM_TOTAL is a power of two, so dividing it back out is exact
    expected = np.array([w / 100, 1 - w / 100, 1.0])
    assert feature_vector(features_at(w)).tobytes() == expected.tobytes()


def test_feature_vector_never_zero():
    # the constant component keeps even an idle node off the origin
    assert np.linalg.norm(feature_vector(features_at(0))) >= 1.0


def test_fluctuation_is_deterministic():
    f = features_at(50)
    a = apply_fluctuation(f, 42, 0.02, keys=node_keys(["node-1"]), step=3)
    b = apply_fluctuation(f, 42, 0.02, keys=node_keys(["node-1"]), step=3)
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"seed": 43, "keys": node_keys(["node-1"]), "step": 3},
        {"seed": 42, "keys": node_keys(["node-2"]), "step": 3},
        {"seed": 42, "keys": node_keys(["node-1"]), "step": 4},
    ],
)
def test_fluctuation_streams_are_independent(kwargs):
    f = features_at(50)
    reference = apply_fluctuation(f, 42, 0.02, keys=node_keys(["node-1"]), step=3)
    seed = kwargs.pop("seed")
    other = apply_fluctuation(f, seed, 0.02, **kwargs)
    assert not np.array_equal(other, reference)


def test_fluctuation_stays_in_band():
    # multiplicative +/-2% around cpu 0.5 lands in [0.49, 0.51]
    f = features_at(50)
    for step in range(200):
        (g,) = apply_fluctuation(f, 7, 0.02, keys=node_keys(["node-0"]), step=step)
        assert 0.49 <= g[0] <= 0.51
        assert 4096.0 * 0.98 <= g[1] * f.mem_total <= 4096.0 * 1.02


def test_zero_magnitude_is_identity():
    f = features_at(50)
    rows = apply_fluctuation(f, 42, 0.0, keys=node_keys(["node-1", "node-2"]), step=0)
    assert np.array_equal(rows, [feature_vector(f)] * 2)


@pytest.mark.parametrize("magnitude", [0.1, 0.5, -0.01, 1.0])
def test_magnitude_range_enforced(magnitude):
    with pytest.raises(InvalidConfigError, match=r"fluctuation magnitude must be in \[0, 0.1\)"):
        apply_fluctuation(features_at(50), 42, magnitude, keys=node_keys(["n"]), step=0)


@given(
    w=workloads,
    seed=st.integers(min_value=0, max_value=2**31),
    step=st.integers(min_value=0, max_value=1000),
    magnitude=st.floats(min_value=0.0, max_value=0.0999),
)
def test_fluctuation_preserves_invariants(w, seed, step, magnitude):
    rows = apply_fluctuation(
        features_at(w), seed, magnitude, keys=node_keys(["node-3", "node-4"]), step=step
    )
    assert np.all((0.0 <= rows[:, :2]) & (rows[:, :2] <= 1.0))
    assert np.all(rows[:, 2] == 1.0)


def test_fluctuation_clamps_at_full_load():
    # cpu 1.0 scaled up would leave [0, 1]; the clamp must catch it
    f = features_at(100)
    for step in range(50):
        rows = apply_fluctuation(f, 11, 0.05, keys=node_keys(["node-0"]), step=step)
        assert rows[0, 0] <= 1.0


def numpy_draws(seed, magnitude, key, step):
    """The per-stream reference: numpy's own SeedSequence, PCG64 and Generator."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF1, key, step]))
    return rng.uniform(-magnitude, magnitude, size=2)


# Keys below 2**32 give SeedSequence one entropy word fewer than the rest.
SHORT_KEYS = [0, 1, 2**32 - 1]


@given(
    seed=st.integers(min_value=0, max_value=2**70 - 1),
    step=st.integers(min_value=0, max_value=1000),
    magnitude=st.floats(min_value=0.0, max_value=0.1, exclude_max=True),
    keys=st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=8),
)
@example(seed=0, step=0, magnitude=0.02, keys=[])
@example(seed=2**32 - 1, step=1000, magnitude=0.0, keys=[2**32, 2**64 - 1])
@example(seed=2**32, step=7, magnitude=0.05, keys=[2**63])
@example(seed=2**64, step=2**40, magnitude=0.0999, keys=[5])
def test_batched_draw_matches_numpy_generator(seed, step, magnitude, keys):
    keys = SHORT_KEYS + keys
    got = fluctuation_draws(seed, magnitude, np.array(keys, dtype=np.uint64), step)
    expected = np.array([numpy_draws(seed, magnitude, key, step) for key in keys])
    assert np.array_equal(got, expected)


def test_batched_rows_match_the_per_node_formula():
    # the rows run_drift settles on, computed node by node as before batching
    f = features_at(100)
    node_ids = [f"node-{i}" for i in range(50)]
    rows = apply_fluctuation(f, 42, 0.05, keys=node_keys(node_ids), step=3)
    for node_id, row in zip(node_ids, rows):
        digest = hashlib.blake2b(node_id.encode("utf-8"), digest_size=8).digest()
        u_cpu, u_mem = numpy_draws(42, 0.05, int.from_bytes(digest, "big"), 3)
        cpu = min(max(f.cpu_usage * (1.0 + u_cpu), 0.0), 1.0)
        mem = min(max(f.mem_available * (1.0 + u_mem), 0.0), f.mem_total)
        expected = feature_vector(NodeFeatures(cpu, mem, f.mem_total))
        assert row.tobytes() == expected.tobytes()


def test_node_keys_are_big_endian_digests():
    digest = hashlib.blake2b(b"node-7", digest_size=8).digest()
    assert node_keys(["node-7"]).tolist() == [int.from_bytes(digest, "big")]
    assert node_keys([]).shape == (0,)


@pytest.mark.parametrize("bad", [-1, -(2**40), 1.5, 2.0, "3", None, True])
def test_seed_must_be_a_non_negative_integer(bad):
    with pytest.raises(InvalidConfigError, match="seed must be a non-negative integer"):
        check_seed(bad)
    with pytest.raises(InvalidConfigError, match="seed must be a non-negative integer"):
        fluctuation_draws(bad, 0.02, np.zeros(1, dtype=np.uint64), 0)


@pytest.mark.parametrize(
    "bad", [-1, 2**64, 1.5, "3", None, True, np.array([0, -1]), np.array([1.0, 2.0])]
)
def test_step_must_be_a_non_negative_integer_below_2_64(bad):
    with pytest.raises(InvalidConfigError, match="step must be a non-negative integer"):
        fluctuation_draws(7, 0.02, np.zeros(2, dtype=np.uint64), bad)


@pytest.mark.parametrize("good", [0, 2**64, np.uint32(5), np.int64(9)])
def test_seed_accepts_integers(good):
    assert check_seed(good) == good


@pytest.mark.parametrize("columns", [1, 4095, 4096, 4097])
def test_per_column_steps_match_numpy_generator(columns):
    # one step a column, wide ones included, and a seed of 2**64 or more
    seed, magnitude = 2**64 + 11, 0.05
    rng = np.random.default_rng(columns)
    keys = rng.integers(0, 2**64, columns, dtype=np.uint64)
    keys[::7] >>= 32  # one entropy word fewer
    steps = rng.integers(0, 12, columns, dtype=np.uint64)
    steps[::5] += np.uint64(2**40)
    got = fluctuation_draws(seed, magnitude, keys, steps)
    expected = [numpy_draws(seed, magnitude, int(k), int(s)) for k, s in zip(keys, steps)]
    assert got.tobytes() == np.array(expected).tobytes()


# 144 is the most one row of Python int steps draws (lanes = int(min(count, sqrt(144 * count)))),
# so 143 and 144 fill one row and 145 spills one draw into a second; 1296 is three full
# rows of 432 lanes, and 2 * 256 * 256 a d = 256 hidden layer: 31 rows, the last one short.
# Count 0 is an empty draw, as numpy's.
STREAM_COUNTS = [0, 1, 2, 143, 144, 145, 1296, 2 * 256 * 256]


@pytest.mark.parametrize("count", STREAM_COUNTS)
@pytest.mark.parametrize("stream", [0, 1])
@pytest.mark.parametrize("seed", [0, 42, 2**32 - 1, 2**32, 2**64 + 5, 2**70 + 3])
def test_uniform_stream_matches_numpy_generator(seed, stream, count):
    for low, high in ((-np.sqrt(6.0 / 11.0), np.sqrt(6.0 / 11.0)), (0.25, 3.5)):
        got = uniform_stream([seed, stream], low, high, count)
        expected = np.random.default_rng([seed, stream]).uniform(low, high, size=count)
        assert got.tobytes() == expected.tobytes()
