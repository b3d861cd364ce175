"""Node operational metrics: workload assignment, fluctuation, feature vectors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidConfigError

# MiB, homogeneous across nodes.  It must stay a power of two: memory enters
# the features only as mem_available / mem_total, and scaling by a power of
# two and dividing it back out is exact.
DEFAULT_MEM_TOTAL = 8192.0
WORKLOAD_STEP = 10

# Stream tag separating fluctuation draws from any other seeded stream.
_FLUCTUATION_STREAM = 0xF1


@dataclass(frozen=True)
class NodeFeatures:
    """Operational metrics of one node: CPU load fraction and memory in MiB."""

    cpu_usage: float
    mem_available: float
    mem_total: float = DEFAULT_MEM_TOTAL


def is_real(value: object) -> bool:
    """True for a Python or numpy int or float; a bool is not read as 0 or 1."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def check_workload(value: int) -> int:
    """Validate a workload percent: an integer multiple of 10 within [0, 100]."""
    integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integral or value % WORKLOAD_STEP != 0 or not 0 <= value <= 100:
        raise InvalidConfigError(
            f"workload must be an integer multiple of 10 in [0, 100], got {value!r}"
        )
    return value


def check_magnitude(value: float) -> float:
    """Validate a fluctuation magnitude: a real, not a bool, in [0, 0.1), so NaN fails too."""
    if not is_real(value) or not 0.0 <= value < 0.1:
        raise InvalidConfigError(f"fluctuation magnitude must be in [0, 0.1), got {value!r}")
    return value


def check_seed(value: int) -> int:
    """Validate a seed: a non-negative integer, as numpy's SeedSequence takes it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise InvalidConfigError(f"seed must be a non-negative integer, got {value!r}")
    return value


def set_workload(features: NodeFeatures, workload: int) -> NodeFeatures:
    """Pin a node to a workload percent: DriftConfig's checked baseline or a SWEEP value.

    CPU load equals the workload fraction and available memory shrinks
    linearly with it, so the whole sweep stays one-dimensional.
    """
    fraction = workload / 100.0
    total = features.mem_total
    return NodeFeatures(fraction, total * (1.0 - fraction), total)


def features_at(workload: int) -> NodeFeatures:
    """Fresh metrics for a node pinned at the given workload percent."""
    return set_workload(NodeFeatures(0.0, DEFAULT_MEM_TOTAL), workload)


def node_keys(node_ids: Sequence[str]) -> np.ndarray:
    """Stream key of each node: the 8-byte blake2b digest of its id, big-endian."""
    import hashlib  # here, not at the top: it loads OpenSSL, which only a run needs

    digests = b"".join(
        hashlib.blake2b(node_id.encode("utf-8"), digest_size=8).digest()
        for node_id in node_ids
    )
    return np.frombuffer(digests, dtype=">u8").astype(np.uint64)


def apply_fluctuation(
    features: NodeFeatures,
    seed: int,
    magnitude: float,
    *,
    keys: np.ndarray,
    step: int | np.ndarray,
) -> np.ndarray:
    """Feature rows, one per (key, step) column, of features jittered by draws in ±magnitude.

    CPU and memory are scaled by (1 + u) with u drawn from the column's own
    stream, seeded by (seed, node_keys key, step), so the same inputs always
    give the same rows.  Results are clamped back into the metric invariants.
    """
    draws = fluctuation_draws(seed, magnitude, keys, step)
    cpu = np.clip(features.cpu_usage * (1.0 + draws[:, 0]), 0.0, 1.0)
    mem = np.clip(features.mem_available * (1.0 + draws[:, 1]), 0.0, features.mem_total)
    return np.column_stack([cpu, mem / features.mem_total, np.ones(len(cpu))])


def feature_vector(features: NodeFeatures) -> np.ndarray:
    """Initial feature vector: [cpu load, free-memory fraction, 1.0].

    The constant bias component keeps a uniformly loaded network from
    feeding the zero vector into the embedding layers.
    """
    return np.array(
        [features.cpu_usage, features.mem_available / features.mem_total, 1.0]
    )


def fluctuation_draws(
    seed: int, magnitude: float, keys: np.ndarray, step: int | np.ndarray
) -> np.ndarray:
    """Two uniform draws in ±magnitude per column, shape (len(keys), 2).

    Column i is stream key keys[i] at step[i]; a scalar step is every
    column's, and a step is an integer in [0, 2**64) as a key is.  Row i equals, bit for bit,
    ``default_rng(SeedSequence([seed, 0xF1, keys[i], step[i]])).uniform(-magnitude,
    magnitude, size=2)``: numpy's seeding and PCG64 generator are replayed
    here over arrays, one pass for every column of the same entropy length.
    """
    check_magnitude(magnitude)
    keys = np.asarray(keys, dtype=np.uint64)
    steps = np.asarray(step)  # a Python int past 2**64 - 1 becomes an object array
    if steps.dtype.kind not in "iu" or (steps.size and steps.min() < 0):
        raise InvalidConfigError(f"step must be a non-negative integer below 2**64, got {step!r}")
    steps = np.broadcast_to(steps.astype(np.uint64), keys.shape)
    head = _words(seed) + [_FLUCTUATION_STREAM]
    raw = np.empty((len(keys), 2), dtype=np.uint64)
    # SeedSequence drops a zero high word, so a key or step below 2**32 hashes one word fewer.
    wide = (keys > _MASK32) + 2 * (steps > _MASK32)
    for code in range(4):
        rows = np.flatnonzero(wide == code)
        if rows.size:
            entropy = [np.full(rows.size, word, dtype=np.uint32) for word in head]
            for words, width in ((keys[rows], 1 + code % 2), (steps[rows], 1 + code // 2)):
                entropy += [(words >> shift).astype(np.uint32) for shift in (0, 32)[:width]]
            raw[rows] = _pcg64_outputs(_seed_state(entropy), 2)
    low, high = -magnitude, magnitude
    return low + (high - low) * ((raw >> 11) * 2.0**-53)


# numpy's SeedSequence (pool of four 32-bit words) and PCG64 constants.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _words(value: int) -> list[int]:
    """value as SeedSequence splits it: 32-bit words, least significant first."""
    value = int(check_seed(value))
    return [(value >> shift) & _MASK32 for shift in range(0, value.bit_length() or 1, 32)]


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays; every call moves the hash constant on."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ (value >> 16)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> 16)


def _seed_state(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence(column).generate_state(4, uint64) for every column of entropy.

    entropy is a list of (n,) uint32 words, at least as many as the pool,
    as seed, stream tag, key and step always give.  Returns the four uint64
    state words, each (n,).
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    length = len(entropy)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(entropy[src]))
    hashmix = _hasher(_INIT_B, _MULT_B)
    out = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    return [out[2 * k] | (out[2 * k + 1] << 32) for k in range(4)]


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b, from 32-bit limb products."""
    a_lo, a_hi, b_lo, b_hi = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    lo_lo, lo_hi, hi_lo = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    carry = (lo_lo >> 32) + (lo_hi & _MASK32) + (hi_lo & _MASK32)
    return a_hi * b_hi + (lo_hi >> 32) + (hi_lo >> 32) + (carry >> 32)


def _lcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """PCG64's state update, state * multiplier + inc mod 2**128, on (hi, lo) halves."""
    product_lo = lo * _PCG_MULT_LO
    product_hi = _mulhi64(lo, _PCG_MULT_LO) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    new_lo = product_lo + inc_lo
    return product_hi + inc_hi + (new_lo < product_lo), new_lo


def _pcg64_outputs(state: list[np.ndarray], count: int) -> np.ndarray:
    """The first count outputs of PCG64 seeded from generate_state words, (n, count)."""
    init_hi, init_lo, seq_hi, seq_lo = state
    inc_hi, inc_lo = (seq_hi << 1) | (seq_lo >> 63), (seq_lo << 1) | 1
    # Seeding: state = 0, step (state becomes inc), add initstate, step.
    lo = inc_lo + init_lo
    hi, lo = _lcg_step(inc_hi + init_hi + (lo < inc_lo), lo, inc_hi, inc_lo)
    outputs = []
    for _ in range(count):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR: xor the halves, rotate right by the top six bits.
        value, rotation = hi ^ lo, hi >> 58
        outputs.append((value >> rotation) | (value << ((64 - rotation) & 63)))
    return np.stack(outputs, axis=1)


def uniform_stream(material: Sequence[int], low: float, high: float, count: int) -> np.ndarray:
    """default_rng(list(material)).uniform(low, high, size=count), bit for bit, from one stream.

    PCG64 steps a 128-bit int through its first L states, and each further row of L draws
    is the row above jumped L steps at once over uint64 halves.  L = min(count, 12 sqrt(count))
    minimises L int steps plus count / L row steps, as a row step costs about 144 int steps.
    numpy.random is never loaded.
    """
    entropy = [np.uint32(word) for value in material for word in _words(value)]
    entropy += [np.uint32(0)] * (_POOL_SIZE - len(entropy))  # a missing word hashes as 0
    with np.errstate(over="ignore"):  # _seed_state's uint32 arithmetic, on scalars, wraps too
        init_hi, init_lo, seq_hi, seq_lo = map(int, _seed_state(entropy))
    init, seq = init_hi << 64 | init_lo, seq_hi << 64 | seq_lo
    inc, mult = (seq << 1 | 1) & _MASK128, _PCG_MULT_HI << 64 | _PCG_MULT_LO
    start = state = ((inc + init) * mult + inc) & _MASK128  # from 0: step, add init, step
    lanes = max(1, int(min(count, (144 * count) ** 0.5)))  # an int, as pow takes; 1 at count 0
    states = [state := (state * mult + inc) & _MASK128 for _ in range(lanes)]
    a_hi, a_lo = divmod(jump := pow(mult, lanes, 1 << 128), 1 << 64)
    c_hi, c_lo = divmod((state - jump * start) & _MASK128, 1 << 64)
    halves = np.frombuffer(b"".join([s.to_bytes(16, "little") for s in states]), "<u8")
    lo, hi = halves.reshape(lanes, 2).T
    draws = np.empty(-(-count // lanes) * lanes)
    for at in range(0, count, lanes):
        if at:
            lo, hi = lo * a_lo + c_lo, _mulhi64(lo, a_lo) + lo * a_hi + hi * a_lo + c_hi
            hi += lo < c_lo  # the carry out of adding c_lo
        value, rotation = hi ^ lo, hi >> 58  # XSL-RR, as in _pcg64_outputs
        raw = (value >> rotation) | (value << ((64 - rotation) & 63))
        draws[at : at + lanes] = low + (high - low) * ((raw >> 11) * 2.0**-53)
    return draws[:count]
