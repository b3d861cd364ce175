"""Neighborhood-aggregating embedding layers over the knowledge graph.

Each round every node mixes its own state with the mean of its neighbors'
states through two weight matrices, applies the logistic sigmoid, and is
projected back onto the unit sphere.  Repeating the round widens the
receptive field by one hop.  A round works on an (n x d) state matrix, the
mean aggregator of GraphSAGE (Hamilton et al. 2017) in matrix form.

The neighbor sum has one fixed crossover.  A dense graph (4 * max degree > n)
sums through one product with the graph's cached 0/1 adjacency; any other
graph gathers one column of its padded neighbor table at a time, since an
n x n product costs far more than a few gathers when nodes have few
neighbors.  The network is fixed: the sigmoid is its one nonlinearity, so a
row comes out all zero only where every mixed value is below about -709.8,
where exp overflows and the sigmoid is 0.

The module also writes state matrices as CSV: csv_rows builds the "%.17g"
text of a block of rows over numpy arrays, byte for byte as Python's %
operator writes it, instead of formatting one float at a time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, EmptyInputError, ZeroVectorError
from .graph import KnowledgeGraph, check_count

FEATURE_DIMENSION = 3


@dataclass(frozen=True, eq=False)
class Layer:
    """One embedding round: separate weights for the node and its neighborhood."""

    self_weights: np.ndarray
    neighbor_weights: np.ndarray

    def __post_init__(self) -> None:
        if self.self_weights.shape != self.neighbor_weights.shape:
            raise DimensionMismatchError(
                "self and neighbor weight matrices must share a shape, got "
                f"{self.self_weights.shape} and {self.neighbor_weights.shape}"
            )

    @property
    def in_dim(self) -> int:
        return self.self_weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.self_weights.shape[0]


def init_layer(in_dim: int, out_dim: int, seed_material: Sequence[int]) -> Layer:
    """Draw both weight matrices uniformly from [-a, a], a = sqrt(6/(in+out)).

    The bound keeps activations in a comparable range across dimensions.
    """
    check_count("in_dim", in_dim, 1)
    check_count("out_dim", out_dim, 1)
    rng = np.random.default_rng(np.random.SeedSequence(list(seed_material)))
    bound = np.sqrt(6.0 / (in_dim + out_dim))
    self_w = rng.uniform(-bound, bound, size=(out_dim, in_dim))
    neighbor_w = rng.uniform(-bound, bound, size=(out_dim, in_dim))
    return Layer(self_weights=self_w, neighbor_weights=neighbor_w)


def init_layers(dimension: int, seed: int, in_dim: int = FEATURE_DIMENSION) -> tuple[Layer, Layer]:
    """Input layer (features -> embedding) and hidden layer (embedding -> embedding).

    They are drawn from streams 0 and 1 of seed.  The hidden layer is shared
    across all rounds after the first.
    """
    input_layer = init_layer(in_dim, dimension, [seed, 0])
    hidden_layer = init_layer(dimension, dimension, [seed, 1])
    return input_layer, hidden_layer


def aggregate(states: np.ndarray) -> np.ndarray:
    """Mean of an (m x d) set of states, such as a node's peers.  Order must not matter."""
    if len(states) == 0:
        raise EmptyInputError("cannot aggregate an empty set of states")
    return np.mean(states, axis=0)


def embedding_round(
    graph: KnowledgeGraph,
    states: np.ndarray,
    layer: Layer,
    round_index: int = 1,
) -> np.ndarray:
    """One synchronous round over node-indexed states (row i is graph.node_ids[i]).

    Row i becomes normalize(sigmoid(W_self x_i + W_nbr mean(neighbors of i))); an
    isolated node contributes no neighborhood term.  round_index only names
    the round in errors.
    """
    n = graph.node_count
    if states.shape != (n, layer.in_dim):
        raise DimensionMismatchError(
            f"expected states of shape ({n}, {layer.in_dim}), got {states.shape}"
        )
    if graph.adjacency is not None:
        total = graph.adjacency @ states
    else:
        # Row n is the zero the padding points at, so a pad adds an exact zero
        # and each sum keeps the neighbor order of the table.
        padded = np.vstack([states, np.zeros((1, layer.in_dim))])
        total = np.zeros_like(states)
        for column in graph.index.T:
            total += padded[column]
    mean = total / np.maximum(graph.degree, 1)[:, None]
    mixed = states @ layer.self_weights.T + mean @ layer.neighbor_weights.T
    activated = 1.0 / (1.0 + np.exp(-mixed))
    norms = np.linalg.norm(activated, axis=1)
    if not norms.all():
        node_id = graph.node_ids[int(np.argmin(norms))]
        raise ZeroVectorError(f"round {round_index} left node {node_id!r} all zero")
    return activated / norms[:, None]


def write_embedding_csv(
    path: str | Path,
    node_ids: Sequence[str],
    snapshots: Sequence[np.ndarray],
    first_round: int = 1,
) -> None:
    """Write per-round (n x k) state matrices as CSV: node_id,round,e0..e{k-1}.

    Rounds are numbered from first_round.  Rows are ordered by round, then
    node_ids order, and floats are written as "%.17g" (csv_rows) so reruns
    are byte-identical.  Every snapshot must be (len(node_ids), k),
    checked before the file is opened.
    """
    if len(snapshots) == 0 or len(node_ids) == 0:
        raise EmptyInputError("no embeddings to write")
    first = np.shape(snapshots[0])
    expected = (len(node_ids), first[1] if len(first) == 2 and first[1] > 0 else -1)
    for round_index, snapshot in enumerate(snapshots, start=first_round):
        if np.shape(snapshot) != expected:
            raise DimensionMismatchError(
                f"round {round_index} states have shape {np.shape(snapshot)}, "
                f"expected ({len(node_ids)}, k), one k >= 1 for every round"
            )
    header = ",".join(["node_id", "round"] + [f"e{i}" for i in range(expected[1])])
    rounds = enumerate(snapshots, start=first_round)
    write_csv(path, header, csv_fields(node_ids), [(b",%d," % r, s) for r, s in rounds])


def csv_field(text: str) -> str:
    """text as a csv.writer field: quoted only if it holds a comma, quote or newline."""
    if _CSV_SPECIAL.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_fields(texts: Sequence[str]) -> list[str]:
    """csv_field of every text; one regex scan when none needs quoting."""
    if _CSV_SPECIAL.search("".join(texts)):
        return [csv_field(text) for text in texts]
    return list(texts)


def text_block(texts: Sequence[str], encoding: str) -> tuple[np.ndarray, np.ndarray]:
    """texts encoded as rows of a zero-padded uint8 block, plus each one's byte length."""
    joined = "".join(texts)
    data = joined.encode(encoding)
    if len(data) == len(joined):  # one byte a character
        lengths = np.fromiter(map(len, texts), np.intp, len(texts))
    else:
        lengths = np.array([len(text.encode(encoding)) for text in texts], dtype=np.intp)
    block = np.zeros((len(texts), lengths.max(initial=0)), dtype=np.uint8)
    block[np.arange(block.shape[1]) < lengths[:, None]] = np.frombuffer(data, np.uint8)
    return block, lengths


def write_csv(
    path: str | Path,
    header: str,
    fields: Sequence[str],
    blocks: Iterable[tuple[bytes, np.ndarray]],
) -> None:
    """Write the header line, then csv_rows(fields, middle, values) of every block.

    The file is UTF-8 text whatever the locale, and the fields are encoded
    as UTF-8 too; the rows go through its binary buffer, CSV_CHUNK_ROWS at a time.
    """
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(header + "\r\n")
        handle.flush()
        block, lengths = text_block(fields, handle.encoding)
        for middle, values in blocks:
            for i in range(0, len(values), CSV_CHUNK_ROWS):
                rows = slice(i, i + CSV_CHUNK_ROWS)
                handle.buffer.write(csv_rows((block[rows], lengths[rows]), middle, values[rows]))


def csv_rows(
    fields: tuple[np.ndarray, np.ndarray], middle: bytes, values: np.ndarray
) -> np.ndarray:
    """The bytes, as uint8, of each row's field, middle, "%.17g" values and CRLF.

    Row i is field i, middle, ",".join("%.17g" % v for v in values[i]) and
    CRLF; fields is a text_block.  The rows are laid out as one uint8
    block, field, middle and one slot per value side by side, and a mask
    keeps each text's bytes.
    """
    values = np.asarray(values, dtype=np.float64)
    rows, columns = values.shape
    slots, spans = _format_17g(values.ravel())
    slots[:, _SLOT - 1] = ord(",")
    slots.reshape(rows, columns, _SLOT)[:, -1:, -1] = ord("\r")
    field_block, lengths = fields
    width = field_block.shape[1]
    head = width + len(middle)
    block = np.empty((rows, head + columns * _SLOT + 1), dtype=np.uint8)
    block[:, :width] = field_block
    block[:, width:head] = np.frombuffer(middle, np.uint8)
    block[:, head:-1] = slots.reshape(rows, -1)
    block[:, -1] = ord("\n")
    del slots
    keep = np.ones(block.shape, dtype=bool)
    keep[:, :width] = np.arange(width) < lengths[:, None]
    keep[:, head:-1] = np.take(_SLOT_KEEP, spans, axis=0).reshape(rows, -1)
    return block[keep]


def _format_17g(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """"%.17g" % v of every v as slots[i, start:end], with spans[i] = 25 * start + end.

    Column 24 of a slot is left free for the separator.

    A finite value with 1e-4 <= |v| < 1e16, which %g writes in fixed
    notation, is formatted over arrays.  Its slot holds 7 pad zeros, then its
    17 significant digits; a '.' at column 7 + k, the integer digits of a
    k >= 0 value moved one column left, and a '-' before the lead make the
    text one run of columns ('-0.000' fits in the pad for k >= -4).  Every
    other value (zero, inf, NaN, subnormal, out of range) is formatted by
    Python and copied in, so each text is Python's.
    """
    magnitude = np.abs(np.where(np.isfinite(flat), flat, 0.0))
    fast = (magnitude >= 1e-4) & (magnitude < 1e16)
    magnitude[~fast] = 1.0
    k, lead, quads = _digits_17(magnitude)
    del magnitude
    # The last nonzero digit: the highest nonzero byte of a word of eight
    # digit characters minus '0', read little-endian.
    offsets = np.searchsorted(_BYTE_STEPS, quads.view("<u8") ^ _ASCII_ZEROS, side="right")
    last = np.where(offsets[:, 1] > 0, 8 + offsets[:, 1], offsets[:, 0])
    end = np.where((k >= 0) & (last <= k), 7 + k, 8 + last)
    del offsets, last

    slots = np.empty((len(flat), _SLOT), dtype=np.uint8)
    slots[:, :7] = ord("0")
    slots[:, 7] = ord("0") + lead
    slots[:, 8:24] = quads.view(np.uint8)
    del lead, quads
    whole = np.flatnonzero(k >= 0)
    moved = slots[whole, :24]
    slots[whole, :23] = np.where(_COLUMNS[:23] < 7 + k[whole, None], moved[:, 1:], moved[:, :23])
    below = np.minimum(k, 0)
    negative = np.flatnonzero(flat < 0)
    cells = slots.reshape(-1)
    cells[np.arange(0, cells.size, _SLOT) + 7 + k] = ord(".")
    cells[negative * _SLOT + 5 + below[negative]] = ord("-")
    start = 6 + below
    start[negative] -= 1

    slow = np.flatnonzero(~fast)
    if slow.size:
        texts, lengths = text_block(["%.17g" % v for v in flat[slow].tolist()], "ascii")
        slots[slow, : texts.shape[1]] = texts
        start[slow], end[slow] = 0, lengths
    return slots, start * _SLOT + end


def _digits_17(magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decimal exponent k, lead digit and four 4-digit ASCII words of 17-digit magnitudes.

    The digits are the integer N = magnitude * 10**(16 - k) rounded half to
    even, with k log10's estimate corrected until 10**16 <= N < 10**17 holds
    for the exact product.  Dekker's two-product gives that product as
    p + err, both exact doubles; p >= 10**16 > 2**53 is an even integer, so
    p + rint(err) is N, rounded half to even.  No N rounds up to 10**17: in
    [1e-4, 1e16), the largest double below a power of ten lies more than 8
    units of the 17th digit below it.
    """
    k = np.floor(np.log10(magnitude)).astype(np.intp)
    while True:
        p, err = _times_power_of_ten(magnitude, 16 - k)
        step = ((p > 1e17) | ((p == 1e17) & (err >= 0))).astype(np.intp)
        step -= (p < 1e16) | ((p == 1e16) & (err < 0))
        if not step.any():
            break
        k += step
    low = p.astype(np.int64) + np.rint(err).astype(np.int64)
    del p, err
    # One true division; each other quotient is x * m >> s, which equals
    # x // d over the range of x.  Remainders are taken in place.
    high = low // 10**8
    low -= high * 10**8
    lead = high * 1441151881 >> 57  # high // 10**8 for high < 10**9
    high -= lead * 10**8
    eights = np.stack([high, low], 1)
    del high, low
    upper = eights * 109951163 >> 40  # eights // 10**4 for eights < 10**8
    eights -= upper * 10**4
    quads = np.empty((len(k), 2, 2), dtype=np.uint32)
    quads[:, :, 0] = _DIGIT_QUADS[upper]
    quads[:, :, 1] = _DIGIT_QUADS[eights]
    return k, lead, quads.reshape(-1, 4)


def _times_power_of_ten(x: np.ndarray, exponent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * 10**exponent as p + err, both exact: Dekker's two-product (Ogita et al. 2005)."""
    p = x * _POW10[exponent]
    t = x * 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves
    x_hi = t - (t - x)
    x_lo = x - x_hi
    y_hi, y_lo = _POW10_HI[exponent], _POW10_LO[exponent]
    return p, x_lo * y_lo - (((p - x_hi * y_hi) - x_lo * y_hi) - x_hi * y_lo)


CSV_CHUNK_ROWS = 512  # rows a write; with the dels above, a chunk peaks near 0.5 MB of heap
_CSV_SPECIAL = re.compile('[,"\r\n]')
_SLOT = 25
_COLUMNS = np.arange(_SLOT)
# Row 25 * start + end: which slot columns a text from start to end, and the separator, use.
_SLOT_KEEP = (_COLUMNS >= np.arange(8)[:, None, None]) & (_COLUMNS < _COLUMNS[:, None])
_SLOT_KEEP = (_SLOT_KEEP | (_COLUMNS == _SLOT - 1)).reshape(-1, _SLOT)
# "0000".."9999" as 4-byte words
_DIGIT_QUADS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1)
_DIGIT_QUADS = _DIGIT_QUADS.view(np.uint32).ravel()
_BYTE_STEPS = np.array([1 << 8 * i for i in range(8)], dtype=np.uint64)
_ASCII_ZEROS = np.uint64(0x3030303030303030)
_POW10 = np.array([float(10**j) for j in range(22)])  # each exact in float64
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
