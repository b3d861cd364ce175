"""Neighborhood-aggregating embedding layers over the knowledge graph.

Each round every node mixes its own state with the mean of its neighbors'
states through two weight matrices, applies the logistic sigmoid, and is
projected back onto the unit sphere.  Repeating the round widens the
receptive field by one hop.  A round works on an (n x d) state matrix, the
mean aggregator of GraphSAGE (Hamilton et al. 2017) in matrix form.

On a complete graph a node's neighbors are all the others, so its neighbor
sum is the column sum less its own row, O(nd) a round; any other graph
gathers one column of its padded neighbor table at a time.

The module also formats the embedding CSVs and knowledge_map.json: format_rows
builds the "%.17g" text of a block of rows over numpy arrays, byte for byte as
Python's % operator writes it, instead of formatting one float at a time.
Seventeen significant digits read back as the exact double.  A chunk of rows
is one uint8 block in which every column that holds no text is 0xFF, a byte
UTF-8 never writes, so one bytes.translate compacts it.  Values outside
(1e-4, 1), where Knowledge Map values lie, go to Python.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidDataError
from .features import uniform_stream
from .graph import KnowledgeGraph

FEATURE_DIMENSION = 3


@dataclass(frozen=True, eq=False)
class Layer:
    """One embedding round: separate weights for the node and its neighborhood."""

    self_weights: np.ndarray
    neighbor_weights: np.ndarray

    @property
    def in_dim(self) -> int:
        return self.self_weights.shape[1]


def init_layer(in_dim: int, out_dim: int, seed_material: Sequence[int]) -> Layer:
    """Draw both weight matrices uniformly from [-a, a], a = sqrt(6/(in+out)).

    One (2, out_dim, in_dim) draw holds the self, then the neighbor weights.
    The bound keeps activations in a comparable range across dimensions: an
    admitted round's |mixed| is at most 2*sqrt(54/(3+d)) (input) or 2*sqrt(3)
    (hidden), so no sigmoid row is zero.
    """
    bound = np.sqrt(6.0 / (in_dim + out_dim))
    draws = uniform_stream(seed_material, -bound, bound, 2 * out_dim * in_dim)
    self_w, neighbor_w = draws.reshape(2, out_dim, in_dim)
    return Layer(self_weights=self_w, neighbor_weights=neighbor_w)


def init_layers(dimension: int, seed: int) -> tuple[Layer, Layer]:
    """Input layer (FEATURE_DIMENSION -> dimension) and hidden layer (dimension -> dimension).

    They are drawn from streams 0 and 1 of seed.  The hidden layer is shared
    across all rounds after the first.
    """
    input_layer = init_layer(FEATURE_DIMENSION, dimension, [seed, 0])
    hidden_layer = init_layer(dimension, dimension, [seed, 1])
    return input_layer, hidden_layer


def aggregate(states: np.ndarray) -> np.ndarray:
    """Mean of an (m x d) set of states, such as a node's peers.  Order must not matter."""
    if len(states) == 0:
        raise InvalidDataError("cannot aggregate an empty set of states")
    return np.mean(states, axis=0)


def embedding_round(graph: KnowledgeGraph, states: np.ndarray, layer: Layer) -> np.ndarray:
    """One synchronous round over node-indexed states (row i is graph.node_ids[i]).

    Row i becomes normalize(sigmoid(W_self x_i + W_nbr mean(neighbors of i))); an
    isolated node contributes no neighborhood term.
    """
    n = graph.node_count
    if states.shape != (n, layer.in_dim):
        raise InvalidDataError(
            f"expected states of shape ({n}, {layer.in_dim}), got {states.shape}"
        )
    if graph.index.shape[1] == n - 1 and (graph.degree == n - 1).all():
        # Complete: the width test turns a ring or line away before the degree scan.
        total = states.sum(axis=0) - states
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
    return activated / np.linalg.norm(activated, axis=1)[:, None]


def write_embedding_csv(
    path: str | Path,
    ids: np.ndarray,
    snapshots: Sequence[np.ndarray],
    first_round: int = 1,
) -> None:
    """Write per-round (n x k) state matrices as CSV: node_id,round,e0..e{k-1}.

    ids is the id_column of the n node ids, built once by the caller for
    every file of a run.  Rounds are numbered from first_round.  Rows are
    ordered by round, then id order, and floats are written as "%.17g"
    (format_rows) so reruns are byte-identical.  The file is UTF-8 text
    whatever the locale, written a chunk at a time.  Every snapshot must be
    (n, k), checked before the file is opened.
    """
    if len(snapshots) == 0 or len(ids) == 0:
        raise InvalidDataError("no embeddings to write")
    first = np.shape(snapshots[0])
    expected = (len(ids), first[1] if len(first) == 2 and first[1] > 0 else -1)
    for round_index, snapshot in enumerate(snapshots, start=first_round):
        if np.shape(snapshot) != expected:
            raise InvalidDataError(
                f"round {round_index} states have shape {np.shape(snapshot)}, "
                f"expected ({len(ids)}, k), one k >= 1 for every round"
            )
    header = ",".join(["node_id", "round"] + [f"e{i}" for i in range(expected[1])])
    with open(path, "wb") as handle:
        handle.write(header.encode("utf-8") + b"\r\n")
        for round_index, snapshot in enumerate(snapshots, start=first_round):
            middle = constant(b",%d," % round_index)
            for chunk in format_rows([ids, middle], snapshot, b",", [_CRLF]):
                handle.write(chunk)


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


def id_column(node_ids: Sequence[str]) -> np.ndarray:
    """The node_id field of every row, as the text block write_embedding_csv takes."""
    return text_block(csv_fields(node_ids))


def text_block(texts: Sequence[str]) -> np.ndarray:
    """texts as UTF-8 rows of a uint8 block, each padded with 0xFF, a byte UTF-8 never writes."""
    encoded = [text.encode("utf-8") for text in texts]
    width = max(map(len, encoded), default=0)
    data = b"".join([text.ljust(width, b"\xff") for text in encoded])
    return np.frombuffer(data, np.uint8).reshape(len(texts), width)


def constant(text: bytes) -> np.ndarray:
    """text (no 0xFF byte) as a one-row text block, which format_rows writes on every row."""
    return np.frombuffer(text, np.uint8)[None, :]


def format_rows(
    head: Sequence[np.ndarray],
    values: np.ndarray,
    separator: bytes,
    tail: Sequence[np.ndarray],
) -> Iterator[bytes]:
    """The bytes of each row of values, CSV_CHUNK_ROWS rows a chunk.

    Row i is text i of every head block, separator.join("%.17g" % v for v
    in values[i]), then text i of every tail block; a one-row block gives
    every row the same text.  Each value is written byte for byte as
    Python's % operator writes it.
    """
    values = np.asarray(values, dtype=np.float64)
    for i in range(0, len(values), CSV_CHUNK_ROWS):
        rows = slice(i, i + CSV_CHUNK_ROWS)
        head_rows, tail_rows = (
            [text if len(text) == 1 else text[rows] for text in texts] for texts in (head, tail)
        )
        yield _rows(head_rows, values[rows], separator, tail_rows)


def _rows(
    head: Sequence[np.ndarray], values: np.ndarray, separator: bytes, tail: Sequence[np.ndarray]
) -> bytes:
    """format_rows of one chunk: the texts side by side in one uint8 block, in which every
    column that holds no text, and each row's last separator, is 0xFF for translate to drop."""
    rows, columns = values.shape
    slots = _format(values.ravel(), separator)
    lo = sum(text.shape[1] for text in head)
    hi = lo + columns * slots.shape[1]
    block = np.empty((rows, hi + sum(text.shape[1] for text in tail)), dtype=np.uint8)
    block[:, lo:hi] = slots.reshape(rows, -1)
    del slots
    block[:, hi - len(separator) : hi] = 0xFF
    for texts, at in ((head, 0), (tail, hi)):
        for text in texts:
            block[:, at : at + text.shape[1]] = text
            at += text.shape[1]
    return block.tobytes().translate(None, b"\xff")


def _format(flat: np.ndarray, separator: bytes) -> np.ndarray:
    """The "%.17g" text of every v as a slot: _TEXT columns of 0xFF-padded text, then the separator.

    A value in (1e-4, 1) is laid out from its exact 17-digit integer
    (_digits_17): the _PAD row of its sign and exponent, the lead digit at
    column 7, the other 16 after it, trailing '0's as 0xFF.  Python formats
    every other value (zero, inf, NaN, 1e-4 or less, 1 or more), so each
    text is Python's; no text of a double is longer than _TEXT.
    """
    magnitude = np.abs(flat)  # NaN fails every comparison below, so it is slow
    fast = (magnitude > 1e-4) & (magnitude < 1.0)  # 10**-4 < double(1e-4): -4 <= k <= -1
    magnitude[~fast] = 0.5  # any value in range: Python writes these
    k, digits = _digits_17(magnitude)
    del magnitude
    lead, quads = _digit_chars(digits)
    del digits
    zero = np.flatnonzero(quads[:, 3] < 0x31000000)  # the last of the 17 digits is '0'
    words = quads.view("<u8")
    words[zero] = _pad_trailing_zeros(words[zero])

    slots = np.empty((len(flat), _TEXT + len(separator)), dtype=np.uint8)
    slots[:, :7] = np.take(_PAD, 4 * np.signbit(flat) - 1 - k, axis=0)
    slots[:, 7] = ord("0") + lead
    slots[:, 8:_TEXT] = quads.view(np.uint8)
    slots[:, _TEXT:] = np.frombuffer(separator, np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        block = text_block(["%.17g" % v for v in flat[slow].tolist()])
        slots[slow, :_TEXT] = 0xFF
        slots[slow, : block.shape[1]] = block
    return slots


def _pad_trailing_zeros(words: np.ndarray) -> np.ndarray:
    """Two little-endian words of eight digit characters each, their trailing '0's as 0xFF."""
    nonzero = words ^ _ASCII_ZEROS  # each digit's value, so a '0' byte is 0
    nonzero[:, 0] |= (nonzero[:, 1] != 0).astype(np.uint64) << 56  # a digit in word 1 keeps word 0
    for shift in (8, 16, 32):  # each byte ORs every byte above it
        nonzero |= nonzero >> shift
    # A byte of at most 15 carries into bit 7 when 0x7F is added only if it is nonzero.
    trailing = ~(nonzero + _LOW_SEVENS) & _HIGH_BITS
    return words | (trailing >> 7) * 0xFF


def _digits_17(magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decimal exponent k and 17-digit integer N of magnitudes in (1e-4, 1).

    k comes from three exact comparisons: for j = 1, 2, 3 the double nearest
    10**-j lies above 10**-j and the double below it lies below, so the
    exact product magnitude * 10**(16 - k) is in [10**16, 10**17).  N is
    that product rounded half to even.  Dekker's two-product gives it as
    p + err, both exact doubles; p >= 10**16 > 2**53 is an even integer, so
    p + rint(err) is N.  No N rounds up to 10**17: in (1e-4, 1), the largest
    double below a power of ten lies more than 8 units of the 17th digit
    below it.
    """
    k = -1 - (magnitude < 0.1) - (magnitude < 0.01) - (magnitude < 0.001)
    p, err = _times_power_of_ten(magnitude, 16 - k)
    return k, p.astype(np.int64) + np.rint(err).astype(np.int64)


def _digit_chars(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lead digit and four 4-digit ASCII words of each integer in [0, 10**17)."""
    # One true division; each other quotient is x * m >> s, which equals
    # x // d over the range of x.
    high = digits // 10**8
    low = digits - high * 10**8
    lead = high * 1441151881 >> 57  # high // 10**8 for high < 10**9
    high -= lead * 10**8
    quads = np.empty((len(digits), 4), dtype=np.uint32)
    for column, eight in ((0, high), (2, low)):
        upper = eight * 109951163 >> 40  # eight // 10**4 for eight < 10**8
        quads[:, column] = _DIGIT_QUADS[upper]
        quads[:, column + 1] = _DIGIT_QUADS[eight - upper * 10**4]
    return lead, quads


def _times_power_of_ten(x: np.ndarray, exponent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * 10**exponent as p + err, both exact: Dekker's two-product (Ogita et al. 2005)."""
    p = x * _POW10[exponent]
    t = x * 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves
    x_hi = t - (t - x)
    x_lo = x - x_hi
    y_hi, y_lo = _POW10_HI[exponent], _POW10_LO[exponent]
    return p, x_lo * y_lo - (((p - x_hi * y_hi) - x_lo * y_hi) - x_hi * y_lo)


CSV_CHUNK_ROWS = 512  # rows a chunk; with the dels above, a chunk peaks near 0.5 MB of heap
_CSV_SPECIAL = re.compile('[,"\r\n]')
_CRLF = constant(b"\r\n")
_TEXT = 24  # a slot's text columns: 7 of sign, '0.' and zeros, then 17 digits
# Row 4 * negative - 1 - k: the 7 columns before the lead digit, 0xFF then '-0.000' at most
_PAD = b"".join(b"%7s" % (sign + b"0." + b"0" * z) for sign in (b"", b"-") for z in range(4))
_PAD = np.frombuffer(_PAD.replace(b" ", b"\xff"), np.uint8).reshape(8, 7)
# "0000".."9999" as 4-byte words
_DIGIT_QUADS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1)
_DIGIT_QUADS = _DIGIT_QUADS.view(np.uint32).ravel()
_ASCII_ZEROS = np.uint64(0x3030303030303030)
_LOW_SEVENS = np.uint64(0x7F7F7F7F7F7F7F7F)
_HIGH_BITS = np.uint64(0x8080808080808080)
_POW10 = np.array([float(10**j) for j in range(21)])  # each exact in float64; 16 - k <= 20
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
