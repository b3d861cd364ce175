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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, EmptyInputError, ZeroVectorError
from .features import check_seed
from .graph import KnowledgeGraph, check_count

DEFAULT_DIMENSION = 8
DEFAULT_ROUNDS = 2
DEFAULT_WEIGHT_SEED = 7
FEATURE_DIMENSION = 3

# Stream indices for the two layers drawn from one weight seed.
_INPUT_LAYER_STREAM = 0
_HIDDEN_LAYER_STREAM = 1


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


@dataclass(frozen=True)
class EmbeddingConfig:
    """Shape and seeding of the embedding stack."""

    dimension: int = DEFAULT_DIMENSION
    rounds: int = DEFAULT_ROUNDS
    weight_seed: int = DEFAULT_WEIGHT_SEED

    def __post_init__(self) -> None:
        check_count("dimension", self.dimension, 1)
        check_count("rounds", self.rounds, 1)
        check_seed(self.weight_seed)


def init_layer(in_dim: int, out_dim: int, seed_material: Sequence[int]) -> Layer:
    """Draw both weight matrices uniformly from [-a, a], a = sqrt(6/(in+out)).

    The bound keeps activations in a comparable range across dimensions.
    """
    if in_dim < 1 or out_dim < 1:
        raise ValueError(f"layer dims must be >= 1, got {in_dim}x{out_dim}")
    rng = np.random.default_rng(np.random.SeedSequence(list(seed_material)))
    bound = np.sqrt(6.0 / (in_dim + out_dim))
    self_w = rng.uniform(-bound, bound, size=(out_dim, in_dim))
    neighbor_w = rng.uniform(-bound, bound, size=(out_dim, in_dim))
    return Layer(self_weights=self_w, neighbor_weights=neighbor_w)


def init_layers(config: EmbeddingConfig, in_dim: int = FEATURE_DIMENSION) -> tuple[Layer, Layer]:
    """Input layer (features -> embedding) and hidden layer (embedding -> embedding).

    The hidden layer is shared across all rounds after the first.
    """
    input_layer = init_layer(
        in_dim, config.dimension, [config.weight_seed, _INPUT_LAYER_STREAM]
    )
    hidden_layer = init_layer(
        config.dimension, config.dimension, [config.weight_seed, _HIDDEN_LAYER_STREAM]
    )
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


def embedding_rounds(
    graph: KnowledgeGraph,
    features: np.ndarray,
    config: EmbeddingConfig,
) -> list[np.ndarray]:
    """Per-round (n x d) states from (n x k) features in node order; index 0 is round 1."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.size == 0:
        raise DimensionMismatchError(
            f"input features must be a non-empty (n x k) matrix, got shape {features.shape}"
        )
    input_layer, hidden_layer = init_layers(config, in_dim=features.shape[1])
    rounds = [embedding_round(graph, features, input_layer)]
    for r in range(2, config.rounds + 1):
        rounds.append(embedding_round(graph, rounds[-1], hidden_layer, r))
    return rounds


def write_embedding_csv(
    path: str | Path,
    node_ids: Sequence[str],
    snapshots: Sequence[np.ndarray],
    first_round: int = 1,
) -> None:
    """Write per-round (n x k) state matrices as CSV: node_id,round,e0..e{k-1}.

    Rounds are numbered from first_round.  Rows are ordered by round, then
    node_ids order, and floats use repr-exact formatting so reruns are byte-identical.
    """
    if len(snapshots) == 0 or len(node_ids) == 0:
        raise EmptyInputError("no embeddings to write")
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


def csv_field(text: str) -> str:
    """text as a csv.writer field: quoted only if it holds a comma, quote or newline."""
    if _CSV_SPECIAL.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


_CSV_SPECIAL = re.compile('[,"\r\n]')
