"""Iterated neighbor sharing until the embeddings settle into a Knowledge Map."""

from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .embedding import (
    Layer,
    constant,
    embedding_round,
    format_rows,
    text_block,
    write_embedding_csv,
)
from .errors import DimensionMismatchError, EmptyInputError, InvalidConfigError, NonFiniteValueError
from .features import is_real
from .graph import KnowledgeGraph, check_count


def check_tolerance(value: float) -> float:
    """Validate a sharing tolerance: a finite real >= 0, not a bool.  Zero disables the check."""
    if not is_real(value):
        raise InvalidConfigError(f"tolerance must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise InvalidConfigError(f"tolerance must be finite, got {value}")
    if value < 0.0:
        raise InvalidConfigError(f"tolerance must be >= 0, got {value}")
    return value


@dataclass(frozen=True)
class KnowledgeMap:
    """Settled embeddings for every node plus how the loop ended."""

    node_ids: list[str]
    states: np.ndarray  # (n, d), row i is node_ids[i]
    rounds_used: int
    converged: bool
    final_delta: float


def states_delta(before: np.ndarray, after: np.ndarray) -> float:
    """Largest per-node movement (row norm) between two state matrices."""
    if before.size == 0:
        raise EmptyInputError("cannot compare empty embedding snapshots")
    return float(np.max(np.linalg.norm(after - before, axis=1)))


def run_sharing(
    graph: KnowledgeGraph,
    states: np.ndarray,
    layer: Layer,
    max_rounds: int,
    tolerance: float,
    history: list[np.ndarray] | None = None,
    first_round: int = 1,
) -> KnowledgeMap:
    """Repeat sharing rounds until movement drops below tolerance, at most max_rounds.

    A zero tolerance runs all max_rounds rounds.  Rounds are synchronous:
    all nodes update from the same pre-round snapshot, so the result is
    independent of node iteration order.  states holds one row per node in
    graph.node_ids order.  Given a history list, each round's states are
    appended to it.  Rounds are numbered from first_round, in errors and in
    rounds_used, the number of the last round run (first_round - 1 if none).
    """
    check_count("max_rounds", max_rounds, 0)
    check_tolerance(tolerance)
    current = np.asarray(states, dtype=float)
    rounds_used, converged, final_delta = first_round - 1, False, 0.0
    while rounds_used < first_round - 1 + max_rounds and not converged:
        rounds_used += 1
        updated = embedding_round(graph, current, layer, rounds_used)
        final_delta = states_delta(current, updated)
        current = updated
        if history is not None:
            history.append(current)
        converged = tolerance > 0.0 and final_delta < tolerance
    return KnowledgeMap(
        node_ids=graph.node_ids,
        states=current,
        rounds_used=rounds_used,
        converged=converged,
        final_delta=final_delta,
    )


def write_knowledge_map_json(path: str | Path, knowledge_map: KnowledgeMap) -> None:
    """Write json.dump(indent=2, sort_keys=True) text, one entry a row.

    Each entry value is its "%.17g" text in embeddings_baseline.csv, and
    final_delta is written as repr.
    """
    states, final_delta = knowledge_map.states, float(knowledge_map.final_delta)
    if states.shape[1] == 0:  # json.dump writes an empty list as [], not a row of values
        raise DimensionMismatchError(f"knowledge map states have shape {states.shape}, no column")
    if not (np.isfinite(states).all() and math.isfinite(final_delta)):  # repr would write nan
        raise NonFiniteValueError("knowledge map states and final delta must be finite")
    ids = knowledge_map.node_ids
    order = sorted(range(len(ids)), key=ids.__getitem__)
    opening = np.full((len(ids), 1), ord(","), dtype=np.uint8)
    opening[:1] = ord("{")  # the first entry opens the object
    keys = text_block([encode_basestring_ascii(ids[i]) for i in order])
    head = [opening, constant(b"\n    "), keys, constant(b": [\n      ")]
    with open(path, "wb") as handle:
        converged = b"true" if knowledge_map.converged else b"false"
        handle.write(b'{\n  "converged": %s,\n  "entries": ' % converged)
        for chunk in format_rows(head, states[order], b",\n      ", [constant(b"\n    ]")]):
            handle.write(chunk)
        handle.write((b"\n  }" if ids else b"{}") + b',\n  "final_delta": %r,\n' % final_delta)
        handle.write(b'  "round": %d\n}\n' % knowledge_map.rounds_used)


def write_knowledge_map_csv(path: str | Path, knowledge_map: KnowledgeMap, ids: np.ndarray) -> None:
    """write_embedding_csv of the settled states, ids their id_column, round = rounds_used."""
    write_embedding_csv(path, ids, [knowledge_map.states], first_round=knowledge_map.rounds_used)
