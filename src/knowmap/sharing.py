"""Iterated neighbor sharing until the embeddings settle into a Knowledge Map."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embedding import Layer, embedding_round, write_embedding_csv
from .errors import EmptyInputError, InvalidConfigError, NonFiniteValueError
from .graph import KnowledgeGraph, check_count


def check_tolerance(value: float) -> float:
    """Validate a sharing tolerance: finite and >= 0.  Zero disables the convergence check."""
    if not math.isfinite(value):
        raise NonFiniteValueError(f"tolerance must be finite, got {value}")
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
    appended to it.  Errors number the rounds from first_round.
    """
    check_count("max_rounds", max_rounds, 0)
    check_tolerance(tolerance)
    current = np.asarray(states, dtype=float)
    rounds_used, converged, final_delta = 0, False, 0.0
    while rounds_used < max_rounds and not converged:
        rounds_used += 1
        updated = embedding_round(graph, current, layer, first_round + rounds_used - 1)
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
    """Write json.dump(indent=2, sort_keys=True) text from one row template; floats as repr."""
    states, final_delta = knowledge_map.states, float(knowledge_map.final_delta)
    if not (np.isfinite(states).all() and math.isfinite(final_delta)):  # repr would write nan
        raise NonFiniteValueError("knowledge map states and final delta must be finite")
    ids, rows = knowledge_map.node_ids, states.tolist()
    row = "    %s: [\n      " + ",\n      ".join(["%r"] * states.shape[1]) + "\n    ]"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{\n  "converged": %s,\n  "entries": ' % json.dumps(knowledge_map.converged))
        for k, i in enumerate(sorted(range(len(ids)), key=ids.__getitem__)):
            handle.write((",\n" if k else "{\n") + row % (json.dumps(ids[i]), *rows[i]))
        handle.write(("\n  }" if ids else "{}") + ',\n  "final_delta": %r,\n' % final_delta)
        handle.write('  "round": %d\n}\n' % knowledge_map.rounds_used)


def write_knowledge_map_csv(path: str | Path, knowledge_map: KnowledgeMap) -> None:
    """Write the settled embeddings as write_embedding_csv does, round = rounds_used."""
    write_embedding_csv(
        path, knowledge_map.node_ids, [knowledge_map.states], first_round=knowledge_map.rounds_used
    )
