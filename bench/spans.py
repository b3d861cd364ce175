"""In-memory spans for the traced run, and the wrappers that record them.

A span is one call into a layer: its name, start, end and the span that was
open when the call began.  Spans stay in memory and are read after the run.
The library has no timers of its own yet, so the traced run wraps the entry
points the orchestration calls through, in this process only.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

# (module, attribute, span name).  The module is the namespace the caller
# looks the name up in, so `drift.embedding_round` (the input round) and
# `sharing.embedding_round` (the hidden rounds) are told apart.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("knowmap.drift", "build_topology", "graph.build"),
    ("knowmap.graph", "build_topology", "graph.build"),
    ("knowmap.graph", "KnowledgeGraph.canonical_json", "graph.serialize"),
    ("knowmap.drift", "apply_fluctuation", "features.apply_fluctuation"),
    ("knowmap.drift", "feature_vector", "features.feature_vector"),
    ("knowmap.drift", "set_workload", "features.set_workload"),
    ("knowmap.drift", "features_at", "features.features_at"),
    ("knowmap.drift", "init_layers", "embedding.init_layers"),
    ("knowmap.drift", "embedding_round", "embedding.input_round"),
    ("knowmap.drift", "run_sharing", "sharing.run"),
    ("knowmap.sharing", "embedding_round", "sharing.hidden_round"),
    ("knowmap.drift", "aggregate", "drift.centroid"),
    ("knowmap.drift", "fit_pca", "pca.fit"),
    ("knowmap.drift", "transform", "pca.transform"),
    ("knowmap.drift", "write_metrics_json", "drift.write_metrics"),
    ("knowmap.drift", "write_projection_csv", "drift.write_projection"),
    ("knowmap.drift", "write_knowledge_map_json", "sharing.write_json"),
    ("knowmap.drift", "write_knowledge_map_csv", "sharing.write_csv"),
    ("knowmap.svgplot", "write_drift_svg", "svgplot.write"),
    ("knowmap.drift", "run_drift", "drift.run"),
    ("knowmap.drift", "export_result", "drift.export"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the recorder's list

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects the spans of one run, nested by call order."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """fn, recording one span per call."""
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = Span(name, 0.0, 0.0, open_[-1] if open_ else None)
            open_.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()

        return timed


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for kid in sorted(kids, key=lambda k: k.start):
            lo, hi = max(kid.start, reach), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.duration - covered)
    return result


def _resolve(module_name: str, dotted: str) -> tuple[object, str] | None:
    owner: object = importlib.import_module(module_name)
    *path, attribute = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attribute) if hasattr(owner, attribute) else None


@contextmanager
def installed(recorder: Recorder) -> Iterator[list[str]]:
    """Wrap every entry point for the duration of the block.

    Yields the entry points that no longer exist.  Their spans are reported
    as absent, so a refactor that deletes one does not break the benchmark.
    """
    restore: list[tuple[object, str, object]] = []
    absent: list[str] = []
    try:
        for module_name, dotted, span_name in ENTRY_POINTS:
            found = _resolve(module_name, dotted)
            if found is None:
                absent.append(f"{module_name}.{dotted}")
                continue
            owner, attribute = found
            original = getattr(owner, attribute)
            restore.append((owner, attribute, original))
            setattr(owner, attribute, recorder.wrap(span_name, original))
        yield absent
    finally:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)
