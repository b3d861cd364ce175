"""The measuring loop, and the metrics it derives from runs and spans.

Runs are closed-loop: the next starts only after the previous one has
finished and its output has been digested.  Every run is checked: it fails
if it raises, if its artifacts differ in any byte from the first run's, or
if its exact counts differ from the first run's; the first run's artifacts
get the full output check, so a failure there fails every run that matches
them.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans
import workloads

REFERENCE_FILE = Path(__file__).with_name("reference.json")
SETUP_REPEATS = 9

# Per-layer times and counts: span names summed per run.
SPAN_SECONDS = {
    "graph.build_s": ("graph.build",),
    "graph.serialize_s": ("graph.serialize",),
    "features.draw_s": ("features.apply_fluctuation", "features.feature_vector",
                        "features.set_workload", "features.features_at"),
    "embedding.input_round_s": ("embedding.input_round",),
    "embedding.init_layers_s": ("embedding.init_layers",),
    "sharing.run_s": ("sharing.run",),
    "sharing.hidden_round_s": ("sharing.hidden_round",),
    "drift.run_s": ("drift.run",),
    "drift.export_s": ("drift.export",),
    "drift.centroid_s": ("drift.centroid",),
    "sharing.write_csv_s": ("sharing.write_csv",),
    "sharing.write_json_s": ("sharing.write_json",),
    "drift.write_metrics_s": ("drift.write_metrics",),
    "drift.write_projection_s": ("drift.write_projection",),
    "pca.fit_s": ("pca.fit",),
    "pca.transform_s": ("pca.transform",),
    "svgplot.write_s": ("svgplot.write",),
}
SPAN_COUNTS = {
    "features.draws": "features.apply_fluctuation",
    "embedding.init_layers_calls": "embedding.init_layers",
}
RUN_COUNTS = ("graph.edges", "graph.serialize_bytes", "embedding.neighbor_reads",
              "sharing.hidden_rounds", "sharing.converged_steps", "drift.export_bytes")
ROOT_SPAN = "run"
# Spans whose self time is orchestration, not a named layer: drift.self_s.
ORCHESTRATION = (ROOT_SPAN, "drift.run", "drift.export")


@dataclass
class Run:
    traced: bool
    wall_s: float
    error: str | None = None
    digests: dict[str, str] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)


@dataclass
class Measurement:
    runs: list[Run]
    failed: int
    problems: list[str]
    peak_rss_mb: float
    absent: list[str]
    referenced: bool  # whether a stored reference was compared


def load_reference(workload: workloads.Workload) -> dict | None:
    """The stored reference for this workload and seed, if one was shipped."""
    if workload.nodes != workloads.default_nodes(workload.name):
        return None
    stored = json.loads(REFERENCE_FILE.read_text()).get(workload.name, {})
    return stored.get(str(workload.seed), stored.get("*"))


def layer_metrics(recorded: list[spans.Span]) -> dict[str, float]:
    """Per-layer seconds and counts of one traced run."""
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_of: dict[str, float] = {}
    for span, own in zip(recorded, spans.self_times(recorded)):
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
        calls[span.name] = calls.get(span.name, 0) + 1
        self_of[span.name] = self_of.get(span.name, 0.0) + own
    layers = {name: sum(totals.get(s, 0.0) for s in names)
              for name, names in SPAN_SECONDS.items()}
    layers.update({name: calls.get(s, 0) for name, s in SPAN_COUNTS.items()})
    layers["sharing.delta_s"] = self_of.get("sharing.run", 0.0)
    layers["drift.self_s"] = sum(self_of.get(s, 0.0) for s in ORCHESTRATION)
    layers["run_s"] = totals.get(ROOT_SPAN, 0.0)
    draws = calls.get("features.apply_fluctuation", 0)
    layers["features.draw_us"] = (
        totals.get("features.apply_fluctuation", 0.0) / draws * 1e6 if draws else 0.0
    )
    return layers


def measure(workload: workloads.Workload, seconds: float, trace: bool,
            scratch: Path) -> Measurement:
    """Run the workload closed-loop for about `seconds`; with trace, every other run is traced."""
    reference = load_reference(workload)
    runs: list[Run] = []
    absent: list[str] = []
    started = time.perf_counter()
    while True:
        traced = trace and len(runs) % 2 == 1
        out_dir = scratch / f"run{len(runs)}"
        recorder = spans.Recorder()
        run = recorder.wrap(ROOT_SPAN, workloads.run_once) if traced else workloads.run_once
        with spans.installed(recorder) if traced else nullcontext([]) as missing:
            t0 = time.perf_counter()
            try:
                built = run(workload, out_dir)
            except Exception:  # a failed run is counted, not fatal
                built, error = None, traceback.format_exc(limit=3)
            else:
                error = None
            wall = time.perf_counter() - t0
        record = Run(traced, wall, error)
        if built is not None:
            record.counts = workloads.counts(workload, built, out_dir)
            record.digests = checks.digests(out_dir)
            del built
        if traced:
            absent = missing
            record.layers = layer_metrics(recorder.spans)
            record.counts.update({k: int(record.layers[k]) for k in SPAN_COUNTS})
        runs.append(record)
        if len(runs) > 1:
            shutil.rmtree(out_dir, ignore_errors=True)
        elapsed = time.perf_counter() - started
        enough = len(runs) >= (2 if trace else 1)
        if enough and elapsed + wall > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = runs[0]
    if first.error:
        problems = [f"run 0 raised:\n{first.error}"]
    else:
        problems = _check(workload, scratch / "run0", reference)
    failed = 0
    for run in runs:
        # Traced runs also count spans, so counts are compared within a kind.
        same_kind = next(r for r in runs if r.traced == run.traced)
        failed += bool(run.error or problems or run.digests != first.digests
                       or run.counts != same_kind.counts)
    return Measurement(runs, failed, problems, peak_rss_mb, absent, reference is not None)


def _check(workload: workloads.Workload, out_dir: Path, reference: dict | None) -> list[str]:
    try:
        if workload.drift is None:
            path = out_dir / workloads.TOPOLOGY_FILE
            return checks.check_topology(path, workload.nodes, reference)
        return checks.check_drift(out_dir, workload.drift, reference)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"artifacts cannot be read: {type(exc).__name__}: {exc}"]


def setup_seconds(src: Path, env: dict[str, str], repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall time of a fresh interpreter that imports knowmap, once per repeat."""
    env = {**env, "PYTHONPATH": str(src)}
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import knowmap"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
