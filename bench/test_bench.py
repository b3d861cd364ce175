"""Tests of the benchmark itself: smoke runs, span arithmetic, output checks.

Run from the repository root with `PYTHONPATH=src python -m pytest bench`.
"""

import json

import pytest

import checks
import harness
import spans
import workloads

TINY_NODES = 5


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run_of_each_workload(name, trace, tmp_path):
    workload = workloads.make(name, seed=1, nodes=TINY_NODES)
    m = harness.measure(workload, seconds=0.0, trace=trace, scratch=tmp_path)
    assert m.problems == []
    assert m.failed == 0
    assert len(m.runs) == (2 if trace else 1)
    assert m.absent == []
    if trace:
        (traced,) = [r for r in m.runs if r.traced]
        assert traced.layers["run_s"] > 0.0
        if workload.drift is not None:
            assert traced.counts["embedding.init_layers_calls"] == 1 + len(workload.drift.sweep)
            assert traced.layers["drift.self_s"] < traced.layers["run_s"]


def test_line_deep_settles_at_its_fixed_round(tmp_path):
    workload = workloads.make("drift-line-deep", seed=1, nodes=TINY_NODES)
    workloads.run_once(workload, tmp_path)
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert set(metrics["rounds_used"]) == {workloads.LINE_DEEP_SETTLING_ROUND}


def test_self_times_on_a_hand_built_span_tree():
    tree = [
        spans.Span("root", 0.0, 10.0, None),
        spans.Span("a", 1.0, 4.0, 0),
        spans.Span("a.child", 2.0, 3.0, 1),
        spans.Span("b", 3.0, 6.0, 0),  # overlaps a: the union counts once
        spans.Span("c", 8.0, 12.0, 0),  # runs past root: clipped to root
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])


def test_recorder_nests_spans_by_call_order():
    recorder = spans.Recorder()
    inner = recorder.wrap("inner", lambda: None)
    outer = recorder.wrap("outer", lambda: [inner(), inner()])
    outer()
    assert [(s.name, s.parent) for s in recorder.spans] == [
        ("outer", None), ("inner", 0), ("inner", 0)
    ]


def test_missing_entry_point_is_reported_absent_and_the_rest_restored(monkeypatch):
    import knowmap.drift

    original = knowmap.drift.run_drift
    monkeypatch.setattr(spans, "ENTRY_POINTS", (
        ("knowmap.drift", "deleted_by_a_refactor", "gone"),
        ("knowmap.drift", "run_drift", "drift.run"),
    ))
    with spans.installed(spans.Recorder()) as absent:
        assert absent == ["knowmap.drift.deleted_by_a_refactor"]
        assert knowmap.drift.run_drift is not original
    assert knowmap.drift.run_drift is original


@pytest.fixture
def tiny_drift_run(tmp_path):
    workload = workloads.make("drift-full-300", seed=1, nodes=TINY_NODES)
    workloads.run_once(workload, tmp_path)
    reference, problems = checks.summarize_drift(tmp_path, workload.drift)
    assert problems == []
    assert checks.check_drift(tmp_path, workload.drift, reference) == []
    return tmp_path, workload.drift, reference


def test_check_rejects_one_float_nudged_past_the_tolerance(tiny_drift_run):
    out_dir, config, reference = tiny_drift_run
    path = out_dir / "embeddings_w070.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")  # the target's row, which every reference holds
    cells[4] = repr(float(cells[4]) * (1.0 + 3e-12))
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    summary, _ = checks.summarize_drift(out_dir, config)
    problems = checks.compare(summary, reference)
    assert problems and problems[0].startswith("rows/embeddings_w070.csv")


def test_check_accepts_a_change_within_the_tolerance(tiny_drift_run):
    out_dir, config, reference = tiny_drift_run
    path = out_dir / "metrics.json"
    metrics = json.loads(path.read_text())
    metrics["centroid_distance"][0] *= 1.0 + 1e-14
    path.write_text(json.dumps(metrics))
    assert checks.check_drift(out_dir, config, reference) == []


def test_check_rejects_a_changed_rounds_used(tiny_drift_run):
    out_dir, config, reference = tiny_drift_run
    path = out_dir / "metrics.json"
    metrics = json.loads(path.read_text())
    metrics["rounds_used"][0] += 1
    path.write_text(json.dumps(metrics))
    problems = checks.check_drift(out_dir, config, reference)
    assert any(p.startswith("rounds_used") for p in problems)
