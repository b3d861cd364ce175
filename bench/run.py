"""knowmap benchmark: run one workload closed-loop and report its metrics.

    python3 bench/run.py --workload drift-full-300 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; knowmap is imported from its `src`.  The
last line of standard output is one JSON object: the output-check verdict,
runs attempted and failed, and the end-to-end metrics (`--trace 0`) or the
per-layer metrics (`--trace 1`).  `--workload all` runs every workload, each
in a process of its own, and prints one table.  See bench/README.md.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy loads; the process stays within
# its cores with one Python thread and one BLAS thread.
THREAD_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

BENCHMARK = ROOT / "BENCHMARK.json"


def _import_knowmap():
    """knowmap from this checkout's src, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import knowmap
    except ImportError as exc:
        sys.exit(f"error: cannot import knowmap from {SRC}: {exc}")
    if Path(knowmap.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"error: knowmap was imported from {knowmap.__file__}, not {SRC}")
    return knowmap


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, knowmap_version: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_threads": int(THREAD_ENV["OPENBLAS_NUM_THREADS"]),
        "knowmap": knowmap_version,
        "git_sha": _git_sha(),
        "seed": seed,
    }


def run_workload(args: argparse.Namespace) -> int:
    knowmap = _import_knowmap()
    import harness
    import workloads

    try:
        workload = workloads.make(args.workload, args.seed)
    except ValueError as exc:
        sys.exit(f"error: {exc}")
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}"
          + (f" drift_seed {workload.drift.seed}" if workload.drift else ""))
    print("provenance " + json.dumps(provenance(args.seed, knowmap.__version__)))
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        m = harness.measure(workload, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if OUT.exists() and not any(OUT.iterdir()):
            OUT.rmdir()

    untraced = [r.wall_s for r in m.runs if not r.traced]
    q1, run_s, q3 = harness.quartiles(untraced)
    attempted = len(m.runs)
    verdict = "ok" if not m.problems else "FAILED"
    compared = "stored reference" if m.referenced else "invariants only, no stored reference"
    print(f"check {verdict} ({compared}); "
          f"error_rate {m.failed}/{attempted} = {m.failed / attempted:.3g}")
    for problem in m.problems:
        print(f"  {problem}")
    print(f"run_s {run_s:.4f} s (p25 {q1:.4f}, p75 {q3:.4f}, n={len(untraced)})")

    if args.trace:
        values = layer_values(m, run_s)
    else:
        setups = harness.setup_seconds(SRC, dict(os.environ))
        values = {"run_s": run_s, "setup_s": harness.quartiles(setups)[1],
                  "peak_rss_mb": m.peak_rss_mb}
        print(f"setup_s is the median of {len(setups)} imports")
    declared = json.loads(BENCHMARK.read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not m.problems and m.failed == 0,
        "attempted": attempted,
        "failed": m.failed,
        "metrics": metrics,
    }))
    return 0


def layer_values(m, untraced_run_s: float) -> dict[str, float]:
    """Per-layer metrics: medians over the traced runs, counts from the first."""
    import harness

    traced = [r for r in m.runs if r.traced]

    def median(key: str) -> float:
        return harness.quartiles([r.layers[key] for r in traced])[1]

    values = {k: median(k) for k in [*harness.SPAN_SECONDS, "sharing.delta_s",
                                     "drift.self_s", "features.draw_us"]}
    values.update({k: traced[0].counts.get(k, 0)
                   for k in [*harness.SPAN_COUNTS, *harness.RUN_COUNTS]})
    reads, hidden = values["embedding.neighbor_reads"], values["sharing.hidden_rounds"]
    rounds_s = values["embedding.input_round_s"] + values["sharing.hidden_round_s"]
    values["embedding.ns_per_neighbor_read"] = rounds_s / reads * 1e9 if reads else 0.0
    values["sharing.round_ms"] = values["sharing.hidden_round_s"] / hidden * 1e3 if hidden else 0.0
    traced_run_s = harness.quartiles([r.wall_s for r in traced])[1]
    values["trace.overhead_s"] = traced_run_s - untraced_run_s
    values["trace.covered_share"] = 1.0 - values["drift.self_s"] / median("run_s")
    if m.absent:
        print("absent spans (entry points not found, reported as 0): " + ", ".join(m.absent))
    return values


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh process of its own, then one table."""
    _import_knowmap()
    import workloads

    results = {}
    for name in workloads.NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print()
    for name, result in results.items():
        rate = result["failed"] / result["attempted"]
        shown = (" ".join(f"{k}={v['value']:.4g}{v['unit']}" for k, v in result["metrics"].items())
                 if not args.trace else f"{len(result['metrics'])} per-layer metrics")
        print(f"{name:18s} correct={result['correct']} error_rate={rate:.3g} {shown}")
    print(json.dumps(results))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
