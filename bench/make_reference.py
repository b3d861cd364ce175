"""Regenerate bench/reference.json from the code in this checkout.

    python3 bench/make_reference.py

Run it only on a commit whose outputs are known to be right: every later
run is checked against what it writes.  It stores a summary of each drift
workload's artifacts for the shipped seeds, and the sha256 of the topology
workload's output, which takes no seed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
SHIPPED_SEEDS = (1, 2, 3, 4, 5)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import harness
    import workloads

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    reference: dict[str, dict] = {}
    try:
        for name in workloads.NAMES:
            for seed in SHIPPED_SEEDS:
                workload = workloads.make(name, seed)
                run_dir = Path(tempfile.mkdtemp(dir=out))
                workloads.run_once(workload, run_dir)
                if workload.drift is None:
                    path = run_dir / workloads.TOPOLOGY_FILE
                    reference[name] = {"*": checks.summarize_topology(path)}
                    break
                summary, problems = checks.summarize_drift(run_dir, workload.drift)
                if problems:
                    sys.exit(f"{name} seed {seed} breaks an invariant: {problems}")
                reference.setdefault(name, {})[str(seed)] = summary
                print(f"{name} seed {seed}: drift_seed {workload.drift.seed}", flush=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    harness.REFERENCE_FILE.write_text(json.dumps(reference, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
