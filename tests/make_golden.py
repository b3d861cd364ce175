"""Write tests/golden.json, the golden values that test_golden.py compares against.

    PYTHONPATH=src python tests/make_golden.py

Each case is one default drift run (seed 42, full sweep) on a small graph.
It stores the centroid distances, the settled baseline Knowledge Map in node
order and both projection axes.  JSON floats round-trip exactly, so every
value keeps its 17 significant digits.

The checked-in golden.json holds the values of the code before the
array-native embedding round, which sums each neighbourhood in another order.
Today's code reproduces them within test_golden's rtol 1e-12 / atol 1e-14,
but not byte for byte: all 12 cases differ, by at most 1.9e-16 absolute.
Re-running this script therefore re-bases every value onto today's sums, so
it must not be re-run for a refactor.  Regenerate only when a change is meant
to move the science, and say so where the change is recorded.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

from knowmap.drift import DriftConfig, run_drift
from knowmap.graph import TopologyKind

GOLDEN_FILE = Path(__file__).with_name("golden.json")
TOPOLOGIES = (TopologyKind.RING, TopologyKind.FULLY_CONNECTED, TopologyKind.LINE)
SIZES = (10, 20)
ROUNDS = (2, 3)


def case_name(kind: TopologyKind, nodes: int, rounds: int) -> str:
    return f"{kind.value}-{nodes}-r{rounds}"


def cases() -> dict[str, DriftConfig]:
    return {
        case_name(kind, nodes, rounds): DriftConfig(topology=kind, nodes=nodes, rounds=rounds)
        for kind, nodes, rounds in itertools.product(TOPOLOGIES, SIZES, ROUNDS)
    }


def summarize(config: DriftConfig) -> dict[str, list]:
    """The golden values of one run."""
    result = run_drift(config)
    return {
        "centroid_distance": [float(d) for d in result.centroid_distances],
        "baseline_map": result.baseline_map.states.tolist(),
        "projection_x": [float(x) for x in result.projection[:, 0]],
        "projection_y": [float(y) for y in result.projection[:, 1]],
    }


def main() -> None:
    lines = [
        f"{json.dumps(name)}: {json.dumps(summarize(config), sort_keys=True)}"
        for name, config in cases().items()
    ]
    GOLDEN_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN_FILE} ({len(lines)} cases)")


if __name__ == "__main__":
    main()
