"""The package's public export list, and what importing it loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import knowmap


def test_every_exported_name_resolves_once():
    assert [name for name in knowmap.__all__ if not hasattr(knowmap, name)] == []
    assert len(knowmap.__all__) == len(set(knowmap.__all__))
    # the run API only: every lower-level name is imported from its module
    assert set(knowmap.__all__) == {
        "DriftConfig", "DriftResult", "TopologyKind", "run_drift", "export_result",
        "KnowmapError", "__version__",
    }


def test_import_loads_the_library_and_not_the_cli_or_plot():
    # a fresh interpreter: no module-level import may join this set unnoticed
    src = str(Path(knowmap.__file__).resolve().parent.parent)
    code = "import json, sys, knowmap; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, check=True,
    )
    modules = json.loads(out.stdout)
    loaded = [name for name in modules if name.split(".")[0] == "knowmap"]
    assert loaded == ["knowmap"] + [
        f"knowmap.{name}"
        for name in ("drift", "embedding", "errors", "features", "graph", "pca", "sharing")
    ]
    # numpy.random costs about 2.5 MB and 6-9 ms, and no run needs it (next test)
    assert "numpy.random" not in modules


@pytest.mark.parametrize(
    "argv", [["drift", "--nodes", "12"], ["embed", "--nodes", "9"]], ids=["drift", "embed"]
)
def test_a_run_never_loads_numpy_random(tmp_path, argv):
    # init_layer draws the weights with features.uniform_stream, not numpy's Generator
    src = str(Path(knowmap.__file__).resolve().parent.parent)
    out = str(tmp_path / ("out.csv" if argv[0] == "embed" else "out"))
    code = (
        "import json, sys; from knowmap.cli import main; "
        "main(sys.argv[1:]); print(json.dumps(sorted(sys.modules)))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, *argv, "--out", out],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, check=True, text=True,
    )
    modules = json.loads(run.stdout.splitlines()[-1])
    assert "knowmap.embedding" in modules
    assert "numpy.random" not in modules
