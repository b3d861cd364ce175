"""CLI behavior: defaults, artifacts, exit codes, and determinism."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest

import knowmap
from knowmap.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, build_parser, main
from knowmap.drift import (
    DEFAULT_BASELINE,
    DEFAULT_SEED,
    KNOWLEDGE_MAP_FILE,
    METRICS_FILE,
    PLOT_FILE,
    PROJECTION_FILE,
)
from knowmap.embedding import DEFAULT_DIMENSION, DEFAULT_ROUNDS
from knowmap.features import DEFAULT_MAGNITUDE
from knowmap.graph import TopologyKind, build_topology
from knowmap.sharing import DEFAULT_TOLERANCE

DRIFT_FILES = (METRICS_FILE, PROJECTION_FILE, KNOWLEDGE_MAP_FILE, PLOT_FILE)


def test_drift_defaults_track_module_constants():
    args = build_parser().parse_args(["drift"])
    assert args.topology == "ring"
    assert args.nodes == 10
    assert args.seed == DEFAULT_SEED
    assert args.target is None
    assert args.baseline == DEFAULT_BASELINE
    assert args.dim == DEFAULT_DIMENSION
    assert args.rounds == DEFAULT_ROUNDS
    assert args.tolerance == DEFAULT_TOLERANCE
    assert args.fluctuation == DEFAULT_MAGNITUDE
    assert args.out == "."


def test_drift_writes_all_artifacts(tmp_path, capsys):
    code = main(["drift", "--nodes", "5", "--out", str(tmp_path)])
    assert code == EXIT_OK
    for name in DRIFT_FILES:
        assert (tmp_path / name).is_file(), name
    assert (tmp_path / "embeddings_baseline.csv").is_file()
    step_files = sorted(p.name for p in tmp_path.glob("embeddings_w*.csv"))
    assert step_files == [f"embeddings_w{w:03d}.csv" for w in range(0, 101, 10)]
    out = capsys.readouterr().out
    assert out.count("wrote ") == len(list(tmp_path.iterdir()))
    assert "min_distance_workload=" in out


def test_drift_metrics_reflect_flags(tmp_path):
    main(
        [
            "drift",
            "--topology",
            "line",
            "--nodes",
            "6",
            "--target",
            "node-2",
            "--out",
            str(tmp_path),
        ]
    )
    data = json.loads((tmp_path / METRICS_FILE).read_text())
    assert data["topology"] == "line"
    assert data["n"] == 6
    assert data["target"] == "node-2"


def test_drift_runs_are_byte_identical(tmp_path):
    dirs = (tmp_path / "one", tmp_path / "two")
    for d in dirs:
        assert main(["drift", "--nodes", "5", "--out", str(d)]) == EXIT_OK
    names = sorted(p.name for p in dirs[0].iterdir())
    assert sorted(p.name for p in dirs[1].iterdir()) == names
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def test_drift_rejects_too_small_ring(tmp_path, capsys):
    code = main(["drift", "--topology", "ring", "--nodes", "2", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_drift_rejects_bad_baseline(tmp_path, capsys):
    code = main(["drift", "--baseline", "55", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_drift_rejects_bad_fluctuation(tmp_path):
    assert main(["drift", "--fluctuation", "0.5", "--out", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_drift_rejects_non_finite_tolerance(tmp_path, capsys, value):
    code = main(["drift", "--tolerance", value, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "tolerance must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["drift", "embed"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    code = main([command, "--seed", "-1", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


def test_drift_rejects_unknown_target(tmp_path):
    code = main(["drift", "--nodes", "5", "--target", "node-99", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG


def test_help_exits_zero_and_lists_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["drift", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in (
        "--topology",
        "--nodes",
        "--seed",
        "--target",
        "--baseline",
        "--dim",
        "--rounds",
        "--tolerance",
        "--fluctuation",
        "--out",
    ):
        assert flag in text


def test_top_level_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command in ("drift", "topology", "embed", "plot"):
        assert command in out


def test_summary_line_names_the_configuration(tmp_path, capsys):
    main(["drift", "--topology", "full", "--nodes", "5", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert "topology=full n=5 min_distance_workload=" in out


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["drift", "--frobnicate"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_topology_prints_canonical_json(capsys):
    assert main(["topology", "--kind", "ring", "--nodes", "3"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert len(data["nodes"]) == 3
    assert len(data["edges"]) == 6


def test_topology_writes_file(tmp_path, capsys):
    path = tmp_path / "ring.json"
    assert main(["topology", "--kind", "full", "--nodes", "4", "--out", str(path)]) == EXIT_OK
    text = path.read_text()
    assert text == build_topology(TopologyKind.FULLY_CONNECTED, 4).canonical_json() + "\n"
    assert len(json.loads(text)["edges"]) == 12
    assert "wrote" in capsys.readouterr().out


def test_topology_rejects_invalid_size(capsys):
    assert main(["topology", "--kind", "ring", "--nodes", "1"]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["topology", "--kind", "full", "--nodes", "3163"],
        ["embed", "--topology", "ring", "--nodes", "5000001"],
        ["drift", "--topology", "line", "--nodes", "5000002"],
    ],
)
def test_more_than_max_edges_is_a_config_error(argv, tmp_path, capsys):
    # each size is one past the largest MAX_EDGES admits, so nothing is built
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "edges" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_embed_writes_per_round_rows(tmp_path):
    path = tmp_path / "emb.csv"
    code = main(
        ["embed", "--topology", "line", "--nodes", "4", "--rounds", "3", "--out", str(path)]
    )
    assert code == EXIT_OK
    lines = path.read_text().splitlines()
    assert lines[0].startswith("node_id,round,e0")
    assert len(lines) == 1 + 4 * 3


def test_embed_rows_follow_the_graph_node_order(tmp_path):
    # ids sort as strings, so node-10 and node-11 come before node-2
    path = tmp_path / "emb.csv"
    assert main(["embed", "--topology", "ring", "--nodes", "12", "--out", str(path)]) == EXIT_OK
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    node_ids = build_topology(TopologyKind.RING, 12).node_ids
    assert node_ids[:5] == ["node-0", "node-1", "node-10", "node-11", "node-2"]
    for round_index in range(1, DEFAULT_ROUNDS + 1):
        assert [row[0] for row in rows if row[1] == str(round_index)] == node_ids
    assert len(rows) == 12 * DEFAULT_ROUNDS


def test_embed_rejects_bad_workload(tmp_path):
    path = tmp_path / "emb.csv"
    assert main(["embed", "--workload", "33", "--out", str(path)]) == EXIT_CONFIG


# sha256 of `knowmap embed --topology T --nodes 9 --dim 5 --seed 3 --rounds R`.
# A uniform load gives every node the same row, so ring and line agree; by
# round 5 the full topology's dense neighbour sum has rounded differently.
EMBED_9_SHA256 = {
    1: "077b7259bc5731636749c3ae673b719e1bf32dd8e184f098a59669adeef63aa3",
    2: "562675a06bfdba50f3ef53b27b38eef7bd4815636a3e53cfec32ef65115ccafb",
    5: "d9e2a0b7729dcc5bfeae09ddc12e18ecdbe9fba1f36e435d8dba335412965ce2",
}
EMBED_9_FULL_5_SHA256 = "0537a59c8070e17448370753f57599c635770055b99b80f005418d3521918134"


@pytest.mark.parametrize("rounds", sorted(EMBED_9_SHA256))
@pytest.mark.parametrize("topology", ["ring", "full", "line"])
def test_embed_csv_is_pinned(tmp_path, topology, rounds):
    path = tmp_path / "emb.csv"
    argv = ["embed", "--topology", topology, "--nodes", "9", "--dim", "5", "--seed", "3"]
    assert main(argv + ["--rounds", str(rounds), "--out", str(path)]) == EXIT_OK
    expected = EMBED_9_SHA256[rounds]
    if topology == "full" and rounds == 5:
        expected = EMBED_9_FULL_5_SHA256
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected


def test_embed_last_round_is_the_drift_baseline_map(tmp_path):
    # with no fluctuation the drift baseline is embed's uniform load, and at
    # tolerance 0 it settles through every round: the same rows, byte for byte
    path = tmp_path / "emb.csv"
    shape = ["--topology", "line", "--nodes", "7", "--rounds", "4"]
    assert main(["embed", *shape, "--out", str(path)]) == EXIT_OK
    drift = ["drift", *shape, "--fluctuation", "0", "--tolerance", "0"]
    assert main([*drift, "--out", str(tmp_path / "drift")]) == EXIT_OK
    header, *rows = path.read_bytes().splitlines(keepends=True)
    baseline = (tmp_path / "drift" / "embeddings_baseline.csv").read_bytes()
    assert rows[-7:] != rows[:7]
    assert header + b"".join(rows[-7:]) == baseline


def test_plot_round_trips_a_projection(tmp_path):
    assert main(["drift", "--nodes", "5", "--out", str(tmp_path)]) == EXIT_OK
    out = tmp_path / "replot.svg"
    code = main(
        ["plot", "--projection", str(tmp_path / PROJECTION_FILE), "--out", str(out)]
    )
    assert code == EXIT_OK
    text = out.read_text()
    # one circle per data row: 5 baseline nodes + 11 sweep steps
    assert text.count("<circle") == 16
    assert "<polyline" in text
    ElementTree.fromstring(text)  # must be well-formed XML


def test_plot_missing_file_is_a_runtime_error(tmp_path, capsys):
    code = main(["plot", "--projection", str(tmp_path / "nope.csv")])
    assert code == EXIT_RUNTIME
    assert "error:" in capsys.readouterr().err


def test_plot_malformed_csv_is_a_config_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("label,workload_pct,x,y\nrow,notanint,0.0,0.0\n")
    assert main(["plot", "--projection", str(bad)]) == EXIT_CONFIG
    bad.write_text("wrong,header\n")
    assert main(["plot", "--projection", str(bad)]) == EXIT_CONFIG
    bad.write_text("label,workload_pct,x,y\n")
    assert main(["plot", "--projection", str(bad)]) == EXIT_CONFIG
    for row in ("row,50,nan,0.0", "row,50,0.0,inf"):
        bad.write_text(f"label,workload_pct,x,y\nok,50,1.0,2.0\n{row}\n")
        assert main(["plot", "--projection", str(bad)]) == EXIT_CONFIG


def test_python_dash_m_knowmap_runs_the_cli(tmp_path):
    src = str(Path(knowmap.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "knowmap", "drift", "--nodes", "5", "--out", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert all((tmp_path / name).is_file() for name in DRIFT_FILES)
