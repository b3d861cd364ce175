"""CLI behavior: defaults, artifacts, exit codes, and determinism."""

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import knowmap
from knowmap.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, build_parser, drift_config, main
from knowmap.drift import (
    KNOWLEDGE_MAP_FILE,
    METRICS_FILE,
    PLOT_FILE,
    PROJECTION_FILE,
    DriftConfig,
    run_drift,
)
from knowmap.graph import TopologyKind, build_topology

DRIFT_FILES = (METRICS_FILE, PROJECTION_FILE, KNOWLEDGE_MAP_FILE, PLOT_FILE)


def test_drift_without_flags_builds_the_default_config():
    args = build_parser().parse_args(["drift"])
    assert drift_config(args) == DriftConfig()
    assert args.out == "."


def test_drift_and_embed_without_flags_build_the_default_config():
    for command in ("drift", "embed"):
        assert drift_config(build_parser().parse_args([command])) == DriftConfig(), command
    assert build_parser().parse_args(["embed"]).out == "embeddings.csv"


def test_each_config_field_is_set_by_exactly_one_drift_flag():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    dests = [action.dest for action in commands.choices["drift"]._actions]
    for field in dataclasses.fields(DriftConfig):
        assert dests.count(field.name) == 1, field.name
    flags = "--topology line --nodes 7 --seed 3 --target node-2 --baseline 60 --dim 4"
    flags += " --rounds 5 --tolerance 0.001 --fluctuation 0.05"
    args = build_parser().parse_args(["drift", *flags.split()])
    assert drift_config(args) == DriftConfig(
        topology=TopologyKind.LINE, nodes=7, seed=3, target="node-2", baseline_workload=60,
        dimension=4, rounds=5, sharing_tolerance=1e-3, fluctuation=0.05,
    )


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


# Every refused config exits 2 with one line on stderr, "error: " and then the message, writes
# nothing to stdout and creates no --out.  Each row is the argv, less --out, and the message.
REFUSED_ARGV = [
    ("drift --topology ring --nodes 2", "nodes must be an integer >= 3, got 2"),
    ("drift --baseline 55", "workload must be an integer multiple of 10 in [0, 100], got 55"),
    ("embed --workload 33", "workload must be an integer multiple of 10 in [0, 100], got 33"),
    ("drift --fluctuation 0.5", "fluctuation magnitude must be in [0, 0.1), got 0.5"),
    ("drift --tolerance nan", "tolerance must be finite, got nan"),
    ("drift --tolerance inf", "tolerance must be finite, got inf"),
    ("drift --seed -1", "seed must be a non-negative integer, got -1"),
    ("embed --seed -1", "seed must be a non-negative integer, got -1"),
    # refused before any settle: drift projects onto two axes
    ("drift --dim 1", "dimension must be an integer >= 2, got 1"),
    ("drift --nodes 5 --target node-99", "target must be a node id node-0 .. node-4, got 'node-99'"),
    ("topology --kind ring --nodes 1", "ring topology size must be an integer >= 3, got 1"),
    # one past the largest full graph MAX_EDGES admits, so nothing is built; a ring or line
    # that large is past drift.MAX_RUN_BYTES first
    *((f"{command} full --nodes 3163", "full topology on 3163 nodes exceeds 10000000 edges")
      for command in ("topology --kind", "embed --topology", "drift --topology")),
    # a 1000-round embed of 1000 nodes at dim 1024 would keep 8 GB of rounds
    ("embed --nodes 1000 --dim 1024 --rounds 1000",
     "nodes=1000 x (8 x dimension=1024 x (max(rounds=1000, 12) + SCRATCH_STATES=9) + "
     "NODE_BYTES=1043) = 8266771000 bytes > MAX_RUN_BYTES = 4294967296"),
]


@pytest.mark.parametrize(
    "argv, message", REFUSED_ARGV,
    ids=[argv.replace(" --", "-").replace(" ", "=") for argv, _ in REFUSED_ARGV],
)
def test_a_refused_config_exits_2(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main([*argv.split(), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_embed_accepts_dimension_1(tmp_path):
    # embed has no projection, so one column is fine there
    path = tmp_path / "emb.csv"
    assert main(["embed", "--dim", "1", "--out", str(path)]) == EXIT_OK
    assert path.read_text().splitlines()[0] == "node_id,round,e0"


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
    # the baseline and the 11 step settles: none converges in the default 2 rounds, all in 50
    assert out.splitlines()[-1].endswith(" converged=0/12")
    main(["drift", "--topology", "full", "--nodes", "5", "--rounds", "50", "--out", str(tmp_path)])
    assert capsys.readouterr().out.splitlines()[-1].endswith(" converged=12/12")


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
    rounds = DriftConfig().rounds
    for round_index in range(1, rounds + 1):
        assert [row[0] for row in rows if row[1] == str(round_index)] == node_ids
    assert len(rows) == 12 * rounds


# sha256 of `knowmap embed --topology T --nodes 9 --dim 5 --seed 3 --rounds R`:
# the drift baseline settle, its peers jittered by the default fluctuation, so
# each topology's neighbourhoods give it its own rows from the input round on.
EMBED_9_SHA256 = {
    "ring": {
        1: "90cbf29e0e47a23f071d907719e1448c487f768dd56c5bd5e4a62cdb6b02acb0",
        2: "20849b457a2a322cd581a0402c14473bc0c6c57d5a7ba63646fed2e19a5e9951",
        5: "2a9f06b0971439f0ed04403530f3ab6ff7d52ab14840e4e40dc30671c46be6b3",
    },
    "full": {
        1: "68cf3307aa9704ecc7602253e2115fa1bec138a1e207b695203f89e2c1dc611a",
        2: "0851b308a748b8b2710305afa69abdabc7bc0af8e01fc89abf6f63434f7e6590",
        5: "3f6eb57154c2074aa7cac91088e97e17b3d2ac4fda1c2415fbaab74b1e00ca2a",
    },
    "line": {
        1: "a577b5a61b8d9e81de3c6775dad2b450db49ab9ec04e0995c14e59857f585656",
        2: "fc743b1b6418fe5698e927176b35238d2f3a06b3cda1e2f9e37c131d3f763c58",
        5: "27ad33c0a2ad627474956410e7d85f837ab144fbd53b8bfa49e6267fe19ee5cf",
    },
}


@pytest.mark.parametrize("rounds", [1, 2, 5])
@pytest.mark.parametrize("topology", ["ring", "full", "line"])
def test_embed_csv_is_pinned(tmp_path, topology, rounds):
    path = tmp_path / "emb.csv"
    argv = ["embed", "--topology", topology, "--nodes", "9", "--dim", "5", "--seed", "3"]
    assert main(argv + ["--rounds", str(rounds), "--out", str(path)]) == EXIT_OK
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EMBED_9_SHA256[topology][rounds]


@pytest.mark.parametrize("rounds", [4, 50])
@pytest.mark.parametrize("topology", ["ring", "full", "line"])
def test_embed_last_round_is_the_drift_baseline_map(tmp_path, topology, rounds):
    # embed settles exactly drift's baseline and stops where it stops (at 50
    # rounds the default tolerance ends it early): its last round is the
    # baseline map, byte for byte
    path = tmp_path / "emb.csv"
    flags = ["--topology", topology, "--nodes", "7", "--rounds", str(rounds), "--seed", "5"]
    assert main(["embed", *flags, "--workload", "30", "--out", str(path)]) == EXIT_OK
    assert main(["drift", *flags, "--baseline", "30", "--out", str(tmp_path / "drift")]) == EXIT_OK
    header, *rows = path.read_bytes().splitlines(keepends=True)
    baseline = (tmp_path / "drift" / "embeddings_baseline.csv").read_bytes()
    assert header + b"".join(rows[-7:]) == baseline
    assert rows[-7:] != rows[:7]
    rounds_used = json.loads((tmp_path / "drift" / KNOWLEDGE_MAP_FILE).read_text())["round"]
    assert len(rows) == 7 * rounds_used
    assert (rounds_used == rounds) == (rounds == 4)  # fifty rounds do not all run


def test_embed_shows_the_topology(tmp_path):
    # the ring's one extra link, node-8 to node-0, shows; every node keeps its own row
    tables = {}
    for topology in ("ring", "line"):
        path = tmp_path / f"{topology}.csv"
        argv = ["embed", "--topology", topology, "--nodes", "9", "--out", str(path)]
        assert main(argv) == EXIT_OK
        tables[topology] = path.read_bytes()
    assert tables["ring"] != tables["line"]
    for table in tables.values():
        last_round = table.splitlines()[-9:]
        assert len({row.split(b",", 2)[2] for row in last_round}) == 9


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
    # The coordinates read back from projection.csv draw the drift's own SVG, byte for byte.
    for flags in ("ring", "full", "line", "ring --rounds 50 --tolerance 0"):
        run = tmp_path / flags.replace(" ", "")
        topology, *rest = flags.split()
        args = ["--topology", topology, "--nodes", "12", *rest, "--out", str(run)]
        assert main(["drift", *args]) == EXIT_OK
        replot = ["--projection", str(run / PROJECTION_FILE), "--out", str(run / "replot.svg")]
        assert main(["plot", *replot, "--title", f"{topology} n=12 target=node-0"]) == EXIT_OK
        assert (run / "replot.svg").read_bytes() == (run / PLOT_FILE).read_bytes(), flags


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


def test_a_closed_pipe_ends_the_run_quietly():
    # the reader takes 10 bytes of a 13.5 MB topology, then closes the pipe
    src = str(Path(knowmap.__file__).resolve().parent.parent)
    with subprocess.Popen(
        [sys.executable, "-m", "knowmap", "topology", "--kind", "full", "--nodes", "400"],
        env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        stderr = proc.stderr.read()
    assert proc.returncode == EXIT_RUNTIME
    assert stderr == b""


def test_plot_writes_utf8_in_an_ascii_locale(tmp_path):
    # the C locale with neither locale coercion nor UTF-8 mode: open()'s default is ASCII
    assert main(["drift", "--nodes", "5", "--out", str(tmp_path)]) == EXIT_OK
    src = str(Path(knowmap.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "C"}
    env.update(PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    out = tmp_path / "t.svg"
    argv = ["plot", "--projection", str(tmp_path / PROJECTION_FILE), "--title", "débit"]
    done = subprocess.run(
        [sys.executable, "-m", "knowmap", *argv, "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert ">débit</text>" in out.read_bytes().decode("utf-8")


# Digests of `knowmap drift --nodes 12` plus the flags below, taken from the
# per-row CSV writers before csv_rows: sha256 of the "name sha256" lines of
# every file written, then of projection.csv alone.  The first was re-based
# when knowledge_map.json entries took the CSVs' "%.17g" text; json.load of
# that file read back the same doubles.  Every default run has negative and
# sub-1e-4 projection values; ring-deep has only sub-1e-4 ones.
DRIFT_12_SHA256 = {
    "ring": (
        "481c1ffdc8a6e7e79f250d03612a0a8b4e4aba1e769f88bc8cb570c7fbb398b5",
        "a0fae16c0824484f1585ab41c900605212eeda1eb71588c45886df8150aecd9c",
    ),
    "full": (
        "a9c3c5b31cc6a9a75ed076993695428426c17e9cb47b8dd48744c0e29f6439bc",
        "e66f5d0f791ec54372e465cc60fbc7323793eae741d9a1297b2531e289c31974",
    ),
    "line": (
        "cd2f29126b7e702d73ac476f9eea2286419e908a2af68e9c31dba661436d9cc0",
        "6ef9759d5d79538e8abf5ade676b561edb1a79c53c8196b00f78cefaec915491",
    ),
    "ring-deep": (
        "c384f53d58669a62c072a708a8b8f3e8aaaa7e11da1f1c3af6a4c7bb33f0a743",
        "9199806fe98e91d3146395c71348de673ce0193124c83995b8243e9336f6a356",
    ),
    "ring-dim3": (
        "324e6d2e0f4cbab6a9c6a7b06d1da522c81a178c639f83a01d38f5dc3b506ef5",
        "e4694711fb766ef63154da744be33b154fcd15eb3c3002e442272a8210e5d74c",
    ),
}
DRIFT_12_FLAGS = {
    "ring": [],
    "full": ["--topology", "full"],
    "line": ["--topology", "line"],
    "ring-deep": ["--rounds", "50", "--tolerance", "0"],
    "ring-dim3": ["--dim", "3", "--seed", "7", "--fluctuation", "0.05"],
}


@pytest.mark.parametrize("case", sorted(DRIFT_12_SHA256))
def test_drift_artifacts_are_pinned(tmp_path, case):
    argv = ["drift", "--nodes", "12", *DRIFT_12_FLAGS[case], "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    digest = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()
    lines = "".join(f"{p.name} {digest(p)}\n" for p in sorted(tmp_path.iterdir()))
    assert len(list(tmp_path.iterdir())) == 16
    assert (hashlib.sha256(lines.encode()).hexdigest(), digest(tmp_path / PROJECTION_FILE)) == (
        DRIFT_12_SHA256[case]
    ), lines


@pytest.mark.parametrize("flags", [[], ["--rounds", "50", "--tolerance", "0"]])
def test_each_knowledge_map_value_has_one_text(tmp_path, flags):
    # a knowledge_map.json entry is the text of its embeddings_baseline.csv field
    argv = ["drift", "--nodes", "12", *flags]
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    kmap = run_drift(drift_config(build_parser().parse_args(argv))).baseline_map
    text = (tmp_path / KNOWLEDGE_MAP_FILE).read_text(encoding="utf-8")
    entries = json.loads(text, parse_float=str, parse_int=str)["entries"]
    with open(tmp_path / "embeddings_baseline.csv", newline="") as handle:
        fields = {row[0]: row[2:] for row in list(csv.reader(handle))[1:]}
    assert entries == fields
    data = json.loads(text)
    assert text.count('"final_delta": %r,\n' % kmap.final_delta) == 1
    rows = [data["entries"][node] for node in kmap.node_ids]
    assert {type(v) for row in rows for v in row} == {float}
    assert np.array(rows).tobytes() == kmap.states.tobytes()


# sha256 of projection.csv of `knowmap drift --tolerance 0` runs deep enough
# that every row over-smooths into one vector, as written before the
# all-zero fallback was first deleted.
COLLAPSED_SHA256 = {
    ("line", "12", "50"): "c141c86f3bd3ea01ab477179237730106110deb9443b5f73a6e6ad11469d91bc",
    ("full", "3", "30"): "ffd24478f1ce24db124e09d382014285f6bcea09da22758e1ccc69c9e8e40eb1",
    ("ring", "3", "30"): "ffd24478f1ce24db124e09d382014285f6bcea09da22758e1ccc69c9e8e40eb1",
    ("ring", "40", "30"): "6e87c455eaa4c401cdfc787643744c35eb771f23b5cea3712c7c791b7996ac75",
}


@pytest.mark.parametrize("topology, nodes, rounds", sorted(COLLAPSED_SHA256))
def test_collapsed_deep_run_projects_to_zeros(tmp_path, topology, nodes, rounds):
    flags = ["--topology", topology, "--nodes", nodes, "--rounds", rounds, "--tolerance", "0"]
    assert main(["drift", *flags, "--out", str(tmp_path)]) == EXIT_OK
    assert len(list(tmp_path.iterdir())) == 16
    projection = tmp_path / PROJECTION_FILE
    with open(projection, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    assert {cell for row in rows for cell in row[2:]} == {"0"}
    digest = hashlib.sha256(projection.read_bytes()).hexdigest()
    assert digest == COLLAPSED_SHA256[(topology, nodes, rounds)]
