import json
import subprocess
import sys

import pytest

from nodebalancer.cli import main


SCENARIO = {
    "clusters": [
        {
            "id": "a",
            "node_count": 2,
            "node_capacity": {"cpu_millicores": 4000, "memory_mib": 8192},
            "trace": {"kind": "Constant", "level": 7500},
        },
        {
            "id": "b",
            "node_count": 3,
            "node_capacity": {"cpu_millicores": 4000, "memory_mib": 8192},
            "trace": {"kind": "Constant", "level": 2000},
        },
    ],
    "groups": [
        {
            "id": "g",
            "thresholds": {"t_low": 0.3, "t_high": 0.8},
            "balance_interval": 1,
            "members": ["a", "b"],
        }
    ],
    "ticks": 3,
    "seed": 7,
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO), encoding="utf-8")
    return path


def test_run_writes_all_artifacts(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario_file), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "1 moves" in captured.out
    assert (out / "events.jsonl").exists()
    assert (out / "metrics.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["totals"]["moves"] == 1
    assert summary["ticks"] == 3
    assert "seed" not in summary


def test_validate_ok(scenario_file, capsys):
    assert main(["validate", "--scenario", str(scenario_file)]) == 0
    assert "valid (2 clusters, 1 groups, 3 ticks)" in capsys.readouterr().out


def test_validate_names_the_offending_field(tmp_path, capsys):
    doc = json.loads(json.dumps(SCENARIO))
    doc["clusters"][1]["node_count"] = -2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "clusters[1].node_count" in captured.err


def test_run_rejects_missing_scenario(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1
    assert "scenario error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run", "compare"])
def test_non_utf8_scenario_is_a_scenario_error(tmp_path, capsys, command):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"clusters": "\xff"}')
    args = [command, "--scenario", str(path)]
    if command != "validate":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: cannot read scenario {path}: ")
    assert "utf-8" in err
    assert not (tmp_path / "out").exists()


def test_run_rejects_bad_override(scenario_file, tmp_path, capsys):
    code = main(
        ["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "o"), "--ticks", "0"]
    )
    assert code == 1
    assert "ticks override: must be >= 1" in capsys.readouterr().err


def test_overrides_change_the_run(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--scenario", str(scenario_file), "--out", str(out), "--ticks", "6"])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["ticks"] == 6


def test_run_reports_write_failures(scenario_file, tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    code = main(["run", "--scenario", str(scenario_file), "--out", str(blocker)])
    assert code == 2
    assert "run failed" in capsys.readouterr().err


def test_compare_layout(scenario_file, tmp_path, capsys):
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", str(scenario_file), "--out", str(out)]) == 0
    for sub in ("balanced", "static"):
        for name in ("events.jsonl", "metrics.csv", "summary.json"):
            assert (out / sub / name).exists()
    top = json.loads((out / "summary.json").read_text())
    assert top["balanced"]["totals"]["moves"] == 1
    assert top["static"]["totals"]["moves"] == 0
    assert top["deltas"]["moves"] == 1
    assert "versus static" in capsys.readouterr().out


def test_report_rebuilds_identical_summary(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--scenario", str(scenario_file), "--out", str(out)])
    original = (out / "summary.json").read_bytes()
    (out / "summary.json").unlink()
    assert main(["report", "--out", str(out)]) == 0
    assert (out / "summary.json").read_bytes() == original
    assert "summary.json rebuilt" in capsys.readouterr().out


def test_report_rebuilds_compare_layout(scenario_file, tmp_path, capsys):
    out = tmp_path / "cmp"
    main(["compare", "--scenario", str(scenario_file), "--out", str(out)])
    originals = {
        name: (out / name).read_bytes()
        for name in ("summary.json", "balanced/summary.json", "static/summary.json")
    }
    for name in originals:
        (out / name).unlink()
    assert main(["report", "--out", str(out)]) == 0
    for name, payload in originals.items():
        assert (out / name).read_bytes() == payload


def test_report_flags_tampered_log(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--scenario", str(scenario_file), "--out", str(out)])
    events_path = out / "events.jsonl"
    lines = events_path.read_text().splitlines()
    # Drop the move's DrainStarted line: breaks both the sequence numbering
    # and the MoveCompleted causality requirement.
    kept = [line for line in lines if '"kind":"DrainStarted"' not in line]
    assert len(kept) == len(lines) - 1
    events_path.write_text("\n".join(kept) + "\n")
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "sequence gap" in captured.err
    assert "lacks a same-tick DrainStarted" in captured.err


def test_report_on_empty_directory(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 2
    assert "no run artifacts" in capsys.readouterr().err


def test_report_on_unreadable_metrics(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--scenario", str(scenario_file), "--out", str(out)])
    (out / "metrics.csv").write_text("tick,bogus\n")
    assert main(["report", "--out", str(out)]) == 2
    assert "report failed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "artifact,index,line,message",
    [
        ("events.jsonl", 0, '{"sequence":0,"kind":"GroupCreated","group":"g","detail":{}}',
         "events.jsonl:1: missing field 'tick'"),
        ("events.jsonl", 1, "[1, 2]", "events.jsonl:2: expected a JSON object, got list"),
        ("events.jsonl", 0, '{"tick":false,"sequence":false,"kind":"GroupCreated","detail":{}}',
         "events.jsonl:1: field 'tick' must be int, got False"),
        ("metrics.csv", 2, "0,b,0.250000,0.156250,0.250000,two,0,0,0",
         "metrics.csv:3: field 'active_nodes': cannot read 'two'"),
        ("metrics.csv", 2, "-7,b,0.250000,0.156250,0.250000,-3,-2,0,0",
         "metrics.csv:3: field 'tick': must be >= 0, got -7"),
        ("metrics.csv", 2, "0,b,nan,0.156250,0.250000,2,0,0,0",
         "metrics.csv:3: field 'u_cpu': must be finite, got nan"),
        ("metrics.csv", 1, "0,a,0.5,0.5,0.5,2,0,\udcff,0", "cannot read metrics"),
    ],
    ids=[
        "event-without-tick",
        "event-not-an-object",
        "event-boolean-tick",
        "metrics-cell-not-an-integer",
        "metrics-negative-count",
        "metrics-not-finite",
        "metrics-not-utf8",
    ],
)
def test_report_names_malformed_artifact_lines(
    scenario_file, tmp_path, capsys, artifact, index, line, message
):
    out = tmp_path / "out"
    main(["run", "--scenario", str(scenario_file), "--out", str(out)])
    lines = (out / artifact).read_text().splitlines()
    lines[index] = line
    (out / artifact).write_text("\n".join(lines) + "\n", errors="surrogateescape")
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("report failed: ")
    assert message in err


def test_console_script_entry_point(scenario_file, tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "nodebalancer.cli",
            "run",
            "--scenario",
            str(scenario_file),
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "1 moves" in proc.stdout
    assert (out / "summary.json").exists()
