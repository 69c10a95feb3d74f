import json
import subprocess
import sys
import tracemalloc

import pytest

from nodebalancer import engine
from nodebalancer.cli import main
from nodebalancer.reporting import _ENVELOPE, read_events, read_metrics

from helpers import OVER_LONG_INT_JSON, TOO_DEEP_JSON


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


@pytest.mark.parametrize("command", ["validate", "run", "compare"])
def test_a_threshold_beyond_the_float_range_is_a_scenario_error(tmp_path, capsys, command):
    doc = json.loads(json.dumps(SCENARIO))
    doc["groups"][0]["thresholds"]["t_low"] = 10**400
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    args = [command, "--scenario", str(path)]
    if command != "validate":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "scenario error: groups[0].thresholds.t_low: expected a number in the float range\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run", "compare"])
def test_a_trace_level_beyond_the_float_range_is_a_scenario_error(tmp_path, capsys, command):
    doc = json.loads(json.dumps(SCENARIO))
    doc["clusters"][0]["trace"]["level"] = 10**400
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    args = [command, "--scenario", str(path)]
    if command != "validate":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "scenario error: clusters[0].trace.level: expected an integer in the float range\n"
    )
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("command", ["validate", "run", "compare"])
@pytest.mark.parametrize("text", [TOO_DEEP_JSON, OVER_LONG_INT_JSON], ids=["deep", "long-int"])
def test_undecodable_scenario_is_a_scenario_error(tmp_path, capsys, command, text):
    path = tmp_path / "scenario.json"
    path.write_text(text, encoding="utf-8")
    args = [command, "--scenario", str(path)]
    if command != "validate":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith(f"scenario error: {path}: not valid JSON: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run", "compare"])
@pytest.mark.parametrize(
    "change, message",
    [
        ({"tick": 1, "action": "Remove", "cluster": "b", "group": "g"},
         "cluster 'b' is not a member of group 'g'"),
        ({"tick": 1, "action": "Add", "cluster": "a", "group": "g"},
         "cluster 'a' already belongs to group 'g'"),
    ],
    ids=["remove-non-member", "add-member"],
)
def test_membership_change_run_would_refuse_is_a_scenario_error(
    tmp_path, capsys, command, change, message
):
    doc = json.loads(json.dumps(SCENARIO))
    doc["groups"][0]["members"] = ["a"]
    doc["membership_changes"] = [change]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    args = [command, "--scenario", str(path)]
    if command != "validate":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"scenario error: membership_changes[0]: {message}\n"
    assert not (tmp_path / "out").exists()


def test_run_rejects_bad_override(scenario_file, tmp_path, capsys):
    code = main(
        ["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "o"), "--ticks", "0"]
    )
    assert code == 1
    assert capsys.readouterr().err == "scenario error: scenario.ticks: must be >= 1, got 0\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("overrides", [[], ["--ticks", "2"]], ids=["none", "ticks"])
def test_a_scenario_is_parsed_once(
    scenario_file, tmp_path, capsys, monkeypatch, command, overrides
):
    calls = []
    parse = engine.parse_scenario
    monkeypatch.setattr(engine, "parse_scenario", lambda doc: calls.append(doc) or parse(doc))
    args = [command, "--scenario", str(scenario_file), "--out", str(tmp_path / "out")]
    assert main(args + overrides) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["run", "compare"])
def test_there_is_no_seed_override(scenario_file, tmp_path, capsys, command):
    # The seed drives nothing, so an option to change it would change nothing.
    args = [command, "--scenario", str(scenario_file), "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as info:
        main(args + ["--seed", "9"])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 9" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run", "compare"])
@pytest.mark.parametrize("key", ["groups", "membership_changes"])
def test_a_list_field_that_is_not_an_array_is_a_scenario_error(tmp_path, capsys, command, key):
    doc = dict(SCENARIO, **{key: 5})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    args = [command, "--scenario", str(path)]
    if command != "validate":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"scenario error: scenario.{key}: expected an array\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cluster_id", ["a,b", "a\nb", "a\rb"], ids=["comma", "lf", "cr"])
def test_a_cluster_id_that_would_break_a_metrics_line_is_a_scenario_error(
    tmp_path, capsys, cluster_id
):
    # metrics.csv writes the id as an unquoted cell, so such an id would make
    # report reject the run's own artifacts.
    doc = json.loads(json.dumps(SCENARIO))
    doc["clusters"][0]["id"] = doc["groups"][0]["members"][0] = cluster_id
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "scenario error: clusters[0].id: must not hold ',', '\\r' or '\\n', "
        f"got {cluster_id!r}\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_ticks_override_that_cuts_off_a_membership_change_is_a_scenario_error(
    tmp_path, capsys, command
):
    doc = json.loads(json.dumps(SCENARIO))
    doc["membership_changes"] = [{"tick": 2, "action": "Remove", "cluster": "b", "group": "g"}]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    args = [command, "--scenario", str(path), "--out", str(tmp_path / "out"), "--ticks", "2"]
    assert main(args) == 1
    assert capsys.readouterr().err == (
        "scenario error: membership_changes[0].tick: 2 is beyond the last tick 1\n"
    )
    assert not (tmp_path / "out").exists()


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


def test_run_names_an_abort_whose_cause_has_no_text(scenario_file, tmp_path, capsys, monkeypatch):
    def out_of_memory(cluster, trace, tick):  # raised, not provoked by allocating
        raise MemoryError()

    monkeypatch.setattr(engine, "apply_workload", out_of_memory)
    code = main(["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == (
        "run failed: aborted during tick 0 (last consistent tick: -1): MemoryError\n")


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


def test_report_reads_a_log_whose_ids_need_json_escapes(tmp_path, capsys):
    """Ids with a quote, a backslash, non-ASCII text and U+2028 are escaped
    in the log, so their lines reach report's JSON decoder; the plain group's
    lines match the envelope. A move and a restoration check causality across
    both kinds of line, and report rebuilds summary.json byte for byte."""
    capacity = {"cpu_millicores": 4000, "memory_mib": 8192}
    hot, cold, group = 'hot "\xe9"', "cold\\\u2603", "g\u2028x"
    doc = {
        "clusters": [
            {"id": hot, "node_count": 2, "node_capacity": capacity,
             "trace": {"kind": "Constant", "level": 7500}},
            {"id": cold, "node_count": 3, "node_capacity": capacity,
             "trace": {"kind": "Constant", "level": 2000}},
            {"id": "plain", "node_count": 1, "node_capacity": capacity,
             "trace": {"kind": "Constant", "level": 1000}},
        ],
        "groups": [
            {"id": group, "thresholds": {"t_low": 0.3, "t_high": 0.8},
             "balance_interval": 1, "members": [hot, cold]},
            {"id": "solo", "thresholds": {"t_low": 0.3, "t_high": 0.8},
             "balance_interval": 1, "members": ["plain"]},
        ],
        "membership_changes": [{"tick": 3, "action": "Remove", "cluster": cold, "group": group}],
        "ticks": 6,
        "seed": 1,
    }
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    kinds = [event.kind for event in read_events(out / "events.jsonl")]
    assert "MoveCompleted" in kinds and "RestorationCompleted" in kinds
    with open(out / "events.jsonl", encoding="utf-8") as handle:
        matched = [bool(_ENVELOPE.match(line)) for line in handle]
    assert True in matched and False in matched
    original = (out / "summary.json").read_bytes()
    (out / "summary.json").unlink()
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert (out / "summary.json").read_bytes() == original


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
        ("events.jsonl", 0, '{"tick":-1,"sequence":0,"kind":"GroupCreated","group":"g","detail":{}}',
         "events.jsonl:1: field 'tick' must be >= 0, got -1"),
        ("metrics.csv", 2, "0,b,0.250000,0.156250,0.250000,two,0,0,0",
         "metrics.csv:3: field 'active_nodes': cannot read 'two'"),
        ("metrics.csv", 2, "-7,b,0.250000,0.156250,0.250000,2,0,0,0",
         "metrics.csv:3: field 'tick': cannot read '-7'"),
        ("metrics.csv", 2, "0,b,nan,0.156250,0.250000,2,0,0,0",
         "metrics.csv:3: field 'u_cpu': cannot read 'nan'"),
        ("metrics.csv", 2, "0,b,0.25,0.156250,0.250000,2,0,0,0",
         "metrics.csv:3: field 'u_cpu': cannot read '0.25'"),
        ("metrics.csv", 1, "0,a,0.500000,0.500000,0.500000,2,0,\udcff,0", "cannot read metrics"),
        ("metrics.csv", 2, "\n\n0,b,x,0.156250,0.250000,2,0,0,0",
         "metrics.csv:5: field 'u_cpu': cannot read 'x'"),
        ("events.jsonl", 1, TOO_DEEP_JSON, "events.jsonl:2: not valid JSON: maximum recursion"),
        ("events.jsonl", 0, OVER_LONG_INT_JSON,
         "events.jsonl:1: not valid JSON: Exceeds the limit"),
    ],
    ids=[
        "event-without-tick",
        "event-not-an-object",
        "event-boolean-tick",
        "event-negative-tick",
        "metrics-cell-not-an-integer",
        "metrics-negative-count",
        "metrics-not-finite",
        "metrics-not-six-decimals",
        "metrics-not-utf8",
        "metrics-after-blank-lines",
        "event-too-deep",
        "event-over-long-int",
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


def _tamper(path, replace):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(replace(lines)) + "\n")


def test_report_stops_at_violations_before_reading_metrics(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--scenario", str(scenario_file), "--out", str(out)])
    _tamper(out / "events.jsonl",
            lambda lines: [line for line in lines if '"kind":"DrainStarted"' not in line])
    _tamper(out / "metrics.csv", lambda lines: lines[:1] + ["not,a,row"])
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "sequence gap" in err and "lacks a same-tick DrainStarted" in err
    assert "metrics.csv" not in err


def test_report_names_a_malformed_event_log_before_metrics(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--scenario", str(scenario_file), "--out", str(out)])
    _tamper(out / "events.jsonl", lambda lines: lines[:2] + ["[1, 2]"] + lines[3:])
    _tamper(out / "metrics.csv", lambda lines: lines[:1] + ["not,a,row"])
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "events.jsonl:3: expected a JSON object, got list" in err
    assert "metrics.csv" not in err


def test_report_memory_does_not_grow_with_the_log(tmp_path):
    """report streams both files: its peak stays well below what the event
    log takes once read into memory."""
    capacity = {"cpu_millicores": 4000, "memory_mib": 8192}
    ticks = 120
    doc = {
        "clusters": [
            {"id": "hot", "node_count": 3, "node_capacity": capacity,
             "trace": {"kind": "Constant", "level": 10500}},
            {"id": "cold", "node_count": 3, "node_capacity": capacity,
             "trace": {"kind": "Constant", "level": 1000}},
        ],
        "groups": [{"id": "g", "thresholds": {"t_low": 0.3, "t_high": 0.8},
                    "balance_interval": 1, "members": ["hot", "cold"]}],
        # cold leaves and rejoins every other tick, so a node moves to hot
        # and is recalled again on alternate ticks.
        "membership_changes": [
            change
            for tick in range(1, ticks - 1, 2)
            for change in (
                {"tick": tick, "action": "Remove", "cluster": "cold", "group": "g"},
                {"tick": tick + 1, "action": "Add", "cluster": "cold", "group": "g"},
            )
        ],
        "ticks": ticks,
        "seed": 1,
    }
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0

    tracemalloc.start()
    try:
        events = read_events(out / "events.jsonl")
        held = tracemalloc.get_traced_memory()[0]
        del events
        tracemalloc.reset_peak()
        assert main(["report", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < held / 2


def test_report_memory_does_not_grow_with_the_metrics_table(tmp_path):
    """report reads metrics.csv a batch at a time: on a run of 20,000 rows
    and few events its peak stays well below what the rows take once read
    into memory."""
    capacity = {"cpu_millicores": 4000, "memory_mib": 8192}
    doc = {
        "clusters": [
            {"id": f"c{i:02d}", "node_count": 1, "node_capacity": capacity,
             "trace": {"kind": "Constant", "level": 1000}}
            for i in range(20)
        ],
        "groups": [{"id": "g", "thresholds": {"t_low": 0.3, "t_high": 0.8},
                    "balance_interval": 500, "members": ["c00", "c01"]}],
        "ticks": 1000,
        "seed": 1,
    }
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0

    tracemalloc.start()
    try:
        records = read_metrics(out / "metrics.csv")
        held = tracemalloc.get_traced_memory()[0]
        assert len(records) == 20_000
        assert len(read_events(out / "events.jsonl")) < 10
        del records
        tracemalloc.reset_peak()
        assert main(["report", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < held / 2


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
