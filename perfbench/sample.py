"""One benchmark sample, run in a fresh process so that its peak RSS is its own.

    python3 perfbench/sample.py --scenario S.json --out DIR --mode plain|noaudit|traced

A sample times the public entry points on one scenario file, each call
being one operation: back-to-back load_scenario + build_world calls
(SETUP_CALLS of them in plain samples, one otherwise), one engine.run, the
three reporting.write_* calls, and an in-process `nodebalancer report`.
Plain samples repeat the write and the report (see repeat()) and list every
call's time, so that the caller can pool them over the whole run.
It checks that verify_event_log finds nothing and that every report rebuilds
summary.json byte for byte, and prints one JSON line with the timings, the
artifact digests and the deterministic counts. The caller
compares digests against the pinned ones.

Modes: plain runs with audits on and tracing off; noaudit runs with
check_invariants=False (the other side of engine.audit_s); traced wraps
every layer's public functions (see tracing.py) for the per-layer table.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "nodebalancer" / "__init__.py").is_file():
    sys.exit(f"benchmark: no package source at {SRC / 'nodebalancer'}")
sys.path.insert(0, str(SRC))

from nodebalancer import cli, engine, reporting  # noqa: E402

ARTIFACTS = ("events.jsonl", "metrics.csv", "summary.json")

# Pinned artifact digests: {platform key: {workload: {seed: {artifact: sha256}}}}.
PINS = Path(__file__).resolve().parent / "digests.json"


def platform_key() -> str:
    """What the pinned bytes depend on beyond the code: Sine traces go
    through the C library's sin(), so digests are pinned per libc and CPU."""
    libc, version = platform.libc_ver()
    return f"{sys.platform}-{platform.machine()}-{libc or 'libc'}{version}"


# load_scenario + build_world takes about a millisecond, so one sample
# times many calls and lists every call's time.
SETUP_CALLS = 100

# Writing and reporting a small scenario take a few milliseconds, so one
# call per sample gives the run too few, too noisy values. A plain sample
# repeats each until it has spent REPEAT_BUDGET_S on it or made REPEAT_CAP
# calls; a call longer than the budget is made once.
REPEAT_BUDGET_S = 0.5
REPEAT_CAP = 100


def artifact_digests(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in ARTIFACTS}


def time_setup(path: Path, calls: int) -> list[float]:
    """Seconds of each of `calls` back-to-back load_scenario + build_world calls."""
    times = []
    for _ in range(calls):
        begin = perf_counter()
        engine.build_world(engine.load_scenario(path))
        times.append(perf_counter() - begin)
    return times


def time_run(scenario, check_invariants: bool):
    """(run seconds, tick intervals in ms, artifacts) for one engine.run."""
    stamps: list[float] = []
    begin = perf_counter()
    artifacts = engine.run(scenario, observer=lambda tick, clusters: stamps.append(perf_counter()),
                           check_invariants=check_invariants)
    run_s = perf_counter() - begin
    intervals = [(b - a) * 1000.0 for a, b in zip(stamps, stamps[1:])]
    return run_s, intervals, artifacts


def time_write(artifacts, out_dir: Path) -> float:
    """Seconds for the three write_* calls into out_dir.

    Artifacts already there are removed first, untimed, so that every call
    creates its files as a run into a fresh directory does: ext4 starts
    writing a truncated and rewritten file back to disk when it is closed,
    which would time the shared disk rather than the program.
    """
    for name in ARTIFACTS:
        (out_dir / name).unlink(missing_ok=True)
    begin = perf_counter()
    reporting.write_events(artifacts.events, out_dir / "events.jsonl")
    reporting.write_metrics(artifacts.tick_records, out_dir / "metrics.csv")
    reporting.write_summary(artifacts.summary, out_dir / "summary.json")
    return perf_counter() - begin


def repeat(call, times: list[float], budget_s: float = REPEAT_BUDGET_S,
           cap: int = REPEAT_CAP) -> list[float]:
    """Append call()'s seconds to times until budget_s or cap is reached;
    it is called at least once. A call that raises leaves the earlier
    times in the list."""
    while not times or (sum(times) < budget_s and len(times) < cap):
        times.append(call())
    return times


def time_report(out_dir: Path, problems: list[str]) -> float:
    """Seconds for `nodebalancer report --out DIR` in-process; what it got
    wrong is appended to problems."""
    before = (out_dir / "summary.json").read_bytes()
    sink = io.StringIO()
    begin = perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        status = cli.main(["report", "--out", str(out_dir)])
    report_s = perf_counter() - begin
    if status != cli.EXIT_OK:
        problems.append(f"report exited {status}: {sink.getvalue().strip()}")
    if (out_dir / "summary.json").read_bytes() != before:
        problems.append("report did not rebuild summary.json byte-identically")
    return report_s


def artifact_counts(artifacts, out_dir: Path) -> dict[str, int]:
    """Counts that both the traced and the untraced runs can state."""
    totals = artifacts.summary["totals"]
    return {
        "reporting.events": len(artifacts.events),
        "reporting.metrics_rows": len(artifacts.tick_records),
        "reporting.bytes_written": sum((out_dir / name).stat().st_size for name in ARTIFACTS),
        "engine.cluster_ticks": len(artifacts.tick_records),
        "summary.moves": totals["moves"],
        "summary.reversals": totals["reversals"],
        "summary.no_candidate": totals["no_candidate"],
        "summary.restorations": totals["restorations"],
        "summary.drains_started": totals["drains_started"],
        "summary.drains_restored": totals["drains_restored"],
    }


def sample(path: Path, out_dir: Path, mode: str) -> dict:
    """Run one sample and report it as a dict.

    An exception fails its operation and every later one, since they depend
    on it. The checks run after tracing stops, so they add no spans; a
    failed check fails the one operation it checks, and a report that went
    wrong fails one operation however often it was repeated.
    """
    plain = mode == "plain"
    ops = {"setup": SETUP_CALLS if plain else 1, "run": 1, "write": 1, "report": 1}
    result: dict = {"mode": mode, "attempted": 0, "failed": 0, "problems": [],
                    "write_s": [], "report_s": []}
    report_problems: list[str] = []
    tracer = None
    step = "setup"
    try:
        if out_dir.exists():
            shutil.rmtree(out_dir)
        out_dir.mkdir(parents=True)
        result["setup_s"] = time_setup(path, ops["setup"])
        scenario = engine.load_scenario(path)
        if mode == "traced":
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        step = "run"
        result["run_s"], result["tick_ms"], artifacts = time_run(scenario, mode != "noaudit")
        step = "write"
        repeat(lambda: time_write(artifacts, out_dir), result["write_s"],
               cap=REPEAT_CAP if plain else 1)
        ops["write"] = len(result["write_s"])
        step = "report"
        repeat(lambda: time_report(out_dir, report_problems), result["report_s"],
               cap=REPEAT_CAP if plain else 1)
        ops["report"] = len(result["report_s"])
    except Exception:
        # The calls of the failing step that completed count as attempted.
        later = list(ops)[list(ops).index(step):]
        done = len(result.get(f"{step}_s") or ()) if step in ("write", "report") else 0
        result["failed"] = sum(ops[name] for name in later)
        result["attempted"] = sum(ops.values()) + done
        result["problems"].append(f"{step} raised: {traceback.format_exc(limit=4)}")
        return result
    finally:
        if tracer is not None:
            tracer.uninstall()

    result["attempted"] = sum(ops.values())
    violations = reporting.verify_event_log(artifacts.events)
    if violations:
        result["failed"] += 1
        result["problems"].append(f"run: verify_event_log found {violations[:3]}")
    if report_problems:
        result["failed"] += 1
        result["problems"].extend(f"report: {problem}" for problem in report_problems)
    result["digests"] = artifact_digests(out_dir)
    result["counts"] = artifact_counts(artifacts, out_dir)
    if tracer is not None:
        tracer.write(out_dir / "spans.bin")
        result["layers"] = tracer.layer_table()
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--mode", choices=("plain", "noaudit", "traced"), default="plain")
    args = parser.parse_args(argv)
    print(json.dumps(sample(args.scenario, args.out, args.mode)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
