"""Command-line front end.

Exit codes: 0 on success, 1 on a scenario error or a failed event-log
verification, 2 on a runtime failure or a malformed artifact.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import compare, load_scenario, run
from .errors import ScenarioInvalid
from .reporting import (
    _check_events,
    _event_rows,
    _summarize_metrics,
    compose_comparison,
    write_events,
    write_metrics,
    write_summary,
)
# Unused here; perfbench/tracing.SITES wraps these names in cli.
from .reporting import read_events, read_metrics, summarize, verify_event_log  # noqa: F401

EXIT_OK = 0
EXIT_SCENARIO = 1
EXIT_RUNTIME = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodebalancer",
        description="Deterministic simulator for threshold-driven node "
        "rebalancing across container-cluster groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario and write its artifacts")
    run_p.add_argument("--scenario", required=True, type=Path, help="scenario JSON file")
    run_p.add_argument("--out", required=True, type=Path, help="output directory")
    run_p.add_argument("--ticks", type=int, help="override the scenario's tick count")

    validate_p = sub.add_parser("validate", help="check a scenario file and exit")
    validate_p.add_argument("--scenario", required=True, type=Path)

    compare_p = sub.add_parser(
        "compare", help="run balanced and static variants and diff their summaries"
    )
    compare_p.add_argument("--scenario", required=True, type=Path)
    compare_p.add_argument("--out", required=True, type=Path)
    compare_p.add_argument("--ticks", type=int, help="override the scenario's tick count")

    report_p = sub.add_parser(
        "report", help="recompute summary.json from existing logs and verify them"
    )
    report_p.add_argument("--out", required=True, type=Path, help="directory of a previous run")

    return parser


def _write_run(artifacts, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_events(artifacts.events, out_dir / "events.jsonl")
    write_metrics(artifacts.tick_records, out_dir / "metrics.csv")
    write_summary(artifacts.summary, out_dir / "summary.json")


def _cmd_run(args) -> int:
    artifacts = run(load_scenario(args.scenario, args.ticks))
    _write_run(artifacts, args.out)
    totals = artifacts.summary["totals"]
    print(
        f"wrote {args.out}: {totals['moves']} moves, {totals['reversals']} reversals, "
        f"{totals['pending_pod_ticks']} pending pod-ticks over "
        f"{artifacts.summary['ticks']} ticks"
    )
    return EXIT_OK


def _cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    print(
        f"{args.scenario}: valid ({len(scenario.clusters)} clusters, "
        f"{len(scenario.groups)} groups, {scenario.ticks} ticks)"
    )
    return EXIT_OK


def _cmd_compare(args) -> int:
    report = compare(load_scenario(args.scenario, args.ticks))
    args.out.mkdir(parents=True, exist_ok=True)
    _write_run(report.balanced, args.out / "balanced")
    _write_run(report.static, args.out / "static")
    write_summary(report.summary, args.out / "summary.json")
    deltas = report.summary["deltas"]
    print(
        f"wrote {args.out}: pending pod-ticks {deltas['pending_pod_ticks']:+d} "
        f"versus static, {report.summary['balanced']['totals']['moves']} moves"
    )
    return EXIT_OK


def _rebuild_summary(run_dir: Path) -> dict | None:
    """Verify a run's logs and rebuild its summary.json; None if verification failed.

    Each file is streamed once and no event or row is kept: the event log is
    read and checked whole before metrics.csv is opened.
    """
    violations, kind_counts = _check_events(_event_rows(run_dir / "events.jsonl"))
    if violations:
        for violation in violations:
            print(f"{run_dir}: {violation}", file=sys.stderr)
        return None
    summary = _summarize_metrics(kind_counts, run_dir / "metrics.csv")
    write_summary(summary, run_dir / "summary.json")
    return summary


def _cmd_report(args) -> int:
    out: Path = args.out
    if (out / "events.jsonl").exists():
        if _rebuild_summary(out) is None:
            return EXIT_SCENARIO
        print(f"verified {out}; summary.json rebuilt")
        return EXIT_OK
    balanced = out / "balanced"
    static = out / "static"
    if (balanced / "events.jsonl").exists() and (static / "events.jsonl").exists():
        summaries = []
        for run_dir in (balanced, static):
            summary = _rebuild_summary(run_dir)
            if summary is None:
                return EXIT_SCENARIO
            summaries.append(summary)
        write_summary(compose_comparison(*summaries), out / "summary.json")
        print(f"verified {out}; summaries rebuilt")
        return EXIT_OK
    print(f"no run artifacts found under {out}", file=sys.stderr)
    return EXIT_RUNTIME


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "validate": _cmd_validate,
        "compare": _cmd_compare,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except ScenarioInvalid as exc:  # raised only by load_scenario, before anything is written
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except Exception as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
