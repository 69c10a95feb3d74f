"""The nodebalancer benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's scenario from the seed (workloads.py), then runs
samples one at a time, each in a fresh process (sample.py), until S seconds
have passed and at least a minimum number of samples is in. Every sample is
gated: its artifact digests must equal the pinned ones for (workload, seed)
on this platform (digests.json), verify_event_log must find nothing, and
`report` must rebuild summary.json byte for byte. A failed check or an
exception counts as a failed operation. Every count must repeat exactly
across samples and between traced and untraced samples; drift is a
determinism bug and fails the run.

With --trace 0 the samples are untraced and the result holds the
end-to-end metrics (see end_to_end for the statistics taken). With
--trace 1 untraced, audit-off and traced samples rotate, and the result
holds the per-layer metrics. The last line of stdout is the JSON result; the lines before it
print every metric by name and unit with its sample count.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import sample
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

# A sample that takes longer than this has hung; the run must end in 180 s.
SAMPLE_TIMEOUT_S = 150
# Fewest samples per mode, however short --seconds is: three untraced
# samples for a median, two traced ones to check that counts repeat.
MIN_SAMPLES = {"0": 3, "1": 2}
MODES = {"0": ("plain",), "1": ("plain", "noaudit", "traced")}

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "tick_p95_ms": "ms",
    "write_p90_s": "s",
    "report_p90_s": "s",
    "peak_rss_mib": "MiB",
}

# Counts the traced run reads from return values, each paired with the
# count the untraced run reads from its artifacts.
TRACED_VS_ARTIFACTS = {
    "balancer.moves": "summary.moves",
    "balancer.reversals": "summary.reversals",
    "balancer.no_candidate": "summary.no_candidate",
    "scheduler.drain_node.calls": "summary.drains_started",
    "scheduler.drains_restored": "summary.drains_restored",
    "groups.remove_cluster.calls": "summary.restorations",
}

LAYER_METRICS = {
    "model.node_demand.calls": "count",
    "model.node_demand.self_s": "s",
    "model.cluster_utilization.calls": "count",
    "model.cluster_utilization.self_s": "s",
    "workload.apply_workload.calls": "count",
    "workload.apply_workload.self_s": "s",
    "workload.pods_created": "count",
    "workload.pods_deleted": "count",
    "scheduler.place_pending.calls": "count",
    "scheduler.place_pending.self_s": "s",
    "scheduler.pods_placed": "count",
    "scheduler.drain_node.calls": "count",
    "scheduler.drain_node.self_s": "s",
    "scheduler.drains_restored": "count",
    "scheduler.drain_useful_ratio": "ratio",
    "rules.evaluate_group.calls": "count",
    "rules.evaluate_group.self_s": "s",
    "balancer.rebalance_cycle.calls": "count",
    "balancer.rebalance_cycle.self_s": "s",
    "balancer.donor_drains": "count",
    "balancer.moves": "count",
    "balancer.reversals": "count",
    "balancer.no_candidate": "count",
    "balancer.move_ratio": "ratio",
    "groups.remove_cluster.calls": "count",
    "groups.remove_cluster.self_s": "s",
    "groups.nodes_returned": "count",
    "groups.nodes_recalled": "count",
    "groups.pods_displaced": "count",
    "engine.run.self_s": "s",
    "engine.audit_s": "s",
    "engine.cluster_ticks": "count",
    "reporting.write_events.self_s": "s",
    "reporting.write_metrics.self_s": "s",
    "reporting.bytes_written": "bytes",
    "reporting.events": "count",
    "reporting.metrics_rows": "count",
    "reporting.read_events.self_s": "s",
    "reporting.read_metrics.self_s": "s",
    "reporting.verify_event_log.self_s": "s",
    "reporting.summarize.self_s": "s",
    "trace.overhead_s": "s",
}


class Verdict:
    """Operations attempted and failed over a run's samples, plus drift."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.drift: list[str] = []

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.drift


def judge(samples: list[dict], pinned: dict | None) -> Verdict:
    """Gate every sample and check that every count repeats exactly.

    Without a pin for this (workload, seed, platform), the first sample's
    digests become the reference, so samples must still agree with each
    other, audit-off and traced ones included.
    """
    verdict = Verdict()
    expected = pinned
    counts = layer_counts = None
    for index, result in enumerate(samples):
        verdict.attempted += result["attempted"]
        verdict.failed += result["failed"]
        where = f"sample {index} ({result['mode']})"
        verdict.problems.extend(f"{where}: {problem}" for problem in result["problems"])
        if "digests" not in result:
            continue
        if expected is None:
            expected = result["digests"]
        if result["digests"] != expected:
            verdict.failed += 1
            verdict.problems.append(f"{where}: artifact digests {result['digests']} != {expected}")
        if counts is None:
            counts = result["counts"]
        elif result["counts"] != counts:
            verdict.drift.append(f"{where}: counts {result['counts']} != {counts}")
        if "layers" in result:
            exact = {k: v for k, v in result["layers"].items() if not k.endswith(".self_s")}
            if layer_counts is None:
                layer_counts = exact
            elif exact != layer_counts:
                verdict.drift.append(f"{where}: traced counts {exact} != {layer_counts}")
            for traced, untraced in TRACED_VS_ARTIFACTS.items():
                if exact[traced] != counts[untraced]:
                    verdict.drift.append(
                        f"{where}: traced {traced}={exact[traced]} but the artifacts "
                        f"say {untraced}={counts[untraced]}"
                    )
    return verdict


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


# The host is shared: as other tenants' load comes and goes, its speed
# switches between a slow state, which it is in most of the time, and
# bursts of a fast one, for seconds to minutes at a time. A median call
# lands between the two according to how much of the run each state held,
# and moved by a third between runs of the same code. The slow tail moved
# least, so short calls, pooled over every sample of the run, report their
# TAIL_PERCENTILE-th percentile; it has ten calls beyond it once a run makes
# a hundred. Whole runs are few and long, so run_s is their median.
TAIL_PERCENTILE = 90


def end_to_end(plain: list[dict]) -> dict[str, tuple[float, int]]:
    """(value, call count) per end-to-end metric from untraced samples."""
    def pooled(key: str) -> list[float]:
        return [value for result in plain for value in result[key]]

    setups, ticks = pooled("setup_s"), pooled("tick_ms")
    writes, reports = pooled("write_s"), pooled("report_s")
    runs = [result["run_s"] for result in plain]
    rss = [result["maxrss_kib"] / 1024 for result in plain]
    table = {
        "setup_s": (statistics.median(setups), len(setups)),
        "run_s": (statistics.median(runs), len(runs)),
        # A run pools at least 327 tick intervals, so sixteen lie beyond p95.
        "tick_p95_ms": (percentile(ticks, 95), len(ticks)),
        "write_p90_s": (percentile(writes, TAIL_PERCENTILE), len(writes)),
        "report_p90_s": (percentile(reports, TAIL_PERCENTILE), len(reports)),
        "peak_rss_mib": (statistics.median(rss), len(rss)),
    }
    return {name: table[name] for name in END_TO_END_UNITS}


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def per_layer(by_mode: dict[str, list[dict]]) -> dict[str, tuple[float, int]]:
    """(value, sample count) per layer metric: medians of traced self
    times, exact counts, and differences of untraced medians."""
    traced = by_mode["traced"]
    layers = traced[0]["layers"]
    table: dict[str, tuple[float, int]] = {}
    for name in LAYER_METRICS:
        if name.endswith(".self_s"):
            table[name] = (statistics.median(r["layers"][name] for r in traced), len(traced))
        elif name in layers:
            table[name] = (layers[name], len(traced))
    for name in ("reporting.bytes_written", "reporting.events", "reporting.metrics_rows",
                 "engine.cluster_ticks"):
        table[name] = (traced[0]["counts"][name], len(traced))
    drains = layers["scheduler.drain_node.calls"]
    table["scheduler.drain_useful_ratio"] = (
        _ratio(drains - layers["scheduler.drains_restored"], drains), len(traced))
    table["balancer.move_ratio"] = (
        _ratio(layers["balancer.moves"], layers["balancer.donor_drains"]), len(traced))
    run_s = {mode: statistics.median(r["run_s"] for r in results)
             for mode, results in by_mode.items()}
    pairs = min(len(by_mode["plain"]), len(by_mode["noaudit"]))
    table["engine.audit_s"] = (run_s["plain"] - run_s["noaudit"], pairs)
    table["trace.overhead_s"] = (run_s["traced"] - run_s["plain"], min(len(traced), pairs))
    return {name: table[name] for name in LAYER_METRICS}


def run_sample(scenario: Path, out_dir: Path, mode: str) -> dict:
    """Run sample.py in a fresh process; a crash or hang fails the sample."""
    command = [sys.executable, str(HERE / "sample.py"),
               "--scenario", str(scenario), "--out", str(out_dir), "--mode", mode]
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        problem = f"sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    except subprocess.TimeoutExpired:
        problem = f"sample ran over {SAMPLE_TIMEOUT_S} s"
    # Nothing is known about a sample that did not report: count its
    # set-up calls and its run, write and report calls as failed.
    ops = (sample.SETUP_CALLS if mode == "plain" else 1) + 3
    return {"mode": mode, "attempted": ops, "failed": ops, "problems": [problem]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the nodebalancer package.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SHAPES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so that subprocess.run kills and
    # waits for the running sample before this process ends.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    # One directory per (workload, trace) so that repeated runs reuse the disk.
    work = WORK / f"{args.workload}-trace{args.trace}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    scenario = workloads.write_scenario(args.workload, args.seed, work / "scenario.json")
    pins = json.loads(sample.PINS.read_text(encoding="utf-8"))
    pinned = pins.get(sample.platform_key(), {}).get(args.workload, {}).get(str(args.seed))
    if pinned is None:
        print(f"note: no pinned digests for {args.workload} seed {args.seed} on "
              f"{sample.platform_key()}; samples are checked against each other",
              file=sys.stderr)

    modes = MODES[args.trace]
    by_mode: dict[str, list[dict]] = {mode: [] for mode in modes}
    samples: list[dict] = []
    deadline = time.monotonic() + args.seconds
    rounds = 0
    while rounds < MIN_SAMPLES[args.trace] or time.monotonic() < deadline:
        rounds += 1
        for mode in modes:
            result = run_sample(scenario, work / mode, mode)
            samples.append(result)
            if "digests" in result:
                by_mode[mode].append(result)

    verdict = judge(samples, pinned)
    for line in verdict.problems + verdict.drift:
        print(f"FAILED: {line}", file=sys.stderr)
    metrics: dict[str, tuple[float, int]] = {}
    units = END_TO_END_UNITS if args.trace == "0" else LAYER_METRICS
    # A mode with no completed sample has failed operations, so the result
    # already reads incorrect; it just has no metrics to show.
    if all(by_mode.values()):
        metrics = end_to_end(by_mode["plain"]) if args.trace == "0" else per_layer(by_mode)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} samples={len(samples)} "
          f"digests={'pinned' if pinned else 'self-consistent'}")
    for name, (value, count) in metrics.items():
        print(f"{name:36s} {value:>16.6f} {units[name]:6s} n={count}")
    ratio = verdict.failed / verdict.attempted if verdict.attempted else 0.0
    print(f"{'failed_ops_ratio':36s} {ratio:>16.6f} {'ratio':6s} "
          f"failed={verdict.failed} attempted={verdict.attempted}")
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }))
    return 0 if verdict.correct else 1


if __name__ == "__main__":
    sys.exit(main())
