"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workloads churn-static,wide-clusters --seeds 0-9 [--record]

Runs run.py once per (workload, seed) with --trace 0 and BENCHMARK.json's
run_seconds, and prints, per metric and with its unit, the median over seeds
and the interquartile range (statistics.quantiles(values, n=4)) as a share
of that median, next to the metric's bound, then the failed operations over
those attempted. Any failed operation stops it. With --record it writes the medians, the
environment and the workload shapes to perfbench/record.json as the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return result


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "platform": platform.platform()}


def shape_record(workload: str) -> dict:
    """The shape as stated in workloads.SHAPES plus the peak pods per cluster
    of the held-out seed's scenario."""
    doc = workloads.generate(workload, workloads.HELD_OUT_SEED)
    traces = [cluster["trace"] for cluster in doc["clusters"]]
    peak = max(round((t["base"] + t["amplitude"]) / t["pod_quantum"]["cpu_millicores"])
               for t in traces)
    shape = dict(workloads.SHAPES[workload])
    why = shape.pop("why")
    return {"shape": shape, "peak_pods_per_cluster": peak, "why": why}


def spread(series: list[float]) -> float:
    """Interquartile range over median; 0 for a single value."""
    if len(series) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(series, n=4)
    return (q3 - q1) / statistics.median(series)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(workloads.SHAPES))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    record = {"environment": environment(), "run_seconds": bench["run_seconds"],
              "held_out_seed": workloads.HELD_OUT_SEED, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        attempted = 0
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, bench["run_seconds"])
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        baseline = {}
        print(f"# {workload}")
        for name, series in values.items():
            median, share = statistics.median(series), spread(series)
            flag = "" if share < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{name:14s} {units[name]:4s} median {median:12.6f}  iqr/median {share:6.3f}"
                  f"  bound {bounds[name]:.2f}{flag}")
            print("    " + " ".join(f"{value:.6g}" for value in series))
            baseline[name] = {"median": median, "iqr_share": share}
        print(f"failed_ops_ratio 0 (0 of {attempted} operations failed)")
        record["workloads"][workload] = {**shape_record(workload), "baseline": baseline}
    if args.record:
        (HERE / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
