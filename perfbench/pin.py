"""Pin the artifact digests that every benchmark sample is gated on.

    python3 perfbench/pin.py --seeds 0-63 [--workloads churn-static,...]

Runs each (workload, seed) once, untimed, for the given seeds and the
held-out seed, and stores the sha256 of events.jsonl, metrics.csv and
summary.json in digests.json under this platform's key. Existing pins for
other platforms are kept. Re-pin only when a change is meant to alter the
artifacts, and say why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import sample
import workloads
from run import WORK
from spread import parse_seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-63")
    parser.add_argument("--workloads", default=",".join(workloads.SHAPES))
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds) + [workloads.HELD_OUT_SEED]

    pins = json.loads(sample.PINS.read_text(encoding="utf-8")) if sample.PINS.exists() else {}
    mine = pins.setdefault(sample.platform_key(), {})
    work = WORK / "pin"
    for workload in args.workloads.split(","):
        for seed in seeds:
            if work.exists():
                shutil.rmtree(work)
            work.mkdir(parents=True)
            path = workloads.write_scenario(workload, seed, work / "scenario.json")
            artifacts = sample.engine.run(sample.engine.load_scenario(path))
            sample.time_write(artifacts, work)
            mine.setdefault(workload, {})[str(seed)] = sample.artifact_digests(work)
            print(f"{workload} {seed}", file=sys.stderr)
    shutil.rmtree(work)
    sample.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
