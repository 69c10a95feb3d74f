"""Check that the benchmark's gate catches what it is meant to catch.

    python3 perfbench/selfcheck.py

On a tiny rebalance-storm scenario (8 clusters x 2 nodes x 30 ticks) it
shows that:
  - a clean sample passes against its pinned digests;
  - a wrong pinned digest fails the sample;
  - a corrupted byte in a written artifact fails the sample;
  - audit-off and traced samples hit the same digests, and the traced
    counters agree with the untraced ones;
  - a traced counter that disagrees is reported as drift.
Exits 0 when every expectation holds.
"""

from __future__ import annotations

import copy
import shutil
import sys

import run
import sample
import workloads

TINY = dict(workloads.SHAPES["rebalance-storm"], clusters=8, groups=1,
            nodes_per_cluster=[2], ticks=30)


def corrupt_after_write(name: str):
    """A time_write that flips one byte of the named artifact after writing it."""
    original = sample.time_write

    def write_then_corrupt(artifacts, out_dir):
        seconds = original(artifacts, out_dir)
        data = bytearray((out_dir / name).read_bytes())
        data[len(data) // 2] ^= 0x01
        (out_dir / name).write_bytes(bytes(data))
        return seconds

    return original, write_then_corrupt


def main() -> int:
    work = run.WORK / "selfcheck"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    path = workloads.write_scenario("rebalance-storm", 1, work / "scenario.json", TINY)

    good = sample.sample(path, work / "plain", "plain")
    pinned = good["digests"]
    wrong = dict(pinned, **{"metrics.csv": "0" * 64})
    checks = []

    def expect(label: str, verdict: run.Verdict, failed: bool, drift: bool = False) -> None:
        ok = (verdict.failed > 0) == failed and bool(verdict.drift) == drift
        checks.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {label}: failed={verdict.failed}/"
              f"{verdict.attempted} drift={len(verdict.drift)}")

    expect("clean sample, right pin", run.judge([good], pinned), failed=False)
    expect("clean sample, wrong pin", run.judge([good], wrong), failed=True)

    for name in sample.ARTIFACTS:
        original, patched = corrupt_after_write(name)
        sample.time_write = patched
        try:
            corrupted = sample.sample(path, work / "corrupt", "plain")
        finally:
            sample.time_write = original
        expect(f"one byte of {name} corrupted", run.judge([corrupted], pinned), failed=True)

    noaudit = sample.sample(path, work / "noaudit", "noaudit")
    traced = sample.sample(path, work / "traced", "traced")
    expect("plain + audit-off + traced samples agree",
           run.judge([good, noaudit, traced], pinned), failed=False)
    for traced_name, untraced_name in run.TRACED_VS_ARTIFACTS.items():
        print(f"     {traced_name}={traced['layers'][traced_name]} "
              f"{untraced_name}={good['counts'][untraced_name]}")

    drifted = copy.deepcopy(traced)
    drifted["layers"]["balancer.moves"] += 1
    expect("a traced counter off by one", run.judge([good, drifted], pinned),
           failed=False, drift=True)

    shutil.rmtree(work)
    return 0 if all(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
