"""Outside-in tracing of the nodebalancer package.

The package is not edited. Instead, each public function a layer exposes
is replaced by a timing wrapper at every place it is looked up: in its own
module and in every module that imported it by name. A span records (name,
start, end, parent); spans stay in memory in flat arrays and are written
out when the traced run ends. Counters read the functions' return values,
so they count work where it happens.
"""

from __future__ import annotations

import array
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

from nodebalancer import balancer, cli, engine, groups, model, reporting, rules, scheduler, workload
from nodebalancer.balancer import OutcomeKind


def _count_delta(counts: Counter, delta) -> None:
    counts["workload.pods_created"] += len(delta.created)
    counts["workload.pods_deleted"] += len(delta.deleted)


def _count_placed(counts: Counter, placements) -> None:
    counts["scheduler.pods_placed"] += len(placements)


def _count_drain(counts: Counter, outcome) -> None:
    counts["scheduler.drains_restored"] += int(outcome.restored)


def _count_donor_drain(counts: Counter, outcome) -> None:
    _count_drain(counts, outcome)
    counts["balancer.donor_drains"] += 1


_OUTCOME_COUNTERS = {
    OutcomeKind.MOVED: "balancer.moves",
    OutcomeKind.REVERSED: "balancer.reversals",
    OutcomeKind.NO_CANDIDATE: "balancer.no_candidate",
}


def _count_outcomes(counts: Counter, outcomes) -> None:
    for outcome in outcomes:
        if outcome.kind in _OUTCOME_COUNTERS:
            counts[_OUTCOME_COUNTERS[outcome.kind]] += 1


def _count_restoration(counts: Counter, report) -> None:
    counts["groups.nodes_returned"] += len(report.returned)
    counts["groups.nodes_recalled"] += len(report.recalled)
    counts["groups.pods_displaced"] += len(report.pending_pods)


COUNTERS = (
    "workload.pods_created", "workload.pods_deleted", "scheduler.pods_placed",
    "scheduler.drains_restored", "balancer.donor_drains", "balancer.moves",
    "balancer.reversals", "balancer.no_candidate", "groups.nodes_returned",
    "groups.nodes_recalled", "groups.pods_displaced",
)

# (span name, [(owner, attribute) for every place the function is looked
# up], counter applied to its return value). The owner of remove_cluster is
# the class, so the wrapper becomes the method.
SITES = [
    ("model.node_demand", [(model, "node_demand"), (engine, "node_demand")], None),
    ("model.cluster_utilization",
     [(model, "cluster_utilization"), (engine, "cluster_utilization"),
      (rules, "cluster_utilization"), (balancer, "cluster_utilization")], None),
    ("workload.apply_workload",
     [(workload, "apply_workload"), (engine, "apply_workload")], _count_delta),
    ("scheduler.place_pending",
     [(scheduler, "place_pending"), (engine, "place_pending")], _count_placed),
    ("scheduler.drain_node", [(scheduler, "drain_node"), (groups, "drain_node")], _count_drain),
    ("scheduler.drain_node", [(balancer, "drain_node")], _count_donor_drain),
    ("rules.evaluate_group", [(rules, "evaluate_group"), (balancer, "evaluate_group")], None),
    ("balancer.rebalance_cycle",
     [(balancer, "rebalance_cycle"), (engine, "rebalance_cycle")], _count_outcomes),
    ("groups.remove_cluster", [(groups.GroupManager, "remove_cluster")], _count_restoration),
    ("engine.run", [(engine, "run")], None),
    ("reporting.write_events", [(reporting, "write_events")], None),
    ("reporting.write_metrics", [(reporting, "write_metrics")], None),
    ("reporting.write_summary", [(reporting, "write_summary"), (cli, "write_summary")], None),
    ("reporting.read_events", [(reporting, "read_events"), (cli, "read_events")], None),
    ("reporting.read_metrics", [(reporting, "read_metrics"), (cli, "read_metrics")], None),
    ("reporting.verify_event_log",
     [(reporting, "verify_event_log"), (cli, "verify_event_log")], None),
    ("reporting.summarize",
     [(reporting, "summarize"), (engine, "summarize"), (cli, "summarize")], None),
]


class Tracer:
    """Records nested spans around wrapped calls on one thread."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)

        def traced(*args, **kwargs):
            index = len(self.start)
            self.span_name.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(index)
            begin = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                self.start[index] = begin
                self._stack.pop()
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    def install(self) -> None:
        for name, places, count in SITES:
            for owner, attr in places:
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every span: a JSON header naming the arrays, then the arrays."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": ["span_name:i", "parent:i", "start:d", "end:d"]}
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for values in (self.span_name, self.parent, self.start, self.end):
                values.tofile(handle)

    def layer_table(self) -> dict[str, float]:
        """Calls and self time per span name, plus the return-value counters.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the run is single-threaded.
        """
        child_time = [0.0] * len(self.start)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                child_time[parent] += self.end[index] - self.start[index]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for index, name_id in enumerate(self.span_name):
            name = self.names[name_id]
            calls[name] += 1
            self_s[name] += self.end[index] - self.start[index] - child_time[index]
        table: dict[str, float] = {}
        for name in self.names:
            table[f"{name}.calls"] = calls[name]
            table[f"{name}.self_s"] = self_s[name]
        for name in COUNTERS:
            table[name] = self.counts[name]
        return table
