"""Discrete-tick simulation driver: scenario parsing, the tick loop, and
balanced-versus-static comparison runs.

Each tick executes fixed phases in order: membership changes, workload
deltas, pod placement, balancing for due groups, placement for clusters
that just received a node, then metrics sampling. Nothing depends on hash
order or wall clock, so identical scenarios produce identical artifacts.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Callable, Mapping

from .balancer import OutcomeKind, rebalance_cycle
from .errors import (
    InvalidThresholds,
    InvariantViolation,
    ScenarioInvalid,
    SimulationAborted,
)
from .groups import GroupManager, MembershipAction, MembershipChange
from .model import (
    ZERO,
    Cluster,
    NodeState,
    ResourceVector,
    Thresholds,
    build_cluster,
    cluster_utilization,
    node_demand,  # noqa: F401  unused here; perfbench/tracing.SITES wraps engine.node_demand
)
from .reporting import EventRecorder, RebalanceEvent, TickRecord, compose_comparison, summarize
from .rules import validate_thresholds
from .scheduler import place_pending
from .workload import (
    DEFAULT_POD_QUANTUM,
    ConstantTrace,
    SineTrace,
    SpikeTrace,
    StepTrace,
    TraceSpec,
    apply_workload,
)

MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class ClusterSpec:
    id: str
    node_count: int
    node_capacity: ResourceVector
    trace: TraceSpec


@dataclass(frozen=True)
class GroupSpec:
    id: str
    thresholds: Thresholds
    balance_interval: int
    members: tuple[str, ...]


@dataclass(frozen=True)
class Scenario:
    """A complete, validated run description.

    seed is recorded for provenance but drives nothing: every mechanism in
    the simulation is already deterministic.
    """

    clusters: tuple[ClusterSpec, ...]
    groups: tuple[GroupSpec, ...] = ()
    membership_changes: tuple[MembershipChange, ...] = ()
    ticks: int = 1
    seed: int = 0


@dataclass
class RunArtifacts:
    """Everything a run produces, in memory."""

    events: list[RebalanceEvent]
    tick_records: list[TickRecord]
    summary: dict


@dataclass
class ComparisonReport:
    balanced: RunArtifacts
    static: RunArtifacts
    summary: dict


# --- scenario parsing -------------------------------------------------------
#
# Parsing is strict: unknown keys are rejected at every level, and every
# error message names the offending field by path.


def _require_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioInvalid(f"{where}: expected an object")
    return value


def _check_keys(obj: dict, where: str, required: set[str], optional: set[str] = frozenset()):
    for key in sorted(obj):
        if key not in required and key not in optional:
            raise ScenarioInvalid(f"{where}: unknown key {key!r}")
    for key in sorted(required):
        if key not in obj:
            raise ScenarioInvalid(f"{where}: missing key {key!r}")


def _int(obj: dict, key: str, where: str, minimum: int | None = None,
         maximum: int | None = None) -> int:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioInvalid(f"{where}.{key}: expected an integer")
    if minimum is not None and value < minimum:
        raise ScenarioInvalid(f"{where}.{key}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ScenarioInvalid(f"{where}.{key}: must be <= {maximum}, got {value}")
    return value


def _number(obj: dict, key: str, where: str) -> float:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioInvalid(f"{where}.{key}: expected a number")
    return float(value)


def _string(obj: dict, key: str, where: str) -> str:
    value = obj[key]
    if not isinstance(value, str) or not value:
        raise ScenarioInvalid(f"{where}.{key}: expected a non-empty string")
    return value


def _parse_resource(value, where: str) -> ResourceVector:
    obj = _require_object(value, where)
    _check_keys(obj, where, {"cpu_millicores", "memory_mib"})
    return ResourceVector(
        cpu=_int(obj, "cpu_millicores", where, minimum=1),
        memory=_int(obj, "memory_mib", where, minimum=1),
    )


def _parse_trace(value, where: str) -> TraceSpec:
    obj = _require_object(value, where)
    if "kind" not in obj:
        raise ScenarioInvalid(f"{where}: missing key 'kind'")
    kind = obj["kind"]
    quantum = DEFAULT_POD_QUANTUM
    if "pod_quantum" in obj:
        quantum = _parse_resource(obj["pod_quantum"], f"{where}.pod_quantum")

    if kind == "Constant":
        _check_keys(obj, where, {"kind", "level"}, {"pod_quantum"})
        return ConstantTrace(level=_int(obj, "level", where, minimum=0), pod_quantum=quantum)
    if kind == "Step":
        _check_keys(obj, where, {"kind", "steps"}, {"pod_quantum"})
        raw_steps = obj["steps"]
        if not isinstance(raw_steps, list) or not raw_steps:
            raise ScenarioInvalid(f"{where}.steps: expected a non-empty array")
        steps = []
        for i, entry in enumerate(raw_steps):
            entry_where = f"{where}.steps[{i}]"
            entry_obj = _require_object(entry, entry_where)
            _check_keys(entry_obj, entry_where, {"tick", "level"})
            steps.append(
                (
                    _int(entry_obj, "tick", entry_where, minimum=0),
                    _int(entry_obj, "level", entry_where, minimum=0),
                )
            )
        try:
            return StepTrace(steps=tuple(steps), pod_quantum=quantum)
        except ValueError as exc:
            raise ScenarioInvalid(f"{where}.steps: {exc}") from exc
    if kind == "Sine":
        _check_keys(obj, where, {"kind", "base", "amplitude", "period"}, {"phase", "pod_quantum"})
        return SineTrace(
            base=_int(obj, "base", where, minimum=0),
            amplitude=_int(obj, "amplitude", where, minimum=0),
            period=_int(obj, "period", where, minimum=1),
            phase=_int(obj, "phase", where, minimum=0) if "phase" in obj else 0,
            pod_quantum=quantum,
        )
    if kind == "Spike":
        _check_keys(obj, where, {"kind", "base", "peak", "start", "duration"}, {"pod_quantum"})
        return SpikeTrace(
            base=_int(obj, "base", where, minimum=0),
            peak=_int(obj, "peak", where, minimum=0),
            start=_int(obj, "start", where, minimum=0),
            duration=_int(obj, "duration", where, minimum=1),
            pod_quantum=quantum,
        )
    raise ScenarioInvalid(
        f"{where}.kind: expected one of 'Constant', 'Step', 'Sine', 'Spike', got {kind!r}"
    )


def _parse_thresholds(value, where: str) -> Thresholds:
    obj = _require_object(value, where)
    _check_keys(obj, where, {"t_low", "t_high"})
    thresholds = Thresholds(
        t_low=_number(obj, "t_low", where), t_high=_number(obj, "t_high", where)
    )
    try:
        validate_thresholds(thresholds)
    except InvalidThresholds as exc:
        raise ScenarioInvalid(f"{where}: {exc}") from exc
    return thresholds


def parse_scenario(doc) -> Scenario:
    """Turn a decoded JSON document into a validated Scenario."""
    obj = _require_object(doc, "scenario")
    _check_keys(
        obj,
        "scenario",
        {"clusters", "ticks", "seed"},
        {"groups", "membership_changes"},
    )

    raw_clusters = obj["clusters"]
    if not isinstance(raw_clusters, list) or not raw_clusters:
        raise ScenarioInvalid("scenario.clusters: expected a non-empty array")
    clusters = []
    for i, entry in enumerate(raw_clusters):
        where = f"clusters[{i}]"
        cluster_obj = _require_object(entry, where)
        _check_keys(cluster_obj, where, {"id", "node_count", "node_capacity", "trace"})
        clusters.append(
            ClusterSpec(
                id=_string(cluster_obj, "id", where),
                node_count=_int(cluster_obj, "node_count", where, minimum=1),
                node_capacity=_parse_resource(
                    cluster_obj["node_capacity"], f"{where}.node_capacity"
                ),
                trace=_parse_trace(cluster_obj["trace"], f"{where}.trace"),
            )
        )

    groups = []
    for i, entry in enumerate(obj.get("groups", [])):
        where = f"groups[{i}]"
        group_obj = _require_object(entry, where)
        _check_keys(group_obj, where, {"id", "thresholds", "balance_interval", "members"})
        members = group_obj["members"]
        if not isinstance(members, list):
            raise ScenarioInvalid(f"{where}.members: expected an array")
        for j, member in enumerate(members):
            if not isinstance(member, str) or not member:
                raise ScenarioInvalid(f"{where}.members[{j}]: expected a non-empty string")
        groups.append(
            GroupSpec(
                id=_string(group_obj, "id", where),
                thresholds=_parse_thresholds(group_obj["thresholds"], f"{where}.thresholds"),
                balance_interval=_int(group_obj, "balance_interval", where, minimum=1),
                members=tuple(members),
            )
        )

    changes = []
    for i, entry in enumerate(obj.get("membership_changes", [])):
        where = f"membership_changes[{i}]"
        change_obj = _require_object(entry, where)
        _check_keys(change_obj, where, {"tick", "action", "cluster", "group"})
        action = change_obj["action"]
        if action not in (MembershipAction.ADD.value, MembershipAction.REMOVE.value):
            raise ScenarioInvalid(f"{where}.action: expected 'Add' or 'Remove', got {action!r}")
        changes.append(
            MembershipChange(
                tick=_int(change_obj, "tick", where, minimum=0),
                action=MembershipAction(action),
                cluster=_string(change_obj, "cluster", where),
                group=_string(change_obj, "group", where),
            )
        )

    scenario = Scenario(
        clusters=tuple(clusters),
        groups=tuple(groups),
        membership_changes=tuple(changes),
        ticks=_int(obj, "ticks", "scenario", minimum=1),
        seed=_int(obj, "seed", "scenario", minimum=0, maximum=MAX_SEED),
    )
    validate_scenario(scenario)
    return scenario


def validate_scenario(scenario: Scenario) -> None:
    """Cross-field checks; also re-run after CLI overrides."""
    cluster_ids = [spec.id for spec in scenario.clusters]
    duplicates = [cid for cid, n in Counter(cluster_ids).items() if n > 1]
    if duplicates:
        raise ScenarioInvalid(f"clusters: duplicate cluster id {sorted(duplicates)[0]!r}")
    known = set(cluster_ids)

    group_ids = [spec.id for spec in scenario.groups]
    duplicates = [gid for gid, n in Counter(group_ids).items() if n > 1]
    if duplicates:
        raise ScenarioInvalid(f"groups: duplicate group id {sorted(duplicates)[0]!r}")

    membership: dict[str, str] = {}
    for i, group in enumerate(scenario.groups):
        for j, member in enumerate(group.members):
            where = f"groups[{i}].members[{j}]"
            if member not in known:
                raise ScenarioInvalid(f"{where}: unknown cluster {member!r}")
            if member in membership:
                raise ScenarioInvalid(
                    f"{where}: cluster {member!r} already belongs to group "
                    f"{membership[member]!r}"
                )
            membership[member] = group.id

    group_ids_set = set(group_ids)
    for i, change in enumerate(scenario.membership_changes):
        where = f"membership_changes[{i}]"
        if change.cluster not in known:
            raise ScenarioInvalid(f"{where}.cluster: unknown cluster {change.cluster!r}")
        if change.group not in group_ids_set:
            raise ScenarioInvalid(f"{where}.group: unknown group {change.group!r}")
        if change.tick >= scenario.ticks:
            raise ScenarioInvalid(
                f"{where}.tick: {change.tick} is beyond the last tick {scenario.ticks - 1}"
            )

    if scenario.ticks < 1:
        raise ScenarioInvalid(f"scenario.ticks: must be >= 1, got {scenario.ticks}")
    if not 0 <= scenario.seed <= MAX_SEED:
        raise ScenarioInvalid(f"scenario.seed: must be in [0, 2**64 - 1], got {scenario.seed}")


def load_scenario(path: str | Path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioInvalid(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioInvalid(f"{path}: not valid JSON: {exc}") from exc
    return parse_scenario(doc)


# --- running ----------------------------------------------------------------


def build_world(scenario: Scenario, recorder=None) -> GroupManager:
    """Materialize clusters and groups; initial joins are real joins."""
    manager = GroupManager(recorder=recorder)
    for spec in scenario.clusters:
        manager.register_cluster(build_cluster(spec.id, spec.node_count, spec.node_capacity))
    for group_spec in scenario.groups:
        manager.create_group(
            group_spec.id, group_spec.thresholds, group_spec.balance_interval
        )
        for member in group_spec.members:
            manager.add_cluster(group_spec.id, member)
    return manager


def _tick_record(tick: int, cluster: Cluster) -> TickRecord:
    util = cluster_utilization(cluster)
    pending = cluster.ledger.pending.values()
    cpu = sum(pod.demand.cpu for pod in pending)
    memory = sum(pod.demand.memory for pod in pending)
    active = NodeState.ACTIVE  # an Enum member lookup per node would cost more than the count
    return TickRecord(
        tick, cluster.id, util.u_cpu, util.u_mem, util.u,
        sum(n.state is active for n in cluster.nodes.values()),
        len(pending),
        # Records live all run and most have no backlog: they share ZERO.
        ResourceVector(cpu, memory) if pending else ZERO,
    )


def _verify_world(manager: GroupManager, expected_nodes: Counter, tick: int) -> None:
    """Structural audit at tick end; violations abort the run.

    Each node's demand and the Pending pods are recomputed here in one pass of
    the audit's own over the cluster's pods, never through the ledger or the
    readers built on it. Every ledger field is then compared with its
    recompute, so the audit stays an independent check of both.
    """
    # Enum member lookups cost ~0.2 us on Python 3.10-3.11: once, not per node.
    unfinished = (NodeState.DRAINING, NodeState.IN_TRANSIT)
    for cluster_id, cluster in manager.clusters.items():
        used = {node_id: [0, 0] for node_id in cluster.nodes}
        pending = []
        for pod in cluster.pods.values():
            node_id = pod.assignment
            if node_id is None:
                pending.append(pod)
                continue
            total = used.get(node_id)
            if total is None:
                raise InvariantViolation(
                    f"tick {tick}: pod {pod.id!r} assigned to missing node {node_id!r}"
                )
            demand = pod.demand
            total[0] += demand.cpu
            total[1] += demand.memory
        for node_id, node in cluster.nodes.items():
            if node.state in unfinished:
                raise InvariantViolation(
                    f"tick {tick}: node {node_id!r} ended the tick {node.state.value}"
                )
            if node.host_cluster != cluster_id:
                raise InvariantViolation(
                    f"tick {tick}: node {node_id!r} hosted by {cluster_id!r} "
                    f"but records host_cluster={node.host_cluster!r}"
                )
            cpu, memory = used[node_id]
            capacity = node.capacity
            if cpu > capacity.cpu or memory > capacity.memory:
                raise InvariantViolation(
                    f"tick {tick}: node {node_id!r} over capacity: "
                    f"{ResourceVector(cpu, memory)} > {capacity}"
                )
        _verify_ledger(cluster, used, pending, tick)
    seen = Counter(chain.from_iterable(cluster.nodes for cluster in manager.clusters.values()))
    # Neither Counter holds a zero count, so dict equality (in C) is Counter
    # equality without its per-key Python loop.
    if not dict.__eq__(seen, expected_nodes):
        raise InvariantViolation(
            f"tick {tick}: node conservation broken; "
            f"missing={sorted(expected_nodes - seen)} extra={sorted(seen - expected_nodes)}"
        )


def _verify_ledger(cluster: Cluster, used: dict, pending: list, tick: int) -> None:
    """Compare each ledger field with the audit's recompute from the pods.

    used maps every hosted node to its Running pods' [cpu, memory], and
    pending lists the Pending pods. A ledger entry for a node the cluster does
    not host must be zero or absent.
    """
    ledger = cluster.ledger
    if len(ledger.pending) != len(pending) or any(
        ledger.pending.get(pod.id) is not pod for pod in pending
    ):
        raise InvariantViolation(
            f"{_ledger_where(cluster, tick)} 'pending' does not hold exactly the Pending "
            f"pod objects: it has {sorted(ledger.pending)}, "
            f"the pods {sorted(pod.id for pod in pending)}"
        )
    # A zero entry and no entry both mean no demand, so only nonzero ones must match.
    kept, no_demand = ledger.used, [0, 0]
    if any(kept.get(node_id, no_demand) != total for node_id, total in used.items()) or any(
        kept[node_id] != no_demand for node_id in kept.keys() - used.keys()
    ):
        kept = {node_id: total for node_id, total in kept.items() if total != no_demand}
        summed = {node_id: total for node_id, total in used.items() if total != no_demand}
        node_id = min(n for n in kept.keys() | summed.keys() if kept.get(n) != summed.get(n))
        raise InvariantViolation(
            f"{_ledger_where(cluster, tick)} 'used' holds {kept.get(node_id, no_demand)} "
            f"for node {node_id!r}, but its pods sum to {summed.get(node_id, no_demand)}"
        )
    cpu = memory = 0
    for node_cpu, node_memory in used.values():
        cpu += node_cpu
        memory += node_memory
    if ledger.assigned != [cpu, memory]:
        raise InvariantViolation(
            f"{_ledger_where(cluster, tick)} 'assigned' holds {ledger.assigned}, "
            f"but the Running pods sum to {[cpu, memory]}"
        )
    total_cpu = cpu + sum(pod.demand.cpu for pod in pending)
    if ledger.total_cpu != total_cpu:
        raise InvariantViolation(
            f"{_ledger_where(cluster, tick)} 'total_cpu' holds {ledger.total_cpu}, "
            f"but the pods sum to {total_cpu}"
        )


def _ledger_where(cluster: Cluster, tick: int) -> str:
    """The prefix of every ledger violation, formatted only once one is found."""
    return f"tick {tick}: cluster {cluster.id!r} ledger"


def run(
    scenario: Scenario,
    observer: Callable[[int, Mapping[str, Cluster]], None] | None = None,
    check_invariants: bool = True,
) -> RunArtifacts:
    """Execute a scenario tick by tick.

    The optional observer is called after each completed tick with the live
    cluster map (for inspection only; mutating it corrupts the run). Any
    error mid-tick aborts the whole run as SimulationAborted, which names
    the last consistent tick.
    """
    recorder = EventRecorder()
    manager = build_world(scenario, recorder)
    traces = {spec.id: spec.trace for spec in scenario.clusters}
    changes_by_tick: dict[int, list[MembershipChange]] = defaultdict(list)
    for change in scenario.membership_changes:
        changes_by_tick[change.tick].append(change)
    expected_nodes = Counter(
        node_id for cluster in manager.clusters.values() for node_id in cluster.nodes
    )

    records: list[TickRecord] = []
    for tick in range(scenario.ticks):
        recorder.tick = tick
        try:
            for change in changes_by_tick.get(tick, ()):
                if change.action is MembershipAction.ADD:
                    manager.add_cluster(change.group, change.cluster)
                else:
                    manager.remove_cluster(change.group, change.cluster)

            for cluster_id in sorted(manager.clusters):
                apply_workload(manager.clusters[cluster_id], traces[cluster_id], tick)
            for cluster_id in sorted(manager.clusters):
                place_pending(manager.clusters[cluster_id])

            received: set[str] = set()
            for group_id in sorted(manager.groups):
                group = manager.groups[group_id]
                if tick % group.balance_interval != 0:
                    continue
                outcomes = rebalance_cycle(group, manager.clusters, recorder=recorder)
                for outcome in outcomes:
                    if outcome.kind is OutcomeKind.MOVED:
                        received.add(outcome.high_cluster)
                    elif outcome.kind is OutcomeKind.REVERSED:
                        # The donor got its node back; its backlog may fit now.
                        received.add(outcome.low_cluster)
            for cluster_id in sorted(received):
                place_pending(manager.clusters[cluster_id])

            for cluster_id in sorted(manager.clusters):
                records.append(_tick_record(tick, manager.clusters[cluster_id]))
            if check_invariants:
                _verify_world(manager, expected_nodes, tick)
        except Exception as exc:
            raise SimulationAborted(tick, exc) from exc
        if observer is not None:
            observer(tick, manager.clusters)

    return RunArtifacts(
        events=recorder.events,
        tick_records=records,
        summary=summarize(recorder.events, records),
    )


def apply_overrides(
    scenario: Scenario, ticks: int | None = None, seed: int | None = None
) -> Scenario:
    """Apply CLI overrides to the named fields only, then re-validate."""
    if ticks is not None:
        if ticks < 1:
            raise ScenarioInvalid(f"ticks override: must be >= 1, got {ticks}")
        scenario = replace(scenario, ticks=ticks)
    if seed is not None:
        if not 0 <= seed <= MAX_SEED:
            raise ScenarioInvalid(f"seed override: must be in [0, 2**64 - 1], got {seed}")
        scenario = replace(scenario, seed=seed)
    validate_scenario(scenario)
    return scenario


def compare(scenario: Scenario) -> ComparisonReport:
    """Run the scenario twice: as given, and with balancing stripped out.

    The static baseline drops every group and membership change, so nodes
    stay exactly where the scenario placed them.
    """
    balanced = run(scenario)
    static = run(replace(scenario, groups=(), membership_changes=()))
    return ComparisonReport(
        balanced=balanced,
        static=static,
        summary=compose_comparison(balanced.summary, static.summary),
    )
