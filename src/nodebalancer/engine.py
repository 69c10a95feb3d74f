"""Discrete-tick simulation driver: scenario parsing, the tick loop, and
balanced-versus-static comparison runs.

Each tick executes fixed phases in order: membership changes, workload
deltas, pod placement, balancing for due groups, placement again of each
cluster whose node count the balancing grew, then metrics sampling. Nothing
depends on hash order or wall clock, so identical scenarios produce
identical artifacts.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from itertools import chain
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

from .balancer import rebalance_cycle
from .errors import (
    InvalidThresholds,
    InvariantViolation,
    ScenarioInvalid,
    SimulationAborted,
)
from .groups import GroupManager, MembershipAction, MembershipChange
from .model import (
    DEFAULT_POD_QUANTUM,
    Cluster,
    ResourceVector,
    Thresholds,
    build_cluster,
    cluster_utilization,
    node_demand,  # noqa: F401  unused here; perfbench/tracing.SITES wraps engine.node_demand
)
from .reporting import (
    NULL_RECORDER,
    EventRecorder,
    RebalanceEvent,
    TickRecord,
    compose_comparison,
    summarize,
)
from .scheduler import place_pending
from .workload import (
    ConstantTrace,
    SineTrace,
    SpikeTrace,
    StepTrace,
    TraceSpec,
    apply_workload,
)

MAX_SEED = 2**64 - 1


class ClusterSpec(NamedTuple):
    """One cluster of a scenario; quantum is the demand of each of its pods,
    read from its trace's pod_quantum key."""

    id: str
    node_count: int
    node_capacity: ResourceVector
    trace: TraceSpec
    quantum: ResourceVector


class GroupSpec(NamedTuple):
    id: str
    thresholds: Thresholds
    balance_interval: int
    members: tuple[str, ...]


class Scenario(NamedTuple):
    """A complete, validated run description.

    seed is recorded for provenance but drives nothing: every mechanism in
    the simulation is already deterministic.
    """

    clusters: tuple[ClusterSpec, ...]
    groups: tuple[GroupSpec, ...] = ()
    membership_changes: tuple[MembershipChange, ...] = ()
    ticks: int = 1
    seed: int = 0


class RunArtifacts(NamedTuple):
    """Everything a run produces, in memory."""

    events: list[RebalanceEvent]
    tick_records: list[TickRecord]
    summary: dict


class ComparisonReport(NamedTuple):
    balanced: RunArtifacts
    static: RunArtifacts
    summary: dict


# --- scenario parsing -------------------------------------------------------
#
# One pass reads the document top-down. Each item of a list is checked field
# by field, then against the items read before it; the first fault raises
# ScenarioInvalid naming the field by path. Unknown keys are rejected at every
# level. Paths are built only for a message: an item is parsed with paths
# relative to itself, and _array puts the item's path in front of them.


def _keys(required, optional=()) -> tuple[frozenset[str], frozenset[str]]:
    """The (required, allowed) keys of an object."""
    return frozenset(required), frozenset(required).union(optional)


_SCENARIO_KEYS = _keys(("clusters", "ticks", "seed"), ("groups", "membership_changes"))
_CLUSTER_KEYS = _keys(("id", "node_count", "node_capacity", "trace"))
_RESOURCE_KEYS = _keys(("cpu_millicores", "memory_mib"))
_STEP_KEYS = _keys(("tick", "level"))
_GROUP_KEYS = _keys(("id", "thresholds", "balance_interval", "members"))
_THRESHOLD_KEYS = _keys(("t_low", "t_high"))
_CHANGE_KEYS = _keys(("tick", "action", "cluster", "group"))
_ACTIONS = {action.value: action for action in MembershipAction}


def _trace_kind(cls, minimums: dict[str, int] | None, optional: tuple[str, ...] = ()):
    """(class, minimum of each integer field, keys); Step's one field is its steps."""
    required = [field for field in minimums or ("steps",) if field not in optional]
    return cls, minimums, _keys(("kind", *required), ("pod_quantum", *optional))


_TRACES = {
    "Constant": _trace_kind(ConstantTrace, {"level": 0}),
    "Step": _trace_kind(StepTrace, None),
    "Sine": _trace_kind(
        SineTrace, {"base": 0, "amplitude": 0, "period": 1, "phase": 0}, optional=("phase",)
    ),
    "Spike": _trace_kind(SpikeTrace, {"base": 0, "peak": 0, "start": 0, "duration": 1}),
}
# Spike's start and duration only meet ticks; the workload computes with the
# other trace fields, and with the pod cpu, as floats.
_TICK_FIELDS = frozenset({"start", "duration"})


def _object(value, where: str, keys: tuple[frozenset[str], frozenset[str]] | None = None) -> dict:
    """value as an object that, given keys=(required, allowed), has every
    required key and no key outside allowed."""
    if not isinstance(value, dict):
        raise ScenarioInvalid(f"{where}: expected an object")
    if keys is not None:
        required, allowed = keys
        present = value.keys()
        if not required <= present <= allowed:
            unknown = present - allowed
            fault = "unknown" if unknown else "missing"
            raise ScenarioInvalid(f"{where}: {fault} key {min(unknown or required - present)!r}")
    return value


def _array(obj: dict, key: str, where: str, parse, nonempty: bool = False):
    """Yield parse(item) for each item of the array obj[key]; an absent key
    is an empty array. The document's own arrays name their items from the
    array alone: clusters[0], not scenario.clusters[0]."""
    items = obj.get(key, [])
    if not isinstance(items, list) or (nonempty and not items):
        kind = "a non-empty array" if nonempty else "an array"
        raise ScenarioInvalid(f"{where}.{key}: expected {kind}")
    for i, item in enumerate(items):
        try:
            parsed = parse(item)
        except ScenarioInvalid as exc:
            path = key if where == "scenario" else f"{where}.{key}"
            raise ScenarioInvalid(f"{path}[{i}]{exc}") from None
        yield parsed


def _int(obj: dict, key: str, where: str, minimum: int) -> int:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioInvalid(f"{where}.{key}: expected an integer")
    if value < minimum:
        raise ScenarioInvalid(f"{where}.{key}: must be >= {minimum}, got {value}")
    return value


def _float_int(obj: dict, key: str, where: str, minimum: int) -> int:
    """_int for a field the workload turns into a float: a larger int would
    abort run at the first tick that reads it."""
    value = _int(obj, key, where, minimum)
    try:
        float(value)
    except OverflowError:  # an int of more than about 308 digits
        raise ScenarioInvalid(f"{where}.{key}: expected an integer in the float range") from None
    return value


def _number(obj: dict, key: str, where: str) -> float:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioInvalid(f"{where}.{key}: expected a number")
    try:
        return float(value)
    except OverflowError:  # an int of more than about 308 digits
        raise ScenarioInvalid(f"{where}.{key}: expected a number in the float range") from None


def _string(value, where: str = "") -> str:
    if not isinstance(value, str) or not value:
        raise ScenarioInvalid(f"{where}: expected a non-empty string")
    return value


def _resource(value, where: str) -> ResourceVector:
    obj = _object(value, where, _RESOURCE_KEYS)
    return ResourceVector(_int(obj, "cpu_millicores", where, 1), _int(obj, "memory_mib", where, 1))


def _step(value) -> tuple[int, int]:
    obj = _object(value, "", _STEP_KEYS)
    return _int(obj, "tick", "", 0), _float_int(obj, "level", "", 0)


def _trace(value, where: str) -> tuple[TraceSpec, ResourceVector]:
    """The trace and the pod quantum it names, DEFAULT_POD_QUANTUM if none."""
    obj = _object(value, where)
    if "kind" not in obj:
        raise ScenarioInvalid(f"{where}: missing key 'kind'")
    kind = obj["kind"]
    row = _TRACES.get(kind) if isinstance(kind, str) else None
    if row is None:
        raise ScenarioInvalid(
            f"{where}.kind: expected one of 'Constant', 'Step', 'Sine', 'Spike', got {kind!r}"
        )
    cls, minimums, keys = row
    _object(obj, where, keys)
    if minimums is None:
        fields = {"steps": tuple(_array(obj, "steps", where, _step, nonempty=True))}
    else:
        fields = {key: (_int if key in _TICK_FIELDS else _float_int)(obj, key, where, low)
                  for key, low in minimums.items() if key in obj}
    quantum = DEFAULT_POD_QUANTUM
    if "pod_quantum" in obj:
        quantum = _resource(obj["pod_quantum"], f"{where}.pod_quantum")
        _float_int(obj["pod_quantum"], "cpu_millicores", f"{where}.pod_quantum", 1)
    try:
        return cls(**fields), quantum
    except ValueError as exc:  # StepTrace checks the order of its steps
        raise ScenarioInvalid(f"{where}.steps: {exc}") from exc


def _cluster(value) -> ClusterSpec:
    obj = _object(value, "", _CLUSTER_KEYS)
    cluster_id = _string(obj["id"], ".id")
    # metrics.csv writes the id as an unquoted cell of one line.
    if "," in cluster_id or "\r" in cluster_id or "\n" in cluster_id:
        raise ScenarioInvalid(f".id: must not hold ',', '\\r' or '\\n', got {cluster_id!r}")
    node_count = _int(obj, "node_count", "", 1)
    node_capacity = _resource(obj["node_capacity"], ".node_capacity")
    trace, quantum = _trace(obj["trace"], ".trace")
    return ClusterSpec(cluster_id, node_count, node_capacity, trace, quantum)


def _group(value) -> GroupSpec:
    obj = _object(value, "", _GROUP_KEYS)
    group_id = _string(obj["id"], ".id")
    limits = _object(obj["thresholds"], ".thresholds", _THRESHOLD_KEYS)
    try:
        thresholds = Thresholds(
            _number(limits, "t_low", ".thresholds"), _number(limits, "t_high", ".thresholds")
        )
    except InvalidThresholds as exc:
        raise ScenarioInvalid(f".thresholds: {exc}") from exc
    interval = _int(obj, "balance_interval", "", 1)
    return GroupSpec(group_id, thresholds, interval, tuple(_array(obj, "members", "", _string)))


def _change(value) -> MembershipChange:
    obj = _object(value, "", _CHANGE_KEYS)
    action = obj["action"]
    if not isinstance(action, str) or action not in _ACTIONS:
        raise ScenarioInvalid(f".action: expected 'Add' or 'Remove', got {action!r}")
    return MembershipChange(
        _int(obj, "tick", "", 0), _ACTIONS[action],
        _string(obj["cluster"], ".cluster"), _string(obj["group"], ".group"),
    )


def parse_scenario(doc) -> Scenario:
    """Turn a decoded JSON document into a checked Scenario, in one pass.

    This is the only check a scenario gets. The membership changes are
    replayed in the order run applies them (by tick, then file order), so a
    join or leave that run would refuse is a scenario error here.
    """
    obj = _object(doc, "scenario", _SCENARIO_KEYS)
    ticks = _int(obj, "ticks", "scenario", 1)
    seed = _int(obj, "seed", "scenario", 0)
    if seed > MAX_SEED:
        raise ScenarioInvalid(f"scenario.seed: must be <= {MAX_SEED}, got {seed}")

    clusters: dict[str, ClusterSpec] = {}
    for spec in _array(obj, "clusters", "scenario", _cluster, nonempty=True):
        if spec.id in clusters:
            raise ScenarioInvalid(f"clusters: duplicate cluster id {spec.id!r}")
        clusters[spec.id] = spec

    groups: dict[str, GroupSpec] = {}
    membership: dict[str, str] = {}  # cluster id -> group id
    for i, spec in enumerate(_array(obj, "groups", "scenario", _group)):
        if spec.id in groups:
            raise ScenarioInvalid(f"groups: duplicate group id {spec.id!r}")
        groups[spec.id] = spec
        for j, member in enumerate(spec.members):
            if member not in clusters:
                raise ScenarioInvalid(f"groups[{i}].members[{j}]: unknown cluster {member!r}")
            if member in membership:
                raise ScenarioInvalid(
                    f"groups[{i}].members[{j}]: cluster {member!r} already belongs to group "
                    f"{membership[member]!r}"
                )
            membership[member] = spec.id

    changes: list[MembershipChange] = []
    for i, change in enumerate(_array(obj, "membership_changes", "scenario", _change)):
        if change.cluster not in clusters:
            raise ScenarioInvalid(
                f"membership_changes[{i}].cluster: unknown cluster {change.cluster!r}"
            )
        if change.group not in groups:
            raise ScenarioInvalid(f"membership_changes[{i}].group: unknown group {change.group!r}")
        if change.tick >= ticks:
            raise ScenarioInvalid(
                f"membership_changes[{i}].tick: {change.tick} is beyond the last tick {ticks - 1}"
            )
        changes.append(change)
    add = MembershipAction.ADD  # once: an Enum member lookup per change costs ~0.2 us
    for i in sorted(range(len(changes)), key=[change.tick for change in changes].__getitem__):
        change = changes[i]
        holder = membership.pop(change.cluster, None)
        if change.action is add:
            if holder is not None:
                raise ScenarioInvalid(
                    f"membership_changes[{i}]: cluster {change.cluster!r} already belongs "
                    f"to group {holder!r}"
                )
            membership[change.cluster] = change.group
        elif holder != change.group:
            raise ScenarioInvalid(
                f"membership_changes[{i}]: cluster {change.cluster!r} is not a member "
                f"of group {change.group!r}"
            )

    return Scenario(tuple(clusters.values()), tuple(groups.values()), tuple(changes), ticks, seed)


def load_scenario(path: str | Path, ticks: int | None = None) -> Scenario:
    """Read and parse a scenario file. A ticks override replaces the file's
    ticks before the parse, which checks it like any other field."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioInvalid(f"cannot read scenario {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad syntax, an over-long int, too deep
        raise ScenarioInvalid(f"{path}: not valid JSON: {exc}") from exc
    if ticks is not None and isinstance(doc, dict) and "ticks" in doc:
        doc["ticks"] = ticks
    return parse_scenario(doc)


# --- running ----------------------------------------------------------------


def build_world(scenario: Scenario, recorder=NULL_RECORDER) -> GroupManager:
    """Materialize clusters and groups; initial joins are real joins."""
    manager = GroupManager(recorder=recorder)
    for spec in scenario.clusters:
        cluster = build_cluster(spec.id, spec.node_count, spec.node_capacity, quantum=spec.quantum)
        manager.register_cluster(cluster)
    for group_spec in scenario.groups:
        manager.create_group(
            group_spec.id, group_spec.thresholds, group_spec.balance_interval
        )
        for member in group_spec.members:
            manager.add_cluster(group_spec.id, member)
    return manager


def _tick_record(tick: int, cluster: Cluster) -> TickRecord:
    u_cpu, u_mem, u = cluster_utilization(cluster)
    waiting = 0
    for length, node_id in cluster.runs:
        if node_id is None:
            waiting += length
    quantum = cluster.quantum
    return TickRecord(tick, cluster.id, u_cpu, u_mem, u, len(cluster.nodes), waiting,
                      waiting * quantum.cpu, waiting * quantum.memory)


def _verify_world(manager: GroupManager, expected_nodes: Counter, tick: int) -> None:
    """Structural audit at tick end; violations abort the run.

    Each node's pods are counted here by summing the cluster's runs, not
    through Cluster.counts, so the audit stays an independent check of the
    column: every pod must run on a hosted node, each node's pods times the
    quantum must fit its capacity, and the runs must hold as many pods as
    the batches that name them. Node conservation catches a node that two
    clusters hold, or that none does.
    """
    for cluster_id, cluster in manager.clusters.items():
        counts: dict[str | None, int] = {}
        for length, node_id in cluster.runs:
            counts[node_id] = counts.get(node_id, 0) + length
        total = sum(counts.values())
        counts.pop(None, None)
        nodes = cluster.nodes
        if not counts.keys() <= nodes.keys():
            node_id = min(counts.keys() - nodes.keys())
            raise InvariantViolation(
                f"tick {tick}: {counts[node_id]} pod(s) of cluster {cluster_id!r} "
                f"assigned to missing node {node_id!r}"
            )
        quantum_cpu, quantum_memory = cluster.quantum.cpu, cluster.quantum.memory
        for node_id, node in nodes.items():
            count = counts.get(node_id, 0)
            cpu, memory, capacity = count * quantum_cpu, count * quantum_memory, node.capacity
            if cpu > capacity.cpu or memory > capacity.memory:
                raise InvariantViolation(
                    f"tick {tick}: node {node_id!r} over capacity: "
                    f"{ResourceVector(cpu, memory)} > {capacity}"
                )
        named = 0
        for _, count in cluster.batches:
            named += count
        if total != named:
            raise InvariantViolation(
                f"tick {tick}: cluster {cluster_id!r} runs hold {total} pod(s), "
                f"but its batches name {named}"
            )
    seen = Counter(chain.from_iterable(cluster.nodes for cluster in manager.clusters.values()))
    # Neither Counter holds a zero count, so dict equality (in C) is Counter
    # equality without its per-key Python loop.
    if not dict.__eq__(seen, expected_nodes):
        raise InvariantViolation(
            f"tick {tick}: node conservation broken; "
            f"missing={sorted(expected_nodes - seen)} extra={sorted(seen - expected_nodes)}"
        )


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

            clusters = manager.clusters
            cluster_ids = sorted(clusters)
            for cluster_id in cluster_ids:
                apply_workload(clusters[cluster_id], traces[cluster_id], tick)
            for cluster_id in cluster_ids:
                place_pending(clusters[cluster_id])

            sizes = [len(clusters[cluster_id].nodes) for cluster_id in cluster_ids]
            for group_id in sorted(manager.groups):
                group = manager.groups[group_id]
                if tick % group.balance_interval == 0:
                    rebalance_cycle(group, clusters, recorder=recorder)
            # Only a recipient, whose node count grew, can have gained room.
            # A drain fills the donor's other nodes. A reversed node comes
            # back empty, and if its donor has a backlog, every node was full
            # before the drain, so a node whose pods all fitted elsewhere held
            # none and has no slot.
            for cluster_id, size in zip(cluster_ids, sizes):
                if len(clusters[cluster_id].nodes) > size:
                    place_pending(clusters[cluster_id])

            for cluster_id in cluster_ids:
                records.append(_tick_record(tick, clusters[cluster_id]))
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


def compare(scenario: Scenario) -> ComparisonReport:
    """Run the scenario twice: as given, and with balancing stripped out.

    The static baseline drops every group and membership change, so nodes
    stay exactly where the scenario placed them.
    """
    balanced = run(scenario)
    static = run(scenario._replace(groups=(), membership_changes=()))
    return ComparisonReport(
        balanced=balanced,
        static=static,
        summary=compose_comparison(balanced.summary, static.summary),
    )
