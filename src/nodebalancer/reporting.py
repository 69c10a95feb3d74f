"""Run artifacts: the event log, per-tick metrics, and summaries.

All three formats are byte-stable: identical runs serialize to identical
bytes, so artifacts can be diffed and hashed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from math import isfinite
from pathlib import Path
from typing import Iterable

from .errors import IoFailure
from .model import ZERO, ResourceVector


class EventKind(str, Enum):
    GROUP_CREATED = "GroupCreated"
    CLUSTER_ADDED = "ClusterAdded"
    CLUSTER_REMOVED = "ClusterRemoved"
    DRAIN_STARTED = "DrainStarted"
    DRAIN_RESTORED = "DrainRestored"
    NODE_DEPROVISIONED = "NodeDeprovisioned"
    NODE_PROVISIONED = "NodeProvisioned"
    MOVE_COMPLETED = "MoveCompleted"
    MOVE_REVERSED = "MoveReversed"
    NO_CANDIDATE = "NoCandidate"
    RESTORATION_COMPLETED = "RestorationCompleted"


@dataclass(frozen=True, slots=True)
class RebalanceEvent:
    """One timestamped fact about a run.

    sequence is gap-free from 0 across the whole run, so the log totally
    orders events even within a tick.
    """

    tick: int
    sequence: int
    kind: str
    cluster: str | None = None
    group: str | None = None
    node: str | None = None
    detail: dict = field(default_factory=dict)


class EventRecorder:
    """Collects events with a run-scoped, gap-free sequence number.

    The driver advances .tick; emit() stamps whatever the current value is.
    """

    def __init__(self):
        self.events: list[RebalanceEvent] = []
        self.tick = 0

    def emit(self, kind: EventKind | str, *, cluster=None, group=None, node=None, **detail):
        value = kind.value if isinstance(kind, EventKind) else str(kind)
        self.events.append(
            RebalanceEvent(
                tick=self.tick,
                sequence=len(self.events),
                kind=value,
                cluster=cluster,
                group=group,
                node=node,
                detail={key: detail[key] for key in sorted(detail)},
            )
        )


class NullRecorder:
    """Recorder stand-in that drops events; lets library calls skip logging."""

    tick = 0

    def emit(self, kind, **kwargs):
        pass


NULL_RECORDER = NullRecorder()


@dataclass(frozen=True, slots=True)
class TickRecord:
    """Per-(tick, cluster) sample of utilization and scheduling backlog."""

    tick: int
    cluster_id: str
    u_cpu: float
    u_mem: float
    u: float
    active_nodes: int
    pending_pods: int
    pending_demand: ResourceVector


METRICS_HEADER = (
    "tick,cluster_id,u_cpu,u_mem,u,active_nodes,"
    "pending_pods,pending_cpu_millicores,pending_memory_mib"
)


# One encoder for every line, where json.dumps would build a JSONEncoder per
# call. Its defaults match json.dumps, so a str takes the same ASCII-escaping
# C function, and a dict (which still gets a C encoder per call) is encoded
# exactly as json.dumps does.
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode


def _event_line(event: RebalanceEvent) -> str:
    """One event as compact JSON, byte-identical to json.dumps of the object
    {tick, sequence, kind, cluster?, group?, node?, detail} with "," and ":"
    separators, where a None subject is omitted and detail keys are sorted.

    tick and sequence must be plain ints, as the recorder stamps them: %d is
    what json.dumps writes for an int, but not for a bool or a float.
    """
    line = '{"tick":%d,"sequence":%d,"kind":%s' % (
        event.tick, event.sequence, _ENCODE(event.kind))
    if event.cluster is not None:
        line += ',"cluster":' + _ENCODE(event.cluster)
    if event.group is not None:
        line += ',"group":' + _ENCODE(event.group)
    if event.node is not None:
        line += ',"node":' + _ENCODE(event.node)
    detail = event.detail
    if not detail:
        return line + ',"detail":{}}'
    return line + ',"detail":' + _ENCODE({key: detail[key] for key in sorted(detail)}) + "}"


def write_events(events: Iterable[RebalanceEvent], path: str | Path) -> None:
    """Write the event log as JSONL, one object per line."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(_event_line(event) + "\n" for event in events)
    except OSError as exc:
        raise IoFailure(f"cannot write event log {path}: {exc}") from exc


# json.loads's own decoder, without json.loads's per-call checks. A line it
# rejects, or does not consume whole, is decoded again by json.loads, so the
# error raised for it is exactly json.loads's.
_DECODE = json.JSONDecoder().raw_decode


def read_events(path: str | Path) -> list[RebalanceEvent]:
    events = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj, end = _DECODE(line)
                except json.JSONDecodeError:
                    end = -1
                if end != len(line):
                    try:
                        obj = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise IoFailure(f"{path}:{lineno}: not valid JSON: {exc}") from exc
                events.append(_event_from(obj, path, lineno))
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"cannot read event log {path}: {exc}") from exc
    return events


# The type of each RebalanceEvent field in an event line. The first three are
# required; the others may be absent or null. A bool is not an int here.
_EVENT_FIELDS = {
    "tick": int, "sequence": int, "kind": str,
    "cluster": str, "group": str, "node": str, "detail": dict,
}


def _event_from(obj, path: str | Path, lineno: int) -> RebalanceEvent:
    """Build an event from one decoded line, naming the first malformed field."""
    if type(obj) is dict:
        # The decoder yields exact types, so one test passes every
        # well-formed line; the loop below only names what is wrong.
        get = obj.get
        tick, sequence, kind, detail = get("tick"), get("sequence"), get("kind"), get("detail")
        cluster, group, node = get("cluster"), get("group"), get("node")
        if (type(tick) is int and type(sequence) is int and type(kind) is str
                and type(detail) is dict
                and (cluster is None or type(cluster) is str)
                and (group is None or type(group) is str)
                and (node is None or type(node) is str)):
            return RebalanceEvent(tick, sequence, kind, cluster, group, node, detail)
    where = f"{path}:{lineno}"
    if not isinstance(obj, dict):
        raise IoFailure(f"{where}: expected a JSON object, got {type(obj).__name__}")
    fields = {}
    for key, kind in _EVENT_FIELDS.items():
        value = obj.get(key)
        if value is None:
            if key in ("tick", "sequence", "kind"):
                raise IoFailure(f"{where}: missing field {key!r}")
        elif not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise IoFailure(f"{where}: field {key!r} must be {kind.__name__}, got {value!r}")
        else:
            fields[key] = value
    return RebalanceEvent(**fields)


def verify_event_log(events: list[RebalanceEvent]) -> list[str]:
    """Check ordering and causality; returns human-readable violations.

    Sequence numbers must be gap-free from 0, and every MoveCompleted must be
    preceded, within the same tick, by the DrainStarted, NodeDeprovisioned,
    and NodeProvisioned events for the same node.
    """
    violations = []
    last_tick = None
    for position, event in enumerate(events):
        if event.sequence != position:
            violations.append(
                f"sequence gap at position {position}: expected {position}, got {event.sequence}"
            )
        if last_tick is not None and event.tick < last_tick:
            violations.append(
                f"tick went backwards at sequence {event.sequence}: {last_tick} -> {event.tick}"
            )
        last_tick = event.tick

    required = (
        EventKind.DRAIN_STARTED.value,
        EventKind.NODE_DEPROVISIONED.value,
        EventKind.NODE_PROVISIONED.value,
    )
    # (tick, node) -> required kinds logged so far; a tuple takes a third of a set's memory
    seen: dict[tuple[int, str | None], tuple[str, ...]] = {}
    for event in events:
        key = (event.tick, event.node)
        if event.kind == EventKind.MOVE_COMPLETED.value:
            for kind in required:
                if kind not in seen.get(key, ()):
                    violations.append(
                        f"MoveCompleted at sequence {event.sequence} for node {event.node!r}"
                        f" lacks a same-tick {kind} before it"
                    )
        elif event.kind in required:
            seen[key] = seen.get(key, ()) + (event.kind,)
    return violations


def write_metrics(records: Iterable[TickRecord], path: str | Path) -> None:
    """Write the per-tick metrics table as CSV, sorted by (tick, cluster_id)."""
    ordered = sorted(records, key=lambda r: (r.tick, r.cluster_id))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(METRICS_HEADER + "\n")
            for rec in ordered:
                handle.write(
                    f"{rec.tick},{rec.cluster_id},{rec.u_cpu:.6f},{rec.u_mem:.6f},"
                    f"{rec.u:.6f},{rec.active_nodes},{rec.pending_pods},"
                    f"{rec.pending_demand.cpu},{rec.pending_demand.memory}\n"
                )
    except OSError as exc:
        raise IoFailure(f"cannot write metrics {path}: {exc}") from exc


def read_metrics(path: str | Path) -> list[TickRecord]:
    records = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.rstrip("\n") for line in handle if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"cannot read metrics {path}: {exc}") from exc
    if not lines:
        raise IoFailure(f"{path}: empty metrics file")
    if lines[0] != METRICS_HEADER:
        raise IoFailure(f"{path}: unexpected header {lines[0]!r}")
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 9:
            raise IoFailure(f"{path}:{lineno}: expected 9 columns, got {len(parts)}")
        try:
            tick, active, pending = int(parts[0]), int(parts[5]), int(parts[6])
            u_cpu, u_mem, u = float(parts[2]), float(parts[3]), float(parts[4])
            cpu, memory = int(parts[7]), int(parts[8])
            if (tick < 0 or active < 0 or pending < 0
                    or not (isfinite(u_cpu) and isfinite(u_mem) and isfinite(u))):
                raise ValueError
            records.append(
                TickRecord(
                    tick, parts[1], u_cpu, u_mem, u, active, pending,
                    # Most rows have no backlog: they share ZERO, as live records do.
                    ResourceVector(cpu, memory) if cpu or memory else ZERO,
                )
            )
        except ValueError:
            raise IoFailure(f"{path}:{lineno}: {_bad_cell(parts)}") from None
    return records


# How read_metrics parses each cell, in METRICS_HEADER order, and the columns
# that must not be negative; only used to name the cell a row failed on, so
# the per-row path stays short.
_METRICS_PARSERS = (int, str, float, float, float, int, int, int, int)
_NON_NEGATIVE = ("tick", "active_nodes", "pending_pods")


def _bad_cell(parts: list[str]) -> str:
    """Describe the first cell of a metrics row that does not parse or is out of range."""
    for column, parse, text in zip(METRICS_HEADER.split(","), _METRICS_PARSERS, parts):
        try:
            value = parse(text)
        except ValueError:
            return f"field {column!r}: cannot read {text!r}"
        if parse is float and not isfinite(value):
            return f"field {column!r}: must be finite, got {value}"
        if column in _NON_NEGATIVE and value < 0:
            return f"field {column!r}: must be >= 0, got {value}"
    return f"fields 'pending_cpu_millicores', 'pending_memory_mib': must be >= 0, got {parts[7:]}"


def _quantized(value: float) -> float:
    # Six decimals, matching the metrics file, so summaries recomputed from
    # the CSV agree exactly with summaries computed from live records.
    return float(f"{value:.6f}")


def summarize(events: list[RebalanceEvent], records: list[TickRecord]) -> dict:
    """Aggregate a run into the summary document.

    Everything here is derivable from the event log and metrics table alone,
    which is what lets `report` rebuild the file from existing output.
    """
    counts = {kind.value: 0 for kind in EventKind}
    for event in events:
        if event.kind in counts:
            counts[event.kind] += 1

    per_cluster: dict[str, dict] = {}
    for rec in records:
        stats = per_cluster.setdefault(
            rec.cluster_id,
            {"peak_utilization": 0.0, "min_active_nodes": rec.active_nodes,
             "max_active_nodes": rec.active_nodes, "pending_pod_ticks": 0},
        )
        stats["peak_utilization"] = max(stats["peak_utilization"], rec.u)
        stats["min_active_nodes"] = min(stats["min_active_nodes"], rec.active_nodes)
        stats["max_active_nodes"] = max(stats["max_active_nodes"], rec.active_nodes)
        stats["pending_pod_ticks"] += rec.pending_pods

    clusters = {
        cid: {
            "peak_utilization": _quantized(stats["peak_utilization"]),
            "min_active_nodes": stats["min_active_nodes"],
            "max_active_nodes": stats["max_active_nodes"],
            "pending_pod_ticks": stats["pending_pod_ticks"],
        }
        for cid, stats in sorted(per_cluster.items())
    }

    return {
        "ticks": (max(rec.tick for rec in records) + 1) if records else 0,
        "totals": {
            "moves": counts[EventKind.MOVE_COMPLETED.value],
            "reversals": counts[EventKind.MOVE_REVERSED.value],
            "no_candidate": counts[EventKind.NO_CANDIDATE.value],
            "restorations": counts[EventKind.RESTORATION_COMPLETED.value],
            "drains_started": counts[EventKind.DRAIN_STARTED.value],
            "drains_restored": counts[EventKind.DRAIN_RESTORED.value],
            "pending_pod_ticks": sum(rec.pending_pods for rec in records),
        },
        "clusters": clusters,
    }


def compose_comparison(balanced: dict, static: dict) -> dict:
    """Put a balanced-run summary side by side with its static baseline."""
    cluster_ids = sorted(set(balanced["clusters"]) | set(static["clusters"]))
    peak_deltas = {}
    for cid in cluster_ids:
        bal = balanced["clusters"].get(cid, {}).get("peak_utilization", 0.0)
        sta = static["clusters"].get(cid, {}).get("peak_utilization", 0.0)
        peak_deltas[cid] = _quantized(bal - sta)
    return {
        "balanced": balanced,
        "static": static,
        "deltas": {
            "pending_pod_ticks": balanced["totals"]["pending_pod_ticks"]
            - static["totals"]["pending_pod_ticks"],
            "moves": balanced["totals"]["moves"] - static["totals"]["moves"],
            "reversals": balanced["totals"]["reversals"] - static["totals"]["reversals"],
            "peak_utilization": peak_deltas,
        },
    }


def write_summary(summary: dict, path: str | Path) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(json.dumps(summary, indent=2) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write summary {path}: {exc}") from exc


def read_summary(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise IoFailure(f"cannot read summary {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IoFailure(f"{path}: not valid JSON: {exc}") from exc
