"""Run artifacts: the event log, per-tick metrics, and summaries.

All three formats are byte-stable: identical runs serialize to identical
bytes, so artifacts can be diffed and hashed.
"""

from __future__ import annotations

import json
import re
from enum import Enum
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import inf, isfinite
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import IoFailure


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


class _RebalanceEventFields(NamedTuple):
    tick: int
    sequence: int
    kind: str
    cluster: str | None = None
    group: str | None = None
    node: str | None = None
    detail: dict | None = None


class RebalanceEvent(_RebalanceEventFields):
    """One timestamped fact about a run.

    sequence is gap-free from 0 across the whole run, so the log totally
    orders events even within a tick.

    An immutable tuple, built in one allocation. Copy one with _replace. An
    event built without detail gets a fresh empty dict, never one shared
    between events.
    """

    __slots__ = ()

    def __new__(cls, tick, sequence, kind, cluster=None, group=None, node=None, detail=None):
        return tuple.__new__(
            cls, (tick, sequence, kind, cluster, group, node, {} if detail is None else detail))


class EventRecorder:
    """Collects events with a run-scoped, gap-free sequence number.

    The driver advances .tick; emit() stamps whatever the current value is.
    """

    def __init__(self):
        self.events: list[RebalanceEvent] = []
        self.tick = 0

    def emit(self, kind: EventKind | str, *, cluster=None, group=None, node=None, **detail):
        events = self.events
        events.append(RebalanceEvent(
            # _value_ is the same str as .value, without the property lookup.
            self.tick, len(events), kind._value_ if isinstance(kind, EventKind) else str(kind),
            # **detail is a fresh dict on every call; the writer sorts its keys.
            cluster, group, node, detail,
        ))


class NullRecorder:
    """Recorder stand-in that drops events; lets library calls skip logging."""

    def emit(self, kind, **kwargs):
        pass


NULL_RECORDER = NullRecorder()


class TickRecord(NamedTuple):
    """Per-(tick, cluster) sample of utilization and scheduling backlog: one
    row of metrics.csv, whose columns are its fields.

    The backlog is pending_pods, and the cpu and memory they demand. An
    immutable tuple, like RebalanceEvent; copy one with _replace.
    """

    tick: int
    cluster_id: str
    u_cpu: float
    u_mem: float
    u: float
    active_nodes: int
    pending_pods: int
    pending_cpu_millicores: int
    pending_memory_mib: int


METRICS_HEADER = ",".join(TickRecord._fields)

# The metrics row, defined once: for each cell in TickRecord order, the
# format write_metrics writes it with, the grammar the reader checks it by
# and the type the reader converts it to. %d writes an int with no leading
# zero (it would truncate a float) and %.6f a float with exactly six
# decimals; every value is finite and >= 0, so neither writes a sign, and a
# cell is read only in the form the writer gives it. parse_scenario refuses
# a cluster id holding ',', '\r' or '\n'.
_COUNT = ("%d", "(?:0|[1-9][0-9]*)", int)
_RATIO = ("%.6f", r"(?:0|[1-9][0-9]*)\.[0-9]{6}", float)
_METRICS_CELLS = (_COUNT, ("%s", r"[^,\r\n]+", str), _RATIO, _RATIO, _RATIO,
                  _COUNT, _COUNT, _COUNT, _COUNT)
_METRICS_ROW = ",".join(form for form, _, _ in _METRICS_CELLS) + "\n"
# One whole row with its "\n", as write_metrics writes it. No capture groups:
# one match per row and one split per batch are cheaper than a match's groups.
_IS_METRICS_ROW = re.compile(
    ",".join(grammar for _, grammar, _ in _METRICS_CELLS) + "\n").fullmatch
# The TickRecord columns a summary is folded from: tick, cluster_id, u,
# active_nodes and pending_pods. report converts only these: converting all
# nine cells made it about a fifth slower on a run of many rows.
_SUMMARY_COLUMNS = (0, 1, 4, 5, 6)
# metrics.csv is read this many characters of whole lines at a time: enough
# rows that checking, splitting and converting them are a few C calls per
# batch, and few enough that the reader holds kilobytes however long the file.
_BATCH_CHARS = 2048


# One encoder for a detail that holds more than plain scalars, where
# json.dumps would build a JSONEncoder per call. Its defaults match
# json.dumps, so it encodes such a detail exactly as json.dumps does.
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode
# What json.dumps writes for a str, an exact int and a finite exact float.
_STR, _INT, _FLOAT = encode_basestring_ascii, int.__repr__, float.__repr__


def _detail_json(detail: dict) -> str:
    """A non-empty detail with sorted keys, as json.dumps writes it.

    A detail whose keys are all str and whose values all have the exact type
    str, int or finite float is written here directly; anything else (lists,
    bool, None, non-finite floats, subclasses, non-str keys) goes through
    _ENCODE, which would otherwise build a C encoder for every event.
    """
    keys = sorted(detail)
    fields = []
    for key in keys:
        value = detail[key]
        kind = type(value)
        if type(key) is not str:
            break
        if kind is str:
            text = _STR(value)
        elif kind is int:
            text = _INT(value)
        elif kind is float and isfinite(value):
            text = _FLOAT(value)
        else:
            break
        fields.append(_STR(key) + ":" + text)
    else:
        return "{" + ",".join(fields) + "}"
    return _ENCODE({key: detail[key] for key in keys})


def _event_line(event: RebalanceEvent) -> str:
    """One event as compact JSON, byte-identical to json.dumps of the object
    {tick, sequence, kind, cluster?, group?, node?, detail} with "," and ":"
    separators, where a None subject is omitted and detail keys are sorted.

    tick and sequence must be plain ints, as the recorder stamps them: %d is
    what json.dumps writes for an int, but not for a bool or a float. kind and
    any subject that is not None must be str.
    """
    tick, sequence, kind, cluster, group, node, detail = event
    line = '{"tick":%d,"sequence":%d,"kind":%s' % (tick, sequence, _STR(kind))
    if cluster is not None:
        line += ',"cluster":' + _STR(cluster)
    if group is not None:
        line += ',"group":' + _STR(group)
    if node is not None:
        line += ',"node":' + _STR(node)
    if not detail:
        return line + ',"detail":{}}'
    return line + ',"detail":' + _detail_json(detail) + "}"


def write_events(events: Iterable[RebalanceEvent], path: str | Path) -> None:
    """Write the event log as JSONL, one object per line."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(_event_line(event) + "\n" for event in events)
    except OSError as exc:
        raise IoFailure(f"cannot write event log {path}: {exc}") from exc


# An event line as _event_line writes it, capturing tick, sequence, kind and
# node: strings without escapes (printable ASCII but '"' and '\') and a detail
# of strings, JSON numbers and lists of string lists, as the engine logs. It
# reads as json.loads would, and its node is None where the line has none.
# Digit runs stay far below the int-to-str limit. Any other line (escapes,
# non-ASCII, NaN, whitespace, a BOM, no final newline) is left to
# _decode_event.
_PLAIN = r'"[ !#-\[\]-~]*"'
_STRINGS = rf"\[(?:{_PLAIN}(?:,{_PLAIN})*)?\]"
_VALUE = (rf"(?:{_PLAIN}|\[(?:{_STRINGS}(?:,{_STRINGS})*)?\]"
          r"|-?(?:0|[1-9][0-9]{0,99})(?:\.[0-9]{1,99})?(?:[eE][-+]?[0-9]{1,99})?)")
_ENVELOPE = re.compile(
    r'\{"tick":(0|[1-9][0-9]{0,17}),"sequence":(0|[1-9][0-9]{0,17}),"kind":"([ !#-\[\]-~]*)"'
    rf'(?:,"cluster":{_PLAIN})?(?:,"group":{_PLAIN})?(?:,"node":"([ !#-\[\]-~]+)")?'
    rf',"detail":\{{(?:{_PLAIN}:{_VALUE}(?:,{_PLAIN}:{_VALUE})*)?\}}\}}\n')


def _decode_event(line: str, path: str | Path, lineno: int) -> RebalanceEvent | None:
    """One line of the event log decoded and checked, or None if it is blank;
    a malformed line raises IoFailure naming its file line."""
    line = line.strip()
    if not line:
        return None
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # bad syntax, an over-long int, too deep
        raise IoFailure(f"{path}:{lineno}: not valid JSON: {exc}") from exc
    return _event_from(obj, path, lineno)


def iter_events(path: str | Path) -> Iterator[RebalanceEvent]:
    """The event log's events in file order, each decoded and checked as it
    is read; a malformed line raises IoFailure naming its file line when the
    stream reaches it. The file is open while the stream is, and closed when
    the stream ends, fails or is closed."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if event := _decode_event(line, path, lineno):
                    yield event
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"cannot read event log {path}: {exc}") from exc


def read_events(path: str | Path) -> list[RebalanceEvent]:
    return list(iter_events(path))


def _event_rows(path: str | Path) -> Iterator[tuple]:
    """The event log as _check_events reads it: each event's (tick,
    sequence, kind, node) in file order. A line in the form run writes is
    read by one _ENVELOPE match; any other goes through _decode_event, so a
    blank line is skipped and a malformed one raises iter_events's IoFailure.
    The file is closed when the stream ends, fails or is closed."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if match := _ENVELOPE.match(line):
                    tick, sequence, kind, node = match.groups()
                    yield int(tick), int(sequence), kind, node
                elif event := _decode_event(line, path, lineno):
                    yield event.tick, event.sequence, event.kind, event.node
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"cannot read event log {path}: {exc}") from exc


# The type of each RebalanceEvent field in an event line. The first three are
# required; the others may be absent or null. A bool is not an int here.
_EVENT_FIELDS = {
    "tick": int, "sequence": int, "kind": str,
    "cluster": str, "group": str, "node": str, "detail": dict,
}


def _event_from(obj, path: str | Path, lineno: int) -> RebalanceEvent:
    """Build an event from one decoded line, naming the first malformed field."""
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
        elif key == "tick" and value < 0:  # run counts ticks from 0
            raise IoFailure(f"{where}: field 'tick' must be >= 0, got {value}")
        else:
            fields[key] = value
    return RebalanceEvent(**fields)


def verify_event_log(events: Iterable[RebalanceEvent]) -> list[str]:
    """Check ordering and causality; returns human-readable violations.

    Sequence numbers must be gap-free from 0, and every MoveCompleted must be
    preceded, within the same tick, by the DrainStarted, NodeDeprovisioned,
    and NodeProvisioned events for the same node. The events are checked one
    at a time as they are iterated, so no copy of a long log is held.
    """
    return _check_events(map(itemgetter(0, 1, 2, 5), events))[0]


def _check_events(rows: Iterable[tuple]) -> tuple[list[str], dict[str, int]]:
    """One pass over a log given as its events' (tick, sequence, kind, node)
    rows: verify_event_log's violations (the sequence and tick ones, then the
    causality ones) and the number of events per kind."""
    ordering: list[str] = []
    causality: list[str] = []
    counts: dict[str, int] = {}
    # Enum member values are read through a property: once, not per event.
    move_completed = EventKind.MOVE_COMPLETED.value
    required = (
        EventKind.DRAIN_STARTED.value,
        EventKind.NODE_DEPROVISIONED.value,
        EventKind.NODE_PROVISIONED.value,
    )
    # (tick, node) -> required kinds logged so far; a tuple takes a third of a set's memory
    seen: dict[tuple[int, str | None], tuple[str, ...]] = {}
    last_tick = None
    for expected, (tick, sequence, kind, node) in enumerate(rows):
        if sequence != expected:
            ordering.append(f"sequence gap at position {expected}:"
                            f" expected {expected}, got {sequence}")
        if last_tick is not None and tick < last_tick:
            ordering.append(f"tick went backwards at sequence {sequence}: {last_tick} -> {tick}")
        last_tick = tick
        counts[kind] = counts.get(kind, 0) + 1
        if kind == move_completed:
            logged = seen.get((tick, node), ())
            for needed in required:
                if needed not in logged:
                    causality.append(
                        f"MoveCompleted at sequence {sequence} for node {node!r}"
                        f" lacks a same-tick {needed} before it"
                    )
        elif kind in required:
            key = (tick, node)
            seen[key] = seen.get(key, ()) + (kind,)
    return ordering + causality, counts


def write_metrics(records: Iterable[TickRecord], path: str | Path) -> None:
    """Write the per-tick metrics table as CSV, sorted by (tick, cluster_id)."""
    ordered = sorted(records, key=itemgetter(0, 1))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(METRICS_HEADER + "\n")
            handle.writelines(map(_METRICS_ROW.__mod__, ordered))
    except OSError as exc:
        raise IoFailure(f"cannot write metrics {path}: {exc}") from exc


def _metrics_batches(path: str | Path, columns) -> Iterator[Iterator[tuple]]:
    """metrics.csv a batch of lines at a time: for each batch that holds a
    row, an iterator over its rows in file order, each the tuple of its cells
    in columns (TickRecord indices), converted to their types.

    A batch of whole rows in writer form is checked one regex call a row and
    split with one call. Any other batch (the header, a blank or
    whitespace-only line, a last line with no newline, a malformed row) is
    read a line at a time: its rows before the file's first bad line are
    yielded, then IoFailure names that line. The file is open while the
    stream is, and closed when the stream ends, fails or is closed."""
    width = len(_METRICS_CELLS)
    kinds = [(column, _METRICS_CELLS[column][2]) for column in columns]
    header = METRICS_HEADER + "\n"
    try:
        with open(path, "r", encoding="utf-8") as handle:
            header_seen = False
            lineno = 0
            while lines := handle.readlines(_BATCH_CHARS):
                failure = None
                if header_seen and all(map(_IS_METRICS_ROW, lines)):
                    lineno += len(lines)
                else:
                    rows = []
                    for lineno, line in enumerate(lines, start=lineno + 1):
                        if not line.endswith("\n"):  # only a file's last line
                            line += "\n"
                        if line.isspace():
                            continue
                        if not header_seen:
                            if line != header:
                                raise IoFailure(f"{path}: unexpected header {line[:-1]!r}")
                            header_seen = True
                        elif _IS_METRICS_ROW(line):
                            rows.append(line)
                        else:
                            failure = IoFailure(f"{path}:{lineno}: {_bad_cell(line[:-1])}")
                            break
                    lines = rows
                if lines:
                    # Every row has exactly width cells, so column k is every
                    # width-th cell from k.
                    cells = "".join(lines)[:-1].replace("\n", ",").split(",")
                    yield zip(*[cells[column::width] if kind is str
                                else map(kind, cells[column::width]) for column, kind in kinds])
                if failure is not None:
                    raise failure
            if not header_seen:
                raise IoFailure(f"{path}: empty metrics file")
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"cannot read metrics {path}: {exc}") from exc


def iter_metrics(path: str | Path) -> Iterator[TickRecord]:
    """The metrics table's rows in file order, read and checked a batch of
    lines at a time; a malformed row raises IoFailure naming its file line
    when the stream reaches it. Blank lines are skipped. The file is open
    while the stream is, and closed when the stream ends, fails or is
    closed."""
    for rows in _metrics_batches(path, range(len(_METRICS_CELLS))):
        yield from map(TickRecord._make, rows)


def read_metrics(path: str | Path) -> list[TickRecord]:
    return list(iter_metrics(path))


def _bad_cell(line: str) -> str:
    """Name what is wrong with a metrics row that failed the row grammar:
    its column count, or else the first cell that fails its own grammar."""
    parts = line.split(",")
    if len(parts) != len(_METRICS_CELLS):
        return f"expected {len(_METRICS_CELLS)} columns, got {len(parts)}"
    # A cell holds no ',', so a row of nine cells that each match matches.
    return next(f"field {column!r}: cannot read {text!r}"
                for column, (_, grammar, _), text in zip(TickRecord._fields, _METRICS_CELLS, parts)
                if not re.fullmatch(grammar, text))


def _quantized(value: float) -> float:
    # Six decimals, matching the metrics file, so summaries recomputed from
    # the CSV agree exactly with summaries computed from live records.
    return float(f"{value:.6f}")


def summarize(events: list[RebalanceEvent], records: list[TickRecord]) -> dict:
    """Aggregate a run into the summary document.

    Everything here is derivable from the event log and metrics table alone,
    which is what lets `report` rebuild the file from existing output.
    """
    counts: dict[str, int] = {}
    for event in events:
        kind = event.kind
        counts[kind] = counts.get(kind, 0) + 1
    return _summarize_records(counts, map(itemgetter(*_SUMMARY_COLUMNS), records))


def _summarize_metrics(counts: dict[str, int], path: str | Path) -> dict:
    """summarize's document from a run's event count per kind and its
    metrics.csv, read a batch at a time; no row outlives its batch."""
    return _summarize_records(counts, chain.from_iterable(_metrics_batches(path, _SUMMARY_COLUMNS)))


def _summarize_records(counts: dict[str, int], rows: Iterable[tuple]) -> dict:
    """The summary of a run from its event count per kind and one pass over
    its metrics rows, each (tick, cluster_id, u, active_nodes, pending_pods)."""
    # cluster_id -> [peak utilization, min active nodes, max active nodes,
    # pending pod-ticks]; comparisons, not max/min calls, on every row.
    per_cluster: dict[str, list] = {}
    last_tick = -inf  # any record replaces it
    pending_total = 0
    for tick, cluster_id, u, active, pending in rows:
        if tick > last_tick:
            last_tick = tick
        pending_total += pending
        stats = per_cluster.get(cluster_id)
        if stats is None:
            stats = per_cluster[cluster_id] = [0.0, active, active, 0]
        if u > stats[0]:
            stats[0] = u
        if active < stats[1]:
            stats[1] = active
        elif active > stats[2]:
            stats[2] = active
        stats[3] += pending

    clusters = {
        cid: {
            "peak_utilization": _quantized(peak),
            "min_active_nodes": low,
            "max_active_nodes": high,
            "pending_pod_ticks": pending,
        }
        for cid, (peak, low, high, pending) in sorted(per_cluster.items())
    }

    count = counts.get
    return {
        "ticks": last_tick + 1 if per_cluster else 0,
        "totals": {
            "moves": count(EventKind.MOVE_COMPLETED.value, 0),
            "reversals": count(EventKind.MOVE_REVERSED.value, 0),
            "no_candidate": count(EventKind.NO_CANDIDATE.value, 0),
            "restorations": count(EventKind.RESTORATION_COMPLETED.value, 0),
            "drains_started": count(EventKind.DRAIN_STARTED.value, 0),
            "drains_restored": count(EventKind.DRAIN_RESTORED.value, 0),
            "pending_pod_ticks": pending_total,
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
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"cannot read summary {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad syntax, an over-long int, too deep
        raise IoFailure(f"{path}: not valid JSON: {exc}") from exc
