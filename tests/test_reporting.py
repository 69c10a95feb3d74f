import copy
import json
import pickle
import random
import re
from enum import IntEnum

import pytest
from hypothesis import example, given, settings, strategies as st

from nodebalancer import (
    EventKind,
    EventRecorder,
    RebalanceEvent,
    TickRecord,
    compose_comparison,
    read_events,
    read_metrics,
    read_summary,
    summarize,
    verify_event_log,
    write_events,
    write_metrics,
    write_summary,
)
from nodebalancer.errors import IoFailure
from nodebalancer.model import ResourceVector
from nodebalancer.reporting import METRICS_HEADER, _event_line

from helpers import rv


def _record(tick, cid, u_cpu, u_mem, active=2, pending=0, pending_demand=None):
    return TickRecord(
        tick=tick,
        cluster_id=cid,
        u_cpu=u_cpu,
        u_mem=u_mem,
        u=max(u_cpu, u_mem),
        active_nodes=active,
        pending_pods=pending,
        pending_demand=pending_demand or ResourceVector(0, 0),
    )


def test_recorder_stamps_tick_and_sequence():
    recorder = EventRecorder()
    recorder.emit(EventKind.GROUP_CREATED, group="g", t_low=0.3)
    recorder.tick = 4
    recorder.emit(EventKind.CLUSTER_ADDED, cluster="a", group="g")
    assert [e.sequence for e in recorder.events] == [0, 1]
    assert [e.tick for e in recorder.events] == [0, 4]
    assert recorder.events[0].detail == {"t_low": 0.3}
    assert recorder.events[1].cluster == "a"


def _records():
    return [
        _record(0, "a", 0.5, 0.25),
        RebalanceEvent(0, 0, "GroupCreated", group="g", detail={"t_low": 0.3}),
    ]


@pytest.mark.parametrize("record", _records(), ids=["tick-record", "event"])
def test_record_fields_are_read_only(record):
    with pytest.raises(AttributeError):
        record.tick = 5
    assert record.tick == 0


# A frozen dataclass with slots=True raised TypeError here (its __setattr__
# calls super() on the class that slots=True replaced).
@pytest.mark.parametrize("record", _records(), ids=["tick-record", "event"])
def test_records_take_no_new_attributes(record):
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("record", _records(), ids=["tick-record", "event"])
def test_records_pickle_and_deep_copy(record):
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(twin) is type(record)
        assert twin == record


def test_events_without_detail_do_not_share_it():
    first = RebalanceEvent(tick=0, sequence=0, kind="GroupCreated", group="g")
    second = RebalanceEvent(tick=0, sequence=1, kind="GroupCreated", group="h")
    assert first.detail == second.detail == {}
    assert first.detail is not second.detail
    recorder = EventRecorder()
    recorder.emit(EventKind.GROUP_CREATED, group="g")
    recorder.emit(EventKind.GROUP_CREATED, group="h")
    assert recorder.events[0].detail is not recorder.events[1].detail


def test_event_line_bytes_are_fixed():
    event = RebalanceEvent(
        tick=3,
        sequence=17,
        kind="MoveCompleted",
        cluster="a",
        group="g",
        node="b-n001",
        detail={"from_cluster": "b", "donor_utilization_after": 0.25},
    )
    assert _event_line(event) == (
        '{"tick":3,"sequence":17,"kind":"MoveCompleted","cluster":"a","group":"g",'
        '"node":"b-n001","detail":{"donor_utilization_after":0.25,"from_cluster":"b"}}'
    )


def test_event_line_omits_absent_subjects():
    event = RebalanceEvent(tick=0, sequence=0, kind="GroupCreated", group="g")
    assert _event_line(event) == '{"tick":0,"sequence":0,"kind":"GroupCreated","group":"g","detail":{}}'


def _reference_event_line(event: RebalanceEvent) -> str:
    """Reference for _event_line: json.dumps of the event's object."""
    obj: dict = {"tick": event.tick, "sequence": event.sequence, "kind": event.kind}
    for key, value in (("cluster", event.cluster), ("group", event.group), ("node", event.node)):
        if value is not None:
            obj[key] = value
    obj["detail"] = {key: event.detail[key] for key in sorted(event.detail)}
    return json.dumps(obj, separators=(",", ":"))


# Quotes, backslashes, control characters, line separators and non-ASCII text
# all need escaping; any code point, lone surrogates included, may follow.
_texts = st.text(
    st.sampled_from('"\\/\x00\x1f\n\t\x7f\u2028\xe9\u2603\U0001f600ab')
    | st.integers(0, 0x10FFFF).map(chr),
    max_size=8,
)


# _event_line writes str, exact int and finite exact float values itself and
# hands anything else to json: each of these must come out as json.dumps
# writes it. The subclasses' own str and repr are not what json writes.
class _Str(str):
    def __str__(self):
        return "not-" + super().__str__()


class _Int(int):
    def __repr__(self):
        return "not-an-int"


class _Float(float):
    def __repr__(self):
        return "not-a-float"


class _Level(IntEnum):
    LOW = 1


_ints = st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-(2**64))
_plain_scalars = (
    _ints
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 1e308, 5e-324]) | _texts
)


def _detail_values(allow_nan):
    scalars = (st.none() | st.booleans() | _plain_scalars | st.floats(allow_nan=allow_nan)
               | _texts.map(_Str) | st.integers().map(_Int) | st.floats(allow_nan=False).map(_Float)
               | st.just(_Level.LOW))
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_texts, inner, max_size=3),
        max_leaves=8,
    )


def _details(round_trip):
    values = _detail_values(allow_nan=not round_trip)
    details = (st.dictionaries(_texts, _plain_scalars, max_size=4)
               | st.dictionaries(_texts, values, max_size=4)
               | st.dictionaries(_texts.map(_Str), values, min_size=1, max_size=2))
    if round_trip:
        return details
    # Keys are all str or all int: sorted() cannot order a mix, for json.dumps
    # as for _event_line. An int key is read back as a str.
    return details | st.dictionaries(_ints, values, min_size=1, max_size=2)


def _events(round_trip=False):
    subjects = st.none() | _texts
    return st.builds(
        RebalanceEvent,
        tick=st.integers(min_value=0),
        sequence=st.integers(min_value=0),
        kind=_texts,
        cluster=subjects,
        group=subjects,
        node=subjects,
        # Dictionaries keep the order they were drawn in, so keys arrive unsorted.
        detail=_details(round_trip),
    )


_CODEC_SETTINGS = dict(deadline=None, derandomize=True, database=None)


@settings(max_examples=80, **_CODEC_SETTINGS)
@given(_events())
@example(RebalanceEvent(0, 0, "k", detail={"b": "x\u2028\"", "a": 7, "c": 0.1}))
@example(RebalanceEvent(0, 0, "k", detail={"z": -0.0, "big": 2**70, "neg": -(2**65)}))
@example(RebalanceEvent(0, 0, "k", detail={"a": 1, "list": [1, "x"]}))
@example(RebalanceEvent(0, 0, "k", detail={"a": 1, "flag": True}))
@example(RebalanceEvent(0, 0, "k", detail={"a": 1, "none": None}))
@example(RebalanceEvent(0, 0, "k", detail={"a": 1.5, "inf": float("inf")}))
@example(RebalanceEvent(0, 0, "k", detail={"a": 1.5, "nan": float("nan")}))
@example(RebalanceEvent(0, 0, "k", detail={"a": _Str("s"), "b": _Int(3), "c": _Float(0.5)}))
@example(RebalanceEvent(0, 0, "k", detail={"a": _Level.LOW}))
@example(RebalanceEvent(0, 0, "k", detail={_Str("a"): 1}))
@example(RebalanceEvent(0, 0, "k", detail={2: "x", 1: 0.5}))
def test_event_line_matches_json_dumps(event):
    assert _event_line(event) == _reference_event_line(event)


# NaN and int keys are left out here only because NaN never equals itself and
# an int key is read back as a str.
@settings(max_examples=25, **_CODEC_SETTINGS)
@given(st.lists(_events(round_trip=True), max_size=3))
def test_write_then_read_gives_the_events_back(tmp_path_factory, events):
    path = tmp_path_factory.mktemp("codec") / "events.jsonl"
    write_events(events, path)
    assert path.read_text(encoding="utf-8") == "".join(
        _reference_event_line(event) + "\n" for event in events
    )
    assert read_events(path) == events


def test_events_round_trip(tmp_path):
    recorder = EventRecorder()
    recorder.emit(EventKind.GROUP_CREATED, group="g", t_low=0.3, t_high=0.8)
    recorder.tick = 2
    recorder.emit(
        EventKind.NO_CANDIDATE,
        cluster="hot",
        group="g",
        attempts=[["cold", "MinActiveNodes"]],
    )
    path = tmp_path / "events.jsonl"
    write_events(recorder.events, path)
    assert read_events(path) == recorder.events


def test_read_events_rejects_bad_json(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('{"tick":0,"sequence":0,"kind":"GroupCreated","detail":{}}\nnot json\n')
    with pytest.raises(IoFailure, match="events.jsonl:2"):
        read_events(path)


_GOOD_LINE = '{"tick":0,"sequence":0,"kind":"GroupCreated","group":"g","detail":{}}'


# The first five messages are json.loads's and the field checks' own:
# decoding well-formed lines faster must not change what a malformed one says.
@pytest.mark.parametrize(
    "line,message",
    [
        ("not json", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        (_GOOD_LINE + ' {"x":1}', "not valid JSON: Extra data: line 1 column 71 (char 70)"),
        ("\ufeff" + _GOOD_LINE,
         "not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        ("[1, 2]", "expected a JSON object, got list"),
        ('{"tick":0,"sequence":0,"kind":"GroupCreated","detail":[]}',
         "field 'detail' must be dict, got []"),
        ('{"tick":true,"sequence":0,"kind":"GroupCreated","detail":{}}',
         "field 'tick' must be int, got True"),
        ('{"tick":0,"sequence":true,"kind":"GroupCreated","detail":{}}',
         "field 'sequence' must be int, got True"),
        ('{"tick":false,"sequence":false,"kind":"GroupCreated","detail":{}}',
         "field 'tick' must be int, got False"),
    ],
    ids=["not-json", "extra-data", "bom", "array", "detail-not-a-dict",
         "tick-true", "sequence-true", "both-false"],
)
def test_read_events_names_malformed_lines(tmp_path, line, message):
    path = tmp_path / "events.jsonl"
    path.write_text(line + "\n" + _GOOD_LINE + "\n", encoding="utf-8")
    with pytest.raises(IoFailure) as info:
        read_events(path)
    assert str(info.value) == f"{path}:1: {message}"


def test_read_events_missing_file(tmp_path):
    with pytest.raises(IoFailure, match="cannot read"):
        read_events(tmp_path / "nope.jsonl")


def _move_sequence(tick=1, node="b-n001"):
    """A causally complete single-move event log."""
    kinds = [
        (EventKind.DRAIN_STARTED, "b"),
        (EventKind.NODE_DEPROVISIONED, "b"),
        (EventKind.NODE_PROVISIONED, "a"),
        (EventKind.MOVE_COMPLETED, "a"),
    ]
    return [
        RebalanceEvent(tick=tick, sequence=i, kind=kind.value, cluster=cid, node=node)
        for i, (kind, cid) in enumerate(kinds)
    ]


def test_verify_accepts_a_clean_log():
    assert verify_event_log(_move_sequence()) == []


def test_verify_flags_sequence_gap():
    events = _move_sequence()
    events[2] = RebalanceEvent(
        tick=1, sequence=9, kind=events[2].kind, cluster="a", node="b-n001"
    )
    violations = verify_event_log(events)
    assert any("sequence gap at position 2" in v for v in violations)


def test_verify_flags_backwards_tick():
    events = [
        RebalanceEvent(tick=3, sequence=0, kind="GroupCreated", group="g"),
        RebalanceEvent(tick=1, sequence=1, kind="ClusterAdded", cluster="a", group="g"),
    ]
    violations = verify_event_log(events)
    assert any("tick went backwards" in v for v in violations)


def test_verify_flags_move_without_provenance():
    events = _move_sequence()
    orphan = [e for e in events if e.kind == EventKind.MOVE_COMPLETED.value]
    violations = verify_event_log(
        [RebalanceEvent(tick=1, sequence=0, kind=orphan[0].kind, cluster="a", node="b-n001")]
    )
    assert len(violations) == 3  # one per missing precursor kind
    assert all("lacks a same-tick" in v for v in violations)


def test_verify_requires_same_tick_provenance():
    events = _move_sequence()
    moved = events[-1]
    shifted = RebalanceEvent(
        tick=moved.tick + 1, sequence=moved.sequence, kind=moved.kind,
        cluster=moved.cluster, node=moved.node,
    )
    violations = verify_event_log(events[:-1] + [shifted])
    assert len(violations) == 3


def test_verify_flags_provenance_logged_after_the_move():
    events = _move_sequence()
    late = [events[0], events[1], events[3], events[2]]  # NodeProvisioned after the move
    late = [e._replace(sequence=i) for i, e in enumerate(late)]
    violations = verify_event_log(late)
    assert violations == [
        "MoveCompleted at sequence 2 for node 'b-n001' lacks a same-tick NodeProvisioned before it"
    ]


def test_metrics_round_trip(tmp_path):
    records = [
        _record(0, "a", 0.5, 0.25),
        _record(0, "b", 1 / 3, 0.125, active=3, pending=2, pending_demand=rv(200, 256)),
        _record(1, "a", 0.625, 0.3125),
    ]
    path = tmp_path / "metrics.csv"
    write_metrics(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == METRICS_HEADER
    assert lines[1] == "0,a,0.500000,0.250000,0.500000,2,0,0,0"
    assert lines[2] == "0,b,0.333333,0.125000,0.333333,3,2,200,256"
    loaded = read_metrics(path)
    assert [(r.tick, r.cluster_id) for r in loaded] == [(0, "a"), (0, "b"), (1, "a")]
    assert loaded[1].pending_demand == rv(200, 256)
    assert loaded[2].u == pytest.approx(0.625)


def test_metrics_sorted_on_write(tmp_path):
    records = [_record(1, "b", 0.1, 0.1), _record(0, "b", 0.2, 0.2), _record(0, "a", 0.3, 0.3)]
    path = tmp_path / "metrics.csv"
    write_metrics(records, path)
    loaded = read_metrics(path)
    assert [(r.tick, r.cluster_id) for r in loaded] == [(0, "a"), (0, "b"), (1, "b")]


@pytest.mark.parametrize(
    "content,message",
    [
        ("", "empty metrics"),
        ("tick,wrong,header\n", "unexpected header"),
        (METRICS_HEADER + "\n0,a,0.5\n", "expected 9 columns"),
        pytest.param(METRICS_HEADER + "\n-7,a,0.5,0.5,0.5,2,0,0,0\n",
                     "metrics.csv:2: field 'tick': must be >= 0, got -7", id="negative-tick"),
        pytest.param(METRICS_HEADER + "\n0,a,0.5,0.5,0.5,-3,0,0,0\n",
                     "metrics.csv:2: field 'active_nodes': must be >= 0, got -3",
                     id="negative-active-nodes"),
        pytest.param(METRICS_HEADER + "\n0,a,0.5,0.5,0.5,2,-2,0,0\n",
                     "metrics.csv:2: field 'pending_pods': must be >= 0, got -2",
                     id="negative-pending-pods"),
        pytest.param(METRICS_HEADER + "\n0,a,inf,0.5,0.5,2,0,0,0\n",
                     "metrics.csv:2: field 'u_cpu': must be finite, got inf", id="u-cpu-inf"),
        pytest.param(METRICS_HEADER + "\n0,a,0.5,-inf,0.5,2,0,0,0\n",
                     "metrics.csv:2: field 'u_mem': must be finite, got -inf", id="u-mem-minus-inf"),
        pytest.param(METRICS_HEADER + "\n0,a,0.5,0.5,nan,2,0,0,0\n",
                     "metrics.csv:2: field 'u': must be finite, got nan", id="u-nan"),
        pytest.param(METRICS_HEADER + "\n0,a,0.5,0.5,0.5,2,0,-5,0\n",
                     "metrics.csv:2: fields 'pending_cpu_millicores', 'pending_memory_mib': "
                     "must be >= 0, got ['-5', '0']", id="negative-pending-demand"),
    ],
)
def test_read_metrics_rejects_malformed_files(tmp_path, content, message):
    path = tmp_path / "metrics.csv"
    path.write_text(content)
    with pytest.raises(IoFailure, match=re.escape(message)):
        read_metrics(path)


def test_summarize_counts_and_aggregates():
    events = _move_sequence() + [
        RebalanceEvent(tick=2, sequence=4, kind=EventKind.MOVE_REVERSED.value, cluster="b"),
        RebalanceEvent(tick=2, sequence=5, kind=EventKind.NO_CANDIDATE.value, cluster="a"),
        RebalanceEvent(tick=3, sequence=6, kind=EventKind.DRAIN_RESTORED.value, cluster="b"),
        RebalanceEvent(tick=4, sequence=7, kind=EventKind.RESTORATION_COMPLETED.value, cluster="b"),
    ]
    records = [
        _record(0, "a", 0.5, 0.25, active=2, pending=1),
        _record(1, "a", 0.75, 0.25, active=3, pending=0),
        _record(0, "b", 0.1, 0.4, active=3, pending=2),
        _record(1, "b", 0.2, 0.1, active=2, pending=3),
    ]
    summary = summarize(events, records)
    assert summary["ticks"] == 2
    assert summary["totals"] == {
        "moves": 1,
        "reversals": 1,
        "no_candidate": 1,
        "restorations": 1,
        "drains_started": 1,
        "drains_restored": 1,
        "pending_pod_ticks": 6,
    }
    assert summary["clusters"]["a"] == {
        "peak_utilization": 0.75,
        "min_active_nodes": 2,
        "max_active_nodes": 3,
        "pending_pod_ticks": 1,
    }
    assert summary["clusters"]["b"]["peak_utilization"] == 0.4
    assert list(summary["clusters"]) == ["a", "b"]


def test_summarize_empty_run():
    summary = summarize([], [])
    assert summary["ticks"] == 0
    assert summary["totals"]["moves"] == 0
    assert summary["clusters"] == {}


def test_summary_quantization_matches_metrics_file(tmp_path):
    # The summary rounds utilizations to the same six decimals the CSV
    # carries, so rebuilding a summary from the CSV is byte-identical.
    rng = random.Random(99)
    records = []
    for tick in range(40):
        cpu = rng.randrange(1, 3000)
        mem = rng.randrange(1, 7000)
        records.append(_record(tick, "a", cpu / 3000, mem / 7000))
    path = tmp_path / "metrics.csv"
    write_metrics(records, path)
    assert summarize([], read_metrics(path)) == summarize([], records)


def test_compose_comparison_deltas():
    balanced = summarize([], [_record(0, "a", 0.5, 0.2, pending=1)])
    static = summarize([], [_record(0, "a", 0.9, 0.2, pending=7)])
    report = compose_comparison(balanced, static)
    assert report["balanced"] is balanced
    assert report["static"] is static
    assert report["deltas"]["pending_pod_ticks"] == -6
    assert report["deltas"]["peak_utilization"]["a"] == pytest.approx(-0.4)


def test_compose_comparison_disjoint_clusters():
    balanced = summarize([], [_record(0, "a", 0.5, 0.2)])
    static = summarize([], [_record(0, "b", 0.25, 0.2)])
    report = compose_comparison(balanced, static)
    assert report["deltas"]["peak_utilization"] == {"a": 0.5, "b": -0.25}


def test_summary_round_trip(tmp_path):
    summary = summarize(_move_sequence(), [_record(0, "a", 0.5, 0.25)])
    path = tmp_path / "summary.json"
    write_summary(summary, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == summary
    assert read_summary(path) == summary


def test_read_summary_errors(tmp_path):
    with pytest.raises(IoFailure, match="cannot read"):
        read_summary(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(IoFailure, match="not valid JSON"):
        read_summary(bad)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"ticks": "\xff"}')
    with pytest.raises(IoFailure, match=f"cannot read summary {re.escape(str(latin1))}: .*utf-8"):
        read_summary(latin1)


def test_write_failures_are_wrapped(tmp_path):
    target = tmp_path / "no-such-dir" / "out"
    with pytest.raises(IoFailure, match="cannot write"):
        write_events([], target)
    with pytest.raises(IoFailure, match="cannot write"):
        write_metrics([], target)
    with pytest.raises(IoFailure, match="cannot write"):
        write_summary({}, target)
