import copy
import gc
import json
import pickle
import random
import re
import warnings
from enum import IntEnum

import pytest
from hypothesis import example, given, settings, strategies as st

from nodebalancer import (
    EventKind,
    EventRecorder,
    RebalanceEvent,
    TickRecord,
    compose_comparison,
    iter_events,
    iter_metrics,
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
from nodebalancer.model import ResourceVector, Utilization
from nodebalancer.reporting import (
    METRICS_HEADER,
    _check_events,
    _event_line,
    _event_rows,
    _summarize_metrics,
)

from helpers import (
    OVER_LONG_INT_JSON,
    TOO_DEEP_JSON,
    reference_check_events,
    reference_iter_metrics,
)


def _record(tick, cid, u_cpu, u_mem, active=2, pending=0, pending_cpu=0, pending_memory=0):
    return TickRecord(
        tick=tick,
        cluster_id=cid,
        u_cpu=u_cpu,
        u_mem=u_mem,
        u=max(u_cpu, u_mem),
        active_nodes=active,
        pending_pods=pending,
        pending_cpu_millicores=pending_cpu,
        pending_memory_mib=pending_memory,
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


def test_recorder_keeps_detail_as_given_and_the_writer_sorts_it():
    recorder = EventRecorder()
    recorder.emit(
        EventKind.MOVE_COMPLETED, group="g", from_cluster="b", donor_utilization_after=0.25
    )
    event = recorder.events[0]
    assert list(event.detail) == ["from_cluster", "donor_utilization_after"]
    assert _event_line(event).endswith(
        '"detail":{"donor_utilization_after":0.25,"from_cluster":"b"}}'
    )


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


# ResourceVector is a slotted class whose __setattr__ refuses every store, and
# the others are NamedTuples: each raises AttributeError, not TypeError.
@pytest.mark.parametrize(
    "record",
    _records() + [ResourceVector(1, 2), Utilization(0.5, 0.25, 0.5)],
    ids=["tick-record", "event", "resource-vector", "utilization"],
)
def test_records_take_no_new_attributes(record):
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "extra")
    if isinstance(record, tuple):
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


def test_iter_events_is_lazy(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(_GOOD_LINE + "\nnot json\n", encoding="utf-8")
    events = iter_events(path)
    assert next(events) == RebalanceEvent(0, 0, "GroupCreated", group="g")
    with pytest.raises(IoFailure, match="events.jsonl:2: not valid JSON"):
        next(events)


def test_abandoned_streams_close_their_files(tmp_path):
    events_path = tmp_path / "events.jsonl"
    events_path.write_text(_GOOD_LINE + "\n" + _GOOD_LINE + "\n", encoding="utf-8")
    metrics_path = tmp_path / "metrics.csv"
    write_metrics([_record(0, "a", 0.5, 0.25), _record(1, "a", 0.5, 0.25)], metrics_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for stream in (iter_events(events_path), iter_metrics(metrics_path)):
            next(stream)
            del stream
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


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


def test_verify_gives_the_same_violations_from_a_one_shot_iterator():
    events = _move_sequence(tick=1) + [
        event._replace(sequence=event.sequence + 5) for event in _move_sequence(tick=2)
    ]
    # The second move lacks its DrainStarted and starts a sequence gap.
    del events[4]
    events.append(RebalanceEvent(0, 12, EventKind.MOVE_COMPLETED.value, cluster="a", node="x"))
    violations = verify_event_log(events)
    assert any("sequence gap" in v for v in violations)
    assert any("tick went backwards" in v for v in violations)
    assert any("lacks a same-tick DrainStarted" in v for v in violations)
    assert verify_event_log(iter(events)) == violations


# Details as the engine logs them (strings, numbers, lists of string lists),
# then ones the envelope leaves to the per-line decoder: escapes, non-ASCII,
# bool, null, non-finite floats, numbers past its digit bounds and nesting.
_EVENT_DETAILS = [
    {}, {"pods": 3}, {"balance_interval": 1, "t_high": 0.8, "t_low": 0.3},
    {"donor_utilization_after": 0.14285714285714285, "from_cluster": "b"},
    {"attempts": [["b", "MinActiveNodes"], ["c", "DrainInfeasible"]]}, {"attempts": []},
    {"pending_pods": [], "recalled_nodes": [["n1", "a"]], "returned_nodes": []},
    {"reason": "WouldExceedTHigh", "utilization_after": 1e-05, "intended_recipient": "a"},
    {"big": 2**70, "negative": -3, "zero": -0.0, "tiny": 5e-324, "huge": 1e308},
]
_ODD_DETAILS = [{"quote": 'a"b'}, {"accent": "\xe9"}, {"flag": True}, {"none": None},
                {"inf": float("inf")}, {"long": 10**150}, {"nested": {"a": 1}}]
_EVENT_KINDS = [kind.value for kind in EventKind] + ["Custom"]
_EVENT_NODES = [None, "n1", "n1", "n2", " "]

# Lines the envelope must refuse or must read right, each a template over the
# tick and sequence of the place it is put: an empty, null or absent node,
# escaped and non-ASCII strings, NaN and an over-long int in the detail, a
# duplicate tick key, a bad escape, a raw tab, trailing spaces, blank lines
# and a BOM.
_ODD_EVENT_LINES = [
    '{{"tick":{t},"sequence":{s},"kind":"DrainStarted","cluster":"a","node":"","detail":{{}}}}',
    '{{"tick":{t},"sequence":{s},"kind":"NodeProvisioned","node":null,"detail":{{}}}}',
    '{{"tick":{t},"sequence":{s},"kind":"MoveCompleted","group":"g","detail":{{}}}}',
    '{{"tick":{t},"sequence":{s},"kind":"Move\\u0043ompleted","node":"n1","detail":{{}}}}',
    '{{"tick":{t},"sequence":{s},"kind":"NodeDeprovisioned","node":"n\\u0031","detail":{{}}}}',
    '{{"tick":{t},"sequence":{s},"kind":"DrainStarted","node":"n\xe9","detail":{{}}}}',
    '{{"tick":{t},"sequence":{s},"kind":"GroupCreated","detail":{{"t_low":NaN}}}}',
    '{{"tick":{t},"sequence":{s},"kind":"DrainStarted","detail":{{"pods":' + "7" * 5000 + "}}}}",
    '{{"tick":{t},"sequence":{s},"kind":"NodeProvisioned","tick":0,"node":"n1","detail":{{}}}}',
    '{{"tick":{t},"sequence":{s},"kind":"GroupCreated","group":"g\\x","detail":{{}}}}',
    '{{"tick":{t},"sequence":{s},"kind":"GroupCreated","cluster":"a\tb","detail":{{}}}}',
    '{{"tick":{t},"sequence":{s},"kind":"MoveCompleted","node":"n1","detail":{{}}}}   ',
    "",
    " \t",
    '\ufeff{{"tick":{t},"sequence":{s},"kind":"GroupCreated","detail":{{}}}}',
]


def _outcome(check):
    """What a check of an event log gives: (violations, counts) and None, or
    None and its error message."""
    try:
        return check(), None
    except IoFailure as exc:
        return None, str(exc)


@settings(max_examples=200, **_CODEC_SETTINGS)
@given(
    seed=st.integers(0, 2**32),
    length=st.integers(0, 60),
    odd_rate=st.sampled_from([0.0, 0.05, 0.3]),
    odd=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(_ODD_EVENT_LINES)), max_size=4),
    final_end=st.booleans(),
)
@example(seed=0, length=60, odd_rate=0.0, odd=[], final_end=True)
@example(seed=0, length=0, odd_rate=0.0, odd=[(0, "")], final_end=False)
def test_batched_event_reader_matches_the_per_line_reference(
    tmp_path_factory, seed, length, odd_rate, odd, final_end
):
    """report's event pass, the envelope match with _decode_event behind
    it, gives the per-event reference's outcome over iter_events: the same
    violations and counts, or the same IoFailure text and line number."""
    rng = random.Random(seed)

    def pick(usual, unusual):
        return rng.choice(unusual if rng.random() < odd_rate else usual)

    tick = rng.choice([0, 7, 10**17, 10**19])  # the last is past the envelope's digits
    events = []
    for position in range(length):
        tick += rng.choice([0, 0, 0, 1, 1, -1])
        events.append(RebalanceEvent(
            tick, position + rng.choice([0] * 12 + [1, -1]), pick(_EVENT_KINDS, ["Drain\\Started"]),
            rng.choice([None, "a"]), rng.choice([None, "g"]), pick(_EVENT_NODES, [""]),
            pick(_EVENT_DETAILS, _ODD_DETAILS)))
    path = tmp_path_factory.mktemp("events") / "events.jsonl"
    write_events(events, path)
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    for position, template in odd:
        at = position % (len(lines) + 1)
        lines.insert(at, template.format(t=events[at - 1].tick if 0 < at <= length else 0, s=at))
    text = "".join(line + "\n" for line in lines)
    if not final_end and text:
        text = text[:-1]
    path.write_bytes(text.encode("utf-8"))

    expected = _outcome(lambda: reference_check_events(iter_events(path)))
    assert _outcome(lambda: _check_events(_event_rows(path))) == expected


@pytest.mark.parametrize(
    "events,violations",
    [
        (_move_sequence(), []),
        ([RebalanceEvent(0, sequence, "GroupCreated") for sequence in (0, 1, 2, 4, 5)],
         ["sequence gap at position 3: expected 3, got 4",
          "sequence gap at position 4: expected 4, got 5"]),
        ([RebalanceEvent(tick, sequence, "GroupCreated")
          for sequence, tick in enumerate((0, 1, 2, 1, 2))],
         ["tick went backwards at sequence 3: 2 -> 1"]),
    ],
    ids=["move-after-its-provenance", "sequence-gap", "tick-backwards"],
)
def test_a_batch_boundary_changes_no_check(tmp_path, events, violations):
    """report checks the file's events as one stream: a fault at the fourth
    event, where a batched reader would start its second batch, is named
    exactly as the per-event reference names it."""
    path = tmp_path / "events.jsonl"
    write_events(events, path)
    result = _check_events(_event_rows(path))
    assert result == reference_check_events(iter_events(path))
    assert result[0] == violations


def test_metrics_round_trip(tmp_path):
    records = [
        _record(0, "a", 0.5, 0.25),
        _record(0, "b", 1 / 3, 0.125, active=3, pending=2, pending_cpu=200, pending_memory=256),
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
    assert (loaded[1].pending_cpu_millicores, loaded[1].pending_memory_mib) == (200, 256)
    assert loaded[2].u == pytest.approx(0.625)


def _reference_metrics_row(record: TickRecord) -> str:
    """Reference for write_metrics' rows: the f-string each row was once
    written with."""
    tick, cluster_id, u_cpu, u_mem, u, active, pending, cpu, memory = record
    return (f"{tick},{cluster_id},{u_cpu:.6f},{u_mem:.6f},{u:.6f},{active},{pending},"
            f"{cpu},{memory}\n")


def _six_decimals(value: float) -> float:
    return float(f"{value:.6f}")


# A cluster id is printable and holds no ',', '\r' or '\n', as parse_scenario
# requires; metrics.csv writes it as an unquoted cell.
_ids = st.text(
    st.characters(blacklist_categories=("C", "Zl", "Zp", "Zs"), blacklist_characters=",")
    | st.just(" "),
    min_size=1,
    max_size=6,
)
_counts = st.integers(0, 2**64)
_ratios = st.floats(min_value=0.0, allow_infinity=False) | st.sampled_from([0.0, 0.5, 1e-7, 1e308])
_tick_records = st.builds(TickRecord, _counts, _ids, _ratios, _ratios, _ratios,
                          _counts, _counts, _counts, _counts)


@settings(max_examples=200, **_CODEC_SETTINGS)
@given(st.lists(_tick_records, max_size=4))
def test_write_metrics_matches_the_f_string_rows(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("metrics") / "metrics.csv"
    write_metrics(records, path)
    ordered = sorted(records, key=lambda record: (record.tick, record.cluster_id))
    assert path.read_bytes() == (
        METRICS_HEADER + "\n" + "".join(map(_reference_metrics_row, ordered))
    ).encode("utf-8")
    # Every file write_metrics writes reads back, each float at six decimals,
    # so a record whose floats are already at six decimals reads back as it is.
    exact = [
        record._replace(u_cpu=_six_decimals(record.u_cpu), u_mem=_six_decimals(record.u_mem),
                        u=_six_decimals(record.u))
        for record in ordered
    ]
    assert read_metrics(path) == exact
    write_metrics(exact, path)
    assert read_metrics(path) == exact


def test_read_metrics_takes_any_cluster_id(tmp_path):
    # Only the numeric cells must look as write_metrics writes them.
    records = [_record(0, "a_b +c \u00e9", 0.5, 0.25)]
    path = tmp_path / "metrics.csv"
    write_metrics(records, path)
    assert [record.cluster_id for record in read_metrics(path)] == ["a_b +c \u00e9"]


def test_metrics_sorted_on_write(tmp_path):
    records = [_record(1, "b", 0.1, 0.1), _record(0, "b", 0.2, 0.2), _record(0, "a", 0.3, 0.3)]
    path = tmp_path / "metrics.csv"
    write_metrics(records, path)
    loaded = read_metrics(path)
    assert [(r.tick, r.cluster_id) for r in loaded] == [(0, "a"), (0, "b"), (1, "b")]


def _bad_row(column: str, text: str) -> tuple[str, str]:
    """A metrics file whose one row is as write_metrics writes it, except
    for text in the column, and the message read_metrics fails it with."""
    cells = dict(zip(TickRecord._fields, "0 a 0.500000 0.500000 0.500000 2 0 0 0".split()))
    cells[column] = text
    return (METRICS_HEADER + "\n" + ",".join(cells.values()) + "\n",
            f"metrics.csv:2: field {column!r}: cannot read {text!r}")


@pytest.mark.parametrize(
    "content,message",
    [
        ("", "empty metrics"),
        ("tick,wrong,header\n", "unexpected header"),
        # The column count is checked before any cell, so '0.5' is not the fault.
        (METRICS_HEADER + "\n0,a,0.5\n", "expected 9 columns"),
        pytest.param(*_bad_row("tick", "-7"), id="negative-tick"),
        pytest.param(*_bad_row("active_nodes", "-3"), id="negative-active-nodes"),
        pytest.param(*_bad_row("pending_pods", "-2"), id="negative-pending-pods"),
        pytest.param(*_bad_row("u_cpu", "inf"), id="u-cpu-inf"),
        pytest.param(*_bad_row("u_mem", "-inf"), id="u-mem-minus-inf"),
        pytest.param(*_bad_row("u", "nan"), id="u-nan"),
        pytest.param(*_bad_row("pending_cpu_millicores", "-100"), id="negative-pending-demand"),
        pytest.param(*_bad_row("pending_memory_mib", "-100"), id="negative-pending-memory"),
        pytest.param(METRICS_HEADER + "\n0,a,0.500000,0.500000,0.500000,2,0,0,0\n\n\n"
                     "1,a,x,0.100000,0.100000,1,0,0,0\n",
                     "metrics.csv:5: field 'u_cpu': cannot read 'x'", id="file-line-after-blanks"),
        # int() and float() read these, but write_metrics never writes them.
        pytest.param(*_bad_row("tick", "5_0"), id="underscore-in-tick"),
        pytest.param(*_bad_row("tick", " 5"), id="space-in-tick"),
        pytest.param(*_bad_row("tick", "\u0665"), id="arabic-indic-tick"),
        pytest.param(*_bad_row("active_nodes", "+2"), id="plus-sign"),
        pytest.param(*_bad_row("u_mem", "\t0.500000"), id="tab-in-u-mem"),
        pytest.param(*_bad_row("pending_memory_mib", "7\u00a0"), id="no-break-space"),
        pytest.param(*_bad_row("u_cpu", "-0.500000"), id="negative-u-cpu"),
        pytest.param(*_bad_row("u_mem", "-0.25"), id="negative-u-mem"),
        pytest.param(*_bad_row("u", "-1e-06"), id="negative-u"),
        # No cluster id is empty: parse_scenario refuses one.
        pytest.param(*_bad_row("cluster_id", ""), id="empty-cluster-id"),
        # More of those: %d writes no sign and no leading zero, and %.6f
        # exactly six decimals and no exponent.
        *(pytest.param(*_bad_row(column, text), id=f"never-written-{column}-{text}")
          for column, text in [
              ("u_cpu", "5e-1"), ("u_cpu", "0.5"), ("u_cpu", ".5"), ("u_cpu", "1"),
              ("u_cpu", "-0.000000"), ("u_cpu", "0.5000000"), ("u_cpu", "00.500000"),
              ("tick", "007"), ("tick", "-0"), ("active_nodes", "02"),
              ("pending_cpu_millicores", "-0"), ("pending_cpu_millicores", "00"),
          ]),
    ],
)
def test_read_metrics_rejects_malformed_files(tmp_path, content, message):
    path = tmp_path / "metrics.csv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(IoFailure, match=re.escape(message)):
        read_metrics(path)


# Cluster ids with multi-byte and edge-space text, so a batch's size in
# characters and in bytes differ and no row is blank once stripped of a space.
_METRICS_IDS = ["a", "c07", " edge ", "\u00e9t\u00e9", "\u8282\u70b9", "x\u2028y", "long-" * 6]
_BLANK_LINES = ["", " ", "\t", "  \t ", "\x0c", "\u3000", "\u2028"]
_LINE_ENDS = ["\n", "\r\n", "\r"]
# What one corrupted cell holds: text the writer never writes, a cell
# split in two or an empty one.
_BAD_CELLS = ["", "x", "-1", "0.5", "nan", "1e3", " 5", "007", "a,b", "\u0665"]


def _metrics_outcome(read, path):
    """What a reader makes of a metrics file: the records it yields, one at
    a time, and then its error message, or None if it reads to the end."""
    records = []
    try:
        for record in read(path):
            records.append(record)
    except IoFailure as exc:
        return records, str(exc)
    return records, None


@settings(max_examples=60, **_CODEC_SETTINGS)
@given(
    seed=st.integers(0, 2**32),
    rows=st.integers(0, 400),
    blanks=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(_BLANK_LINES)), max_size=6),
    ends=st.sampled_from(["\n", "\r\n", "mixed"]),
    final_end=st.booleans(),
    corruption=st.none() | st.tuples(st.integers(0, 10**6), st.integers(0, 8),
                                     st.sampled_from(_BAD_CELLS)),
)
@example(seed=0, rows=0, blanks=[], ends="\n", final_end=False, corruption=None)
@example(seed=0, rows=0, blanks=[(0, "")], ends="\n", final_end=True, corruption=None)
@example(seed=1, rows=120, blanks=[], ends="\n", final_end=True, corruption=(0, 3, "x"))
def test_batched_metrics_reader_matches_the_per_line_reference(
    tmp_path_factory, seed, rows, blanks, ends, final_end, corruption
):
    rng = random.Random(seed)
    records = [
        TickRecord(tick // 7, rng.choice(_METRICS_IDS), rng.random(), rng.random() * 2,
                   rng.choice([0.0, 1.0, rng.random()]), rng.randint(0, 12),
                   rng.choice([0, rng.randint(0, 10**6)]), rng.randint(0, 2**40), 0)
        for tick in range(rows)
    ]
    path = tmp_path_factory.mktemp("metrics") / "metrics.csv"
    write_metrics(records, path)
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    if corruption is not None:
        index, column, text = corruption
        index %= len(lines)  # the header too
        cells = lines[index].split(",")
        cells[column] = text
        lines[index] = ",".join(cells)
    for position, blank in blanks:
        lines.insert(position % (len(lines) + 1), blank)
    text = "".join(line + (rng.choice(_LINE_ENDS) if ends == "mixed" else ends) for line in lines)
    if not final_end:
        text = text.rstrip("\r\n")
    path.write_bytes(text.encode("utf-8"))

    # The same records up to the same error: a consumer that stops at the
    # error has seen every row before the bad line.
    expected = _metrics_outcome(reference_iter_metrics, path)
    assert _metrics_outcome(iter_metrics, path) == expected
    # report's own fold of the file: the summary summarize makes of the
    # records, or the same error.
    records, error = expected
    rebuilt = _metrics_outcome(lambda path: [_summarize_metrics({}, path)], path)
    assert rebuilt == (([], error) if error else ([summarize([], records)], None))
    if corruption is None and blanks == [] and ends != "mixed" and final_end:
        assert len(records) == rows


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
    for text, cause in ((TOO_DEEP_JSON, "recursion"), (OVER_LONG_INT_JSON, "integer")):
        bad.write_text(text)
        with pytest.raises(IoFailure, match=f"{re.escape(str(bad))}: not valid JSON: .*{cause}"):
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
