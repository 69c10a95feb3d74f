import json
import random
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from nodebalancer import (
    DEFAULT_POD_QUANTUM,
    EventKind,
    GroupManager,
    MembershipAction,
    MembershipChange,
    Node,
    ResourceVector,
    Scenario,
    TickRecord,
    build_world,
    compare,
    parse_scenario,
    load_scenario,
    run,
)
from nodebalancer import engine
from nodebalancer.engine import _tick_record, _verify_world
from nodebalancer.errors import InvariantViolation, ScenarioInvalid, SimulationAborted

from helpers import (
    OVER_LONG_INT_JSON,
    TOO_DEEP_JSON,
    fill,
    load_from_pods,
    make_cluster,
    pending_pod,
    random_scenario,
    run_pod,
)


def _doc(**overrides):
    doc = {
        "clusters": [
            {
                "id": "a",
                "node_count": 2,
                "node_capacity": {"cpu_millicores": 4000, "memory_mib": 8192},
                "trace": {"kind": "Constant", "level": 7500},
            },
            {
                "id": "b",
                "node_count": 3,
                "node_capacity": {"cpu_millicores": 4000, "memory_mib": 8192},
                "trace": {"kind": "Constant", "level": 2000},
            },
        ],
        "groups": [
            {
                "id": "g",
                "thresholds": {"t_low": 0.3, "t_high": 0.8},
                "balance_interval": 1,
                "members": ["a", "b"],
            }
        ],
        "ticks": 3,
        "seed": 7,
    }
    doc.update(overrides)
    return doc


def test_parse_round_trip():
    scenario = parse_scenario(_doc())
    assert [spec.id for spec in scenario.clusters] == ["a", "b"]
    assert scenario.clusters[0].node_count == 2
    assert scenario.clusters[0].node_capacity.cpu == 4000
    assert scenario.clusters[0].trace.level == 7500
    assert scenario.groups[0].thresholds.t_low == 0.3
    assert scenario.groups[0].members == ("a", "b")
    assert scenario.ticks == 3 and scenario.seed == 7


def test_parse_accepts_all_trace_kinds():
    doc = _doc()
    doc["clusters"][0]["trace"] = {
        "kind": "Step",
        "steps": [{"tick": 0, "level": 100}, {"tick": 5, "level": 900}],
    }
    doc["clusters"][1]["trace"] = {
        "kind": "Sine",
        "base": 2000,
        "amplitude": 1000,
        "period": 10,
        "phase": 2,
        "pod_quantum": {"cpu_millicores": 200, "memory_mib": 256},
    }
    scenario = parse_scenario(doc)
    assert scenario.clusters[0].trace.steps == ((0, 100), (5, 900))
    assert scenario.clusters[0].quantum == DEFAULT_POD_QUANTUM
    assert scenario.clusters[1].quantum == ResourceVector(200, 256)

    doc["clusters"][1]["trace"] = {
        "kind": "Spike",
        "base": 100,
        "peak": 5000,
        "start": 1,
        "duration": 2,
    }
    assert parse_scenario(doc).clusters[1].trace.peak == 5000


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d.update(extra=1), "scenario: unknown key 'extra'"),
        (lambda d: d.pop("clusters"), "scenario: missing key 'clusters'"),
        (lambda d: d.update(clusters=[]), "scenario.clusters"),
        (lambda d: d["clusters"][0].pop("id"), "clusters\\[0\\]: missing key 'id'"),
        (lambda d: d["clusters"][0].update(id=""), "clusters\\[0\\].id"),
        (lambda d: d["clusters"][1].update(node_count=0), "clusters\\[1\\].node_count"),
        (lambda d: d["clusters"][0].update(node_count=1.5), "clusters\\[0\\].node_count"),
        (
            lambda d: d["clusters"][0]["node_capacity"].update(disk_gb=1),
            "clusters\\[0\\].node_capacity: unknown key 'disk_gb'",
        ),
        (
            lambda d: d["clusters"][0]["node_capacity"].update(cpu_millicores=0),
            "clusters\\[0\\].node_capacity.cpu_millicores",
        ),
        (lambda d: d["clusters"][0]["trace"].update(kind="Ramp"), "clusters\\[0\\].trace.kind"),
        (
            lambda d: d["clusters"][0]["trace"].update(slope=2),
            "clusters\\[0\\].trace: unknown key 'slope'",
        ),
        (lambda d: d["clusters"][0]["trace"].update(level=-5), "clusters\\[0\\].trace.level"),
        (
            lambda d: d["groups"][0]["thresholds"].update(t_low=0.9),
            "groups\\[0\\].thresholds",
        ),
        (lambda d: d["groups"][0].update(balance_interval=0), "groups\\[0\\].balance_interval"),
        (lambda d: d["groups"][0]["members"].append("ghost"), "groups\\[0\\].members\\[2\\]"),
        (lambda d: d["groups"][0]["members"].append("a"), "already belongs"),
        (
            lambda d: d.update(groups=d["groups"] + [dict(d["groups"][0], id="g2")]),
            "already belongs to group 'g'",
        ),
        (
            lambda d: d.update(clusters=d["clusters"] + [dict(d["clusters"][0])]),
            "duplicate cluster id 'a'",
        ),
        (lambda d: d.update(ticks=0), "scenario.ticks"),
        (lambda d: d.update(seed=-1), "scenario.seed"),
        (lambda d: d.update(seed=2**64), "scenario.seed"),
        (
            lambda d: d.update(
                membership_changes=[
                    {"tick": 1, "action": "Expel", "cluster": "a", "group": "g"}
                ]
            ),
            "membership_changes\\[0\\].action",
        ),
        (
            lambda d: d.update(
                membership_changes=[
                    {"tick": 9, "action": "Remove", "cluster": "a", "group": "g"}
                ]
            ),
            "membership_changes\\[0\\].tick",
        ),
        (
            lambda d: d.update(
                membership_changes=[
                    {"tick": 1, "action": "Remove", "cluster": "zz", "group": "g"}
                ]
            ),
            "membership_changes\\[0\\].cluster",
        ),
        (
            lambda d: d.update(
                membership_changes=[
                    {"tick": 1, "action": "Remove", "cluster": "b", "group": "g"},
                    {"tick": 2, "action": "Remove", "cluster": "b", "group": "g"},
                ]
            ),
            "^membership_changes\\[1\\]: cluster 'b' is not a member of group 'g'$",
        ),
        (
            # Replayed by tick, then file order: the tick-2 leave comes second.
            lambda d: d.update(
                membership_changes=[
                    {"tick": 2, "action": "Remove", "cluster": "b", "group": "g"},
                    {"tick": 1, "action": "Remove", "cluster": "b", "group": "g"},
                ]
            ),
            "^membership_changes\\[0\\]: cluster 'b' is not a member of group 'g'$",
        ),
        (
            lambda d: d.update(
                membership_changes=[{"tick": 1, "action": "Add", "cluster": "a", "group": "g"}]
            ),
            "^membership_changes\\[0\\]: cluster 'a' already belongs to group 'g'$",
        ),
        # One anchored case per message the parser can raise.
        pytest.param(lambda d: d["clusters"][0].update(node_capacity=5),
                     r"^clusters\[0\]\.node_capacity: expected an object$", id="nested-non-object"),
        pytest.param(lambda d: d["groups"][0]["thresholds"].update(t_mid=0.5),
                     r"^groups\[0\]\.thresholds: unknown key 't_mid'$", id="unknown-key"),
        pytest.param(lambda d: d["groups"][0].pop("members"),
                     r"^groups\[0\]: missing key 'members'$", id="missing-key"),
        pytest.param(lambda d: d["clusters"][0].update(node_count=True),
                     r"^clusters\[0\]\.node_count: expected an integer$", id="bool-as-int"),
        pytest.param(lambda d: d.update(ticks=0),
                     r"^scenario\.ticks: must be >= 1, got 0$", id="int-below-minimum"),
        pytest.param(lambda d: d.update(seed=2**64),
                     r"^scenario\.seed: must be <= 18446744073709551615, got 18446744073709551616$",
                     id="int-above-maximum"),
        pytest.param(lambda d: d["groups"][0]["thresholds"].update(t_low="0.3"),
                     r"^groups\[0\]\.thresholds\.t_low: expected a number$", id="non-number"),
        pytest.param(lambda d: d["groups"][0]["thresholds"].update(t_high=True),
                     r"^groups\[0\]\.thresholds\.t_high: expected a number$", id="bool-as-number"),
        pytest.param(lambda d: d["groups"][0]["thresholds"].update(t_low=10**400),
                     r"^groups\[0\]\.thresholds\.t_low: expected a number in the float range$",
                     id="int-beyond-float-range"),
        # The workload computes with these as floats, so run would abort on them.
        *(pytest.param(lambda d, trace=trace: d["clusters"][0].update(trace=trace),
                       rf"^clusters\[0\]\.trace\.{field}: expected an integer in the float range$",
                       id=f"{name}-beyond-float-range")
          for name, field, trace in [
              ("constant-level", "level", {"kind": "Constant", "level": 10**400}),
              ("step-level", r"steps\[1\]\.level", {"kind": "Step", "steps": [
                  {"tick": 0, "level": 5}, {"tick": 2, "level": 10**400}]}),
              ("sine-base", "base", {"kind": "Sine", "base": 10**400, "amplitude": 1, "period": 9}),
              ("sine-amplitude", "amplitude",
               {"kind": "Sine", "base": 1, "amplitude": 10**400, "period": 9}),
              ("sine-period", "period", {"kind": "Sine", "base": 1, "amplitude": 1, "period": 10**400}),
              ("sine-phase", "phase",
               {"kind": "Sine", "base": 1, "amplitude": 1, "period": 9, "phase": 10**400}),
              ("spike-base", "base",
               {"kind": "Spike", "base": 10**400, "peak": 2, "start": 0, "duration": 1}),
              ("spike-peak", "peak",
               {"kind": "Spike", "base": 1, "peak": 10**400, "start": 0, "duration": 1}),
              ("quantum-cpu", r"pod_quantum\.cpu_millicores", {"kind": "Constant", "level": 5,
               "pod_quantum": {"cpu_millicores": 10**400, "memory_mib": 1}}),
          ]),
        pytest.param(lambda d: d["clusters"][0].update(id=""),
                     r"^clusters\[0\]\.id: expected a non-empty string$", id="empty-string"),
        pytest.param(lambda d: d["clusters"][0]["trace"].pop("kind"),
                     r"^clusters\[0\]\.trace: missing key 'kind'$", id="trace-without-kind"),
        pytest.param(lambda d: d["clusters"][0]["trace"].update(kind="Ramp"),
                     r"^clusters\[0\]\.trace\.kind: expected one of 'Constant', 'Step', 'Sine', "
                     r"'Spike', got 'Ramp'$", id="unknown-trace-kind"),
        pytest.param(lambda d: d["clusters"][0].update(trace={"kind": "Step", "steps": []}),
                     r"^clusters\[0\]\.trace\.steps: expected a non-empty array$", id="empty-steps"),
        pytest.param(lambda d: d["clusters"][0].update(
                         trace={"kind": "Step", "steps": [{"tick": 1, "level": 5}]}),
                     r"^clusters\[0\]\.trace\.steps: steps must be non-empty and start at tick 0$",
                     id="steps-not-from-zero"),
        pytest.param(lambda d: d["clusters"][0].update(trace={"kind": "Step", "steps": [
                         {"tick": 0, "level": 5}, {"tick": 3, "level": 1}, {"tick": 3, "level": 2}]}),
                     r"^clusters\[0\]\.trace\.steps: step start ticks must be strictly ascending$",
                     id="steps-not-ascending"),
        pytest.param(lambda d: d["clusters"][0].update(
                         trace={"kind": "Step", "steps": [{"tick": 0}]}),
                     r"^clusters\[0\]\.trace\.steps\[0\]: missing key 'level'$", id="bad-step"),
        pytest.param(lambda d: d["clusters"][0].update(
                         trace={"kind": "Sine", "base": 1, "amplitude": 1, "period": 0}),
                     r"^clusters\[0\]\.trace\.period: must be >= 1, got 0$", id="sine-period-0"),
        pytest.param(lambda d: d["clusters"][0].update(trace={
                         "kind": "Spike", "base": 1, "peak": 2, "start": 0, "duration": 0}),
                     r"^clusters\[0\]\.trace\.duration: must be >= 1, got 0$",
                     id="spike-duration-0"),
        pytest.param(lambda d: d["clusters"][0]["trace"].update(
                         pod_quantum={"cpu_millicores": 0, "memory_mib": 128}),
                     r"^clusters\[0\]\.trace\.pod_quantum\.cpu_millicores: must be >= 1, got 0$",
                     id="bad-pod-quantum"),
        pytest.param(lambda d: d["groups"][0]["thresholds"].update(t_low=0.9),
                     r"^groups\[0\]\.thresholds: t_low must be strictly less than t_high, "
                     r"got \(0\.9, 0\.8\)$", id="thresholds-out-of-order"),
        pytest.param(lambda d: d.update(clusters=[]),
                     r"^scenario\.clusters: expected a non-empty array$", id="no-clusters"),
        pytest.param(lambda d: d["groups"][0].update(members="ab"),
                     r"^groups\[0\]\.members: expected an array$", id="members-not-an-array"),
        pytest.param(lambda d: d["groups"][0].update(members=["a", 5]),
                     r"^groups\[0\]\.members\[1\]: expected a non-empty string$",
                     id="member-not-a-string"),
        pytest.param(lambda d: d.update(membership_changes=[
                         {"tick": 1, "action": "Expel", "cluster": "a", "group": "g"}]),
                     r"^membership_changes\[0\]\.action: expected 'Add' or 'Remove', got 'Expel'$",
                     id="unknown-action"),
        pytest.param(lambda d: d.update(clusters=d["clusters"] + [dict(d["clusters"][0])]),
                     r"^clusters: duplicate cluster id 'a'$", id="duplicate-cluster-id"),
        pytest.param(lambda d: d.update(groups=d["groups"] + [dict(d["groups"][0], members=[])]),
                     r"^groups: duplicate group id 'g'$", id="duplicate-group-id"),
        pytest.param(lambda d: d["groups"][0]["members"].append("ghost"),
                     r"^groups\[0\]\.members\[2\]: unknown cluster 'ghost'$", id="unknown-member"),
        pytest.param(lambda d: d["groups"][0]["members"].append("a"),
                     r"^groups\[0\]\.members\[2\]: cluster 'a' already belongs to group 'g'$",
                     id="member-listed-twice"),
        pytest.param(lambda d: d.update(membership_changes=[
                         {"tick": 1, "action": "Remove", "cluster": "zz", "group": "g"}]),
                     r"^membership_changes\[0\]\.cluster: unknown cluster 'zz'$",
                     id="change-names-unknown-cluster"),
        pytest.param(lambda d: d.update(membership_changes=[
                         {"tick": 1, "action": "Remove", "cluster": "a", "group": "h"}]),
                     r"^membership_changes\[0\]\.group: unknown group 'h'$",
                     id="change-names-unknown-group"),
        pytest.param(lambda d: d.update(membership_changes=[
                         {"tick": 9, "action": "Remove", "cluster": "a", "group": "g"}]),
                     r"^membership_changes\[0\]\.tick: 9 is beyond the last tick 2$",
                     id="change-after-last-tick"),
    ],
)
def test_parse_rejects_bad_documents(mutate, message):
    doc = _doc()
    mutate(doc)
    with pytest.raises(ScenarioInvalid, match=message):
        parse_scenario(doc)


_PAST_FLOAT = 10**400  # float() of it raises OverflowError


def test_ints_only_compared_or_multiplied_may_pass_the_float_range():
    """A Spike's start and duration, a pod's memory and a node's capacity
    never become floats, so such an int runs."""
    doc = _doc()
    doc["clusters"][0]["node_capacity"]["memory_mib"] = _PAST_FLOAT
    doc["clusters"][0]["trace"] = {
        "kind": "Spike", "base": 1000, "peak": 2000, "start": _PAST_FLOAT, "duration": _PAST_FLOAT,
        "pod_quantum": {"cpu_millicores": 100, "memory_mib": _PAST_FLOAT}}
    records = [r for r in run(parse_scenario(doc)).tick_records if r.cluster_id == "a"]
    assert len(records) == 3 and records[0].pending_pods > 0
    assert all(r.pending_memory_mib == r.pending_pods * _PAST_FLOAT for r in records)


@pytest.mark.parametrize("key", ["groups", "membership_changes"])
@pytest.mark.parametrize("value", [5, 1.5, None, True, "ab", {}], ids=repr)
def test_parse_rejects_a_list_field_that_is_not_an_array(key, value):
    with pytest.raises(ScenarioInvalid, match=rf"^scenario\.{key}: expected an array$"):
        parse_scenario(_doc(**{key: value}))


def _full_doc():
    """A valid document with every trace kind, a group and both kinds of change."""
    doc = _doc(ticks=6)
    capacity = doc["clusters"][0]["node_capacity"]
    doc["clusters"] += [
        {"id": "c", "node_count": 1, "node_capacity": dict(capacity), "trace": {
            "kind": "Step", "steps": [{"tick": 0, "level": 100}, {"tick": 2, "level": 900}],
            "pod_quantum": {"cpu_millicores": 200, "memory_mib": 256}}},
        {"id": "d", "node_count": 1, "node_capacity": dict(capacity), "trace": {
            "kind": "Sine", "base": 2000, "amplitude": 1000, "period": 10, "phase": 2}},
        {"id": "e", "node_count": 1, "node_capacity": dict(capacity), "trace": {
            "kind": "Spike", "base": 100, "peak": 5000, "start": 1, "duration": 2}},
    ]
    doc["groups"][0]["members"] += ["c", "d"]
    doc["membership_changes"] = [
        {"tick": 1, "action": "Remove", "cluster": "b", "group": "g"},
        {"tick": 3, "action": "Add", "cluster": "e", "group": "g"},
    ]
    return doc


def _node_paths(node, path=()):
    """The path of every value in a JSON document, the root's excepted."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


_KEYS = sorted({key for path in _node_paths(_full_doc()) for key in path if isinstance(key, str)})
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4) | st.sampled_from(_KEYS)
    | st.integers() | st.sampled_from([-1, 0, 1, 2**63, 2**64, -(2**64), 10**30]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(list(_node_paths(_full_doc()))), _JSON_VALUES)
@example(("groups",), 5)
@example(("membership_changes",), None)
@example(("clusters", 0, "trace", "kind"), ["Step"])
def test_parse_raises_only_scenario_invalid_on_any_one_node_replaced(path, value):
    doc = _full_doc()
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        assert isinstance(parse_scenario(doc), Scenario)
    except ScenarioInvalid:
        pass


def test_parse_rejects_non_object_root():
    with pytest.raises(ScenarioInvalid):
        parse_scenario([1, 2, 3])


def test_load_scenario_errors(tmp_path):
    with pytest.raises(ScenarioInvalid, match="cannot read"):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioInvalid, match="not valid JSON"):
        load_scenario(bad)
    for text, cause in ((TOO_DEEP_JSON, "recursion"), (OVER_LONG_INT_JSON, "integer")):
        bad.write_text(text, encoding="utf-8")
        message = f"{re.escape(str(bad))}: not valid JSON: .*{cause}"
        with pytest.raises(ScenarioInvalid, match=message):
            load_scenario(bad)


def test_build_world_realizes_the_scenario():
    manager = build_world(parse_scenario(_doc()))
    assert sorted(manager.clusters) == ["a", "b"]
    assert len(manager.clusters["b"].nodes) == 3
    assert manager.groups["g"].members == ["a", "b"]


def test_quiet_scenario_never_moves_nodes():
    doc = _doc()
    doc["clusters"][0]["trace"]["level"] = 4000  # inside the (0.3, 0.8) band
    doc["clusters"][1]["trace"]["level"] = 6000
    artifacts = run(parse_scenario(doc))
    assert artifacts.summary["totals"]["moves"] == 0
    assert artifacts.summary["totals"]["reversals"] == 0
    for record in artifacts.tick_records:
        expected = 2 if record.cluster_id == "a" else 3
        assert record.active_nodes == expected


def test_run_moves_node_at_tick_zero():
    artifacts = run(parse_scenario(_doc()))
    moves = [e for e in artifacts.events if e.kind == EventKind.MOVE_COMPLETED.value]
    assert len(moves) == 1
    assert moves[0].tick == 0
    assert moves[0].cluster == "a" and moves[0].node == "b-n001"
    by_key = {(r.tick, r.cluster_id): r for r in artifacts.tick_records}
    assert by_key[(0, "a")].active_nodes == 3  # the move is visible same-tick
    assert by_key[(0, "a")].u == pytest.approx(0.625, abs=1e-9)
    assert by_key[(2, "b")].active_nodes == 2


def test_received_nodes_absorb_backlog_in_the_same_tick():
    doc = _doc()
    doc["clusters"][0]["trace"]["level"] = 13000  # exceeds a's 12000 capacity
    doc["clusters"][0]["node_count"] = 3
    doc["clusters"][1]["node_count"] = 4
    artifacts = run(parse_scenario(doc))
    by_key = {(r.tick, r.cluster_id): r for r in artifacts.tick_records}
    assert artifacts.summary["totals"]["moves"] >= 1
    # 130 pods fit only after the move lands, within the same tick.
    assert by_key[(0, "a")].active_nodes == 4
    assert by_key[(0, "a")].pending_pods == 0

    static = parse_scenario(doc)._replace(groups=(), membership_changes=())
    static_records = {(r.tick, r.cluster_id): r for r in run(static).tick_records}
    assert static_records[(0, "a")].pending_pods == 10


def test_balance_interval_gates_cycles():
    doc = _doc(ticks=4)
    doc["groups"][0]["balance_interval"] = 4
    artifacts = run(parse_scenario(doc))
    moves = [e for e in artifacts.events if e.kind == EventKind.MOVE_COMPLETED.value]
    assert [m.tick for m in moves] == [0]  # tick 0 only; next due tick is 4


def test_membership_changes_run_at_their_tick():
    doc = _doc(
        ticks=6,
        membership_changes=[
            {"tick": 2, "action": "Remove", "cluster": "b", "group": "g"},
            {"tick": 4, "action": "Add", "cluster": "b", "group": "g"},
        ],
    )
    artifacts = run(parse_scenario(doc))
    removed = [e for e in artifacts.events if e.kind == EventKind.CLUSTER_REMOVED.value]
    restored = [e for e in artifacts.events if e.kind == EventKind.RESTORATION_COMPLETED.value]
    added = [e for e in artifacts.events if e.kind == EventKind.CLUSTER_ADDED.value]
    assert [e.tick for e in removed] == [2]
    assert [e.tick for e in restored] == [2]
    assert [e.tick for e in added] == [0, 0, 4]
    # Restoration hands back the borrowed node at tick 2.
    by_key = {(r.tick, r.cluster_id): r for r in artifacts.tick_records}
    assert by_key[(1, "b")].active_nodes == 2
    assert by_key[(2, "b")].active_nodes == 3
    assert by_key[(2, "a")].active_nodes == 2
    # After rejoining, balancing kicks in again.
    assert by_key[(5, "a")].active_nodes == 3


def test_removed_cluster_keeps_simulating():
    doc = _doc(
        ticks=4,
        membership_changes=[{"tick": 1, "action": "Remove", "cluster": "b", "group": "g"}],
    )
    artifacts = run(parse_scenario(doc))
    b_records = [r for r in artifacts.tick_records if r.cluster_id == "b"]
    assert len(b_records) == 4  # still sampled every tick after leaving


def test_run_is_deterministic():
    rng = random.Random(1414)
    for _ in range(5):
        scenario = parse_scenario(random_scenario(rng))
        first = run(scenario)
        second = run(scenario)
        assert first.events == second.events
        assert first.tick_records == second.tick_records
        assert first.summary == second.summary


def test_observer_sees_every_tick():
    ticks_seen = []
    run(parse_scenario(_doc()), observer=lambda tick, clusters: ticks_seen.append(tick))
    assert ticks_seen == [0, 1, 2]


def test_corruption_aborts_with_last_consistent_tick():
    def vandal(tick, clusters):
        if tick == 1:
            del clusters["b"].nodes["b-n000"]

    with pytest.raises(SimulationAborted) as info:
        run(parse_scenario(_doc(ticks=5)), observer=vandal)
    assert info.value.tick == 2
    assert info.value.last_consistent_tick == 1
    assert "missing node 'b-n000'" in str(info.value)


def test_runtime_membership_error_aborts():
    # parse_scenario refuses this sequence; _replace() skips it, so the run
    # itself must abort on the second leave.
    leave = MembershipChange(tick=1, action=MembershipAction.REMOVE, cluster="b", group="g")
    scenario = parse_scenario(_doc(ticks=4))._replace(
        membership_changes=(leave, leave._replace(tick=2)),
    )
    with pytest.raises(SimulationAborted) as info:
        run(scenario)
    assert info.value.tick == 2
    assert "cluster 'b' is not a member of group 'g'" in str(info.value)


def test_an_abort_names_a_cause_that_has_no_text(monkeypatch):
    # A bare MemoryError(), as Cluster.pieces raises on a batch too large to
    # hold, has no text; the reason names its type. Raised here, not provoked.
    def out_of_memory(cluster, trace, tick):
        raise MemoryError()

    monkeypatch.setattr(engine, "apply_workload", out_of_memory)
    with pytest.raises(SimulationAborted) as info:
        run(parse_scenario(_doc()))
    assert str(info.value) == "aborted during tick 0 (last consistent tick: -1): MemoryError"
    assert isinstance(info.value.__cause__, MemoryError)


def test_load_scenario_ticks_override_touches_only_ticks(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_doc()), encoding="utf-8")
    scenario = load_scenario(path)
    bumped = load_scenario(path, ticks=10)
    assert bumped == scenario._replace(ticks=10)
    assert load_scenario(path, ticks=None) == scenario

    with pytest.raises(ScenarioInvalid, match=r"^scenario\.ticks: must be >= 1, got 0$"):
        load_scenario(path, ticks=0)


def test_load_scenario_ticks_override_rechecks_membership_ticks(tmp_path):
    doc = _doc(
        ticks=6,
        membership_changes=[{"tick": 5, "action": "Remove", "cluster": "b", "group": "g"}],
    )
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_scenario(path).ticks == 6
    with pytest.raises(
        ScenarioInvalid, match=r"^membership_changes\[0\]\.tick: 5 is beyond the last tick 2$"
    ):
        load_scenario(path, ticks=3)


def test_compare_strips_balancing_from_the_baseline():
    report = compare(parse_scenario(_doc()))
    assert report.balanced.summary["totals"]["moves"] == 1
    assert report.static.summary["totals"]["moves"] == 0
    assert not report.static.events  # no groups, no events at all
    assert report.summary["deltas"]["moves"] == 1
    assert report.summary["balanced"] == report.balanced.summary
    assert report.summary["static"] == report.static.summary


def test_compare_on_a_single_cluster_is_a_wash():
    doc = {
        "clusters": [
            {
                "id": "solo",
                "node_count": 2,
                "node_capacity": {"cpu_millicores": 4000, "memory_mib": 8192},
                "trace": {"kind": "Constant", "level": 3000},
            }
        ],
        "ticks": 5,
        "seed": 1,
    }
    report = compare(parse_scenario(doc))
    assert report.balanced.summary == report.static.summary
    assert report.summary["deltas"]["pending_pod_ticks"] == 0


def _audited_world():
    """Two clusters the audit accepts, and the node multiset it expects."""
    manager = GroupManager()
    for cluster in (
        make_cluster("a", [4000, 4000], quantum=(1000, 1280)),
        make_cluster("b", [4000]),
    ):
        manager.register_cluster(cluster)
    run_pod(manager.clusters["a"], "a-n000")
    expected = Counter(nid for c in manager.clusters.values() for nid in c.nodes)
    _verify_world(manager, expected, tick=0)
    return manager, expected


@pytest.mark.parametrize(
    "capacity",
    # Three pods over-commit one dimension only together, so leaving out any
    # pod's share of that dimension hides the violation.
    [(2999, 8192), (4000, 3839)],
    ids=["cpu", "memory"],
)
def test_audit_flags_an_over_committed_node(capacity):
    manager, expected = _audited_world()
    a = manager.clusters["a"]
    for _ in range(3):
        run_pod(a, "a-n001")
    # The runs and the batches agree; only the capacity is too small for them.
    a.nodes["a-n001"].capacity = ResourceVector(*capacity)
    with pytest.raises(InvariantViolation, match="tick 3: node 'a-n001' over capacity"):
        _verify_world(manager, expected, tick=3)


def test_audit_flags_a_node_held_by_two_clusters():
    manager, expected = _audited_world()
    manager.clusters["b"].nodes["a-n001"] = manager.clusters["a"].nodes["a-n001"]
    with pytest.raises(
        InvariantViolation,
        match=r"tick 3: node conservation broken; missing=\[\] extra=\['a-n001'\]",
    ):
        _verify_world(manager, expected, tick=3)


def test_audit_accepts_nodes_that_over_commit_only_when_summed_together():
    manager, expected = _audited_world()
    # Each node is full on both dimensions and no more; their sum is not,
    # which a cluster-wide or mis-keyed sum would flag.
    a = manager.clusters["a"]
    fill(a, "a-n000", 3000)
    fill(a, "a-n001", 4000)
    assert load_from_pods(a)[0] == {"a-n000": 4, "a-n001": 4}
    for node in a.nodes.values():
        node.capacity = ResourceVector(4000, 5120)
    _verify_world(manager, expected, tick=3)


def test_audit_flags_a_pod_on_a_node_its_cluster_does_not_host():
    manager, expected = _audited_world()
    a, b = manager.clusters["a"], manager.clusters["b"]
    run_pod(a, "a-n001")
    run_pod(a, "a-n001")
    # The node moves to the other cluster with its pods still bound to it, which
    # the model's own methods refuse but a direct store does not.
    node = a.nodes.pop("a-n001")
    b.nodes["a-n001"] = node
    with pytest.raises(
        InvariantViolation,
        match="tick 3: 2 pod\\(s\\) of cluster 'a' assigned to missing node 'a-n001'",
    ):
        _verify_world(manager, expected, tick=3)


def test_audit_flags_a_missing_node():
    manager, expected = _audited_world()
    del manager.clusters["b"].nodes["b-n000"]
    with pytest.raises(
        InvariantViolation,
        match=r"tick 3: node conservation broken; missing=\['b-n000'\] extra=\[\]",
    ):
        _verify_world(manager, expected, tick=3)


def test_audit_flags_an_extra_node():
    manager, expected = _audited_world()
    manager.clusters["b"].nodes["c-n000"] = Node(
        id="c-n000", capacity=ResourceVector(4000, 8192), origin_cluster="c"
    )
    with pytest.raises(
        InvariantViolation,
        match=r"tick 3: node conservation broken; missing=\[\] extra=\['c-n000'\]",
    ):
        _verify_world(manager, expected, tick=3)


def _corrupt_capacity_through_the_count(cluster):
    # rebind checks no capacity: five 1000m pods on a 4000m node.
    for i in range(4):
        run_pod(cluster, "a-n000")


def _corrupt_batches(cluster):
    tick, count = cluster._batches[-1]
    cluster._batches[-1] = (tick, count + 1)


@pytest.mark.parametrize(
    "corrupt, message",
    # Each breaks one stored fact only; every other still matches the runs.
    [
        (_corrupt_capacity_through_the_count,
         r"node 'a-n000' over capacity: ResourceVector\(cpu=5000, memory=6400\) > "
         r"ResourceVector\(cpu=4000, memory=8192\)"),
        (_corrupt_batches, r"cluster 'a' runs hold 2 pod\(s\), but its batches name 3"),
    ],
    ids=["over-capacity", "batches"],
)
def test_audit_flags_a_ledger_field_drifting_from_the_pods(corrupt, message):
    manager, expected = _audited_world()
    pending_pod(manager.clusters["a"])
    _verify_world(manager, expected, tick=3)
    corrupt(manager.clusters["a"])
    with pytest.raises(InvariantViolation, match=r"^tick 3: " + message + "$"):
        _verify_world(manager, expected, tick=3)


def _run_on_a_missing_node(a, b):
    length, _ = a._runs[0]
    a._runs[0] = (length, "a-n999")


def _one_pod_more_than_capacity(a, b):
    length, node_id = a._runs[0]
    a._runs[0] = (length + 1, node_id)
    a._batches[0] = (0, 76)


def _runs_longer_than_batches(a, b):
    a._batches[0] = (0, 74)


def _a_node_in_no_cluster(a, b):
    del b.nodes["b-n002"]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_run_on_a_missing_node, "40 pod(s) of cluster 'a' assigned to missing node 'a-n999'"),
        (_one_pod_more_than_capacity,
         "node 'a-n000' over capacity: ResourceVector(cpu=4100, memory=5248) > "
         "ResourceVector(cpu=4000, memory=8192)"),
        (_runs_longer_than_batches, "cluster 'a' runs hold 75 pod(s), but its batches name 74"),
        (_a_node_in_no_cluster, "node conservation broken; missing=['b-n002'] extra=[]"),
    ],
    ids=["missing-node", "over-capacity", "batches", "conservation"],
)
def test_a_corrupted_run_column_aborts_the_run(monkeypatch, corrupt, message):
    # At tick 2 a's 75 pods run as (40, a-n000), (35, a-n001), and b keeps its
    # 20 pods on b-n000 and an empty b-n002; the column is corrupted right
    # before the tick's audit.
    audit = engine._verify_world

    def corrupt_then_audit(manager, expected, tick):
        if tick == 2:
            a, b = manager.clusters["a"], manager.clusters["b"]
            assert a.runs == ((40, "a-n000"), (35, "a-n001")) and a.batches == ((0, 75),)
            assert sorted(b.nodes) == ["b-n000", "b-n002"]
            corrupt(a, b)
        audit(manager, expected, tick)

    monkeypatch.setattr(engine, "_verify_world", corrupt_then_audit)
    with pytest.raises(SimulationAborted) as info:
        run(parse_scenario(_doc(ticks=4)))
    assert (info.value.tick, info.value.last_consistent_tick) == (2, 1)
    assert isinstance(info.value.__cause__, InvariantViolation)
    assert str(info.value.__cause__) == f"tick 2: {message}"


def test_tick_record_counts_and_sums_only_pending_pods():
    # An uneven cpu:memory quantum, so a swapped dimension changes the backlog.
    cluster = make_cluster("a", [4000, 4000], quantum=(300, 100))
    run_pod(cluster, "a-n000")
    run_pod(cluster, "a-n001")
    run_pod(cluster, "a-n001")
    for _ in range(3):
        pending_pod(cluster)
    assert _tick_record(5, cluster) == TickRecord(
        tick=5,
        cluster_id="a",
        u_cpu=900 / 8000,
        u_mem=300 / 16384,
        u=900 / 8000,
        active_nodes=2,
        pending_pods=3,
        pending_cpu_millicores=900,
        pending_memory_mib=300,
    )
