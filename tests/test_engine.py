import dataclasses
import random
import re
from collections import Counter

import pytest

from nodebalancer import (
    EventKind,
    GroupManager,
    MembershipAction,
    MembershipChange,
    Node,
    ResourceVector,
    Scenario,
    TickRecord,
    apply_overrides,
    build_world,
    compare,
    parse_scenario,
    load_scenario,
    run,
)
from nodebalancer.engine import _tick_record, _verify_world
from nodebalancer.errors import InvariantViolation, ScenarioInvalid, SimulationAborted

from helpers import (
    OVER_LONG_INT_JSON,
    TOO_DEEP_JSON,
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
    assert scenario.clusters[1].trace.pod_quantum.cpu == 200

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
    ],
)
def test_parse_rejects_bad_documents(mutate, message):
    doc = _doc()
    mutate(doc)
    with pytest.raises(ScenarioInvalid, match=message):
        parse_scenario(doc)


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

    static = dataclasses.replace(parse_scenario(doc), groups=(), membership_changes=())
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
    # validate_scenario refuses this sequence; replace() skips it, so the
    # run itself must abort on the second leave.
    leave = MembershipChange(tick=1, action=MembershipAction.REMOVE, cluster="b", group="g")
    scenario = dataclasses.replace(
        parse_scenario(_doc(ticks=4)),
        membership_changes=(leave, dataclasses.replace(leave, tick=2)),
    )
    with pytest.raises(SimulationAborted) as info:
        run(scenario)
    assert info.value.tick == 2
    assert "cluster 'b' is not a member of group 'g'" in str(info.value)


def test_apply_overrides_touches_only_named_fields():
    scenario = parse_scenario(_doc())
    bumped = apply_overrides(scenario, ticks=10, seed=99)
    assert bumped.ticks == 10 and bumped.seed == 99
    assert bumped.clusters == scenario.clusters
    assert bumped.groups == scenario.groups
    assert apply_overrides(scenario) == scenario

    with pytest.raises(ScenarioInvalid):
        apply_overrides(scenario, ticks=0)
    with pytest.raises(ScenarioInvalid):
        apply_overrides(scenario, seed=-5)


def test_apply_overrides_revalidates_membership_ticks():
    doc = _doc(
        ticks=6,
        membership_changes=[{"tick": 5, "action": "Remove", "cluster": "b", "group": "g"}],
    )
    scenario = parse_scenario(doc)
    with pytest.raises(ScenarioInvalid, match="membership_changes"):
        apply_overrides(scenario, ticks=3)


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
    for cluster in (make_cluster("a", [4000, 4000]), make_cluster("b", [4000])):
        manager.register_cluster(cluster)
    run_pod(manager.clusters["a"], "other", "a-n000", 1000)
    expected = Counter(nid for c in manager.clusters.values() for nid in c.nodes)
    _verify_world(manager, expected, tick=0)
    return manager, expected


@pytest.mark.parametrize(
    "cpu, memory",
    # Three pods over-commit one dimension only together, so leaving out any
    # pod's share of that dimension hides the violation.
    [(1500, 100), (100, 3000)],
    ids=["cpu", "memory"],
)
def test_audit_flags_an_over_committed_node(cpu, memory):
    manager, expected = _audited_world()
    for pid in ("p0", "p1", "p2"):
        run_pod(manager.clusters["a"], pid, "a-n001", cpu, memory)
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
    # Each node stays within capacity on both dimensions; their sum does not,
    # which a cluster-wide or mis-keyed sum would flag.
    run_pod(manager.clusters["a"], "p0", "a-n000", 3000, 5000)
    run_pod(manager.clusters["a"], "p1", "a-n001", 4000, 8192)
    _verify_world(manager, expected, tick=3)


def test_audit_flags_a_pod_on_a_node_its_cluster_does_not_host():
    manager, expected = _audited_world()
    a, b = manager.clusters["a"], manager.clusters["b"]
    run_pod(a, "x", "a-n001", 100)
    # The node moves to the other cluster with its pod still bound to it, which
    # the model's own methods refuse but a direct store does not.
    node = a.nodes.pop("a-n001")
    b.nodes["a-n001"] = node
    with pytest.raises(
        InvariantViolation, match="tick 3: pod 'x' assigned to missing node 'a-n001'"
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


def _corrupt_pending(cluster):
    cluster.pending.pop("waiting")


def _corrupt_pending_object(cluster):
    # An equal copy is not the pod the cluster holds.
    cluster.pending["waiting"] = dataclasses.replace(cluster.pending["waiting"])


def _corrupt_used(cluster):
    cluster.nodes["a-n000"].used[1] += 1


@pytest.mark.parametrize(
    "corrupt, message",
    # Each corrupts one field only; every other field still matches the pods.
    [
        (_corrupt_pending, r"cluster 'a' 'pending' does not hold exactly the Pending pod "
                           r"objects: it has \[\], the pods \['waiting'\]"),
        (_corrupt_pending_object, r"cluster 'a' 'pending' does not hold exactly the Pending "
                                  r"pod objects: it has \['waiting'\], the pods \['waiting'\]"),
        (_corrupt_used, r"node 'a-n000' 'used' holds \[1000, 1281\], "
                        r"but its pods sum to \[1000, 1280\]"),
    ],
    ids=["pending", "pending-object", "used"],
)
def test_audit_flags_a_ledger_field_drifting_from_the_pods(corrupt, message):
    manager, expected = _audited_world()
    pending_pod(manager.clusters["a"], "waiting", 500)
    _verify_world(manager, expected, tick=3)
    corrupt(manager.clusters["a"])
    with pytest.raises(InvariantViolation, match=r"^tick 3: " + message + "$"):
        _verify_world(manager, expected, tick=3)


def test_tick_record_counts_and_sums_only_pending_pods():
    cluster = make_cluster("a", [4000, 4000])
    run_pod(cluster, "r0", "a-n000", 1000, 512)
    run_pod(cluster, "r1", "a-n001", 600, 4096)
    # Each Pending pod has its own cpu:memory ratio, so a swapped dimension
    # changes the backlog.
    for pid, cpu, memory in (("p0", 300, 100), ("p1", 200, 700), ("p2", 900, 50)):
        pending_pod(cluster, pid, cpu, memory)
    assert _tick_record(5, cluster) == TickRecord(
        tick=5,
        cluster_id="a",
        u_cpu=1600 / 8000,
        u_mem=4608 / 16384,
        u=4608 / 16384,
        active_nodes=2,
        pending_pods=3,
        pending_demand=ResourceVector(1400, 850),
    )
