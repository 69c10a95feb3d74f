import json
import random

import pytest

from nodebalancer import (
    EventKind,
    EventRecorder,
    Group,
    Node,
    OutcomeKind,
    ResourceVector,
    Thresholds,
    cluster_utilization,
    drain_node,
    node_utilization,
    place_pending,
    provision_node,
    rebalance_cycle,
)
from nodebalancer import balancer
from nodebalancer.errors import DuplicateNode, InvalidThresholds

from helpers import (
    fill,
    make_cluster,
    node_multiset,
    origin_map,
    pending_pod,
    random_world,
    randomize_load,
    run_pod,
    snapshot,
)


def test_deprovision_detaches_node():
    cluster = make_cluster("a", [4000, 4000])
    node = cluster.nodes["a-n001"]
    recorder = EventRecorder()
    drain_node(cluster, "a-n001", recorder=recorder)
    assert "a-n001" not in cluster.nodes
    assert node.origin_cluster == "a"
    assert [e.kind for e in recorder.events] == [
        EventKind.DRAIN_STARTED.value,
        EventKind.NODE_DEPROVISIONED.value,
    ]


def test_provision_rejects_duplicate_id():
    donor = make_cluster("a", [4000, 4000])
    node = donor.nodes["a-n001"]
    drain_node(donor, "a-n001")
    target = make_cluster("b", [4000])
    target.nodes["a-n001"] = Node(
        id="a-n001", capacity=ResourceVector(4000, 8192), origin_cluster="b"
    )
    with pytest.raises(DuplicateNode):
        provision_node(target, node)


def test_provision_attaches_and_feeds_the_scheduler():
    donor = make_cluster("a", [4000, 4000])
    node = donor.nodes["a-n001"]
    drain_node(donor, "a-n001")

    target = make_cluster("b", [4000])
    fill(target, "b-n000", 4000)  # full
    pending_pod(target, "waiting")
    assert place_pending(target) == []

    provision_node(target, node)
    assert target.nodes["a-n001"] is node
    assert target.nodes["a-n001"].origin_cluster == "a"  # origin survives the move
    assert place_pending(target) == [("waiting", "a-n001")]


def test_deprovision_provision_round_trip_preserves_node_set():
    cluster = make_cluster("a", [4000, 4000])
    before = dict(cluster.nodes)
    drain_node(cluster, "a-n000")
    provision_node(cluster, before["a-n000"])
    assert cluster.nodes == before
    assert all(cluster.nodes[node_id] is node for node_id, node in before.items())


def _pair_world():
    """Hot two-node cluster and quiet three-node donor."""
    hot = make_cluster("a", [4000, 4000])
    fill(hot, "a-n000", 4000)
    fill(hot, "a-n001", 3500)  # 7500/8000 = 0.9375
    quiet = make_cluster("b", [4000, 4000, 4000])
    fill(quiet, "b-n000", 2000)  # 2000/12000 ~ 0.1667
    clusters = {"a": hot, "b": quiet}
    group = Group(id="g", members=["a", "b"], thresholds=Thresholds(0.3, 0.8))
    return clusters, group


def test_cycle_moves_a_node_from_quiet_to_hot():
    clusters, group = _pair_world()
    recorder = EventRecorder()
    outcomes = rebalance_cycle(group, clusters, recorder=recorder)

    assert [o.kind for o in outcomes] == [OutcomeKind.MOVED]
    move = outcomes[0]
    assert (move.high_cluster, move.low_cluster, move.node) == ("a", "b", "b-n001")
    assert move.attempts == ()

    assert sorted(clusters["a"].nodes) == ["a-n000", "a-n001", "b-n001"]
    assert sorted(clusters["b"].nodes) == ["b-n000", "b-n002"]
    assert cluster_utilization(clusters["a"]).u == pytest.approx(0.625, abs=1e-9)
    assert cluster_utilization(clusters["b"]).u == pytest.approx(0.25, abs=1e-9)
    assert clusters["a"].nodes["b-n001"].origin_cluster == "b"

    kinds = [e.kind for e in recorder.events]
    assert kinds == [
        EventKind.DRAIN_STARTED.value,
        EventKind.NODE_DEPROVISIONED.value,
        EventKind.NODE_PROVISIONED.value,
        EventKind.MOVE_COMPLETED.value,
    ]
    completed = recorder.events[-1]
    assert completed.cluster == "a" and completed.node == "b-n001"
    assert completed.detail["from_cluster"] == "b"
    assert completed.detail["donor_utilization_after"] == pytest.approx(0.25, abs=1e-9)


def test_cycle_reverses_when_donor_would_go_hot():
    # Donor at 7000/12000; losing a node leaves 7000/8000 = 0.875 > 0.85.
    hot = make_cluster("a", [4000, 4000])
    fill(hot, "a-n000", 4000)
    fill(hot, "a-n001", 3500)
    donor = make_cluster("b", [4000, 4000, 4000])
    fill(donor, "b-n000", 3500)
    fill(donor, "b-n001", 3500)
    clusters = {"a": hot, "b": donor}
    group = Group(id="g", members=["a", "b"], thresholds=Thresholds(0.6, 0.85))

    donor_nodes_before = dict(donor.nodes)
    recorder = EventRecorder()
    outcomes = rebalance_cycle(group, clusters, recorder=recorder)

    assert [o.kind for o in outcomes] == [OutcomeKind.REVERSED, OutcomeKind.NO_CANDIDATE]
    reversed_outcome = outcomes[0]
    assert (reversed_outcome.high_cluster, reversed_outcome.low_cluster) == ("a", "b")
    assert reversed_outcome.node == "b-n002"
    assert outcomes[1].attempts == (("b", "WouldExceedTHigh"),)

    # The donor is bit-identical in shape: the same node objects, back in place.
    assert set(donor.nodes) == set(donor_nodes_before)
    assert all(donor.nodes[nid] is node for nid, node in donor_nodes_before.items())
    assert cluster_utilization(donor).u == pytest.approx(7000 / 12000, abs=1e-9)

    kinds = [e.kind for e in recorder.events]
    assert EventKind.MOVE_COMPLETED.value not in kinds
    reversal = next(e for e in recorder.events if e.kind == EventKind.MOVE_REVERSED.value)
    assert reversal.cluster == "b" and reversal.node == "b-n002"
    assert reversal.detail["reason"] == "WouldExceedTHigh"
    assert reversal.detail["utilization_after"] == pytest.approx(0.875, abs=1e-9)
    assert reversal.detail["intended_recipient"] == "a"


def test_cycle_tries_candidates_in_ascending_utilization_order():
    # Three donors: the two least utilized would overshoot t_high once a
    # node is removed; the third can afford it.
    hot = make_cluster("r", [4000, 4000])
    fill(hot, "r-n000", 4000)
    fill(hot, "r-n001", 3500)

    c1 = make_cluster("c1", [4000, 4000])
    fill(c1, "c1-n000", 3600)  # 0.45 -> 0.9 after losing the idle node
    c2 = make_cluster("c2", [4000, 4000])
    fill(c2, "c2-n000", 3700)  # 0.4625 -> 0.925
    c3 = make_cluster("c3", [4000] * 6)
    for i in range(5):
        fill(c3, f"c3-n{i:03d}", 2400)  # 0.5 -> 0.6

    clusters = {"r": hot, "c1": c1, "c2": c2, "c3": c3}
    group = Group(
        id="g", members=["r", "c1", "c2", "c3"], thresholds=Thresholds(0.55, 0.85)
    )
    recorder = EventRecorder()
    outcomes = rebalance_cycle(group, clusters, recorder=recorder)

    assert [o.kind for o in outcomes] == [
        OutcomeKind.REVERSED,
        OutcomeKind.REVERSED,
        OutcomeKind.MOVED,
    ]
    assert outcomes[0].low_cluster == "c1"
    assert outcomes[1].low_cluster == "c2"
    move = outcomes[2]
    assert move.low_cluster == "c3"
    assert move.attempts == (
        ("c1", "WouldExceedTHigh"),
        ("c2", "WouldExceedTHigh"),
    )

    reversal_clusters = [
        e.cluster for e in recorder.events if e.kind == EventKind.MOVE_REVERSED.value
    ]
    assert reversal_clusters == ["c1", "c2"]
    completed = [e for e in recorder.events if e.kind == EventKind.MOVE_COMPLETED.value]
    assert len(completed) == 1
    assert completed[0].detail["from_cluster"] == "c3"
    assert set(c1.nodes) == {"c1-n000", "c1-n001"}
    assert set(c2.nodes) == {"c2-n000", "c2-n001"}
    assert "c3-n005" in hot.nodes


def test_no_action_when_nothing_is_underutilized():
    hot = make_cluster("a", [4000])
    fill(hot, "a-n000", 3600)
    mid = make_cluster("b", [4000])
    fill(mid, "b-n000", 2000)
    clusters = {"a": hot, "b": mid}
    group = Group(id="g", members=["a", "b"], thresholds=Thresholds(0.3, 0.8))
    recorder = EventRecorder()
    outcomes = rebalance_cycle(group, clusters, recorder=recorder)
    assert [o.kind for o in outcomes] == [OutcomeKind.NO_ACTION]
    assert outcomes[0].high_cluster == "a"
    assert recorder.events == []


def test_quiet_group_does_nothing():
    clusters = {"a": make_cluster("a", [4000])}
    fill(clusters["a"], "a-n000", 2000)
    group = Group(id="g", members=["a"], thresholds=Thresholds(0.3, 0.8))
    assert rebalance_cycle(group, clusters) == []


def test_cycle_rejects_invalid_thresholds_before_acting():
    hot = make_cluster("a", [4000, 4000])
    fill(hot, "a-n000", 4000)
    quiet = make_cluster("b", [4000, 4000])
    clusters = {"a": hot, "b": quiet}
    before = snapshot(clusters)
    recorder = EventRecorder()
    # An invalid pair fails as it is built, so no cycle can act on one.
    with pytest.raises(InvalidThresholds):
        group = Group(id="g", members=["a", "b"], thresholds=Thresholds(0.8, 0.3))
        rebalance_cycle(group, clusters, recorder=recorder)
    assert clusters == before
    assert recorder.events == []


def test_single_node_donor_is_skipped():
    hot = make_cluster("a", [4000, 4000])
    fill(hot, "a-n000", 4000)
    fill(hot, "a-n001", 3500)
    donor = make_cluster("b", [4000])  # cannot go below one Active node
    clusters = {"a": hot, "b": donor}
    group = Group(id="g", members=["a", "b"], thresholds=Thresholds(0.3, 0.8))
    recorder = EventRecorder()
    outcomes = rebalance_cycle(group, clusters, recorder=recorder)
    assert [o.kind for o in outcomes] == [OutcomeKind.NO_CANDIDATE]
    assert outcomes[0].attempts == (("b", "MinActiveNodes"),)
    no_candidate = recorder.events[-1]
    assert no_candidate.kind == EventKind.NO_CANDIDATE.value
    assert no_candidate.detail["attempts"] == [["b", "MinActiveNodes"]]
    assert set(donor.nodes) == {"b-n000"}


def test_donor_node_ranking_matches_node_utilization(monkeypatch):
    drained = []

    def checked_drain(cluster, node_id, **kwargs):
        actives = cluster.active_nodes()
        expected = min(actives, key=lambda n: (node_utilization(n, cluster), n.id))
        drained.append((node_id, expected.id))
        return drain_node(cluster, node_id, **kwargs)

    monkeypatch.setattr(balancer, "drain_node", checked_drain)
    rng = random.Random(2024)
    for _ in range(150):
        manager, group = random_world(rng, n_clusters=rng.randint(2, 5))
        for cluster in manager.clusters.values():
            randomize_load(rng, cluster, 0)
        rebalance_cycle(group, manager.clusters)
    assert len(drained) > 50
    assert all(node_id == expected for node_id, expected in drained)


def test_infeasible_drain_moves_to_next_candidate():
    hot = make_cluster("a", [4000, 4000])
    fill(hot, "a-n000", 4000)
    fill(hot, "a-n001", 3000)  # 0.875 > 0.85
    # Least-utilized candidate, but its drain victim carries a pod larger
    # than any sibling's free space, so the drain must abort.
    stuck = make_cluster("b", [4000, 4000, 4000], quantum=(2100, 100))
    run_pod(stuck, "b-p0", "b-n000")
    run_pod(stuck, "b-p1", "b-n001")
    run_pod(stuck, "b-p2", "b-n002")
    free = make_cluster("c", [4000, 4000, 4000])
    fill(free, "c-n000", 3300)
    fill(free, "c-n001", 3300)
    clusters = {"a": hot, "b": stuck, "c": free}
    group = Group(id="g", members=["a", "b", "c"], thresholds=Thresholds(0.6, 0.85))
    outcomes = rebalance_cycle(group, clusters)
    assert [o.kind for o in outcomes] == [OutcomeKind.MOVED]
    assert outcomes[0].low_cluster == "c"
    assert outcomes[0].attempts == (("b", "DrainInfeasible"),)
    assert set(stuck.nodes) == {"b-n000", "b-n001", "b-n002"}
    assert [stuck.nodes[nid].pod_count for nid in sorted(stuck.nodes)] == [1] * 3


def test_one_role_per_cluster_per_cycle():
    hot1 = make_cluster("a", [4000])
    fill(hot1, "a-n000", 3600)
    hot2 = make_cluster("b", [4000])
    fill(hot2, "b-n000", 3500)
    donor = make_cluster("d", [4000] * 4)
    fill(donor, "d-n000", 1000)
    clusters = {"a": hot1, "b": hot2, "d": donor}
    group = Group(id="g", members=["a", "b", "d"], thresholds=Thresholds(0.3, 0.8))
    outcomes = rebalance_cycle(group, clusters)
    # a (higher u) wins the only donor; b finds nobody left.
    assert [o.kind for o in outcomes] == [OutcomeKind.MOVED, OutcomeKind.NO_CANDIDATE]
    assert outcomes[0].high_cluster == "a" and outcomes[0].low_cluster == "d"
    assert outcomes[1].high_cluster == "b" and outcomes[1].attempts == ()
    assert len(donor.nodes) == 3  # exactly one node left the donor


def test_two_pairs_move_in_one_cycle():
    hot1 = make_cluster("a", [4000])
    fill(hot1, "a-n000", 3600)
    hot2 = make_cluster("b", [4000])
    fill(hot2, "b-n000", 3500)
    d1 = make_cluster("d1", [4000, 4000])
    d2 = make_cluster("d2", [4000, 4000])
    fill(d2, "d2-n000", 400)
    clusters = {"a": hot1, "b": hot2, "d1": d1, "d2": d2}
    group = Group(id="g", members=list(clusters), thresholds=Thresholds(0.3, 0.8))
    outcomes = rebalance_cycle(group, clusters)
    assert [o.kind for o in outcomes] == [OutcomeKind.MOVED, OutcomeKind.MOVED]
    # Hottest recipient pairs with the least-utilized donor.
    assert (outcomes[0].high_cluster, outcomes[0].low_cluster) == ("a", "d1")
    assert (outcomes[1].high_cluster, outcomes[1].low_cluster) == ("b", "d2")
    assert len(d1.nodes) == 1 and len(d2.nodes) == 1


def test_midcycle_error_returns_the_in_flight_node():
    donor = make_cluster("d", [4000, 4000])
    fill(donor, "d-n000", 1000)
    # Sabotage: the recipient already hosts a node whose id collides with
    # the donor's drain victim, so provisioning there must fail.
    hot = make_cluster("r", [4000, 4000])
    hot.nodes["d-n001"] = Node(id="d-n001", capacity=ResourceVector(4000, 8192), origin_cluster="r")
    fill(hot, "r-n000", 4000)
    fill(hot, "r-n001", 4000)
    fill(hot, "d-n001", 1800)  # 9800/12000 > 0.8
    clusters = {"d": donor, "r": hot}
    group = Group(id="g", members=["d", "r"], thresholds=Thresholds(0.3, 0.8))

    donor_before = dict(donor.nodes)
    with pytest.raises(DuplicateNode):
        rebalance_cycle(group, clusters)
    assert set(donor.nodes) == set(donor_before)
    assert all(donor.nodes[nid] is node for nid, node in donor_before.items())


def test_conservation_and_origin_immutability_over_random_cycles():
    rng = random.Random(909)
    for _ in range(40):
        manager, group = random_world(rng)
        nodes_before = node_multiset(manager.clusters)
        origins_before = origin_map(manager.clusters)
        for tick in range(rng.randint(1, 10)):
            for cluster in manager.clusters.values():
                randomize_load(rng, cluster, tick)
            rebalance_cycle(group, manager.clusters)
            assert node_multiset(manager.clusters) == nodes_before
            assert origin_map(manager.clusters) == origins_before


def test_cycle_is_deterministic_byte_for_byte():
    rng = random.Random(111)
    for _ in range(20):
        manager, group = random_world(rng)
        for cluster in manager.clusters.values():
            randomize_load(rng, cluster, 0)
        twin_clusters = snapshot(manager.clusters)
        twin_group = snapshot(group)

        rec_a, rec_b = EventRecorder(), EventRecorder()
        out_a = rebalance_cycle(group, manager.clusters, recorder=rec_a)
        out_b = rebalance_cycle(twin_group, twin_clusters, recorder=rec_b)

        dump_a = json.dumps([o._asdict() for o in out_a])
        dump_b = json.dumps([o._asdict() for o in out_b])
        assert dump_a == dump_b
        assert rec_a.events == rec_b.events


def _refusing_donor(reason):
    """A donor that refuses for the given reason under Thresholds(0.6, 0.85)."""
    if reason == "MinActiveNodes":
        donor = make_cluster("d", [4000])  # its only node is its last own one
        fill(donor, "d-n000", 1000)  # 0.25
    elif reason == "DrainInfeasible":
        # One pod per node and every node full, so no drain victim's pod fits.
        donor = make_cluster("d", [4000, 4000, 4000], quantum=(2100, 100))
        for i in range(3):
            run_pod(donor, f"d-p{i}", f"d-n{i:03d}")  # 6300/12000 = 0.525
    else:
        donor = make_cluster("d", [4000, 4000, 4000])
        fill(donor, "d-n000", 3500)
        fill(donor, "d-n001", 3500)  # 7000/12000; 7000/8000 = 0.875 without a node
    return donor


@pytest.mark.parametrize("reason", ["MinActiveNodes", "DrainInfeasible", "WouldExceedTHigh"])
def test_a_refusing_donor_is_consulted_once_per_cycle(reason):
    hot1 = make_cluster("a", [4000, 4000])
    fill(hot1, "a-n000", 4000)
    fill(hot1, "a-n001", 3600)  # 0.95
    hot2 = make_cluster("b", [4000, 4000])
    fill(hot2, "b-n000", 4000)
    fill(hot2, "b-n001", 3500)  # 0.9375
    clusters = {"a": hot1, "b": hot2, "d": _refusing_donor(reason)}
    group = Group(id="g", members=["a", "b", "d"], thresholds=Thresholds(0.6, 0.85))
    recorder = EventRecorder()
    outcomes = rebalance_cycle(group, clusters, recorder=recorder)

    attempts = [attempt for outcome in outcomes for attempt in outcome.attempts]
    assert attempts == [("d", reason)]
    assert outcomes[-1] == (OutcomeKind.NO_CANDIDATE, "b", None, None, ())
    drains = [
        e for e in recorder.events
        if e.kind == EventKind.DRAIN_STARTED.value and e.cluster == "d"
    ]
    assert len(drains) <= 1
    no_candidates = [e for e in recorder.events if e.kind == EventKind.NO_CANDIDATE.value]
    assert [(e.cluster, e.detail["attempts"]) for e in no_candidates] == [
        ("a", [["d", reason]]),
        ("b", []),
    ]


def test_no_donor_is_consulted_twice_in_a_cycle():
    rng = random.Random(20)
    refusals = 0
    for _ in range(400):
        manager, group = random_world(rng, n_clusters=rng.randint(3, 6))
        for cluster in manager.clusters.values():
            randomize_load(rng, cluster, 0)
        outcomes = rebalance_cycle(group, manager.clusters)
        # A reversal's outcome repeats the attempt its recipient lists, so
        # the consultations are the attempts and the donors that gave.
        consulted = [donor for outcome in outcomes for donor, _ in outcome.attempts]
        consulted += [o.low_cluster for o in outcomes if o.kind is OutcomeKind.MOVED]
        assert len(consulted) == len(set(consulted))
        reversed_donors = {o.low_cluster for o in outcomes if o.kind is OutcomeKind.REVERSED}
        assert reversed_donors == {
            donor for outcome in outcomes for donor, why in outcome.attempts
            if why == "WouldExceedTHigh"
        }
        refusals += len(consulted) - sum(o.kind is OutcomeKind.MOVED for o in outcomes)
    assert refusals > 20
