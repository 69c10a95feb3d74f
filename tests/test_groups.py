import random

import pytest

from nodebalancer import (
    ConstantTrace,
    EventKind,
    EventRecorder,
    GroupManager,
    ResourceVector,
    Thresholds,
    apply_workload,
    build_cluster,
    cluster_utilization,
    drain_node,
    place_pending,
    provision_node,
    rebalance_cycle,
)
from nodebalancer.errors import (
    AlreadyGrouped,
    DuplicateGroup,
    InvalidThresholds,
    NotAMember,
    UnknownCluster,
    UnknownGroup,
)

from helpers import (
    add_pods,
    fill,
    make_cluster,
    node_multiset,
    origin_map,
    random_world,
    randomize_load,
)


def _manager(*clusters, **recorder):
    manager = GroupManager(**recorder)
    for cluster in clusters:
        manager.register_cluster(cluster)
    return manager


def _lend(manager, donor_id, node_id, recipient_id):
    """Move one node by hand: a forced drain detaches it, provision attaches it."""
    donor = manager.clusters[donor_id]
    node = donor.nodes[node_id]
    drain_node(donor, node_id, force=True)
    provision_node(manager.clusters[recipient_id], node)


def test_create_group_validates_inputs():
    manager = _manager()
    manager.create_group("g", Thresholds(0.3, 0.8), balance_interval=2)
    with pytest.raises(DuplicateGroup):
        manager.create_group("g", Thresholds(0.3, 0.8))
    with pytest.raises(InvalidThresholds):
        manager.create_group("g2", Thresholds(0.8, 0.3))
    with pytest.raises(ValueError):
        manager.create_group("g3", Thresholds(0.3, 0.8), balance_interval=0)


def test_membership_rules():
    a = make_cluster("a", [4000])
    b = make_cluster("b", [4000])
    manager = _manager(a, b)
    manager.create_group("g1", Thresholds(0.3, 0.8))
    manager.create_group("g2", Thresholds(0.3, 0.8))

    manager.add_cluster("g1", "a")
    assert manager.groups["g1"].members == ["a"]

    with pytest.raises(AlreadyGrouped) as info:
        manager.add_cluster("g2", "a")
    # Names the group it already belongs to.
    assert info.value.group_id == "g1" and "'g1'" in str(info.value)
    assert manager.groups["g2"].members == []
    with pytest.raises(AlreadyGrouped):
        manager.add_cluster("g1", "a")  # even re-adding to the same group
    with pytest.raises(UnknownGroup):
        manager.add_cluster("ghost", "b")
    with pytest.raises(UnknownCluster):
        manager.add_cluster("g1", "ghost")
    with pytest.raises(NotAMember):
        manager.remove_cluster("g1", "b")
    manager.add_cluster("g2", "b")


def test_registration_and_events():
    recorder = EventRecorder()
    manager = _manager(make_cluster("a", [4000]), recorder=recorder)
    with pytest.raises(ValueError):
        manager.register_cluster(make_cluster("a", [2000]))
    manager.create_group("g", Thresholds(0.25, 0.75), balance_interval=3)
    manager.add_cluster("g", "a")
    kinds = [e.kind for e in recorder.events]
    assert kinds == [EventKind.GROUP_CREATED.value, EventKind.CLUSTER_ADDED.value]
    assert recorder.events[0].detail == {
        "balance_interval": 3,
        "t_high": 0.75,
        "t_low": 0.25,
    }


def test_exit_without_loans_moves_nothing():
    a = make_cluster("a", [4000, 4000])
    b = make_cluster("b", [4000])
    manager = _manager(a, b)
    manager.create_group("g", Thresholds(0.3, 0.8))
    manager.add_cluster("g", "a")
    manager.add_cluster("g", "b")

    report = manager.remove_cluster("g", "a")
    assert report.returned == () and report.recalled == () and report.pending_pods == ()
    assert set(a.nodes) == set(a.original_node_ids)
    assert manager.groups["g"].members == ["b"]


def test_exit_returns_borrowed_nodes_to_their_origins():
    a = make_cluster("a", [4000, 4000])
    b = make_cluster("b", [4000, 4000, 4000])
    manager = _manager(a, b)
    manager.create_group("g", Thresholds(0.3, 0.8))
    manager.add_cluster("g", "a")
    manager.add_cluster("g", "b")
    lent = b.nodes["b-n001"]
    _lend(manager, "b", "b-n001", "a")  # a borrows b-n001

    report = manager.remove_cluster("g", "a")
    assert report.returned == (("b-n001", "b"),)
    assert report.recalled == ()
    assert set(a.nodes) == set(a.original_node_ids)
    assert b.nodes["b-n001"] is lent
    assert lent.origin_cluster == "b"
    assert "b-n001" not in a.nodes


def test_exit_recalls_lent_nodes_from_their_hosts():
    a = make_cluster("a", [4000, 4000])
    b = make_cluster("b", [4000, 4000, 4000])
    manager = _manager(a, b)
    manager.create_group("g", Thresholds(0.3, 0.8))
    manager.add_cluster("g", "a")
    manager.add_cluster("g", "b")
    _lend(manager, "b", "b-n001", "a")  # b lends b-n001 to a

    report = manager.remove_cluster("g", "b")
    assert report.returned == ()
    assert report.recalled == (("b-n001", "a"),)
    assert set(b.nodes) == set(b.original_node_ids)
    assert set(a.nodes) == set(a.original_node_ids)
    assert manager.groups["g"].members == ["a"]


def test_exit_restores_both_directions_at_once():
    a = make_cluster("a", [4000, 4000])
    b = make_cluster("b", [4000, 4000, 4000])
    c = make_cluster("c", [4000, 4000])
    manager = _manager(a, b, c)
    manager.create_group("g", Thresholds(0.3, 0.8))
    for cid in ("a", "b", "c"):
        manager.add_cluster("g", cid)
    _lend(manager, "b", "b-n001", "a")  # a borrows from b
    _lend(manager, "a", "a-n000", "c")  # a lends to c

    report = manager.remove_cluster("g", "a")
    assert report.returned == (("b-n001", "b"),)
    assert report.recalled == (("a-n000", "c"),)
    assert set(a.nodes) == set(a.original_node_ids)
    assert set(b.nodes) == set(b.original_node_ids)
    assert set(c.nodes) == set(c.original_node_ids)
    assert origin_map(manager.clusters) == {
        nid: nid[:1] for nid in node_multiset(manager.clusters)
    }


def test_forced_recall_parks_displaced_pods():
    a = make_cluster("a", [4000, 4000])
    b = make_cluster("b", [4000, 4000, 4000])
    manager = _manager(a, b)
    manager.create_group("g", Thresholds(0.3, 0.8))
    manager.add_cluster("g", "a")
    manager.add_cluster("g", "b")
    _lend(manager, "b", "b-n001", "a")

    # Pack a so the recalled node's pods cannot relocate inside a.
    fill(a, "a-n000", 4000)
    fill(a, "a-n001", 4000)
    fill(a, "b-n001", 3000)

    report = manager.remove_cluster("g", "b")
    assert report.recalled == (("b-n001", "a"),)
    displaced = [pod_id for pod_id, _ in report.pending_pods]
    assert len(displaced) == 30
    assert all(host == "a" for _, host in report.pending_pods)
    for pod_id in displaced:
        assert a.pods[pod_id] is None
    assert set(b.nodes) == set(b.original_node_ids)


def test_displaced_pods_are_reported_in_ascending_id():
    recorder = EventRecorder()
    a = make_cluster("a", [4000, 4000])
    b = make_cluster("b", [4000, 4000, 4000])
    manager = _manager(a, b, recorder=recorder)
    manager.create_group("g", Thresholds(0.3, 0.8))
    manager.add_cluster("g", "a")
    manager.add_cluster("g", "b")
    _lend(manager, "b", "b-n001", "a")
    fill(a, "a-n000", 4000)
    fill(a, "a-n001", 4000)
    # Insertion order c, a, b; id order a, b, c, since "p100000" sorts
    # before "p99998".
    [pod_c] = add_pods(a, 1, "b-n001", tick=99_999)
    [pod_a] = add_pods(a, 1, "b-n001", tick=100_000)
    [pod_b] = add_pods(a, 1, "b-n001", tick=99_998)

    report = manager.remove_cluster("g", "b")
    expected = ((pod_a, "a"), (pod_b, "a"), (pod_c, "a"))
    assert [pod_a, pod_b, pod_c] == ["a-p100000-0000", "a-p99998-0000", "a-p99999-0000"]
    assert report.pending_pods == expected
    completed = recorder.events[-1]
    assert completed.kind == EventKind.RESTORATION_COMPLETED.value
    assert completed.detail["pending_pods"] == [list(pair) for pair in expected]


def test_restoration_event_lists_movements():
    recorder = EventRecorder()
    a = make_cluster("a", [4000, 4000])
    b = make_cluster("b", [4000, 4000, 4000])
    manager = _manager(a, b, recorder=recorder)
    manager.create_group("g", Thresholds(0.3, 0.8))
    manager.add_cluster("g", "a")
    manager.add_cluster("g", "b")
    _lend(manager, "b", "b-n001", "a")

    manager.remove_cluster("g", "a")
    completed = recorder.events[-1]
    assert completed.kind == EventKind.RESTORATION_COMPLETED.value
    assert completed.cluster == "a" and completed.group == "g"
    assert completed.detail["returned_nodes"] == [["b-n001", "b"]]
    assert completed.detail["recalled_nodes"] == []
    assert completed.detail["pending_pods"] == []
    removed = [e for e in recorder.events if e.kind == EventKind.CLUSTER_REMOVED.value]
    assert len(removed) == 1


def test_reinstatement_is_idempotent():
    a = make_cluster("a", [4000, 4000])
    b = make_cluster("b", [4000, 4000, 4000])
    manager = _manager(a, b)
    manager.create_group("g", Thresholds(0.3, 0.8))
    manager.add_cluster("g", "a")
    manager.add_cluster("g", "b")

    for _ in range(3):
        _lend(manager, "b", "b-n001", "a")
        manager.remove_cluster("g", "a")
        assert set(a.nodes) == set(a.original_node_ids)
        assert set(b.nodes) == set(b.original_node_ids)
        manager.add_cluster("g", "a")
    assert manager.groups["g"].members == ["b", "a"]


def test_restoration_after_random_balancing():
    rng = random.Random(1212)
    for _ in range(30):
        manager, group = random_world(rng)
        nodes_before = node_multiset(manager.clusters)
        for tick in range(rng.randint(0, 12)):
            for cluster in manager.clusters.values():
                randomize_load(rng, cluster, tick)
            rebalance_cycle(group, manager.clusters)
        victim = rng.choice(list(group.members))
        manager.remove_cluster("g0", victim)

        leaver = manager.clusters[victim]
        assert set(leaver.nodes) == set(leaver.original_node_ids)
        for cid, cluster in manager.clusters.items():
            if cid != victim:
                assert all(n.origin_cluster != victim for n in cluster.nodes.values())
        assert node_multiset(manager.clusters) == nodes_before
        assert victim not in group.members


def test_min_active_does_not_block_restoration():
    # The leaver's only node is borrowed; returning it empties the cluster.
    a = build_cluster("a", 1, ResourceVector(4000, 8192))
    b = make_cluster("b", [4000, 4000])
    manager = _manager(a, b)
    manager.create_group("g", Thresholds(0.3, 0.8))
    manager.add_cluster("g", "a")
    manager.add_cluster("g", "b")
    _lend(manager, "b", "b-n001", "a")
    _lend(manager, "a", "a-n000", "b")  # a now holds only the borrowed node

    report = manager.remove_cluster("g", "a")
    assert report.returned == (("b-n001", "b"),)
    assert report.recalled == (("a-n000", "b"),)
    assert set(a.nodes) == {"a-n000"}
    assert set(b.nodes) == set(b.original_node_ids)


def test_exit_leaves_every_member_a_node_of_its_own():
    capacity = ResourceVector(4000, 8192)
    manager = _manager(*(build_cluster(cid, 2, capacity) for cid in ("l", "x", "y")))
    manager.create_group("g", Thresholds(0.3, 0.8))
    for cid in ("l", "x", "y"):
        manager.add_cluster("g", cid)
    group = manager.groups["g"]
    x, y = manager.clusters["x"], manager.clusters["y"]

    def load(cluster, cpu, tick):
        apply_workload(cluster, ConstantTrace(level=cpu), tick)
        place_pending(cluster)

    load(x, 7000, 0)
    load(y, 4000, 0)
    rebalance_cycle(group, manager.clusters)
    assert "l-n000" in x.nodes
    # New pods fill nodes in id order, so x's whole load lands on l-n000.
    load(x, 0, 1)
    load(x, 2000, 2)
    assert set(x.pods.values()) == {"l-n000"}

    load(y, 7600, 1)
    rebalance_cycle(group, manager.clusters)
    assert "x-n000" in y.nodes
    load(y, 11000, 2)
    outcomes = rebalance_cycle(group, manager.clusters)
    # x's last own node stays: the borrowed l-n000 goes home when l exits.
    assert outcomes[0].attempts == (("l", "MinActiveNodes"), ("x", "MinActiveNodes"))

    manager.remove_cluster("g", "l")
    assert set(x.nodes) == {"x-n001"}
    assert cluster_utilization(x).u == 0.5
