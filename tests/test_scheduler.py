import random

import pytest

from nodebalancer import (
    EventKind,
    EventRecorder,
    drain_node,
    place_pending,
)
from nodebalancer import scheduler
from nodebalancer.errors import LastNodeGuard, NodeNotInCluster
from nodebalancer.model import node_demand

from helpers import ffd_oracle, fill, make_cluster, pending_pod, run_pod, snapshot


def test_place_single_pod_on_first_node():
    cluster = make_cluster("a", [4000, 4000])
    pending_pod(cluster, "p0", 500)
    assert place_pending(cluster) == [("p0", "a-n000")]
    assert cluster.pods["p0"].assignment == "a-n000"


def test_place_with_no_pending_is_a_no_op():
    cluster = make_cluster("a", [4000])
    assert place_pending(cluster) == []


def test_placement_with_nothing_pending_builds_no_demand_map(monkeypatch):
    def no_plan(pods, nodes):
        raise RuntimeError(f"plan built for {[pod.id for pod in pods]}")

    monkeypatch.setattr(scheduler, "_plan", no_plan)
    running = make_cluster("a", [4000, 4000])
    run_pod(running, "r0", "a-n000", 1000)
    run_pod(running, "r1", "a-n001", 500)
    assert place_pending(running) == []

    waiting = make_cluster("b", [4000])
    pending_pod(waiting, "p0", 500)
    with pytest.raises(RuntimeError, match=r"plan built for \['p0'\]"):
        place_pending(waiting)
    monkeypatch.undo()
    assert place_pending(waiting) == [("p0", "b-n000")]


def test_oversized_pod_stays_pending():
    cluster = make_cluster("a", [1000])
    pending_pod(cluster, "p0", 1500)
    assert place_pending(cluster) == []
    assert cluster.pods["p0"].assignment is None


def test_first_fit_decreasing_order():
    # Two nodes with 1000m free each; 900 fills n000, 600 must open n001,
    # and the 500 then fits nowhere (frees are 100 and 400).
    cluster = make_cluster("a", [1000, 1000], memory=8192)
    pending_pod(cluster, "p-big", 900, 128)
    pending_pod(cluster, "p-mid", 600, 128)
    pending_pod(cluster, "p-small", 500, 128)
    placements = place_pending(cluster)
    assert placements == [("p-big", "a-n000"), ("p-mid", "a-n001")]
    assert cluster.pods["p-small"].assignment is None
    remaining = [n.capacity.cpu - node_demand(cluster, n.id).cpu for n in cluster.active_nodes()]
    assert all(free < 500 for free in remaining)


def test_placement_tie_breaks():
    # Equal cpu: higher memory goes first; equal both: ascending pod id.
    cluster = make_cluster("a", [1000], memory=8192)
    pending_pod(cluster, "zz", 500, 400)
    pending_pod(cluster, "aa", 500, 200)
    placements = place_pending(cluster)
    assert placements == [("zz", "a-n000"), ("aa", "a-n000")]

    cluster = make_cluster("b", [600], memory=8192)
    pending_pod(cluster, "q2", 500, 200)
    pending_pod(cluster, "q1", 500, 200)
    assert place_pending(cluster) == [("q1", "b-n000")]


def test_memory_dimension_also_binds():
    cluster = make_cluster("a", [4000], memory=256)
    pending_pod(cluster, "p0", 100, 200)
    pending_pod(cluster, "p1", 100, 200)
    assert place_pending(cluster) == [("p0", "a-n000")]
    assert cluster.pods["p1"].assignment is None


def test_matches_reference_ffd_on_random_inputs():
    rng = random.Random(404)
    for _ in range(200):
        node_count = rng.randint(1, 5)
        cpus = [rng.choice([1000, 2000, 4000]) for _ in range(node_count)]
        cluster = make_cluster("a", cpus, memory=rng.choice([2048, 8192]))
        pods = []
        for i in range(rng.randint(0, 25)):
            cpu = rng.randrange(50, 1500, 50)
            mem = rng.randrange(64, 2048, 64)
            pending_pod(cluster, f"p{i:03d}", cpu, mem)
            pods.append((f"p{i:03d}", cpu, mem))
        slots = [(n.id, n.capacity.cpu, n.capacity.memory) for n in cluster.active_nodes()]
        expected_placed, expected_unplaced = ffd_oracle(pods, slots)

        placements = dict(place_pending(cluster))
        assert placements == expected_placed
        still_pending = [p.id for p in cluster.pending_pods()]
        assert still_pending == sorted(expected_unplaced)


def test_drain_empty_node():
    cluster = make_cluster("a", [4000, 4000])
    recorder = EventRecorder()
    outcome = drain_node(cluster, "a-n001", recorder=recorder)
    assert not outcome.restored
    assert outcome.relocated == ()
    assert "a-n001" not in cluster.nodes
    assert [e.kind for e in recorder.events] == [
        EventKind.DRAIN_STARTED.value,
        EventKind.NODE_DEPROVISIONED.value,
    ]


def test_drain_relocates_pods():
    cluster = make_cluster("a", [4000, 4000])
    fill(cluster, "a-n001", 3400)  # leaves exactly 600 free on the sibling
    run_pod(cluster, "victim", "a-n000", 500)
    outcome = drain_node(cluster, "a-n000")
    assert outcome.relocated == (("victim", "a-n001"),)
    assert cluster.pods["victim"].assignment == "a-n001"
    assert node_demand(cluster, "a-n001").cpu == 3900


def test_infeasible_drain_restores_cluster_exactly():
    cluster = make_cluster("a", [4000, 4000])
    fill(cluster, "a-n001", 2500)
    run_pod(cluster, "victim", "a-n000", 2000)  # sibling has only 1500 free
    recorder = EventRecorder()
    before = snapshot(cluster)
    outcome = drain_node(cluster, "a-n000", recorder=recorder)
    assert outcome.restored
    assert outcome.relocated == ()
    assert cluster == before
    assert [e.kind for e in recorder.events] == [
        EventKind.DRAIN_STARTED.value,
        EventKind.DRAIN_RESTORED.value,
    ]
    assert recorder.events[1].detail["reason"] == "DrainInfeasible"


def test_drain_is_atomic_on_random_clusters():
    rng = random.Random(505)
    completed = restored = 0
    for _ in range(300):
        node_count = rng.randint(2, 5)
        cluster = make_cluster("a", [rng.choice([1000, 2000, 4000]) for _ in range(node_count)])
        for i in range(rng.randint(0, 20)):
            pending_pod(cluster, f"p{i:03d}", rng.randrange(100, 1600, 100))
        place_pending(cluster)
        target = rng.choice([n.id for n in cluster.active_nodes()])
        before = snapshot(cluster)
        outcome = drain_node(cluster, target)
        if outcome.restored:
            restored += 1
            assert cluster == before
        else:
            completed += 1
            assert target not in cluster.nodes
            assert set(cluster.nodes) == set(before.nodes) - {target}
            assert cluster.pods_on(target) == []
            relocated = dict(outcome.relocated)
            for pod_id, new_node in relocated.items():
                assert before.pods[pod_id].assignment == target
                assert cluster.pods[pod_id].assignment == new_node
            for node in cluster.active_nodes():
                demand = node_demand(cluster, node.id)
                assert demand.cpu <= node.capacity.cpu and demand.memory <= node.capacity.memory
    assert completed > 50 and restored > 50  # both branches exercised


def test_forced_drain_parks_unplaceable_pods():
    cluster = make_cluster("a", [4000, 4000])
    fill(cluster, "a-n001", 3800)
    run_pod(cluster, "heavy", "a-n000", 3000)
    run_pod(cluster, "light", "a-n000", 100)
    outcome = drain_node(cluster, "a-n000", force=True)
    assert not outcome.restored
    assert outcome.relocated == (("light", "a-n001"),)
    assert cluster.pods["heavy"].assignment is None
    assert "a-n000" not in cluster.nodes


def test_forced_drain_ignores_min_active_guard():
    cluster = make_cluster("a", [4000])
    run_pod(cluster, "p0", "a-n000", 500)
    outcome = drain_node(cluster, "a-n000", force=True)
    assert not outcome.restored
    assert cluster.active_nodes() == []
    assert cluster.pods["p0"].assignment is None


def test_last_node_guard():
    cluster = make_cluster("a", [4000])
    with pytest.raises(LastNodeGuard):
        drain_node(cluster, "a-n000")
    two = make_cluster("b", [4000, 4000], min_active=2)
    with pytest.raises(LastNodeGuard):
        drain_node(two, "b-n000")
    relaxed = make_cluster("c", [4000, 4000])
    assert not drain_node(relaxed, "c-n000").restored


def test_drain_requires_an_active_node():
    cluster = make_cluster("a", [4000, 4000, 4000])
    drain_node(cluster, "a-n000")  # detached: no longer the cluster's
    before = snapshot(cluster)
    for node_id in ("a-n000", "a-n999"):
        with pytest.raises(
            NodeNotInCluster, match=f"^node '{node_id}' is not hosted by cluster 'a'$"
        ):
            drain_node(cluster, node_id, force=True)
    assert cluster == before


@pytest.mark.parametrize("force", [False, True], ids=["plain", "forced"])
def test_completed_drain_detaches_the_node(force):
    cluster = make_cluster("a", [4000, 4000, 4000])
    run_pod(cluster, "p0", "a-n000", 500, 256)
    run_pod(cluster, "big", "a-n001", 3800, 256)
    run_pod(cluster, "p2", "a-n002", 500, 256)
    node, kept = cluster.nodes["a-n000"], cluster.nodes["a-n001"]
    # big fits on no sibling, so the drain aborts and its node stays hosted.
    assert drain_node(cluster, "a-n001").restored
    assert cluster.nodes["a-n001"] is kept
    assert kept.used == [3800, 256]

    recorder = EventRecorder()
    outcome = drain_node(cluster, "a-n000", force=force, recorder=recorder)
    assert not outcome.restored and outcome.pending == ()
    assert sorted(cluster.nodes) == ["a-n001", "a-n002"]
    assert node.used == [0, 0]
    assert node.origin_cluster == "a"
    assert cluster.pods["p0"].assignment == "a-n002"
    assert [(e.kind, e.cluster, e.node) for e in recorder.events] == [
        (EventKind.DRAIN_STARTED.value, "a", "a-n000"),
        (EventKind.NODE_DEPROVISIONED.value, "a", "a-n000"),
    ]


def test_drain_is_deterministic():
    rng = random.Random(606)
    for _ in range(30):
        cluster = make_cluster("a", [2000, 2000, 2000])
        for i in range(rng.randint(0, 15)):
            pending_pod(cluster, f"p{i:03d}", rng.randrange(100, 900, 100))
        place_pending(cluster)
        twin = snapshot(cluster)
        assert drain_node(cluster, "a-n000") == drain_node(twin, "a-n000")
        assert cluster == twin
