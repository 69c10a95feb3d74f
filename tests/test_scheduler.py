import random

import pytest
from hypothesis import given, settings, strategies as st

from nodebalancer import (
    Cluster,
    ConstantTrace,
    EventKind,
    EventRecorder,
    apply_workload,
    drain_node,
    place_pending,
    provision_node,
)
from nodebalancer.errors import LastNodeGuard, NodeNotInCluster
from nodebalancer.model import node_demand

from helpers import (
    add_pods, ffd_oracle, fill, hosted_nodes, load_from_pods, make_cluster, pending_pod, run_pod,
    snapshot,
)


def test_place_single_pod_on_first_node():
    cluster = make_cluster("a", [4000, 4000], quantum=(500, 640))
    pod_id = pending_pod(cluster)
    assert place_pending(cluster) == [(pod_id, "a-n000")]
    assert cluster.pods[pod_id] == "a-n000"


def test_place_with_no_pending_is_a_no_op():
    cluster = make_cluster("a", [4000])
    assert place_pending(cluster) == []


def _no_counts(cluster):
    raise RuntimeError(f"counts built for cluster {cluster.id!r}")


def test_placement_with_nothing_pending_builds_no_demand_map(monkeypatch):
    running = make_cluster("a", [4000, 4000])
    run_pod(running, "a-n000")
    run_pod(running, "a-n001")
    waiting = make_cluster("b", [4000])
    pod_id = pending_pod(waiting)
    monkeypatch.setattr(Cluster, "counts", _no_counts)
    assert place_pending(running) == []
    with pytest.raises(RuntimeError, match="counts built for cluster 'b'"):
        place_pending(waiting)
    monkeypatch.undo()
    assert place_pending(waiting) == [(pod_id, "b-n000")]


def test_draining_an_empty_node_builds_no_demand_map(monkeypatch):
    cluster = make_cluster("a", [4000, 4000, 4000])
    pod_id = run_pod(cluster, "a-n001")
    recorder = EventRecorder()
    monkeypatch.setattr(Cluster, "counts", _no_counts)
    outcome = drain_node(cluster, "a-n000", recorder=recorder)
    assert outcome == ("a-n000", [], False, [])
    assert set(cluster.nodes) == {"a-n001", "a-n002"}
    assert cluster.pods == {pod_id: "a-n001"}
    started = recorder.events[0]
    assert started.kind == EventKind.DRAIN_STARTED.value and started.detail["pods"] == 0
    with pytest.raises(RuntimeError, match="counts built for cluster 'a'"):
        drain_node(cluster, "a-n001")


def test_oversized_pod_stays_pending():
    cluster = make_cluster("a", [1000], quantum=(1500, 128))
    pod_id = pending_pod(cluster)
    assert place_pending(cluster) == []
    assert cluster.pods[pod_id] is None


def test_first_fit_decreasing_order():
    # Free cpu is 200, 900 and 1000: the first node fits no 300m pod, the
    # second fits three before the third node opens, and the last pod waits.
    cluster = make_cluster("b", [200, 900, 1000], quantum=(300, 128))
    p = add_pods(cluster, 7)
    assert place_pending(cluster) == [
        (p[0], "b-n001"), (p[1], "b-n001"), (p[2], "b-n001"),
        (p[3], "b-n002"), (p[4], "b-n002"), (p[5], "b-n002"),
    ]
    assert cluster.pending == {p[6]} == {"b-p00000-0006"}
    remaining = [n.capacity.cpu - node_demand(cluster, n.id).cpu for n in hosted_nodes(cluster)]
    assert remaining == [200, 0, 100]


def test_placement_tie_breaks():
    # Identical pods go in ascending id-string order, whatever their age:
    # "p100000" sorts before "p99999".
    cluster = make_cluster("b", [600], quantum=(500, 200))
    add_pods(cluster, 1, tick=99_999)
    add_pods(cluster, 1, tick=100_000)
    assert place_pending(cluster) == [("b-p100000-0000", "b-n000")]


def test_pending_order_is_the_id_string_order_not_creation_order():
    # 10,001 pods of (1, 1) for 10,000 slots. In id-string order
    # "a-p00000-10000" sorts right after "a-p00000-1000", so the last pod
    # created runs on the second node and "a-p00000-9999" is the one left
    # Pending. Creation order would leave "a-p00000-10000" Pending instead.
    cluster = make_cluster("a", [1000] * 10, quantum=(1, 1))
    apply_workload(cluster, ConstantTrace(level=10_001), 0)
    assert len(place_pending(cluster)) == 10_000
    assert cluster.pending == {"a-p00000-9999"}
    assert cluster.pods["a-p00000-10000"] == "a-n001"


def test_memory_dimension_also_binds():
    cluster = make_cluster("a", [4000], memory=256, quantum=(100, 200))
    first, second = add_pods(cluster, 2)
    assert place_pending(cluster) == [(first, "a-n000")]
    assert cluster.pods[second] is None


_QUANTA = st.tuples(st.integers(1, 1500), st.integers(1, 2048))


@st.composite
def _loaded_cluster(draw):
    """A cluster of one quantum whose nodes already hold random pod counts."""
    quantum = draw(_QUANTA)
    cpus = draw(st.lists(st.integers(quantum[0], 6000), min_size=1, max_size=6))
    memory = draw(st.integers(quantum[1], 8192))
    cluster = make_cluster("a", cpus, memory=memory, quantum=quantum)
    for node in hosted_nodes(cluster):
        fits = min(node.capacity.cpu // quantum[0], node.capacity.memory // quantum[1])
        for i in range(draw(st.integers(0, min(fits, 12)))):
            # Ticks of mixed width: id-string order is not creation order.
            add_pods(cluster, 1, node.id, tick=_mixed_tick(len(cluster.batches)))
    return cluster


def _mixed_tick(n: int) -> int:
    """The n-th of distinct ticks that straddle 100,000, where a tick's id
    grows a digit: "p100000" sorts before "p99999"."""
    return 99_991 + n * 37 % 101 if n % 2 else 99_990 - n


def _free_slots(cluster, nodes):
    """Each node's capacity less its pods' quanta, as ffd_oracle's slots."""
    quantum, counts = cluster.quantum, load_from_pods(cluster)[0]
    return [
        (n.id, n.capacity.cpu - counts.get(n.id, 0) * quantum.cpu,
         n.capacity.memory - counts.get(n.id, 0) * quantum.memory)
        for n in nodes
    ]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_loaded_cluster(), st.integers(0, 40))
def test_matches_reference_ffd_on_random_inputs(cluster, count):
    held = len(cluster.batches)
    pods = [add_pods(cluster, 1, tick=_mixed_tick(held + i))[0] for i in range(count)]
    quantum = cluster.quantum
    expected_placed, expected_unplaced = ffd_oracle(
        [(pod_id, quantum.cpu, quantum.memory) for pod_id in pods],
        _free_slots(cluster, hosted_nodes(cluster)),
    )
    assert place_pending(cluster) == list(expected_placed.items())
    assert cluster.pending == set(expected_unplaced)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_loaded_cluster(), st.data())
def test_drain_plan_matches_reference_ffd(cluster, data):
    actives = hosted_nodes(cluster)
    target = data.draw(st.sampled_from([n.id for n in actives]))
    victims = [pod_id for pod_id, node_id in cluster.pods.items() if node_id == target]
    quantum = cluster.quantum
    expected_placed, expected_unplaced = ffd_oracle(
        [(pod_id, quantum.cpu, quantum.memory) for pod_id in victims],
        _free_slots(cluster, [n for n in actives if n.id != target]),
    )
    outcome = drain_node(cluster, target, force=True)
    assert outcome.relocated == tuple(expected_placed.items())
    assert outcome.pending == tuple(sorted(expected_unplaced))
    assert cluster.pending == set(expected_unplaced)


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
    cluster = make_cluster("a", [4000, 4000], quantum=(500, 640))
    fill(cluster, "a-n001", 3500)  # leaves exactly one pod's room on the sibling
    victim = run_pod(cluster, "a-n000")
    outcome = drain_node(cluster, "a-n000")
    assert outcome.relocated == ((victim, "a-n001"),)
    assert cluster.pods[victim] == "a-n001"
    assert node_demand(cluster, "a-n001").cpu == 4000


def test_infeasible_drain_restores_cluster_exactly():
    cluster = make_cluster("a", [4000, 4000], quantum=(1000, 640))
    fill(cluster, "a-n001", 3000)
    run_pod(cluster, "a-n000")
    run_pod(cluster, "a-n000")  # the sibling has room for one only
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


def test_drain_started_counts_the_pods_of_the_drained_node():
    cluster = make_cluster("a", [4000, 4000, 4000], quantum=(1000, 640))
    fill(cluster, "a-n001", 3000)
    pending_pod(cluster)
    run_pod(cluster, "a-n001")  # a-n001's four pods lie in two runs and two batches
    fill(cluster, "a-n002", 3000)
    recorder = EventRecorder()
    empty = cluster.nodes["a-n000"]
    pods = []

    def drain(node_id):
        pods.append(load_from_pods(cluster)[0].get(node_id, 0))
        return drain_node(cluster, node_id, recorder=recorder).restored

    assert not drain("a-n000")
    assert drain("a-n001")  # a-n002 has room for one of its four pods
    provision_node(cluster, empty)
    assert not drain("a-n002")
    started = [e for e in recorder.events if e.kind == EventKind.DRAIN_STARTED.value]
    assert [e.node for e in started] == ["a-n000", "a-n001", "a-n002"]
    assert [e.detail["pods"] for e in started] == pods == [0, 4, 3]


def test_drain_is_atomic_on_random_clusters():
    rng = random.Random(505)
    completed = restored = 0
    for _ in range(300):
        node_count = rng.randint(2, 5)
        cluster = make_cluster(
            "a",
            [rng.choice([1000, 2000, 4000]) for _ in range(node_count)],
            quantum=(rng.randrange(100, 1600, 100), 128),
        )
        for i in range(rng.randint(0, 20)):
            pending_pod(cluster)
        place_pending(cluster)
        target = rng.choice([n.id for n in hosted_nodes(cluster)])
        before = snapshot(cluster)
        outcome = drain_node(cluster, target)
        if outcome.restored:
            restored += 1
            assert cluster == before
        else:
            completed += 1
            assert target not in cluster.nodes
            assert set(cluster.nodes) == set(before.nodes) - {target}
            assert target not in cluster.pods.values()
            relocated = dict(outcome.relocated)
            for pod_id, new_node in relocated.items():
                assert before.pods[pod_id] == target
                assert cluster.pods[pod_id] == new_node
            for node in hosted_nodes(cluster):
                demand = node_demand(cluster, node.id)
                assert demand.cpu <= node.capacity.cpu and demand.memory <= node.capacity.memory
    assert completed > 50 and restored > 50  # both branches exercised


def test_forced_drain_parks_unplaceable_pods():
    cluster = make_cluster("a", [4000, 4000], quantum=(1000, 640))
    fill(cluster, "a-n001", 3000)  # room for one more pod
    [older] = add_pods(cluster, 1, "a-n000", tick=99_999)
    [newer] = add_pods(cluster, 1, "a-n000", tick=100_000)
    outcome = drain_node(cluster, "a-n000", force=True)
    assert not outcome.restored
    assert outcome.relocated == ((newer, "a-n001"),)  # the lower id goes first
    assert outcome.pending == (older,)
    assert cluster.pods[older] is None and cluster.pending == {older}
    assert "a-n000" not in cluster.nodes


def test_forced_drain_ignores_min_active_guard():
    cluster = make_cluster("a", [4000])
    pod_id = run_pod(cluster, "a-n000")
    outcome = drain_node(cluster, "a-n000", force=True)
    assert not outcome.restored
    assert hosted_nodes(cluster) == []
    assert cluster.pods[pod_id] is None


def test_last_node_guard():
    cluster = make_cluster("a", [4000])
    with pytest.raises(LastNodeGuard):
        drain_node(cluster, "a-n000")
    two = make_cluster("b", [4000, 4000])
    drain_node(two, "b-n000")
    message = "^draining 'b-n001' would leave cluster 'b' with no node$"
    with pytest.raises(LastNodeGuard, match=message):
        drain_node(two, "b-n001")
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
    cluster = make_cluster("a", [1000, 1500, 1000], quantum=(500, 256))
    pod_id = run_pod(cluster, "a-n000")
    fill(cluster, "a-n001", 1500)
    run_pod(cluster, "a-n002")
    node, kept = cluster.nodes["a-n000"], cluster.nodes["a-n001"]
    # a-n001's three pods find room for two on its siblings, so the drain
    # aborts and its node stays hosted.
    assert drain_node(cluster, "a-n001").restored
    assert cluster.nodes["a-n001"] is kept
    assert load_from_pods(cluster)[0]["a-n001"] == 3

    recorder = EventRecorder()
    outcome = drain_node(cluster, "a-n000", force=force, recorder=recorder)
    assert not outcome.restored and outcome.pending == ()
    assert sorted(cluster.nodes) == ["a-n001", "a-n002"]
    assert "a-n000" not in load_from_pods(cluster)[0]
    assert node.origin_cluster == "a"
    assert cluster.pods[pod_id] == "a-n002"
    assert [(e.kind, e.cluster, e.node) for e in recorder.events] == [
        (EventKind.DRAIN_STARTED.value, "a", "a-n000"),
        (EventKind.NODE_DEPROVISIONED.value, "a", "a-n000"),
    ]


def test_drain_is_deterministic():
    rng = random.Random(606)
    for _ in range(30):
        quantum = (rng.randrange(100, 900, 100), 128)
        cluster = make_cluster("a", [2000, 2000, 2000], quantum=quantum)
        for i in range(rng.randint(0, 15)):
            pending_pod(cluster)
        place_pending(cluster)
        twin = snapshot(cluster)
        assert drain_node(cluster, "a-n000") == drain_node(twin, "a-n000")
        assert cluster == twin
