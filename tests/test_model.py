import copy
import pickle
import random

import pytest

from nodebalancer import (
    Node,
    RebalanceEvent,
    ResourceVector,
    SineTrace,
    StepTrace,
    Thresholds,
    TickRecord,
    Utilization,
    build_cluster,
    cluster_utilization,
    drain_node,
    node_utilization,
    place_pending,
)
from nodebalancer.errors import InvalidThresholds, NodeNotInCluster, ZeroCapacity
from nodebalancer.model import NO_PODS, PodIds, node_demand

from helpers import (
    move,
    assert_load_matches_pods,
    hosted_nodes,
    load_from_pods,
    make_cluster,
    pending_pod,
    random_world,
    randomize_load,
    run_pod,
    rv,
)


def test_resource_vector_arithmetic():
    # A vector is a plain value, equal and hashed componentwise. It has no
    # operators: callers add and compare its components themselves.
    a = ResourceVector(300, 512)
    assert a == ResourceVector(300, 512) and hash(a) == hash(ResourceVector(300, 512))
    assert a != ResourceVector(512, 300)
    with pytest.raises(TypeError):
        a + ResourceVector(100, 128)
    with pytest.raises(TypeError):
        a - ResourceVector(100, 128)
    assert not hasattr(a, "fits_within")


def test_resource_vector_rejects_negative_components():
    with pytest.raises(ValueError):
        ResourceVector(-1, 0)
    with pytest.raises(ValueError):
        ResourceVector(100, -128)


def test_a_vector_is_a_read_only_value_and_a_node_is_not():
    a = ResourceVector(300, 512)
    for change in (lambda: setattr(a, "cpu", 1), lambda: delattr(a, "memory")):
        with pytest.raises(AttributeError):
            change()
    with pytest.raises(TypeError):
        a < ResourceVector(400, 512)
    assert repr(a) == "ResourceVector(cpu=300, memory=512)"  # the audit prints it
    node = Node(id="n", capacity=a, origin_cluster="c")
    node.capacity = ResourceVector(100, 128)
    assert node == Node(id="n", capacity=ResourceVector(100, 128), origin_cluster="c")
    with pytest.raises(TypeError):
        hash(node)


@pytest.mark.parametrize(
    "record, change, error",
    [
        (Thresholds(0.3, 0.8), {"t_low": 0.9},
         r"^t_low must be strictly less than t_high, got \(0\.9, 0\.8\)$"),
        (StepTrace(((0, 100),)), {"steps": ((5, 100),)},
         "^steps must be non-empty and start at tick 0$"),
        (SineTrace(400, 200, 10), {"period": 0}, "^period must be >= 1, got 0$"),
    ],
    ids=["thresholds", "step", "sine"],
)
def test_a_copy_made_with_replace_is_checked_too(record, change, error):
    with pytest.raises((InvalidThresholds, ValueError), match=error):
        record._replace(**change)
    assert type(record._replace()) is type(record) and record._replace() == record


def test_node_capacity_must_be_positive():
    with pytest.raises(ValueError):
        Node(id="n", capacity=ResourceVector(0, 128), origin_cluster="c")
    with pytest.raises(ValueError):
        Node(id="n", capacity=ResourceVector(100, 0), origin_cluster="c")


def test_build_cluster_records_original_configuration():
    cluster = build_cluster("a", 3, ResourceVector(4000, 8192))
    assert sorted(cluster.nodes) == ["a-n000", "a-n001", "a-n002"]
    assert cluster.original_node_ids == frozenset(cluster.nodes)
    assert load_from_pods(cluster) == ({}, set())
    assert all(n.origin_cluster == "a" for n in cluster.nodes.values())


def test_empty_cluster_utilization_is_zero():
    cluster = build_cluster("a", 2, ResourceVector(4000, 8192))
    assert cluster_utilization(cluster) == Utilization(0.0, 0.0, 0.0)


def test_utilization_simple_ratio():
    cluster = make_cluster("a", [1000], memory=1000, quantum=(500, 250))
    run_pod(cluster, "a-n000")
    util = cluster_utilization(cluster)
    assert util.u_cpu == pytest.approx(0.5, abs=1e-9)
    assert util.u_mem == pytest.approx(0.25, abs=1e-9)
    assert util.u == pytest.approx(0.5, abs=1e-9)


def test_utilization_is_max_of_dimensions():
    cluster = make_cluster("a", [1000], memory=1000, quantum=(300, 600))
    run_pod(cluster, "a-n000")
    util = cluster_utilization(cluster)
    assert util.u == pytest.approx(0.6, abs=1e-9)
    assert util.u == util.u_mem


def test_utilization_sums_across_nodes():
    # 70 pods of 100m over three 4000m nodes; checked against raw sums.
    cluster = make_cluster("a", [4000, 4000, 4000], quantum=(100, 96))
    for i in range(70):
        run_pod(cluster, f"a-n{i % 3:03d}")
    total_cpu = 100 * len(cluster.pods)
    total_mem = 96 * len(cluster.pods)
    cap_cpu = sum(n.capacity.cpu for n in cluster.nodes.values())
    cap_mem = sum(n.capacity.memory for n in cluster.nodes.values())
    util = cluster_utilization(cluster)
    assert util.u_cpu == pytest.approx(total_cpu / cap_cpu, abs=1e-9)
    assert util.u_mem == pytest.approx(total_mem / cap_mem, abs=1e-9)
    assert util.u == pytest.approx(7000 / 12000, abs=1e-9)


def test_pending_pods_do_not_count_as_demand():
    cluster = make_cluster("a", [1000], memory=100000, quantum=(500, 640))
    run_pod(cluster, "a-n000")
    waiting = {pending_pod(cluster), pending_pod(cluster)}
    assert cluster_utilization(cluster).u == pytest.approx(0.5, abs=1e-9)
    assert cluster.pending == waiting == {"a-p00001-0000", "a-p00002-0000"}
    assert node_demand(cluster, "a-n000").cpu == 500
    assert load_from_pods(cluster)[0] == {"a-n000": 1}


def test_only_active_nodes_provide_capacity():
    cluster = make_cluster("a", [1000, 1000], memory=4096, quantum=(500, 640))
    run_pod(cluster, "a-n000")
    assert cluster_utilization(cluster).u_cpu == pytest.approx(0.25, abs=1e-9)
    del cluster.nodes["a-n001"]  # a node leaves with its capacity
    assert cluster_utilization(cluster).u_cpu == pytest.approx(0.5, abs=1e-9)


def test_zero_capacity_is_an_error():
    cluster = make_cluster("a", [1000])
    del cluster.nodes["a-n000"]
    with pytest.raises(ZeroCapacity, match="^cluster 'a' hosts no node$"):
        cluster_utilization(cluster)


def test_node_utilization_value_and_errors():
    cluster = make_cluster("a", [1000, 1000], memory=1000, quantum=(300, 600))
    run_pod(cluster, "a-n000")
    node = cluster.nodes["a-n000"]
    assert node_utilization(node, cluster) == pytest.approx(0.6, abs=1e-9)

    other = make_cluster("b", [1000])
    with pytest.raises(NodeNotInCluster):
        node_utilization(other.nodes["b-n000"], cluster)


def test_node_and_free_accounting():
    cluster = make_cluster("a", [1000], memory=1000, quantum=(200, 150))
    run_pod(cluster, "a-n000")
    run_pod(cluster, "a-n000")
    demand = node_demand(cluster, "a-n000")
    assert demand == ResourceVector(400, 300)
    assert load_from_pods(cluster)[0] == {"a-n000": 2}
    assert cluster_utilization(cluster) == Utilization(0.4, 0.3, 0.4)
    capacity = cluster.nodes["a-n000"].capacity
    assert (capacity.cpu - demand.cpu, capacity.memory - demand.memory) == (600, 700)


def test_scale_consistency():
    # Scaling capacity and demand by the same factor leaves u unchanged.
    rng = random.Random(101)
    for _ in range(50):
        cpu = rng.randrange(100, 2000, 100)
        mem = rng.randrange(128, 4096, 128)
        base = make_cluster("a", [2000], memory=4096, quantum=(cpu, mem))
        run_pod(base, "a-n000")
        base_u = cluster_utilization(base)
        for k in (2, 3, 7):
            scaled = make_cluster("b", [2000] * k, memory=4096, quantum=(cpu, mem))
            for i in range(k):
                run_pod(scaled, f"b-n{i:03d}")
            scaled_u = cluster_utilization(scaled)
            assert scaled_u.u == pytest.approx(base_u.u, abs=1e-9)
            assert scaled_u.u_cpu == pytest.approx(base_u.u_cpu, abs=1e-9)
            assert scaled_u.u_mem == pytest.approx(base_u.u_mem, abs=1e-9)


def test_losing_an_idle_node_raises_utilization():
    rng = random.Random(202)
    for _ in range(50):
        nodes = rng.randint(2, 5)
        quantum = (rng.randrange(100, 2000, 100), 128)
        cluster = make_cluster("a", [2000] * nodes, memory=4096, quantum=quantum)
        run_pod(cluster, "a-n000")
        before = cluster_utilization(cluster).u
        del cluster.nodes[f"a-n{nodes - 1:03d}"]  # capacity shrinks, demand fixed
        assert cluster_utilization(cluster).u > before


def test_node_utilization_never_exceeds_one_for_scheduled_pods():
    rng = random.Random(303)
    for _ in range(30):
        cluster = make_cluster(
            "a",
            [rng.choice([1000, 2000, 4000]) for _ in range(3)],
            quantum=(rng.randrange(100, 1200, 100), 128),
        )
        for i in range(rng.randint(0, 40)):
            pending_pod(cluster)
        place_pending(cluster)
        for node in hosted_nodes(cluster):
            assert node_utilization(node, cluster) <= 1.0 + 1e-12


def test_ledger_matches_a_recompute_from_the_pods():
    rng = random.Random(505)
    saw_pending = False
    for trial in range(100):
        manager, _ = random_world(rng)
        for cluster in manager.clusters.values():
            for tick in (0, 1):  # the second load both creates and deletes pods
                randomize_load(rng, cluster, tick)
            assert_load_matches_pods(cluster)
            counts, pending = load_from_pods(cluster)
            quantum = cluster.quantum
            for node_id in cluster.nodes:
                count = counts.get(node_id, 0)
                demand = rv(count * quantum.cpu, count * quantum.memory)
                assert node_demand(cluster, node_id) == demand
            assert set(counts) <= set(cluster.nodes)
            saw_pending = saw_pending or bool(pending)
    assert saw_pending


def test_pods_are_a_read_only_view():
    cluster = make_cluster("a", [1000])
    pod_id = pending_pod(cluster)
    with pytest.raises(TypeError):
        cluster.pods["x"] = None
    with pytest.raises(TypeError):
        del cluster.pods[pod_id]
    with pytest.raises(TypeError):
        cluster.runs[0] = (1, "a-n000")
    with pytest.raises(AttributeError):
        cluster.batches = ()
    assert dict(cluster.pods) == {pod_id: None}
    assert_load_matches_pods(cluster)


def test_mutation_api_keeps_the_ledger():
    cluster = make_cluster("a", [1000, 1000], memory=1000, quantum=(300, 200))
    created, deleted = cluster.resize(2, 7)
    assert created == ["a-p00007-0000", "a-p00007-0001"] and deleted == []
    assert cluster.runs == ((2, None),) and cluster.batches == ((7, 2),)
    cluster.rebind(move(0, 1, 1, "a-n001"), move(0, 0, 1, "a-n000"))
    assert cluster.runs == ((1, "a-n000"), (1, "a-n001"))
    cluster.rebind(move(0, 0, 1, "a-n001"))  # a drain's move: Running to Running
    assert cluster.runs == ((2, "a-n001"),)  # adjacent runs on one node merge
    assert load_from_pods(cluster)[0] == {"a-n001": 2}
    cluster.rebind(move(0, 1, 1, None))  # back to Pending
    assert cluster.pending == {"a-p00007-0001"}
    # A top-up at a tick whose batch the cluster holds would reuse its ids.
    with pytest.raises(ValueError, match="cluster 'a' already holds pods created at tick 7"):
        cluster.resize(5, 7)
    assert cluster.runs == ((1, "a-n001"), (1, None)) and cluster.batches == ((7, 2),)
    assert_load_matches_pods(cluster)
    cluster.resize(4, 8)
    assert list(cluster.pods) == [  # creation order
        "a-p00007-0000", "a-p00007-0001", "a-p00008-0000", "a-p00008-0001"]
    assert cluster.runs == ((1, "a-n001"), (3, None))
    created, deleted = cluster.resize(0, 9)
    assert created == [] and len(deleted) == 4
    assert deleted == ["a-p00008-0001", "a-p00008-0000", "a-p00007-0001", "a-p00007-0000"]
    assert not cluster.pods and cluster.runs == () and cluster.batches == ()
    assert load_from_pods(cluster) == ({}, set())
    cluster.resize(1, 7)  # the tick's batch is gone, so its ids are free again
    assert list(cluster.pods) == ["a-p00007-0000"]
    cluster.resize(2, 3)  # ticks need not rise: a library caller picks them
    with pytest.raises(ValueError, match="already holds pods created at tick 7"):
        cluster.resize(3, 7)
    assert cluster.batches == ((7, 1), (3, 1))


def test_a_negative_target_is_refused_before_any_change():
    cluster = make_cluster("a", [1000])
    cluster.resize(2, 0)
    with pytest.raises(ValueError, match="^cluster 'a': target must be >= 0, got -1$"):
        cluster.resize(-1, 1)
    assert cluster.runs == ((2, None),) and cluster.batches == ((0, 2),)


def test_pod_ids_format_only_what_is_read():
    ids = PodIds([("a", 7, range(2), None), ("a", 100_000, range(1, -1, -1), "a-n000")])
    assert len(ids) == 4 and len(NO_PODS) == 0
    assert ids[0] == "a-p00007-0000" and ids[-1] == ("a-p100000-0000", "a-n000")
    assert list(ids) == [
        "a-p00007-0000", "a-p00007-0001",
        ("a-p100000-0001", "a-n000"), ("a-p100000-0000", "a-n000"),
    ]
    assert ids == tuple(ids) and ids == list(ids) and ids != list(ids)[1:]
    assert list(reversed(ids)) == list(ids)[::-1] and ids.index("a-p00007-0001") == 1
    with pytest.raises(IndexError):
        ids[4]
    with pytest.raises(IndexError):
        ids[-5]


def _loads(cluster):
    return dict(cluster.pods), set(cluster.pending), cluster.runs, cluster.counts()


@pytest.mark.parametrize(
    "moves",
    [
        [move(0, 0, 1, "a-n001"), move(1, 0, 1, "b-n000")],
        [move(1, 0, 1, "a-n001"), move(0, 0, 1, "b-n000")],
    ],
    ids=["bind-pending", "bind-running"],
)
def test_an_unhosted_node_is_refused_before_any_change(moves):
    cluster = make_cluster("a", [1000, 1000])
    running = run_pod(cluster, "a-n000")
    waiting = pending_pod(cluster)
    before = _loads(cluster)
    with pytest.raises(KeyError, match="cluster 'a' does not host a node 'b-n000'"):
        cluster.rebind(*moves)
    assert _loads(cluster) == before
    assert dict(cluster.pods) == {running: "a-n000", waiting: None}
    assert_load_matches_pods(cluster)


def _mixed_cluster():
    """Two nodes with a Running pod each, one Pending pod that fits neither."""
    cluster = make_cluster("a", [1000, 1000], quantum=(600, 128))
    run_pod(cluster, "a-n000")
    run_pod(cluster, "a-n001")
    pending_pod(cluster)
    return cluster


R0, R1, WAIT = "a-p00000-0000", "a-p00001-0000", "a-p00002-0000"


@pytest.mark.parametrize(
    "clone",
    [copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["deepcopy", "pickle"],
)
def test_slotted_records_survive_deepcopy_and_pickle(clone):
    cluster = _mixed_cluster()
    twin = clone(cluster)
    assert dict(twin.pods) == {R0: "a-n000", R1: "a-n001", WAIT: None}
    assert twin.quantum == cluster.quantum
    assert_load_matches_pods(twin)
    assert twin.pending == cluster.pending and twin.nodes == cluster.nodes
    # The twin's pods and nodes are its own, not the originals.
    twin.rebind(move(0, 0, 1, None))
    assert cluster.pods[R0] == "a-n000" and cluster.pending == {WAIT}
    assert load_from_pods(twin)[0] == {"a-n001": 1}
    assert load_from_pods(cluster)[0] == {"a-n000": 1, "a-n001": 1}
    with pytest.raises(AttributeError):
        twin.nodes["a-n000"].note = "slotted records take no new attributes"
    records = (
        cluster_utilization(cluster),
        TickRecord(1, "a", 0.45, 0.45, 0.45, 2, 1, 1500, 1920),
        RebalanceEvent(1, 0, "DrainStarted", cluster="a", node="a-n000", detail={"pods": 1}),
    )
    assert clone(records) == records


def test_pod_state_follows_bind_unbind_and_forced_drains():
    cluster = _mixed_cluster()
    cluster.rebind(move(1, 0, 1, None))  # unbind R1
    assert dict(cluster.pods) == {R0: "a-n000", R1: None, WAIT: None}
    assert cluster.runs == ((1, "a-n000"), (2, None))
    cluster.rebind(move(1, 0, 1, "a-n001"))  # bind it again: the run splits
    assert dict(cluster.pods) == {R0: "a-n000", R1: "a-n001", WAIT: None}
    assert cluster.runs == ((1, "a-n000"), (1, "a-n001"), (1, None))
    # a-n001 has no room for a second 600m pod, so R0 waits.
    drain = drain_node(cluster, "a-n000", force=True)
    assert drain.pending == (R0,)
    assert dict(cluster.pods) == {R0: None, R1: "a-n001", WAIT: None}
    assert cluster.pending == {R0, WAIT}
    assert_load_matches_pods(cluster)
