"""Builders and independent reference implementations shared by the tests.

The reference functions (ffd_oracle, raw utilization sums) are written from
the documented behaviour, not from the package internals, so they can catch
the package drifting from its own contract. reference_iter_metrics is the
metrics reader the package's batched one replaced, reference_check_events a
per-event checker over decoded events, which report's own event pass (an
envelope match per line) must agree with, and ReferenceColumn the per-pod
column that a cluster's runs of pods replaced, kept to compare against.
"""

from __future__ import annotations

import copy
import random
import re
from collections import Counter

from nodebalancer import (
    Cluster,
    ConstantTrace,
    GroupManager,
    Node,
    ResourceVector,
    Thresholds,
    apply_workload,
    build_cluster,
    place_pending,
)
from nodebalancer.errors import IoFailure
from nodebalancer.model import PodIds
from nodebalancer.reporting import METRICS_HEADER, TickRecord, _bad_cell, _METRICS_CELLS


# JSON that json.loads refuses with RecursionError or ValueError rather than
# JSONDecodeError: nesting deeper than the recursion limit, and an integer
# longer than the int-to-str digit limit.
TOO_DEEP_JSON = "[" * 100_000
OVER_LONG_INT_JSON = '{"tick":' + "1" * 5000 + "}"


# One metrics row without its line end, by the package's cell grammars.
_IS_REFERENCE_ROW = re.compile(",".join(grammar for _, grammar, _ in _METRICS_CELLS)).fullmatch


def reference_iter_metrics(path):
    """Reference for iter_metrics: the reader that checks, splits and
    converts metrics.csv one line at a time, skipping blank lines, and names
    the first malformed line with the package's own messages."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            header_seen = False
            for lineno, line in enumerate(handle, start=1):
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                if not header_seen:
                    if line != METRICS_HEADER:
                        raise IoFailure(f"{path}: unexpected header {line!r}")
                    header_seen = True
                    continue
                if not _IS_REFERENCE_ROW(line):
                    raise IoFailure(f"{path}:{lineno}: {_bad_cell(line)}")
                tick, cluster_id, u_cpu, u_mem, u, active, pending, cpu, memory = line.split(",")
                yield TickRecord(int(tick), cluster_id, float(u_cpu), float(u_mem), float(u),
                                 int(active), int(pending), int(cpu), int(memory))
            if not header_seen:
                raise IoFailure(f"{path}: empty metrics file")
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"cannot read metrics {path}: {exc}") from exc


def reference_check_events(events):
    """Reference for _check_events: one pass over events one at a time, giving
    the sequence and tick violations, then the causality ones, and the number
    of events per kind. report ran it over iter_events."""
    ordering, causality, counts = [], [], {}
    required = ("DrainStarted", "NodeDeprovisioned", "NodeProvisioned")
    seen = {}  # (tick, node) -> required kinds logged so far
    last_tick = None
    for position, (tick, sequence, kind, _, _, node, _) in enumerate(events):
        if sequence != position:
            ordering.append(
                f"sequence gap at position {position}: expected {position}, got {sequence}")
        if last_tick is not None and tick < last_tick:
            ordering.append(f"tick went backwards at sequence {sequence}: {last_tick} -> {tick}")
        last_tick = tick
        counts[kind] = counts.get(kind, 0) + 1
        if kind == "MoveCompleted":
            logged = seen.get((tick, node), ())
            causality.extend(
                f"MoveCompleted at sequence {sequence} for node {node!r}"
                f" lacks a same-tick {needed} before it"
                for needed in required if needed not in logged)
        elif kind in required:
            seen[(tick, node)] = seen.get((tick, node), ()) + (kind,)
    return ordering + causality, counts


def rv(cpu: int, memory: int | None = None) -> ResourceVector:
    """Resource pair; memory defaults to 128 MiB per 100 millicores."""
    if memory is None:
        memory = cpu * 128 // 100
    return ResourceVector(cpu, memory)


def make_cluster(cid, cpus, memory=8192, quantum=(100, 128)) -> Cluster:
    """Cluster with one node per entry of cpus, all with the same memory,
    whose pods each demand quantum (cpu, memory)."""
    nodes = {}
    for i, cpu in enumerate(cpus):
        nid = f"{cid}-n{i:03d}"
        nodes[nid] = Node(id=nid, capacity=ResourceVector(cpu, memory), origin_cluster=cid)
    return Cluster(
        id=cid,
        nodes=nodes,
        original_node_ids=frozenset(nodes),
        quantum=ResourceVector(*quantum),
    )


def add_pods(cluster, count, node_id=None, tick=None) -> list[str]:
    """Create count pods of the cluster's quantum in one batch at tick (by
    default one past the newest batch), Pending, or Running on node_id;
    returns their ids."""
    if tick is None:
        tick = max((t for t, _ in cluster.batches), default=-1) + 1
    total = sum(length for length, _ in cluster.runs)
    created, _ = cluster.resize(total + count, tick)
    if node_id is not None and count:
        length, _ = cluster.runs[-1]
        cluster.rebind(move(len(cluster.runs) - 1, length - count, count, node_id))
    return list(created)


def move(index, offset, count, node_id):
    """A Cluster.rebind plan of count pods from offset in run index to node_id."""
    return PodIds([(None, None, range(count), node_id, index, offset)])


def run_pod(cluster, node_id) -> str:
    """Add one pod of the cluster's quantum, Running on the node; returns its id."""
    return add_pods(cluster, 1, node_id)[0]


def pending_pod(cluster) -> str:
    """Add one Pending pod of the cluster's quantum; returns its id."""
    return add_pods(cluster, 1)[0]


def fill(cluster, node_id, total_cpu) -> list[str]:
    """Load one node with total_cpu of running demand in quantum-sized pods."""
    return add_pods(cluster, total_cpu // cluster.quantum.cpu, node_id)


def load_from_pods(cluster) -> tuple[dict, set]:
    """(counts, pending) recomputed from the cluster's pods: the number of
    Running pods on each node that has one, and the ids of the Pending pods."""
    counts, pending = {}, set()
    for pod_id, node_id in cluster.pods.items():
        if node_id is None:
            pending.add(pod_id)
        else:
            counts[node_id] = counts.get(node_id, 0) + 1
    return counts, pending


def assert_load_matches_pods(cluster):
    """The cluster's counts and pending equal their recompute from the pods,
    and the runs are merged: no empty run, no two adjacent runs on one node."""
    counts, pending = load_from_pods(cluster)
    assert counts.keys() <= cluster.nodes.keys()
    assert cluster.counts() == counts
    assert cluster.pending == pending
    runs = cluster.runs
    assert all(length > 0 for length, _ in runs)
    assert all(a[1] != b[1] for a, b in zip(runs, runs[1:]))
    assert all(count > 0 for _, count in cluster.batches)


class ReferenceColumn:
    """Reference for a cluster's pod column: the per-pod column that runs
    and batches replaced, with its own fill, placement and drain.

    pods maps each pod id, in creation order, to its node id or None, and
    pending holds the Pending ids; pod_count and capacity are per node id.
    It keeps no runs and sorts every id it places.
    """

    def __init__(self, cluster):
        self.id = cluster.id
        self.quantum = cluster.quantum
        self.capacity = {nid: node.capacity for nid, node in cluster.nodes.items()}
        self.pod_count = dict.fromkeys(self.capacity, 0)
        self.pods: dict = {}
        self.pending: set = set()

    def add_pods(self, pod_ids):
        held = self.pods.keys() & pod_ids
        if held:
            raise ValueError(f"cluster {self.id!r} already holds a pod {min(held)!r}")
        self.pods.update(dict.fromkeys(pod_ids))
        self.pending.update(pod_ids)

    def pop_newest(self):
        pod_id, node_id = self.pods.popitem()
        if node_id is None:
            self.pending.remove(pod_id)
        else:
            self.pod_count[node_id] -= 1
        return pod_id

    def bind(self, pod_id, node_id):
        current = self.pods[pod_id]
        self.pod_count[node_id] += 1
        if current is None:
            self.pending.remove(pod_id)
        else:
            self.pod_count[current] -= 1
        self.pods[pod_id] = node_id

    def unbind(self, pod_id):
        self.pod_count[self.pods[pod_id]] -= 1
        self.pending.add(pod_id)
        self.pods[pod_id] = None

    def resize(self, target, tick):
        """apply_workload's churn: (created, deleted) ids."""
        excess = len(self.pods) - target
        deleted = tuple(self.pop_newest() for _ in range(excess))
        created = ()
        if excess < 0:
            created = tuple(f"{self.id}-p{tick:05d}-{i:04d}" for i in range(-excess))
            self.add_pods(created)
        return created, deleted

    def _fill(self, pod_ids, node_ids):
        placements, placed = [], 0
        for node_id in node_ids:
            if placed == len(pod_ids):
                break
            capacity, quantum = self.capacity[node_id], self.quantum
            room = (min(capacity.cpu // quantum.cpu, capacity.memory // quantum.memory)
                    - self.pod_count[node_id])
            if room > 0:
                placements += [(pod_id, node_id) for pod_id in pod_ids[placed:placed + room]]
                placed = len(placements)
        return placements, pod_ids[placed:]

    def place_pending(self):
        placements, _ = self._fill(sorted(self.pending), sorted(self.pod_count))
        for pod_id, node_id in placements:
            self.bind(pod_id, node_id)
        return placements

    def drain_node(self, node_id, force=False):
        """(relocated, restored, pending) as DrainOutcome gives them; a
        completed drain detaches the node."""
        victims = sorted(pod_id for pod_id, host in self.pods.items() if host == node_id)
        siblings = sorted(nid for nid in self.pod_count if nid != node_id)
        placements, unplaced = self._fill(victims, siblings)
        if unplaced and not force:
            return (), True, ()
        for pod_id, target in placements:
            self.bind(pod_id, target)
        for pod_id in unplaced:
            self.unbind(pod_id)
        del self.pod_count[node_id], self.capacity[node_id]
        return tuple(placements), False, tuple(unplaced)

    def provision(self, node):
        self.capacity[node.id] = node.capacity
        self.pod_count[node.id] = 0


def hosted_nodes(cluster) -> list[Node]:
    """The nodes the cluster hosts, in ascending id order."""
    return [node for _, node in sorted(cluster.nodes.items())]


def snapshot(obj):
    return copy.deepcopy(obj)


def node_multiset(clusters) -> Counter:
    return Counter(nid for cluster in clusters.values() for nid in cluster.nodes)


def origin_map(clusters) -> dict:
    return {
        node.id: node.origin_cluster
        for cluster in clusters.values()
        for node in cluster.nodes.values()
    }


def ffd_oracle(pods, free_slots):
    """Reference first-fit-decreasing placement.

    pods: (id, cpu, mem) triples; free_slots: ordered (node, cpu, mem).
    Returns ({pod: node}, [unplaced ids]) per the documented policy: sort by
    descending cpu, then descending mem, then ascending id; scan slots in
    the given order; first fit wins.
    """
    order = sorted(pods, key=lambda p: (-p[1], -p[2], p[0]))
    slots = [[name, cpu, mem] for name, cpu, mem in free_slots]
    placed = {}
    unplaced = []
    for pid, cpu, mem in order:
        for slot in slots:
            if cpu <= slot[1] and mem <= slot[2]:
                slot[1] -= cpu
                slot[2] -= mem
                placed[pid] = slot[0]
                break
        else:
            unplaced.append(pid)
    return placed, unplaced


def random_world(rng: random.Random, n_clusters=None):
    """A manager with one group of random clusters, no load yet."""
    count = n_clusters if n_clusters is not None else rng.randint(2, 4)
    manager = GroupManager()
    t_low = round(rng.uniform(0.15, 0.45), 2)
    t_high = round(rng.uniform(t_low + 0.15, 1.0), 2)
    manager.create_group("g0", Thresholds(t_low, t_high), rng.randint(1, 3))
    for i in range(count):
        capacity = ResourceVector(rng.choice([2000, 3000, 4000]), rng.choice([4096, 8192]))
        manager.register_cluster(build_cluster(f"c{i}", rng.randint(1, 5), capacity))
        manager.add_cluster("g0", f"c{i}")
    return manager, manager.groups["g0"]


def randomize_load(rng: random.Random, cluster, tick):
    """Jump the cluster to a random demand level, scheduled normally."""
    capacity = sum(node.capacity.cpu for node in cluster.nodes.values())
    level = rng.randrange(0, capacity + capacity // 4 + 100, 100)
    apply_workload(cluster, ConstantTrace(level=level), tick)
    place_pending(cluster)


def random_scenario(rng: random.Random, min_ticks=8, max_ticks=18, membership=True) -> dict:
    """A JSON-shaped scenario document with random traces and thresholds."""
    count = rng.randint(2, 6)
    ticks = rng.randint(min_ticks, max_ticks)
    quantum_cpu = rng.choice([100, 200])

    clusters = []
    for i in range(count):
        cap_cpu = rng.choice([2000, 3000, 4000, 6000])
        node_count = rng.randint(1, 8)
        budget = min(node_count * cap_cpu + cap_cpu // 2, 45 * quantum_cpu)

        def level():
            return rng.randrange(0, budget + quantum_cpu, quantum_cpu)

        kind = rng.choice(["Constant", "Step", "Sine", "Spike"])
        if kind == "Constant":
            trace = {"kind": "Constant", "level": level()}
        elif kind == "Step":
            switches = sorted(rng.sample(range(1, ticks), rng.randint(1, 2)))
            trace = {
                "kind": "Step",
                "steps": [{"tick": 0, "level": level()}]
                + [{"tick": t, "level": level()} for t in switches],
            }
        elif kind == "Sine":
            base = level()
            trace = {
                "kind": "Sine",
                "base": base,
                "amplitude": rng.randrange(0, base + quantum_cpu, quantum_cpu),
                "period": rng.randint(4, 16),
                "phase": rng.randint(0, 8),
            }
        else:
            trace = {
                "kind": "Spike",
                "base": level() // 2 // quantum_cpu * quantum_cpu,
                "peak": budget,
                "start": rng.randint(0, max(1, ticks - 4)),
                "duration": rng.randint(1, 6),
            }
        if quantum_cpu != 100:
            trace["pod_quantum"] = {"cpu_millicores": quantum_cpu, "memory_mib": 256}
        clusters.append(
            {
                "id": f"c{i}",
                "node_count": node_count,
                "node_capacity": {
                    "cpu_millicores": cap_cpu,
                    "memory_mib": rng.choice([4096, 8192]),
                },
                "trace": trace,
            }
        )

    t_low = round(rng.uniform(0.15, 0.45), 2)
    t_high = round(rng.uniform(t_low + 0.15, 1.0), 2)
    doc = {
        "clusters": clusters,
        "groups": [
            {
                "id": "g0",
                "thresholds": {"t_low": t_low, "t_high": t_high},
                "balance_interval": rng.randint(1, 4),
                "members": [spec["id"] for spec in clusters],
            }
        ],
        "ticks": ticks,
        "seed": rng.getrandbits(64),
    }
    if membership and count >= 3 and rng.random() < 0.3:
        victim = rng.choice([spec["id"] for spec in clusters])
        leave = rng.randint(1, ticks // 2)
        changes = [{"tick": leave, "action": "Remove", "cluster": victim, "group": "g0"}]
        if leave + 1 < ticks and rng.random() < 0.5:
            changes.append(
                {
                    "tick": rng.randint(leave + 1, ticks - 1),
                    "action": "Add",
                    "cluster": victim,
                    "group": "g0",
                }
            )
        doc["membership_changes"] = changes
    return doc
