"""Core domain model: resources, nodes, clusters and their pods, balancing
groups, and the utilization calculator that drives every balancing decision.

Utilization is demand-based. It is computed from what pods request, not
from measured usage, so results are exactly reproducible.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

from .errors import InvalidThresholds, NodeNotInCluster, ZeroCapacity


# Not slots=True: a frozen dataclass with slots raises TypeError, not
# AttributeError, when a new attribute is stored (its generated __setattr__
# calls super() on the class that slots=True replaced), on Python 3.10-3.13.
@dataclass(frozen=True)
class ResourceVector:
    """A (cpu millicores, memory MiB) pair."""

    cpu: int = 0
    memory: int = 0

    def __post_init__(self):
        # Valid states never hold negative resources; catching it here turns
        # accounting bugs into immediate failures instead of silent corruption.
        if self.cpu < 0 or self.memory < 0:
            raise ValueError(f"resource components must be non-negative, got {self!r}")


DEFAULT_POD_QUANTUM = ResourceVector(cpu=100, memory=128)


@dataclass(slots=True)
class Node:
    """A capacity-bearing unit.

    origin_cluster is fixed when the node is first provisioned and never
    changes afterwards; it is what makes a cluster's original configuration
    restorable after nodes have been loaned around a group. A node is active
    exactly while a cluster's nodes dict holds it; between the drain that
    detaches it and provision_node, only the caller moving it does.
    pod_count is the number of Running pods on the node, written only by
    Cluster._charge; each demands its cluster's quantum. A node leaves its
    cluster drained, so it travels with 0.
    """

    id: str
    capacity: ResourceVector
    origin_cluster: str
    pod_count: int = field(default=0, init=False)

    def __post_init__(self):
        if self.capacity.cpu <= 0 or self.capacity.memory <= 0:
            raise ValueError(f"node {self.id!r}: capacity must be strictly positive")


@dataclass
class Cluster:
    """A set of nodes and the pods running (or waiting to run) on them.

    Every pod demands the cluster's fixed quantum, so a pod is only its id
    and its node. pods maps each pod id, in creation order, to its node id,
    or None while the pod is Pending; it is a read-only view. Pods change
    only through add_pods, pop_newest, bind and unbind, which keep each
    node's pod_count and the pending set in step. bind raises KeyError,
    changing nothing, for a node the cluster does not host, so no pod is
    counted on a node outside it.
    """

    id: str
    nodes: dict[str, Node] = field(default_factory=dict)
    original_node_ids: frozenset[str] = frozenset()
    quantum: ResourceVector = DEFAULT_POD_QUANTUM
    _pods: dict[str, str | None] = field(default_factory=dict, init=False)
    pending: set[str] = field(default_factory=set, init=False, repr=False)  # pod ids

    @property
    def pods(self) -> Mapping[str, str | None]:
        """Pod id -> node id or None, in creation order; a store raises TypeError."""
        # A property, not a proxy attribute: copy.deepcopy cannot copy a proxy.
        return MappingProxyType(self._pods)

    def add_pods(self, pod_ids: Sequence[str]) -> None:
        """Append new Pending pods, in the given order.

        Raises ValueError, changing nothing, if the cluster already holds a
        pod under one of the ids.
        """
        held = self._pods.keys() & pod_ids
        if held:
            raise ValueError(f"cluster {self.id!r} already holds a pod {min(held)!r}")
        self._pods.update(dict.fromkeys(pod_ids))
        self.pending.update(pod_ids)

    def pop_newest(self) -> str:
        """Delete the most recently added pod, Running or Pending; return its id."""
        pod_id, node_id = self._pods.popitem()
        if node_id is None:
            self.pending.remove(pod_id)
        else:
            self._charge(node_id, -1)
        return pod_id

    def bind(self, pod_id: str, node_id: str) -> None:
        """Run a pod on a node.

        A Pending pod starts Running there; a Running pod moves there from its
        current node, as a drain's relocation does.
        """
        current = self._pods[pod_id]
        self._charge(node_id, 1)  # first, so an unhosted node changes nothing
        if current is None:
            self.pending.remove(pod_id)
        else:
            self._charge(current, -1)
        self._pods[pod_id] = node_id

    def unbind(self, pod_id: str) -> None:
        """Take a Running pod off its node; it waits Pending for placement."""
        current = self._pods[pod_id]
        if current is None:
            raise ValueError(f"pod {pod_id!r} is not bound to a node")
        self._charge(current, -1)
        self.pending.add(pod_id)
        self._pods[pod_id] = None

    def _charge(self, node_id: str, sign: int) -> None:
        """Add (sign 1) or remove (sign -1) one pod on the node.

        Raises KeyError, changing nothing, if the cluster does not host it.
        """
        node = self.nodes.get(node_id)
        if node is None:
            raise KeyError(f"cluster {self.id!r} does not host a node {node_id!r}")
        node.pod_count += sign

    def active_nodes(self) -> list[Node]:
        """Hosted nodes in ascending id order (the scheduler's scan order)."""
        return [n for _, n in sorted(self.nodes.items())]


def build_cluster(
    cluster_id: str,
    node_count: int,
    node_capacity: ResourceVector,
    quantum: ResourceVector = DEFAULT_POD_QUANTUM,
) -> Cluster:
    """Provision a fresh cluster of identical nodes whose pods each demand quantum.

    The resulting node-id set is recorded as the cluster's original
    configuration, the target state for restoration on group exit. Raises
    ValueError for a node_count below 1.
    """
    if node_count < 1:
        raise ValueError(f"cluster {cluster_id!r}: node_count must be >= 1")
    nodes = {}
    for i in range(node_count):
        node_id = f"{cluster_id}-n{i:03d}"
        nodes[node_id] = Node(id=node_id, capacity=node_capacity, origin_cluster=cluster_id)
    return Cluster(
        id=cluster_id,
        nodes=nodes,
        original_node_ids=frozenset(nodes),
        quantum=quantum,
    )


@dataclass(frozen=True)
class Thresholds:
    """User-chosen utilization bounds steering the balancer.

    Clusters above t_high ask for capacity; clusters below t_low may give
    some up. Construction enforces 0 < t_low < t_high <= 1, raising
    InvalidThresholds that names the violated relation.
    """

    t_low: float
    t_high: float

    def __post_init__(self):
        if not 0 < self.t_low < 1:
            raise InvalidThresholds(f"t_low must be in (0, 1), got {self.t_low}")
        if not 0 < self.t_high <= 1:
            raise InvalidThresholds(f"t_high must be in (0, 1], got {self.t_high}")
        if not self.t_low < self.t_high:
            raise InvalidThresholds(
                f"t_low must be strictly less than t_high, got ({self.t_low}, {self.t_high})"
            )


@dataclass
class Group:
    """Clusters pooled for node sharing, plus the policy knobs for the pool."""

    id: str
    members: list[str] = field(default_factory=list)
    thresholds: Thresholds = Thresholds(0.3, 0.8)
    balance_interval: int = 1


class Utilization(NamedTuple):
    """Per-dimension load ratios and their max, the headline number.

    An immutable tuple, like the artifact records in reporting.py.
    """

    u_cpu: float
    u_mem: float
    u: float


def node_demand(cluster: Cluster, node_id: str) -> ResourceVector:
    """Requested demand of the Running pods on a node the cluster hosts."""
    count, quantum = cluster.nodes[node_id].pod_count, cluster.quantum
    return ResourceVector(count * quantum.cpu, count * quantum.memory)


def cluster_utilization(cluster: Cluster) -> Utilization:
    """Demand over capacity across the hosted nodes, per dimension and combined.

    Demand counts the Running pods; Pending pods are excluded: they consume
    nothing yet. Raises ZeroCapacity when the cluster hosts no node, since
    the ratio is undefined.
    """
    count = capacity_cpu = capacity_memory = 0
    for node in cluster.nodes.values():
        capacity = node.capacity
        count += node.pod_count
        capacity_cpu += capacity.cpu
        capacity_memory += capacity.memory
    if not capacity_cpu:  # capacities are strictly positive
        raise ZeroCapacity(f"cluster {cluster.id!r} hosts no node")
    quantum = cluster.quantum
    u_cpu = count * quantum.cpu / capacity_cpu
    u_mem = count * quantum.memory / capacity_memory
    return Utilization(u_cpu, u_mem, max(u_cpu, u_mem))


def node_load(node: Node, quantum: ResourceVector) -> float:
    """Max of the cpu and memory load ratios of the node's pods, each of quantum.

    The one formula behind node_utilization and the balancer's donor-node
    ranking; it builds no ResourceVector.
    """
    count, capacity = node.pod_count, node.capacity
    return max(count * quantum.cpu / capacity.cpu, count * quantum.memory / capacity.memory)


def node_utilization(node: Node, cluster: Cluster) -> float:
    """Max of the node's cpu and memory load ratios."""
    if cluster.nodes.get(node.id) is not node:
        raise NodeNotInCluster(f"node {node.id!r} is not hosted by cluster {cluster.id!r}")
    return node_load(node, cluster.quantum)
