"""Core domain model: resources, nodes, pods, clusters, balancing groups,
and the utilization calculator that drives every balancing decision.

Utilization is demand-based. It is computed from what pods request, not
from measured usage, so results are exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import NodeNotActive, NodeNotInCluster, ZeroCapacity


@dataclass(frozen=True)
class ResourceVector:
    """A (cpu millicores, memory MiB) pair, combined and compared componentwise."""

    cpu: int = 0
    memory: int = 0

    def __post_init__(self):
        # Valid states never hold negative resources; catching it here turns
        # subtraction bugs into immediate failures instead of silent corruption.
        if self.cpu < 0 or self.memory < 0:
            raise ValueError(f"resource components must be non-negative, got {self!r}")

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpu + other.cpu, self.memory + other.memory)

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpu - other.cpu, self.memory - other.memory)

    def fits_within(self, other: "ResourceVector") -> bool:
        return self.cpu <= other.cpu and self.memory <= other.memory

    def scaled(self, factor: int) -> "ResourceVector":
        return ResourceVector(self.cpu * factor, self.memory * factor)


ZERO = ResourceVector(0, 0)


class NodeState(str, Enum):
    """Lifecycle of a node as it moves within and between clusters."""

    ACTIVE = "Active"  # hosting pods, counts toward capacity
    DRAINING = "Draining"  # being emptied; only exists mid-drain
    RESERVED = "Reserved"  # drained, idle, ready to deprovision
    IN_TRANSIT = "InTransit"  # removed from one cluster, not yet provisioned


class PodState(str, Enum):
    RUNNING = "Running"
    PENDING = "Pending"


@dataclass
class Node:
    """A capacity-bearing unit.

    origin_cluster is fixed when the node is first provisioned and never
    changes afterwards; it is what makes a cluster's original configuration
    restorable after nodes have been loaned around a group. host_cluster is
    None exactly while the node is InTransit.
    """

    id: str
    capacity: ResourceVector
    origin_cluster: str
    host_cluster: str | None
    state: NodeState = NodeState.ACTIVE

    def __post_init__(self):
        if self.capacity.cpu <= 0 or self.capacity.memory <= 0:
            raise ValueError(f"node {self.id!r}: capacity must be strictly positive")


@dataclass
class Pod:
    """A unit of workload with a fixed resource demand.

    assignment is the hosting node id while Running, None while Pending.
    """

    id: str
    demand: ResourceVector
    assignment: str | None = None
    state: PodState = PodState.PENDING


@dataclass
class Cluster:
    """A set of nodes and the pods running (or waiting to run) on them."""

    id: str
    nodes: dict[str, Node] = field(default_factory=dict)
    pods: dict[str, Pod] = field(default_factory=dict)
    original_node_ids: frozenset[str] = frozenset()
    group: str | None = None
    min_active_nodes: int = 1

    def active_nodes(self) -> list[Node]:
        """Active nodes in ascending id order (the scheduler's scan order)."""
        return [n for _, n in sorted(self.nodes.items()) if n.state is NodeState.ACTIVE]

    def pending_pods(self) -> list[Pod]:
        """Pending pods in pod-dict order; placement sorts them itself."""
        return [p for p in self.pods.values() if p.state is PodState.PENDING]

    def pods_on(self, node_id: str) -> list[Pod]:
        """Pods assigned to the node, in pod-dict order."""
        return [p for p in self.pods.values() if p.assignment == node_id]


def build_cluster(
    cluster_id: str,
    node_count: int,
    node_capacity: ResourceVector,
    min_active_nodes: int = 1,
) -> Cluster:
    """Provision a fresh cluster of identical nodes.

    The resulting node-id set is recorded as the cluster's original
    configuration, the target state for restoration on group exit.
    """
    if node_count < 1:
        raise ValueError(f"cluster {cluster_id!r}: node_count must be >= 1")
    nodes = {}
    for i in range(node_count):
        node_id = f"{cluster_id}-n{i:03d}"
        nodes[node_id] = Node(
            id=node_id,
            capacity=node_capacity,
            origin_cluster=cluster_id,
            host_cluster=cluster_id,
        )
    return Cluster(
        id=cluster_id,
        nodes=nodes,
        original_node_ids=frozenset(nodes),
        min_active_nodes=min_active_nodes,
    )


@dataclass(frozen=True)
class Thresholds:
    """User-chosen utilization bounds steering the balancer.

    Clusters above t_high ask for capacity; clusters below t_low may give
    some up. Validation lives in rules.validate_thresholds so that invalid
    pairs can still be constructed and reported on.
    """

    t_low: float
    t_high: float


@dataclass
class Group:
    """Clusters pooled for node sharing, plus the policy knobs for the pool."""

    id: str
    members: list[str] = field(default_factory=list)
    thresholds: Thresholds = Thresholds(0.3, 0.8)
    balance_interval: int = 1


@dataclass(frozen=True)
class Utilization:
    """Per-dimension load ratios and their max, the headline number."""

    u_cpu: float
    u_mem: float
    u: float


def demand_by_node(cluster: Cluster) -> dict[str | None, ResourceVector]:
    """Requested demand summed per pod assignment, in one pass over the pods.

    Keys are the ids of nodes hosting at least one pod; Pending pods are
    summed under None. Placement and drain plans read this map; cluster-wide
    totals sum the pods directly, the engine's audit sums per node in a pass
    of its own, and node_demand serves only victim selection.
    """
    sums: dict[str | None, list[int]] = {}
    for pod in cluster.pods.values():
        total = sums.setdefault(pod.assignment, [0, 0])
        total[0] += pod.demand.cpu
        total[1] += pod.demand.memory
    return {key: ResourceVector(cpu, memory) for key, (cpu, memory) in sums.items()}


def node_demand(cluster: Cluster, node_id: str) -> ResourceVector:
    cpu = memory = 0
    for pod in cluster.pods.values():
        if pod.assignment == node_id:
            cpu += pod.demand.cpu
            memory += pod.demand.memory
    # Empty nodes are common; ZERO spares them the costly vector construction.
    return ResourceVector(cpu, memory) if cpu or memory else ZERO


def cluster_utilization(cluster: Cluster) -> Utilization:
    """Demand over capacity across Active nodes, per dimension and combined.

    Pending pods are excluded: they consume nothing yet. Raises ZeroCapacity
    when no node is Active, since the ratio is undefined.
    """
    capacities = [n.capacity for n in cluster.nodes.values() if n.state is NodeState.ACTIVE]
    if not capacities:
        raise ZeroCapacity(f"cluster {cluster.id!r} has no Active nodes")
    assigned = [pod.demand for pod in cluster.pods.values() if pod.assignment is not None]
    u_cpu = sum(d.cpu for d in assigned) / sum(c.cpu for c in capacities)
    u_mem = sum(d.memory for d in assigned) / sum(c.memory for c in capacities)
    return Utilization(u_cpu=u_cpu, u_mem=u_mem, u=max(u_cpu, u_mem))


def node_utilization(node: Node, cluster: Cluster) -> float:
    """Max of the node's cpu and memory load ratios."""
    if cluster.nodes.get(node.id) is not node:
        raise NodeNotInCluster(f"node {node.id!r} is not hosted by cluster {cluster.id!r}")
    if node.state is not NodeState.ACTIVE:
        raise NodeNotActive(f"node {node.id!r} is {node.state.value}, not Active")
    demand = node_demand(cluster, node.id)
    return max(demand.cpu / node.capacity.cpu, demand.memory / node.capacity.memory)
