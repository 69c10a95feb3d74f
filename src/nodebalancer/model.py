"""Core domain model: resources, nodes, clusters and their pods, balancing
groups, and the utilization calculator that drives every balancing decision.

Utilization is demand-based. It is computed from what pods request, not
from measured usage, so results are exactly reproducible.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import chain, repeat
from operator import itemgetter
from types import MappingProxyType
from typing import NamedTuple

from .errors import InvalidThresholds, NodeNotInCluster, ZeroCapacity


class _Fields:
    """Equality and repr field by field over the __slots__ of a subclass,
    equal only to its own class; unhashable unless the subclass says how."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class ResourceVector(_Fields):
    """A (cpu millicores, memory MiB) pair: a read-only value, equal and
    hashed by its components."""

    __slots__ = ("cpu", "memory")

    def __init__(self, cpu: int = 0, memory: int = 0):
        object.__setattr__(self, "cpu", cpu)
        object.__setattr__(self, "memory", memory)
        # Valid states never hold negative resources; catching it here turns
        # accounting bugs into immediate failures instead of silent corruption.
        if cpu < 0 or memory < 0:
            raise ValueError(f"resource components must be non-negative, got {self!r}")

    def __setattr__(self, name, *value):
        raise AttributeError(f"{name!r}: a ResourceVector is read-only")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return hash((self.cpu, self.memory))

    def __reduce__(self):  # pickle and copy through __init__, not __setattr__
        return ResourceVector, (self.cpu, self.memory)


DEFAULT_POD_QUANTUM = ResourceVector(cpu=100, memory=128)


class Node(_Fields):
    """A capacity-bearing unit.

    origin_cluster is fixed when the node is first provisioned and never
    changes afterwards; it is what makes a cluster's original configuration
    restorable after nodes have been loaned around a group. A node is active
    exactly while a cluster's nodes dict holds it; between the drain that
    detaches it and provision_node, only the caller moving it does. A node
    stores no pods: its hosting cluster's runs say which run on it.
    """

    __slots__ = ("id", "capacity", "origin_cluster")

    def __init__(self, id: str, capacity: ResourceVector, origin_cluster: str):
        if capacity.cpu <= 0 or capacity.memory <= 0:
            raise ValueError(f"node {id!r}: capacity must be strictly positive")
        self.id, self.capacity, self.origin_cluster = id, capacity, origin_cluster


def pod_id(cluster_id: str, tick: int, index: int) -> str:
    """The id of pod index of the batch a cluster created at tick."""
    return f"{cluster_id}-p{tick:05d}-{index:04d}"


class PodIds(Sequence):
    """Pod ids in a fixed order, each formatted only when it is read.

    slices holds (cluster id, tick, indices, tag, ...) tuples, each standing
    for pod i of the batch the cluster created at tick, for i in the range
    indices; fields after the tag are ignored. An item is the id, or
    (id, tag) where tag is not None. It equals any list or tuple of the same
    items.
    """

    __slots__ = ("slices",)

    def __init__(self, slices=()):
        self.slices = tuple(slices)

    def __len__(self) -> int:
        return sum(map(len, map(_INDICES, self.slices)))

    def __iter__(self):
        for cluster_id, tick, indices, tag, *_ in self.slices:
            for i in indices:
                item = pod_id(cluster_id, tick, i)
                yield item if tag is None else (item, tag)

    def __getitem__(self, index: int):
        position = index + len(self) if index < 0 else index
        for cluster_id, tick, indices, tag, *_ in self.slices:
            if 0 <= position < len(indices):
                item = pod_id(cluster_id, tick, indices[position])
                return item if tag is None else (item, tag)
            position -= len(indices)
        raise IndexError(f"pod index {index} out of range")

    def __eq__(self, other):
        is_sequence = isinstance(other, (PodIds, list, tuple))
        return tuple(self) == tuple(other) if is_sequence else NotImplemented

    def __repr__(self) -> str:
        return f"PodIds({list(self)!r})"


NO_PODS = PodIds()
_INDICES = itemgetter(2)  # a slice's indices
_PLACE = itemgetter(4, 5)  # a move's run index and offset


def _extend(runs: list[tuple], length: int, node_id: str | None) -> None:
    """Append length pods on node_id to runs, merging with a last run on the same node."""
    if length:
        if runs and runs[-1][1] == node_id:
            runs[-1] = (runs[-1][0] + length, node_id)
        else:
            runs.append((length, node_id))


class Cluster(_Fields):
    """A set of nodes and the pods running (or waiting to run) on them.

    Every pod demands the cluster's fixed quantum, so a pod is only its id
    and its node, and the pods are stored as two creation-ordered lists.
    Runs (length, node id or None) give consecutive pods on one node, or
    Pending; adjacent runs on one node are merged. Batches (tick, count)
    give the pods created together at a tick: pod i of a batch is
    f"{cluster id}-p{tick:05d}-{i:04d}", derived and never stored. Pods
    change only through resize and rebind; pods, pending, runs and batches
    are read-only views, and counts sums the runs.
    """

    __slots__ = ("id", "nodes", "original_node_ids", "quantum", "_runs", "_batches")

    def __init__(self, id: str, nodes: dict[str, Node] | None = None,
                 original_node_ids: frozenset[str] = frozenset(),
                 quantum: ResourceVector = DEFAULT_POD_QUANTUM):
        self.id, self.nodes = id, {} if nodes is None else nodes
        self.original_node_ids, self.quantum = original_node_ids, quantum
        self._runs: list[tuple[int, str | None]] = []
        self._batches: list[tuple[int, int]] = []

    @property
    def runs(self) -> tuple[tuple[int, str | None], ...]:
        """(length, node id or None) runs of the pods, in creation order."""
        return tuple(self._runs)

    @property
    def batches(self) -> tuple[tuple[int, int], ...]:
        """(tick, count) batches of the pods, in creation order."""
        return tuple(self._batches)

    @property
    def pods(self) -> Mapping[str, str | None]:
        """Pod id -> node id or None, in creation order; a store raises TypeError."""
        ids = (pod_id(self.id, tick, i) for tick, count in self._batches for i in range(count))
        hosts = chain.from_iterable(repeat(node_id, length) for length, node_id in self._runs)
        return MappingProxyType(dict(zip(ids, hosts)))

    @property
    def pending(self) -> frozenset[str]:
        """The ids of the Pending pods."""
        return frozenset(pod for pod, node_id in self.pods.items() if node_id is None)

    def counts(self) -> dict[str, int]:
        """Node id -> number of Running pods, for each node with one, summed
        from the runs on each call, in O(runs): no count of pods is stored."""
        counts: dict[str, int] = {}
        for length, node_id in self._runs:
            if node_id is not None:
                counts[node_id] = counts.get(node_id, 0) + length
        return counts

    def resize(self, target: int, tick: int) -> tuple[PodIds, PodIds]:
        """Delete the newest pods, Running or Pending, or append Pending pods
        created at tick, until the cluster holds target pods.

        Returns the (created, deleted) ids, the deleted newest first. A tick
        whose batch the cluster still holds would reuse its ids, so adding
        pods at it raises ValueError, changing nothing, as does a negative
        target.
        """
        if target < 0:
            raise ValueError(f"cluster {self.id!r}: target must be >= 0, got {target}")
        runs, batches = self._runs, self._batches
        excess = -target
        for length, _ in runs:  # a loop: sum() of a generator costs more on few runs
            excess += length
        if excess < 0:
            if any(t == tick for t, _ in batches):
                raise ValueError(f"cluster {self.id!r} already holds pods created at tick {tick}")
            batches.append((tick, -excess))
            _extend(runs, -excess, None)
            return PodIds([(self.id, tick, range(-excess), None)]), NO_PODS
        left = excess
        while left:
            length, node_id = runs.pop()
            take = min(length, left)
            _extend(runs, length - take, node_id)
            left -= take
        deleted, left = [], excess
        while left:
            batch_tick, count = batches.pop()
            take = min(count, left)
            deleted.append((self.id, batch_tick, range(count - 1, count - take - 1, -1), None))
            if take < count:
                batches.append((batch_tick, count - take))
            left -= take
        return NO_PODS, PodIds(deleted)

    def pieces(self, node_id: str | None) -> list[tuple[int, int, int, int, int]]:
        """The pods on a node, or the Pending pods for None, in id-string order.

        Each piece is (tick, first index in the batch of that tick, run
        index, offset in the run, count): one run's pods of one batch. A
        batch of 10,000 or more pods gives one piece per pod, because its ids
        do not sort in creation order ("…-10000" sorts before "…-2000").
        """
        runs, batches = self._runs, self._batches
        # Walk the runs and the batches back from the newest pod; after and
        # batch_after count the pods after runs[index] and batches[j].
        after, index = 0, len(runs)
        for length, host in reversed(runs):  # first, to the newest run on node_id
            if host == node_id:
                break
            after += length
            index -= 1
        else:
            return []
        pieces, batch_after, j = [], 0, len(batches) - 1
        while index:
            index -= 1
            length, host = runs[index]
            end = after + length
            while host == node_id:
                tick, count = batches[j]
                low = after if after > batch_after else batch_after
                high = end if end < batch_after + count else batch_after + count
                if low < high:
                    first = count - high + batch_after
                    if count < 10_000:
                        pieces.append((tick, first, index, end - high, high - low))
                    else:
                        pieces += [(tick, i, index, end - high + i - first, 1)
                                   for i in range(first, first + high - low)]
                if batch_after + count >= end:
                    break  # the batch goes on before this run
                batch_after += count
                j -= 1
            after = end
        if len(pieces) > 1:  # by the first pod's id, less the prefix all share
            pieces.sort(key=lambda piece: f"{piece[0]:05d}-{piece[1]:04d}")
        return pieces

    def plan(self, source: str | None) -> tuple[PodIds, PodIds]:
        """Plan the pods on node source, or the Pending pods for None, onto
        the free capacity of the other hosted nodes; changes nothing.

        The pods, in pieces' order, go to the nodes in ascending id order,
        each node taking as many as its free capacity holds: for pods of one
        quantum, first-fit-decreasing placement. Returns the (placed,
        unplaced) pods, each slice tagged with its node, None for the
        unplaced, and carrying its place for rebind.
        """
        pieces = self.pieces(source)
        if not pieces:
            return NO_PODS, NO_PODS
        quantum, counts = self.quantum, self.counts()
        placed, last = [], len(pieces)
        k = done = 0  # pieces[k] is the next piece, of which done pods are placed
        for node_id, node in sorted(self.nodes.items()):
            if k == last:
                break
            if node_id == source:
                continue
            capacity = node.capacity
            room = (min(capacity.cpu // quantum.cpu, capacity.memory // quantum.memory)
                    - counts.get(node_id, 0))
            while room > 0 and k < last:
                tick, first, index, offset, count = pieces[k]
                take = min(count - done, room)
                ids = range(first + done, first + done + take)
                placed.append((self.id, tick, ids, node_id, index, offset + done))
                room -= take
                done += take
                if done == count:
                    k, done = k + 1, 0
        unplaced = []
        for tick, first, index, offset, count in pieces[k:]:
            unplaced.append((self.id, tick, range(first + done, first + count), None,
                             index, offset + done))
            done = 0
        return PodIds(placed), PodIds(unplaced)

    def rebind(self, *plans: PodIds) -> None:
        """Put the pods of plans on the nodes their slices are tagged with,
        or back to Pending for None.

        Each slice (cluster id, tick, indices, node id or None, run index,
        offset), as plan gives it, takes len(indices) pods from offset in a
        run, as pieces numbers them; slices do not overlap. Raises KeyError,
        changing nothing, for a node the cluster does not host.
        """
        moves = []
        for plan in plans:  # a loop: a comprehension costs more on one or two plans
            moves += plan.slices
        if not moves:
            return
        nodes = self.nodes
        for move in moves:
            if move[3] is not None and move[3] not in nodes:
                raise KeyError(f"cluster {self.id!r} does not host a node {move[3]!r}")
        if len(moves) > 1:
            moves.sort(key=_PLACE)
        old = self._runs
        index = moves[0][4]
        runs, at = old[:index], 0  # at: pods of old[index] already in runs
        for _, _, indices, target, move_index, offset in moves:
            count = len(indices)
            while index < move_index:
                _extend(runs, old[index][0] - at, old[index][1])
                index, at = index + 1, 0
            source = old[index][1]
            _extend(runs, offset - at, source)
            _extend(runs, count, target)
            at = offset + count
        _extend(runs, old[index][0] - at, old[index][1])
        rest = old[index + 1:]
        if rest:
            _extend(runs, *rest[0])  # the only run of the rest that can merge
            runs += rest[1:]
        self._runs = runs


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


class _ThresholdFields(NamedTuple):
    t_low: float
    t_high: float


class Thresholds(_ThresholdFields):
    """User-chosen utilization bounds steering the balancer.

    Clusters above t_high ask for capacity; clusters below t_low may give
    some up. Construction, _replace too, enforces 0 < t_low < t_high <= 1,
    raising InvalidThresholds that names the violated relation.
    """

    __slots__ = ()

    def __new__(cls, t_low: float, t_high: float):
        if not 0 < t_low < 1:
            raise InvalidThresholds(f"t_low must be in (0, 1), got {t_low}")
        if not 0 < t_high <= 1:
            raise InvalidThresholds(f"t_high must be in (0, 1], got {t_high}")
        if not t_low < t_high:
            raise InvalidThresholds(
                f"t_low must be strictly less than t_high, got ({t_low}, {t_high})"
            )
        return tuple.__new__(cls, (t_low, t_high))

    _make = classmethod(lambda cls, fields: cls(*fields))  # the one that _replace calls


class Group(_Fields):
    """Clusters pooled for node sharing, plus the policy knobs for the pool."""

    __slots__ = ("id", "members", "thresholds", "balance_interval")

    def __init__(self, id: str, members: list[str] | None = None,
                 thresholds: Thresholds = Thresholds(0.3, 0.8), balance_interval: int = 1):
        self.id, self.members = id, [] if members is None else members
        self.thresholds, self.balance_interval = thresholds, balance_interval


class Utilization(NamedTuple):
    """Per-dimension load ratios and their max, the headline number.

    An immutable tuple, like the artifact records in reporting.py.
    """

    u_cpu: float
    u_mem: float
    u: float


def node_demand(cluster: Cluster, node_id: str) -> ResourceVector:
    """Requested demand of the Running pods on a node the cluster hosts (KeyError if not)."""
    if node_id not in cluster.nodes:
        raise KeyError(node_id)
    count, quantum = cluster.counts().get(node_id, 0), cluster.quantum
    return ResourceVector(count * quantum.cpu, count * quantum.memory)


def cluster_utilization(cluster: Cluster) -> Utilization:
    """Demand over capacity across the hosted nodes, per dimension and combined.

    Demand counts the Running pods; Pending pods are excluded: they consume
    nothing yet. Raises ZeroCapacity when the cluster hosts no node, since
    the ratio is undefined.
    """
    count = capacity_cpu = capacity_memory = 0
    for length, node_id in cluster._runs:  # Running pods; counts() would build a dict
        if node_id is not None:
            count += length
    for node in cluster.nodes.values():
        capacity = node.capacity
        capacity_cpu += capacity.cpu
        capacity_memory += capacity.memory
    if not capacity_cpu:  # capacities are strictly positive
        raise ZeroCapacity(f"cluster {cluster.id!r} hosts no node")
    quantum = cluster.quantum
    u_cpu = count * quantum.cpu / capacity_cpu
    u_mem = count * quantum.memory / capacity_memory
    return Utilization(u_cpu, u_mem, max(u_cpu, u_mem))


def node_load(node: Node, quantum: ResourceVector, count: int) -> float:
    """Max of the cpu and memory load ratios of count pods of quantum on the node.

    The one formula behind node_utilization and the balancer's donor-node
    ranking; it builds no ResourceVector.
    """
    capacity = node.capacity
    return max(count * quantum.cpu / capacity.cpu, count * quantum.memory / capacity.memory)


def node_utilization(node: Node, cluster: Cluster) -> float:
    """Max of the node's cpu and memory load ratios."""
    if cluster.nodes.get(node.id) is not node:
        raise NodeNotInCluster(f"node {node.id!r} is not hosted by cluster {cluster.id!r}")
    return node_load(node, cluster.quantum, cluster.counts().get(node.id, 0))
