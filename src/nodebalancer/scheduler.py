"""Simulated pod scheduling: placement by fill, and node hosting.

A node changes clusters only here: drain_node detaches it from one cluster
and provision_node, its inverse, attaches it to another.

A cluster's pods all demand its one quantum, so first-fit-decreasing
placement is a fill: the pods, in ascending id-string order, go to the
nodes in ascending node-id order, each node taking as many as its free
capacity holds, in slices of a cluster's runs of pods. Placement is fully
deterministic.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DuplicateNode, LastNodeGuard, NodeNotInCluster
from .model import NO_PODS, Cluster, Node, PodIds
from .reporting import NULL_RECORDER, EventKind


class DrainOutcome(NamedTuple):
    """Result of a drain: where each pod went, or restored=True if aborted.

    relocated holds (pod id, new node id) pairs, and pending the pods a
    forced drain left Pending, each in ascending id. An immutable tuple;
    copy one with _replace.
    """

    node: str
    relocated: PodIds
    restored: bool
    pending: PodIds = NO_PODS


def _fill(cluster: Cluster, pieces, nodes: list[Node]) -> tuple[list, list]:
    """Plan the pieces' pods onto the nodes' free capacity, in the given orders.

    Each node takes as many of the next pods as its free capacity holds, so
    for pods of one quantum this is first-fit-decreasing placement. Returns
    the placed and the unplaced pods as Cluster.rebind's moves, each also a
    PodIds slice tagged with its node id, None for the unplaced.
    """
    quantum, counts = cluster.quantum, cluster.counts()
    placed, last = [], len(pieces)
    k = done = 0  # pieces[k] is the next piece, of which done pods are placed
    for node in nodes:
        if k == last:
            break
        capacity = node.capacity
        room = (min(capacity.cpu // quantum.cpu, capacity.memory // quantum.memory)
                - counts.get(node.id, 0))
        while room > 0 and k < last:
            tick, first, index, offset, count = pieces[k]
            take = min(count - done, room)
            ids = range(first + done, first + done + take)
            placed.append((cluster.id, tick, ids, node.id, index, offset + done))
            room -= take
            done += take
            if done == count:
                k, done = k + 1, 0
    unplaced = []
    for tick, first, index, offset, count in pieces[k:]:
        ids = range(first + done, first + count)
        unplaced.append((cluster.id, tick, ids, None, index, offset + done))
        done = 0
    return placed, unplaced


def place_pending(cluster: Cluster) -> PodIds:
    """Schedule as many Pending pods as fit; returns (pod, node) placements.

    Pods that fit nowhere stay Pending. Placing nothing is not an error.
    """
    pieces = cluster.pieces(None)
    if not pieces:
        return NO_PODS
    placed, _ = _fill(cluster, pieces, cluster.active_nodes())
    cluster.rebind(placed)
    return PodIds(placed)


def drain_node(
    cluster: Cluster, node_id: str, *, force: bool = False, recorder=NULL_RECORDER
) -> DrainOutcome:
    """Empty a node and detach it from the cluster.

    The drain is atomic: the relocation plan is computed first, and if any
    pod cannot be placed on the cluster's other nodes the cluster is left
    untouched (restored=True). Otherwise the pods move, the node leaves
    cluster.nodes and NodeDeprovisioned is emitted; the caller, which holds
    the node, provisions it somewhere. With force=True the drain always
    completes and unplaceable pods become Pending. Only a forced drain may
    take a cluster's last node, since restoration must be able to empty a
    cluster's last borrowed node.
    """
    if node_id not in cluster.nodes:
        raise NodeNotInCluster(f"node {node_id!r} is not hosted by cluster {cluster.id!r}")
    actives = cluster.active_nodes()
    if not force and len(actives) == 1:
        raise LastNodeGuard(
            f"draining {node_id!r} would leave cluster {cluster.id!r} with no node")

    siblings = [n for n in actives if n.id != node_id]
    pieces = cluster.pieces(node_id)
    placed, unplaced = _fill(cluster, pieces, siblings)

    recorder.emit(EventKind.DRAIN_STARTED, cluster=cluster.id, node=node_id,
                  pods=sum(piece[4] for piece in pieces))
    if unplaced and not force:
        # Nothing was mutated yet, so aborting really is a no-op.
        recorder.emit(
            EventKind.DRAIN_RESTORED,
            cluster=cluster.id,
            node=node_id,
            reason="DrainInfeasible",
        )
        return DrainOutcome(node=node_id, relocated=NO_PODS, restored=True)

    cluster.rebind(placed + unplaced)
    del cluster.nodes[node_id]
    recorder.emit(EventKind.NODE_DEPROVISIONED, cluster=cluster.id, node=node_id)
    return DrainOutcome(
        node=node_id, relocated=PodIds(placed), restored=False, pending=PodIds(unplaced)
    )


def provision_node(cluster: Cluster, node: Node, recorder=NULL_RECORDER) -> None:
    """Attach to a cluster a node that a completed drain detached.

    origin_cluster is deliberately left alone: the node remembers where it
    came from no matter how many times it is re-homed.
    """
    if node.id in cluster.nodes:
        raise DuplicateNode(f"cluster {cluster.id!r} already hosts a node {node.id!r}")
    cluster.nodes[node.id] = node
    recorder.emit(EventKind.NODE_PROVISIONED, cluster=cluster.id, node=node.id)
