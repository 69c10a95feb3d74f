"""Simulated pod scheduling: placement by fill, and node drains.

A cluster's pods all demand its one quantum, so first-fit-decreasing
placement is a fill: the pods, in ascending id-string order, go to the
nodes in ascending node-id order, each node taking as many as its free
capacity holds. Placement is fully deterministic.
"""

from __future__ import annotations

from itertools import repeat
from typing import NamedTuple

from .errors import LastNodeGuard, NodeNotInCluster
from .model import Cluster, Node, ResourceVector
from .reporting import NULL_RECORDER, EventKind


class DrainOutcome(NamedTuple):
    """Result of a drain: where each pod went, or restored=True if aborted.

    pending lists, in ascending id, the pods a forced drain left Pending.
    An immutable tuple; copy one with _replace.
    """

    node: str
    relocated: tuple[tuple[str, str], ...]  # (pod id, new node id)
    restored: bool
    pending: tuple[str, ...] = ()


def _fill(
    pod_ids: list[str], nodes: list[Node], quantum: ResourceVector
) -> tuple[list[tuple[str, str]], list[str]]:
    """Plan the pods onto the nodes' free capacity, in the given orders.

    Each node takes as many of the next pods as its free capacity holds, so
    for pods of one quantum this is first-fit-decreasing placement.
    """
    placements: list[tuple[str, str]] = []
    placed = 0
    for node in nodes:
        if placed == len(pod_ids):
            break
        capacity = node.capacity
        room = min(capacity.cpu // quantum.cpu, capacity.memory // quantum.memory) - node.pod_count
        if room > 0:
            placements += zip(pod_ids[placed:placed + room], repeat(node.id))
            placed = len(placements)
    return placements, pod_ids[placed:]


def place_pending(cluster: Cluster) -> list[tuple[str, str]]:
    """Schedule as many Pending pods as fit; returns (pod, node) placements.

    Pods that fit nowhere stay Pending. Placing nothing is not an error.
    """
    if not cluster.pending:
        return []
    placements, _ = _fill(sorted(cluster.pending), cluster.active_nodes(), cluster.quantum)
    for pod_id, node_id in placements:
        cluster.bind(pod_id, node_id)
    return placements


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

    victims = sorted([pod_id for pod_id, host in cluster.pods.items() if host == node_id])
    siblings = [n for n in actives if n.id != node_id]
    placements, unplaced = _fill(victims, siblings, cluster.quantum)

    recorder.emit(EventKind.DRAIN_STARTED, cluster=cluster.id, node=node_id, pods=len(victims))
    if unplaced and not force:
        # Nothing was mutated yet, so aborting really is a no-op.
        recorder.emit(
            EventKind.DRAIN_RESTORED,
            cluster=cluster.id,
            node=node_id,
            reason="DrainInfeasible",
        )
        return DrainOutcome(node=node_id, relocated=(), restored=True)

    for pod_id, target_id in placements:
        cluster.bind(pod_id, target_id)
    for pod_id in unplaced:
        cluster.unbind(pod_id)
    del cluster.nodes[node_id]
    recorder.emit(EventKind.NODE_DEPROVISIONED, cluster=cluster.id, node=node_id)
    return DrainOutcome(
        node=node_id, relocated=tuple(placements), restored=False, pending=tuple(unplaced)
    )
