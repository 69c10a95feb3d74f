"""Simulated pod scheduling: placement, drains and node hosting.

A node changes clusters only here: drain_node detaches it from one cluster
and provision_node, its inverse, attaches it to another.

Both placement and a drain apply a plan that Cluster.plan makes: a fill of
the pods, in ascending id-string order, onto the nodes in ascending node-id
order, which for pods of one quantum is first-fit-decreasing placement.
Placement is fully deterministic.
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


def place_pending(cluster: Cluster) -> PodIds:
    """Schedule as many Pending pods as fit; returns (pod, node) placements.

    Pods that fit nowhere stay Pending. Placing nothing is not an error.
    """
    placed, _ = cluster.plan(None)
    if placed.slices:  # often nothing is Pending, or nothing fits
        cluster.rebind(placed)
    return placed


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
    if not force and len(cluster.nodes) == 1:
        raise LastNodeGuard(
            f"draining {node_id!r} would leave cluster {cluster.id!r} with no node")

    placed, unplaced = cluster.plan(node_id)
    recorder.emit(EventKind.DRAIN_STARTED, cluster=cluster.id, node=node_id,
                  pods=len(placed) + len(unplaced))
    if not force and unplaced:
        # Nothing was mutated yet, so aborting really is a no-op.
        recorder.emit(
            EventKind.DRAIN_RESTORED,
            cluster=cluster.id,
            node=node_id,
            reason="DrainInfeasible",
        )
        return DrainOutcome(node=node_id, relocated=NO_PODS, restored=True)

    cluster.rebind(placed, unplaced)
    del cluster.nodes[node_id]
    recorder.emit(EventKind.NODE_DEPROVISIONED, cluster=cluster.id, node=node_id)
    return DrainOutcome(node=node_id, relocated=placed, restored=False, pending=unplaced)


def provision_node(cluster: Cluster, node: Node, recorder=NULL_RECORDER) -> None:
    """Attach to a cluster a node that a completed drain detached.

    origin_cluster is deliberately left alone: the node remembers where it
    came from no matter how many times it is re-homed.
    """
    if node.id in cluster.nodes:
        raise DuplicateNode(f"cluster {cluster.id!r} already hosts a node {node.id!r}")
    cluster.nodes[node.id] = node
    recorder.emit(EventKind.NODE_PROVISIONED, cluster=cluster.id, node=node.id)
