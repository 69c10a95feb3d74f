"""Simulated pod scheduling: first-fit-decreasing placement and node drains.

Placement order is fully deterministic: pods sort by descending cpu demand
(ties broken by descending memory, then ascending pod id) and scan the
cluster's nodes in ascending node-id order.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import LastNodeGuard, NodeNotInCluster
from .model import Cluster, Node, Pod
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


def _placement_order(pods: list[Pod]) -> list[Pod]:
    return sorted(pods, key=lambda p: (-p.demand.cpu, -p.demand.memory, p.id))


def _plan(pods: list[Pod], nodes: list[Node]) -> tuple[list[tuple[str, str]], list[str]]:
    """First-fit-decreasing plan of pods onto the nodes' free capacity."""
    if not pods:  # most of a balancing run's drains empty a node with no pods
        return [], []
    free = []  # [node id, free cpu, free memory] in the nodes' order
    for node in nodes:
        cpu, memory = node.used
        free.append([node.id, node.capacity.cpu - cpu, node.capacity.memory - memory])
    placements: list[tuple[str, str]] = []
    unplaced: list[str] = []
    for pod in _placement_order(pods):
        cpu, memory = pod.demand.cpu, pod.demand.memory
        for slot in free:
            if cpu <= slot[1] and memory <= slot[2]:
                slot[1] -= cpu
                slot[2] -= memory
                placements.append((pod.id, slot[0]))
                break
        else:
            unplaced.append(pod.id)
    return placements, unplaced


def place_pending(cluster: Cluster) -> list[tuple[str, str]]:
    """Schedule as many Pending pods as fit; returns (pod, node) placements.

    Pods that fit nowhere stay Pending. Placing nothing is not an error.
    """
    if not cluster.pending:
        return []
    placements, _ = _plan(cluster.pending_pods(), cluster.active_nodes())
    for pod_id, node_id in placements:
        cluster.bind(pod_id, node_id)
    return placements


def drain_node(
    cluster: Cluster, node_id: str, *, force: bool = False, recorder=None
) -> DrainOutcome:
    """Empty a node and detach it from the cluster.

    The drain is atomic: the relocation plan is computed first, and if any
    pod cannot be placed on the cluster's other nodes the cluster is left
    untouched (restored=True). Otherwise the pods move, the node leaves
    cluster.nodes and NodeDeprovisioned is emitted; the caller, which holds
    the node, provisions it somewhere. With force=True the drain always
    completes and unplaceable pods become Pending; forced drains also skip
    the min_active_nodes guard, since restoration must be able to empty a
    cluster's last borrowed node.
    """
    rec = recorder if recorder is not None else NULL_RECORDER
    if node_id not in cluster.nodes:
        raise NodeNotInCluster(f"node {node_id!r} is not hosted by cluster {cluster.id!r}")
    actives = cluster.active_nodes()
    if not force and len(actives) - 1 < cluster.min_active_nodes:
        raise LastNodeGuard(
            f"draining {node_id!r} would leave cluster {cluster.id!r} below "
            f"min_active_nodes={cluster.min_active_nodes}"
        )

    victims = cluster.pods_on(node_id)
    siblings = [n for n in actives if n.id != node_id]
    placements, unplaced = _plan(victims, siblings)

    rec.emit(EventKind.DRAIN_STARTED, cluster=cluster.id, node=node_id, pods=len(victims))
    if unplaced and not force:
        # Nothing was mutated yet, so aborting really is a no-op.
        rec.emit(
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
    rec.emit(EventKind.NODE_DEPROVISIONED, cluster=cluster.id, node=node_id)
    return DrainOutcome(
        node=node_id, relocated=tuple(placements), restored=False, pending=tuple(sorted(unplaced))
    )
