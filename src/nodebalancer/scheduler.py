"""Simulated pod scheduling: first-fit-decreasing placement and node drains.

Placement order is fully deterministic: pods sort by descending cpu demand
(ties broken by descending memory, then ascending pod id) and scan Active
nodes in ascending node-id order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LastNodeGuard, NodeNotActive
from .model import ZERO, Cluster, Node, NodeState, Pod, PodState, demand_by_node
from .reporting import NULL_RECORDER, EventKind


@dataclass(frozen=True)
class DrainOutcome:
    """Result of a drain: where each pod went, or restored=True if aborted.

    pending lists, in ascending id, the pods a forced drain left Pending.
    """

    node: str
    relocated: tuple[tuple[str, str], ...]  # (pod id, new node id)
    restored: bool
    pending: tuple[str, ...] = ()


def _placement_order(pods: list[Pod]) -> list[Pod]:
    return sorted(pods, key=lambda p: (-p.demand.cpu, -p.demand.memory, p.id))


def _plan(
    cluster: Cluster, pods: list[Pod], nodes: list[Node]
) -> tuple[list[tuple[str, str]], list[str]]:
    """First-fit-decreasing plan of pods onto the nodes' free capacity."""
    demand = demand_by_node(cluster)
    free = {node.id: node.capacity - demand.get(node.id, ZERO) for node in nodes}
    placements: list[tuple[str, str]] = []
    unplaced: list[str] = []
    for pod in _placement_order(pods):
        for node in nodes:
            if pod.demand.fits_within(free[node.id]):
                free[node.id] = free[node.id] - pod.demand
                placements.append((pod.id, node.id))
                break
        else:
            unplaced.append(pod.id)
    return placements, unplaced


def place_pending(cluster: Cluster) -> list[tuple[str, str]]:
    """Schedule as many Pending pods as fit; returns (pod, node) placements.

    Pods that fit nowhere stay Pending. Placing nothing is not an error.
    """
    pending = cluster.pending_pods()
    if not pending:
        return []
    placements, _ = _plan(cluster, pending, cluster.active_nodes())
    for pod_id, node_id in placements:
        pod = cluster.pods[pod_id]
        pod.assignment = node_id
        pod.state = PodState.RUNNING
    return placements


def drain_node(
    cluster: Cluster, node_id: str, *, force: bool = False, recorder=None
) -> DrainOutcome:
    """Empty a node so it can be deprovisioned.

    The drain is atomic: the relocation plan is computed first, and if any
    pod cannot be placed on the remaining Active nodes the cluster is left
    untouched (restored=True). With force=True the drain always completes
    and unplaceable pods become Pending; forced drains also skip the
    min_active_nodes guard, since restoration must be able to empty a
    cluster's last borrowed node.
    """
    rec = recorder if recorder is not None else NULL_RECORDER
    node = cluster.nodes.get(node_id)
    if node is None or node.state is not NodeState.ACTIVE:
        state = node.state.value if node is not None else "absent"
        raise NodeNotActive(f"cannot drain node {node_id!r}: {state}")
    actives = cluster.active_nodes()
    if not force and len(actives) - 1 < cluster.min_active_nodes:
        raise LastNodeGuard(
            f"draining {node_id!r} would leave cluster {cluster.id!r} below "
            f"min_active_nodes={cluster.min_active_nodes}"
        )

    victims = cluster.pods_on(node_id)
    siblings = [n for n in actives if n.id != node_id]
    placements, unplaced = _plan(cluster, victims, siblings)

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

    node.state = NodeState.DRAINING
    for pod_id, target_id in placements:
        cluster.pods[pod_id].assignment = target_id
    for pod_id in unplaced:
        pod = cluster.pods[pod_id]
        pod.assignment = None
        pod.state = PodState.PENDING
    node.state = NodeState.RESERVED
    return DrainOutcome(
        node=node_id, relocated=tuple(placements), restored=False, pending=tuple(sorted(unplaced))
    )
