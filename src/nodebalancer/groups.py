"""Group membership: registration, join/leave, and the exit restoration
protocol that puts every node back where it originally came from."""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .errors import (
    AlreadyGrouped,
    DuplicateGroup,
    InvariantViolation,
    NotAMember,
    UnknownCluster,
    UnknownGroup,
)
from .model import Cluster, Group, Thresholds
from .reporting import NULL_RECORDER, EventKind
from .scheduler import drain_node, provision_node


class MembershipAction(str, Enum):
    ADD = "Add"
    REMOVE = "Remove"


class MembershipChange(NamedTuple):
    """A scheduled join or leave, applied at the start of its tick."""

    tick: int
    action: MembershipAction
    cluster: str
    group: str


class RestorationReport(NamedTuple):
    """What a group exit did: nodes sent home, nodes recalled, pods displaced.

    pending_pods lists (pod id, cluster id) for pods that lost their node in
    a forced drain and are waiting to be rescheduled wherever they ended up.
    """

    cluster: str
    returned: tuple[tuple[str, str], ...]  # (node id, origin cluster)
    recalled: tuple[tuple[str, str], ...]  # (node id, host it was recalled from)
    pending_pods: tuple[tuple[str, str], ...]


class GroupManager:
    """Registry of clusters and balancing groups.

    Owns the membership rules (a cluster belongs to at most one group, and
    Group.members is the only record of which) and the restoration protocol
    run when a cluster leaves its group.
    """

    def __init__(self, recorder=NULL_RECORDER):
        self.clusters: dict[str, Cluster] = {}
        self.groups: dict[str, Group] = {}
        self.recorder = recorder

    def register_cluster(self, cluster: Cluster) -> None:
        if cluster.id in self.clusters:
            raise ValueError(f"cluster id {cluster.id!r} already registered")
        self.clusters[cluster.id] = cluster

    def create_group(
        self, group_id: str, thresholds: Thresholds, balance_interval: int = 1
    ) -> Group:
        """Register an empty group; thresholds were validated when built."""
        if group_id in self.groups:
            raise DuplicateGroup(f"group {group_id!r} already exists")
        if balance_interval < 1:
            raise ValueError(f"balance_interval must be >= 1, got {balance_interval}")
        group = Group(
            id=group_id, members=[], thresholds=thresholds, balance_interval=balance_interval
        )
        self.groups[group_id] = group
        self.recorder.emit(
            EventKind.GROUP_CREATED,
            group=group_id,
            t_low=thresholds.t_low,
            t_high=thresholds.t_high,
            balance_interval=balance_interval,
        )
        return group

    def add_cluster(self, group_id: str, cluster_id: str) -> None:
        group = self.groups.get(group_id)
        if group is None:
            raise UnknownGroup(f"no group {group_id!r}")
        if cluster_id not in self.clusters:
            raise UnknownCluster(f"no cluster {cluster_id!r}")
        for holder in self.groups.values():
            if cluster_id in holder.members:
                raise AlreadyGrouped(cluster_id, holder.id)
        group.members.append(cluster_id)
        self.recorder.emit(EventKind.CLUSTER_ADDED, group=group_id, cluster=cluster_id)

    def remove_cluster(self, group_id: str, cluster_id: str) -> RestorationReport:
        """Take a cluster out of its group, restoring original configurations.

        Two passes, both using forced drains (pods that cannot be relocated
        become Pending rather than blocking the exit):

        1. every node the leaver borrowed goes back to its origin cluster;
        2. every node the leaver lent out is recalled from its current host.

        Afterwards the leaving cluster holds exactly its original node-id
        set, and no other cluster holds any node originating from it.
        """
        group = self.groups.get(group_id)
        if group is None:
            raise UnknownGroup(f"no group {group_id!r}")
        cluster = self.clusters.get(cluster_id)
        if cluster is None:
            raise UnknownCluster(f"no cluster {cluster_id!r}")
        if cluster_id not in group.members:
            raise NotAMember(f"cluster {cluster_id!r} is not a member of group {group_id!r}")

        self.recorder.emit(EventKind.CLUSTER_REMOVED, group=group_id, cluster=cluster_id)
        returned = sorted(
            (node.id, node.origin_cluster)
            for node in cluster.nodes.values()
            if node.origin_cluster != cluster_id
        )
        recalled = sorted(
            (node.id, host.id)
            for host in self.clusters.values()
            if host.id != cluster_id
            for node in host.nodes.values()
            if node.origin_cluster == cluster_id
        )
        pending: list[tuple[str, str]] = []
        for node_id, host_id in [(nid, cluster_id) for nid, _ in returned] + recalled:
            pending += self._send_home(self.clusters[host_id], node_id)

        group.members.remove(cluster_id)
        self.recorder.emit(
            EventKind.RESTORATION_COMPLETED,
            group=group_id,
            cluster=cluster_id,
            returned_nodes=[list(pair) for pair in returned],
            recalled_nodes=[list(pair) for pair in recalled],
            pending_pods=[list(pair) for pair in pending],
        )

        if set(cluster.nodes) != set(cluster.original_node_ids):
            raise InvariantViolation(
                f"restoration left cluster {cluster_id!r} with nodes "
                f"{sorted(cluster.nodes)}, expected {sorted(cluster.original_node_ids)}"
            )
        return RestorationReport(
            cluster=cluster_id,
            returned=tuple(returned),
            recalled=tuple(recalled),
            pending_pods=tuple(pending),
        )

    def _send_home(self, host: Cluster, node_id: str) -> list[tuple[str, str]]:
        """Force-drain a node, then move it to its origin; returns (pod id,
        host id) for each pod left Pending."""
        node = host.nodes[node_id]
        outcome = drain_node(host, node_id, force=True, recorder=self.recorder)  # detaches it
        provision_node(self.clusters[node.origin_cluster], node, recorder=self.recorder)
        return [(pod, host.id) for pod in outcome.pending]
