"""Threshold evaluation: classify a group's members for the balancer."""

from __future__ import annotations

from typing import NamedTuple

from .errors import UnknownCluster
from .model import Cluster, Group, cluster_utilization


class Evaluation(NamedTuple):
    """Snapshot of which members sit outside the band; an immutable tuple.

    overutilized is ordered by descending utilization, underutilized by
    ascending utilization; ties break by ascending cluster id in both.
    The two lists are always disjoint: Thresholds enforces t_low < t_high.
    """

    overutilized: tuple[str, ...]
    underutilized: tuple[str, ...]


def evaluate_group(group: Group, clusters: dict[str, Cluster]) -> Evaluation:
    """Classify every member against the group's thresholds.

    Both comparisons are strict: a cluster sitting exactly on a threshold is
    neither overutilized nor underutilized. The result depends only on the
    member set, never on its enumeration order.
    """
    loads: list[tuple[str, float]] = []
    for cluster_id in group.members:
        cluster = clusters.get(cluster_id)
        if cluster is None:
            raise UnknownCluster(f"group {group.id!r} references unknown cluster {cluster_id!r}")
        loads.append((cluster_id, cluster_utilization(cluster).u))

    t_low, t_high = group.thresholds.t_low, group.thresholds.t_high
    over = [(u, cid) for cid, u in loads if u > t_high]
    under = [(u, cid) for cid, u in loads if u < t_low]
    over.sort(key=lambda pair: (-pair[0], pair[1]))
    under.sort()  # (utilization, id) pairs: ascending in both
    return Evaluation(tuple([cid for _, cid in over]), tuple([cid for _, cid in under]))
