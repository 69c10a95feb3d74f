"""The balancing cycle: move nodes from quiet clusters to overloaded ones.

One cycle walks the overutilized clusters in descending urgency. For each,
it tries underutilized donors in ascending utilization order, drains the
donor's least-loaded node, which detaches it, and re-measures the donor. If
giving up the node pushed the donor over t_high the move is reversed (the
node goes straight back); otherwise the node is provisioned into the
overloaded cluster. At most one node moves into each overloaded cluster per
cycle, and a cluster plays at most one role (donor or recipient) per cycle.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .errors import DuplicateNode
from .model import Cluster, Group, Node, cluster_utilization, node_load
from .reporting import NULL_RECORDER, EventKind
from .rules import evaluate_group
from .scheduler import drain_node


class OutcomeKind(str, Enum):
    MOVED = "Moved"
    REVERSED = "Reversed"
    NO_CANDIDATE = "NoCandidate"
    NO_ACTION = "NoAction"


class AttemptReason(str, Enum):
    """Why a donor candidate was passed over."""

    MIN_ACTIVE_NODES = "MinActiveNodes"  # donor would keep no node of its own
    DRAIN_INFEASIBLE = "DrainInfeasible"  # drain aborted, pods would not fit
    WOULD_EXCEED_T_HIGH = "WouldExceedTHigh"  # donor itself went hot; reversed


class RebalanceOutcome(NamedTuple):
    """What one overutilized cluster got out of a cycle; an immutable tuple.

    attempts lists (donor id, reason) for every candidate tried before the
    terminal outcome, in the order they were tried.
    """

    kind: OutcomeKind
    high_cluster: str | None = None
    low_cluster: str | None = None
    node: str | None = None
    attempts: tuple[tuple[str, str], ...] = ()


def provision_node(cluster: Cluster, node: Node, recorder=NULL_RECORDER) -> None:
    """Attach to a cluster a node that a completed drain detached.

    origin_cluster is deliberately left alone: the node remembers where it
    came from no matter how many times it is re-homed.
    """
    if node.id in cluster.nodes:
        raise DuplicateNode(f"cluster {cluster.id!r} already hosts a node {node.id!r}")
    cluster.nodes[node.id] = node
    recorder.emit(EventKind.NODE_PROVISIONED, cluster=cluster.id, node=node.id)


def rebalance_cycle(
    group: Group,
    clusters: dict[str, Cluster],
    *,
    recorder=NULL_RECORDER,
) -> list[RebalanceOutcome]:
    """Run one balancing cycle over the group; returns one outcome per
    overutilized cluster (reversals appear as extra outcomes as they happen).

    Candidate classification is a single snapshot taken at cycle start. The
    drain/provision mechanics re-measure the live state, but no
    cluster is reclassified mid-cycle, which keeps the cycle deterministic
    and guarantees termination.
    """
    evaluation = evaluate_group(group, clusters)
    t_high = group.thresholds.t_high
    outcomes: list[RebalanceOutcome] = []
    used: set[str] = set()  # clusters that already played a role this cycle

    for high_id in evaluation.overutilized:
        if not evaluation.underutilized:
            outcomes.append(RebalanceOutcome(kind=OutcomeKind.NO_ACTION, high_cluster=high_id))
            continue
        recipient = clusters[high_id]
        attempts: list[tuple[str, str]] = []

        for low_id in evaluation.underutilized:
            if low_id in used:
                continue
            donor = clusters[low_id]
            actives = donor.active_nodes()
            # actives is in ascending id order and min keeps the first of equal
            # keys, so a tie in load goes to the lowest node id.
            quantum = donor.quantum
            victim = min(actives, key=lambda node: node_load(node, quantum))
            # Any exit may recall a borrowed node, so the donor must keep a
            # node of its own besides the victim.
            if not any(n.origin_cluster == low_id and n is not victim for n in actives):
                attempts.append((low_id, AttemptReason.MIN_ACTIVE_NODES.value))
                continue

            drain = drain_node(donor, victim.id, recorder=recorder)  # detaches the victim
            if drain.restored:
                attempts.append((low_id, AttemptReason.DRAIN_INFEASIBLE.value))
                continue

            try:
                donor_after = cluster_utilization(donor).u
            except Exception:
                # Never leave a node in no cluster on an error path.
                provision_node(donor, victim, recorder=recorder)
                raise

            if donor_after > t_high:
                provision_node(donor, victim, recorder=recorder)
                recorder.emit(
                    EventKind.MOVE_REVERSED,
                    group=group.id,
                    cluster=low_id,
                    node=victim.id,
                    reason=AttemptReason.WOULD_EXCEED_T_HIGH.value,
                    utilization_after=donor_after,
                    intended_recipient=high_id,
                )
                attempts.append((low_id, AttemptReason.WOULD_EXCEED_T_HIGH.value))
                outcomes.append(
                    RebalanceOutcome(
                        kind=OutcomeKind.REVERSED,
                        high_cluster=high_id,
                        low_cluster=low_id,
                        node=victim.id,
                    )
                )
                continue

            try:
                provision_node(recipient, victim, recorder=recorder)
            except Exception:
                provision_node(donor, victim, recorder=recorder)
                raise
            recorder.emit(
                EventKind.MOVE_COMPLETED,
                group=group.id,
                cluster=high_id,
                node=victim.id,
                from_cluster=low_id,
                donor_utilization_after=donor_after,
            )
            outcomes.append(
                RebalanceOutcome(
                    kind=OutcomeKind.MOVED,
                    high_cluster=high_id,
                    low_cluster=low_id,
                    node=victim.id,
                    attempts=tuple(attempts),
                )
            )
            used.add(high_id)
            used.add(low_id)
            break
        else:
            recorder.emit(
                EventKind.NO_CANDIDATE,
                group=group.id,
                cluster=high_id,
                attempts=[list(attempt) for attempt in attempts],
            )
            outcomes.append(
                RebalanceOutcome(
                    kind=OutcomeKind.NO_CANDIDATE,
                    high_cluster=high_id,
                    attempts=tuple(attempts),
                )
            )
    return outcomes
