"""The balancing cycle: move nodes from quiet clusters to overloaded ones.

One cycle walks the overutilized clusters in descending urgency, and they
share one pass over the underutilized donors in ascending utilization
order: each donor is consulted at most once per cycle, by the first
recipient that reaches it, since every reason to refuse depends on the
donor alone. A consulted donor drains its least-loaded node, which detaches
it, and is re-measured. If giving up the node pushed the donor over t_high
the move is reversed (the node goes straight back); otherwise the node is
provisioned into the recipient. At most one node moves into each
overloaded cluster per cycle, and a cluster plays at most one role (donor
or recipient) per cycle.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .model import Cluster, Group, cluster_utilization, node_load
from .reporting import NULL_RECORDER, EventKind
from .rules import evaluate_group
from .scheduler import drain_node, provision_node


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

    attempts lists (donor id, reason) for each donor this recipient consulted
    and that refused, in order. A donor is consulted once per cycle, so a
    recipient that finds the donors used up gets NoCandidate with none.
    """

    kind: OutcomeKind
    high_cluster: str | None = None
    low_cluster: str | None = None
    node: str | None = None
    attempts: tuple[tuple[str, str], ...] = ()


def rebalance_cycle(
    group: Group,
    clusters: dict[str, Cluster],
    *,
    recorder=NULL_RECORDER,
) -> list[RebalanceOutcome]:
    """Run one balancing cycle over the group; returns one outcome per
    overutilized cluster (reversals appear as extra outcomes as they happen).

    The events log every move, reversal and refusal; the outcomes are read
    only by library callers and perfbench/tracing.py, which counts them.

    Candidate classification is a single snapshot taken at cycle start. The
    drain/provision mechanics re-measure the live state, but no
    cluster is reclassified mid-cycle, which keeps the cycle deterministic
    and guarantees termination.
    """
    evaluation = evaluate_group(group, clusters)
    if not evaluation.underutilized:
        return [
            RebalanceOutcome(kind=OutcomeKind.NO_ACTION, high_cluster=high_id)
            for high_id in evaluation.overutilized
        ]
    t_high = group.thresholds.t_high
    outcomes: list[RebalanceOutcome] = []
    donors = iter(evaluation.underutilized)  # one pass, shared by every recipient

    for high_id in evaluation.overutilized:
        recipient = clusters[high_id]
        attempts: list[tuple[str, str]] = []

        for low_id in donors:
            donor = clusters[low_id]
            actives = donor.active_nodes()
            # actives is in ascending id order and min keeps the first of equal
            # keys, so a tie in load goes to the lowest node id.
            quantum = donor.quantum
            victim = min(actives, key=lambda node: node_load(node, quantum))
            # Any exit may recall a borrowed node, so the donor must keep a
            # node of its own besides the victim; that node also leaves the
            # donor a node to be measured after the drain.
            if not any(n.origin_cluster == low_id and n is not victim for n in actives):
                reason = AttemptReason.MIN_ACTIVE_NODES
            elif drain_node(donor, victim.id, recorder=recorder).restored:
                reason = AttemptReason.DRAIN_INFEASIBLE
            elif (donor_after := cluster_utilization(donor).u) > t_high:
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
                outcomes.append(
                    RebalanceOutcome(
                        kind=OutcomeKind.REVERSED,
                        high_cluster=high_id,
                        low_cluster=low_id,
                        node=victim.id,
                    )
                )
                reason = AttemptReason.WOULD_EXCEED_T_HIGH
            else:
                try:
                    provision_node(recipient, victim, recorder=recorder)
                except Exception:
                    # Never leave a node in no cluster on an error path.
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
                break
            attempts.append((low_id, reason.value))
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
