"""Exception types shared across the package."""

from __future__ import annotations


class BalancingError(Exception):
    """Base class for every error raised by this package."""


class ZeroCapacity(BalancingError):
    """A cluster hosts no node, so utilization is undefined."""


class NodeNotInCluster(BalancingError):
    """The node is not hosted by the given cluster."""


class LastNodeGuard(BalancingError):
    """A non-forced drain of the cluster's last node."""


class DuplicateNode(BalancingError):
    """The target cluster already hosts a node with this id."""


class InvalidThresholds(BalancingError):
    """Threshold pair violates 0 < t_low < t_high <= 1."""


class DuplicateGroup(BalancingError):
    """A group with this id already exists."""


class AlreadyGrouped(BalancingError):
    """A cluster may belong to at most one group at a time."""

    def __init__(self, cluster_id: str, group_id: str):
        super().__init__(f"cluster {cluster_id!r} already belongs to group {group_id!r}")
        self.cluster_id = cluster_id
        self.group_id = group_id


class UnknownCluster(BalancingError):
    """No cluster registered under this id."""


class UnknownGroup(BalancingError):
    """No group registered under this id."""


class NotAMember(BalancingError):
    """The cluster is not a member of the given group."""


class ScenarioInvalid(BalancingError):
    """A scenario document failed validation; the message names the field."""


class IoFailure(BalancingError):
    """Reading or writing a run artifact failed."""


class InvariantViolation(BalancingError):
    """A structural invariant of the world state was broken."""


class SimulationAborted(BalancingError):
    """A run stopped mid-tick; last_consistent_tick is the last completed one.
    The message ends with the cause's text, or its type if it has none."""

    def __init__(self, tick: int, cause: BaseException):
        reason = str(cause) or type(cause).__name__
        super().__init__(f"aborted during tick {tick} (last consistent tick: {tick - 1}): {reason}")
        self.tick = tick
        self.last_consistent_tick = tick - 1
