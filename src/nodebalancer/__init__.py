"""Deterministic simulator and library for threshold-driven node
rebalancing across groups of container clusters.

Clusters pool their nodes in a balancing group. When a cluster's demand
rises above its high threshold it asks the group for capacity; members
sitting below the low threshold give up their least-loaded node: draining
it detaches it, and it is provisioned into the overloaded cluster. Every
node remembers its origin, so a cluster can leave its group at any time and
get its exact original configuration back.
"""

from . import errors
from .balancer import AttemptReason, OutcomeKind, RebalanceOutcome, rebalance_cycle
from .engine import (
    ClusterSpec,
    ComparisonReport,
    GroupSpec,
    RunArtifacts,
    Scenario,
    build_world,
    compare,
    load_scenario,
    parse_scenario,
    run,
)
from .groups import GroupManager, MembershipAction, MembershipChange, RestorationReport
from .model import (
    DEFAULT_POD_QUANTUM,
    Cluster,
    Group,
    Node,
    ResourceVector,
    Thresholds,
    Utilization,
    build_cluster,
    cluster_utilization,
    node_utilization,
)
from .reporting import (
    EventKind,
    EventRecorder,
    RebalanceEvent,
    TickRecord,
    compose_comparison,
    iter_events,
    iter_metrics,
    read_events,
    read_metrics,
    read_summary,
    summarize,
    verify_event_log,
    write_events,
    write_metrics,
    write_summary,
)
from .rules import Evaluation, evaluate_group
from .scheduler import DrainOutcome, drain_node, place_pending, provision_node
from .workload import (
    ConstantTrace,
    SineTrace,
    SpikeTrace,
    StepTrace,
    TraceSpec,
    WorkloadDelta,
    apply_workload,
    target_demand,
)

__version__ = "0.1.0"

__all__ = [
    "AttemptReason",
    "Cluster",
    "ClusterSpec",
    "ComparisonReport",
    "ConstantTrace",
    "DEFAULT_POD_QUANTUM",
    "DrainOutcome",
    "Evaluation",
    "EventKind",
    "EventRecorder",
    "Group",
    "GroupManager",
    "GroupSpec",
    "MembershipAction",
    "MembershipChange",
    "Node",
    "OutcomeKind",
    "RebalanceEvent",
    "RebalanceOutcome",
    "ResourceVector",
    "RestorationReport",
    "RunArtifacts",
    "Scenario",
    "SineTrace",
    "SpikeTrace",
    "StepTrace",
    "Thresholds",
    "TickRecord",
    "TraceSpec",
    "Utilization",
    "WorkloadDelta",
    "apply_workload",
    "build_cluster",
    "build_world",
    "cluster_utilization",
    "compare",
    "compose_comparison",
    "drain_node",
    "errors",
    "evaluate_group",
    "iter_events",
    "iter_metrics",
    "load_scenario",
    "node_utilization",
    "parse_scenario",
    "place_pending",
    "provision_node",
    "read_events",
    "read_metrics",
    "read_summary",
    "rebalance_cycle",
    "run",
    "summarize",
    "target_demand",
    "verify_event_log",
    "write_events",
    "write_metrics",
    "write_summary",
]
