"""Workload traces: deterministic demand curves applied as pod churn.

A trace gives a raw cpu demand level per tick. Demand is realized as
pods of the cluster's one quantum, so the actual total is the raw level
rounded to the nearest whole quantum (half rounds up). apply_workload
adjusts a cluster's pod set toward that target and always leaves
|actual - target| < quantum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Union

from .model import Cluster, PodIds, ResourceVector


@dataclass(frozen=True)
class ConstantTrace:
    kind: ClassVar[str] = "Constant"
    level: int

    def level_at(self, tick: int) -> float:
        return float(self.level)


@dataclass(frozen=True)
class StepTrace:
    """Piecewise-constant demand; steps are (start tick, level), first at 0."""

    kind: ClassVar[str] = "Step"
    steps: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.steps or self.steps[0][0] != 0:
            raise ValueError("steps must be non-empty and start at tick 0")
        starts = [start for start, _ in self.steps]
        if starts != sorted(set(starts)):
            raise ValueError("step start ticks must be strictly ascending")

    def level_at(self, tick: int) -> float:
        level = self.steps[0][1]
        for start, value in self.steps:
            if start > tick:
                break
            level = value
        return float(level)


@dataclass(frozen=True)
class SineTrace:
    """base + amplitude * sin(2*pi*(tick + phase) / period), clamped at 0."""

    kind: ClassVar[str] = "Sine"
    base: int
    amplitude: int
    period: int
    phase: int = 0

    def __post_init__(self):
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")

    def level_at(self, tick: int) -> float:
        return self.base + self.amplitude * math.sin(
            2.0 * math.pi * (tick + self.phase) / self.period
        )


@dataclass(frozen=True)
class SpikeTrace:
    """Flat base with a rectangular burst on [start, start + duration)."""

    kind: ClassVar[str] = "Spike"
    base: int
    peak: int
    start: int
    duration: int

    def level_at(self, tick: int) -> float:
        if self.start <= tick < self.start + self.duration:
            return float(self.peak)
        return float(self.base)


TraceSpec = Union[ConstantTrace, StepTrace, SineTrace, SpikeTrace]


class WorkloadDelta(NamedTuple):
    """Pod churn performed by one apply_workload call; an immutable tuple."""

    created: PodIds
    deleted: PodIds


def _target_pods(trace: TraceSpec, tick: int, quantum: ResourceVector) -> int:
    """The trace's level at a tick, clamped at zero, in whole pods of quantum.

    target_demand and apply_workload both round through here, so the pods
    apply_workload aims at demand exactly target_demand.
    """
    if tick < 0:
        raise ValueError(f"tick must be >= 0, got {tick}")
    raw = max(0.0, trace.level_at(tick))
    return math.floor(raw / quantum.cpu + 0.5)  # nearest, half rounds up


def target_demand(trace: TraceSpec, tick: int, quantum: ResourceVector) -> ResourceVector:
    """The trace's level at a tick, clamped at zero and quantized to pods of quantum."""
    pods = _target_pods(trace, tick, quantum)
    return ResourceVector(pods * quantum.cpu, pods * quantum.memory)


def apply_workload(cluster: Cluster, trace: TraceSpec, tick: int) -> WorkloadDelta:
    """Adjust the cluster's pods toward the trace's target for this tick.

    Pods above the target are deleted newest-first (most recently added);
    pods below it are topped up with new Pending pods, and placement is the
    scheduler's job. The trace's level is rounded to pods of the cluster's
    quantum. New pod ids are unique per cluster and tick, so a second top-up
    at the same tick raises ValueError.
    """
    return WorkloadDelta(*cluster.resize(_target_pods(trace, tick, cluster.quantum), tick))
